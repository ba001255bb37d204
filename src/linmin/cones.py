"""Function classes: the full class, the Lipschitz cone, and finite cones.

A FunctionClass is the cone of admissible real-valued functions used by
conjugacy.  Membership and bump-function ("property (H)") checks are
constructive: the full class uses indicators, the Lipschitz cone uses hat
functions built from the metric, and finitely generated cones reduce to
LP feasibility in the generator coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .core import ExtFun, Space, check_same_space, constant, indicator
from .lp import EQ, GE, LE, Infeasible, Optimal, make_lp, solve

FULL = "full"
LIPSCHITZ = "lipschitz"
FINITE_CONE = "finite_cone"


@dataclass(frozen=True)
class FunctionClass:
    kind: str
    generators: tuple = ()
    affine_closed: bool = True

    def __post_init__(self):
        if self.kind not in (FULL, LIPSCHITZ, FINITE_CONE):
            raise ValueError(f"unknown class kind: {self.kind!r}")
        if self.kind != FINITE_CONE and self.generators:
            raise ValueError("generators only make sense for a finite cone")
        for g in self.generators:
            if not g.is_finite_everywhere():
                raise ValueError("generators must be finite-valued")
            check_same_space(self.generators[0].space, g.space, "generators")

    def check_space(self, space: Space) -> None:
        """A finite cone lives on its generators' space, which arguments must
        share; the Lipschitz cone needs a metric on the space."""
        if self.generators:
            check_same_space(self.generators[0].space, space, "cone and argument")
        if self.kind == LIPSCHITZ and space.metric is None:
            raise ValueError("Lipschitz cone requires a metric on the space")


def full_class() -> FunctionClass:
    return FunctionClass(FULL)


def lipschitz_cone() -> FunctionClass:
    return FunctionClass(LIPSCHITZ)


def finite_cone(generators, affine_closed: bool = True) -> FunctionClass:
    """A cone generated by finitely many functions under nonnegative combos.

    With affine_closed the constants +1 and -1 are adjoined, making the
    cone closed under adding arbitrary constants (which the minorant
    representation of a function needs).
    """
    gens = list(generators)
    if not gens:
        raise ValueError("a finite cone needs at least one generator")
    space = gens[0].space
    if affine_closed:
        for c in (1, -1):
            cf = constant(space, c)
            if cf not in gens:
                gens.append(cf)
    return FunctionClass(FINITE_CONE, tuple(gens), affine_closed)


@dataclass(frozen=True)
class Membership:
    member: bool
    certificate: object = None  # best Lipschitz constant, or generator weights


def best_lipschitz_constant(space: Space, phi: ExtFun) -> Fraction:
    """The least L with |phi(x) - phi(y)| <= L d(x, y) on the space: the max
    over pairs of |phi(x) - phi(y)| / d(x, y), and 0 on one point.

    phi must be finite-valued and live on the space, which needs a metric.
    phi's values are scaled to ints a_i by one lcm D and the metric is read
    as ints m_ij over its denominator den (Space.int_metric), so the pairs'
    ratios |a_i - a_j| / m_ij are compared by int cross-multiplication and
    one Fraction is made for the max p / q: p * den / (q * D).
    """
    check_same_space(space, phi.space, "space and function")
    m, den = space.int_metric()
    if not phi.is_finite_everywhere():
        raise ValueError("a Lipschitz constant needs a finite-valued function")
    ratios = [v.as_integer_ratio() for v in phi.values]
    D = lcm(*[b for _, b in ratios])
    a = [c * (D // b) for c, b in ratios]
    p, q = 0, 1
    for i, ai in enumerate(a):
        mi = m[i]
        for j in range(i + 1, len(a)):
            num = abs(ai - a[j])
            if num * q > p * mi[j]:
                p, q = num, mi[j]
    return Fraction(p * den, q * D)


def contains(Y: FunctionClass, phi: ExtFun) -> Membership:
    """Decide phi in Y, with a certificate.

    Full: always a member.  Lipschitz cone: every function on a finite
    metric space is Lipschitz; the certificate is its best constant.
    Finite cone: LP feasibility for nonnegative generator weights.
    """
    Y.check_space(phi.space)
    if not phi.is_finite_everywhere():
        raise ValueError("membership is only defined for finite-valued functions")
    if Y.kind == FULL:
        return Membership(True)
    if Y.kind == LIPSCHITZ:
        return Membership(True, best_lipschitz_constant(phi.space, phi))
    gens = Y.generators
    k = len(gens)
    constraints = [
        (tuple(g.values[x] for g in gens), EQ, phi.values[x])
        for x in range(phi.space.n)
    ]
    res = solve(make_lp([0] * k, constraints, maximize=False, nonneg=[True] * k))
    if isinstance(res, Infeasible):
        return Membership(False)
    assert isinstance(res, Optimal)
    return Membership(True, res.point)


def check_property_H(Y: FunctionClass, space: Space, x, U):
    """Look for a [0,1]-valued bump in Y equal to 1 at x and 0 off U.

    Returns the witness ExtFun, or None when the class has no such bump.
    The full class gives the indicator of x.  The Lipschitz cone gives the
    hat max(0, 1 - d(x, .) / r), r the distance from x to the nearest point
    off U (the constant 1 when U is the whole space), computed on the
    space's int metric with one Fraction per value.  A finite cone solves
    an LP for the generator weights.
    """
    Y.check_space(space)
    xi = space.index(x)
    U_idx = sorted({space.index(u) for u in U})
    if xi not in U_idx:
        raise ValueError(f"point {x!r} is not in the given neighborhood")
    outside = [i for i in range(space.n) if i not in U_idx]

    if Y.kind == FULL:
        return indicator(space, x)

    if Y.kind == LIPSCHITZ:
        if not outside:
            return constant(space, 1)
        # den cancels from d / r, so row xi's ints give the hat
        row = space.int_metric()[0][xi]
        r = min(row[i] for i in outside)
        zero = Fraction(0)
        return ExtFun(space, tuple(Fraction(r - d, r) if d < r else zero for d in row))

    gens = Y.generators
    k = len(gens)
    cols = [tuple(g.values[i] for g in gens) for i in range(space.n)]
    constraints = [(cols[xi], EQ, 1)]
    for i in outside:
        constraints.append((cols[i], EQ, 0))
    for i in U_idx:
        constraints.append((cols[i], GE, 0))
        constraints.append((cols[i], LE, 1))
    res = solve(make_lp([0] * k, constraints, maximize=False, nonneg=[True] * k))
    if isinstance(res, Infeasible):
        return None
    assert isinstance(res, Optimal)
    lam = res.point
    vals = tuple(
        sum((lam[j] * gens[j].values[i] for j in range(k)), Fraction(0))
        for i in range(space.n)
    )
    return ExtFun(space, vals)


@dataclass(frozen=True)
class PropertyHReport:
    ok: bool
    witnesses: tuple   # ((x, U, ExtFun), ...)
    failures: tuple    # ((x, U), ...)


def singleton_basis(space: Space):
    # minimal neighborhoods of a discrete space; a bump for {x} works for
    # every superset, so this basis decides the property
    return [(p, (p,)) for p in space.point_ids]


def check_property_H_all(Y: FunctionClass, space: Space, basis=None) -> PropertyHReport:
    if basis is None:
        pairs = singleton_basis(space)
    else:
        pairs = []
        for U in basis:
            for x in U:
                pairs.append((x, tuple(U)))
        covered = {x for x, U in pairs if len(U) == 1}
        missing = [p for p in space.point_ids if p not in covered]
        if missing:
            raise ValueError(f"basis must include the singletons of {missing}")
    witnesses = []
    failures = []
    for x, U in pairs:
        sigma = check_property_H(Y, space, x, U)
        if sigma is None:
            failures.append((x, U))
        else:
            witnesses.append((x, U, sigma))
    return PropertyHReport(not failures, tuple(witnesses), tuple(failures))


@dataclass(frozen=True)
class SeparationReport:
    ok: bool
    witnesses: tuple   # ((x, y, ExtFun), ...)
    failures: tuple    # ((x, y), ...)


def separates_points(space: Space, Y: FunctionClass) -> SeparationReport:
    """For each pair of distinct points, a function in Y telling them apart."""
    Y.check_space(space)
    witnesses = []
    failures = []
    for i in range(space.n - 1):
        x = space.point_ids[i]
        # one witness for every pair (x, y): the indicator of x, or d(x, .)
        if Y.kind == FULL:
            phi = indicator(space, x)
        elif Y.kind == LIPSCHITZ:
            phi = ExtFun(space, space.metric[i])
        else:
            phi = None
        for j in range(i + 1, space.n):
            y = space.point_ids[j]
            if phi is not None:
                witnesses.append((x, y, phi))
                continue
            g = next((g for g in Y.generators if g.values[i] != g.values[j]), None)
            if g is None:
                failures.append((x, y))
            else:
                witnesses.append((x, y, g))
    return SeparationReport(not failures, tuple(witnesses), tuple(failures))
