"""Conjugacy relative to a function class, and inf-convolution duality.

The conjugate f^x(phi) = sup_x {phi(x) - f(x)} is an exact scan over the
domain.  On a finite metric space every function is Lipschitz, so the
Lipschitz cone and the full class define the same feasible sets; both
have bump functions at every point (property (H)), which gives the closed
forms f^xx = f and minorant envelope = f.  Suprema over a finite cone are
LPs in the generator coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import INF, ExtFun, check_same_space
from .cones import FINITE_CONE, FULL, FunctionClass, contains, full_class
from .lp import LE, Infeasible, Optimal, Unbounded, make_lp, solve


@dataclass(frozen=True)
class ConjugateValue:
    value: Fraction
    maximizer: str      # point id attaining the sup; ties -> lowest index


def conjugate(f: ExtFun, phi: ExtFun) -> ConjugateValue:
    """f^x(phi) = max over dom(f) of phi(x) - f(x), exact."""
    check_same_space(f.space, phi.space, "function and argument")
    if not phi.is_finite_everywhere():
        raise ValueError("conjugate requires a finite-valued argument")
    best = None
    where = -1
    for i in f.dom():
        v = phi.values[i] - f.values[i]
        if best is None or v > best:
            best = v
            where = i
    return ConjugateValue(best, f.space.point_ids[where])


def _finite_cone_minorant(f: ExtFun, Y: FunctionClass):
    """A nonnegative combination of generators lying below f, or None."""
    gens = Y.generators
    k = len(gens)
    constraints = [
        (tuple(g.values[y] for g in gens), LE, f.values[y]) for y in f.dom()
    ]
    res = solve(make_lp([0] * k, constraints, maximize=False, nonneg=[True] * k))
    return res.point if isinstance(res, Optimal) else None


def biconjugate(f: ExtFun, Y: FunctionClass) -> ExtFun:
    """f^xx(x) = sup over phi in Y of phi(x) - f^x(phi): f itself under
    property (H) (the full class, the Lipschitz cone), else one LP per point."""
    Y.check_space(f.space)
    if Y.kind != FINITE_CONE:
        return f
    if _finite_cone_minorant(f, Y) is None:
        raise ValueError("the cone contains no minorant of f")
    gens = Y.generators
    k = len(gens)
    # variables: generator weights lam >= 0, then s modelling f^x(phi)
    base = [
        (tuple(g.values[y] for g in gens) + (-1,), LE, f.values[y])
        for y in f.dom()
    ]
    nonneg = [True] * k + [False]
    out = []
    for x in range(f.space.n):
        objective = tuple(g.values[x] for g in gens) + (-1,)
        res = solve(make_lp(objective, base, maximize=True, nonneg=nonneg))
        out.append(INF if isinstance(res, Unbounded) else res.value)
    return ExtFun(f.space, tuple(out))


@dataclass(frozen=True)
class BiconjugationReport:
    biconj: ExtFun
    equal: bool
    gaps: tuple       # ((point id, f value, f^xx value), ...)


def check_biconjugation(f: ExtFun, Y: FunctionClass) -> BiconjugationReport:
    """Compare f^xx with f pointwise; gaps are where f^xx < f."""
    fxx = biconjugate(f, Y)
    gaps = []
    for i in range(f.space.n):
        if fxx.values[i] != f.values[i]:
            gaps.append((f.space.point_ids[i], f.values[i], fxx.values[i]))
    return BiconjugationReport(fxx, not gaps, tuple(gaps))


def minorant_envelope(f: ExtFun, Y: FunctionClass) -> ExtFun:
    """sup of phi(x) over phi in Y with phi <= f on dom(f), per point: f
    under property (H) (+inf off dom(f)), else one LP per point."""
    Y.check_space(f.space)
    if Y.kind != FINITE_CONE:
        return f
    gens = Y.generators
    k = len(gens)
    constraints = [
        (tuple(g.values[y] for g in gens), LE, f.values[y]) for y in f.dom()
    ]
    nonneg = [True] * k
    out = []
    for x in range(f.space.n):
        objective = tuple(g.values[x] for g in gens)
        res = solve(make_lp(objective, constraints, maximize=True, nonneg=nonneg))
        if isinstance(res, Infeasible):
            raise ValueError("the cone contains no minorant of f")
        out.append(INF if isinstance(res, Unbounded) else res.value)
    return ExtFun(f.space, tuple(out))


def insert_between(u: ExtFun, v: ExtFun, Y: FunctionClass) -> ExtFun:
    """A function psi in Y with u <= psi <= v pointwise.

    For the Lipschitz cone this is the classical construction: take the
    smallest constant L making u reachable below v across every pair,
    then the min-plus envelope psi(x) = min_y {v(y) + L d(x,y)}.
    """
    if not u.is_finite_everywhere():
        raise ValueError("lower function must be finite everywhere")
    if not u.leq(v):
        raise ValueError("insertion requires u <= v pointwise")
    if Y.kind == FULL:
        return u
    if Y.kind == FINITE_CONE:
        raise ValueError("insertion is not supported for finitely generated cones")
    Y.check_space(u.space)
    space = u.space
    domv = v.dom()
    if not domv:  # unreachable: ExtFun guarantees a finite value
        return u
    L = Fraction(0)
    for x in range(space.n):
        for y in domv:
            if y == x:
                continue
            r = (u.values[x] - v.values[y]) / space.dist(x, y)
            if r > L:
                L = r
    vals = tuple(
        min(v.values[y] + L * space.dist(x, y) for y in domv)
        for x in range(space.n)
    )
    return ExtFun(space, vals)


def sum_decompose(phi: ExtFun, f: ExtFun, g: ExtFun, Y: FunctionClass):
    """Split phi <= f + g into psi1 + psi2 with psi1 <= f and psi2 <= g."""
    if not (f.is_finite_everywhere() and g.is_finite_everywhere()):
        raise ValueError("decomposition requires finite-valued f and g")
    if not contains(Y, phi).member:
        raise ValueError("phi is not a member of the class")
    if not phi.leq(f + g):
        raise ValueError("decomposition requires phi <= f + g")
    psi1 = insert_between(phi - g, f, Y)
    psi2 = phi - psi1
    return psi1, psi2


@dataclass(frozen=True)
class MinimaxReport:
    lhs: Fraction      # f^x(xi) by direct scan
    rhs: Fraction      # inf over minorants phi <= f of phi^x(xi), by LP
    ok: bool
    minorant: ExtFun   # the optimal phi


def minimax_identity_check(f: ExtFun, Y: FunctionClass, xi: ExtFun) -> MinimaxReport:
    """f^x(xi) against the minorant formulation inf_{phi<=f} phi^x(xi)."""
    if Y.kind != FULL:
        raise ValueError("the minimax identity is stated for the full class")
    if not xi.is_finite_everywhere():
        raise ValueError("xi must be finite everywhere")
    n = f.space.n
    # variables: phi(point) for each point, then t >= phi^x(xi)
    constraints = []
    for y in range(n):
        row = [0] * (n + 1)
        row[y] = -1
        row[n] = -1
        constraints.append((tuple(row), LE, -xi.values[y]))   # t >= xi(y) - phi(y)
    for y in f.dom():
        row = [0] * (n + 1)
        row[y] = 1
        constraints.append((tuple(row), LE, f.values[y]))     # phi <= f on dom(f)
    objective = [0] * (n + 1)
    objective[n] = 1
    res = solve(make_lp(tuple(objective), constraints, maximize=False))
    assert isinstance(res, Optimal)
    lhs = conjugate(f, xi).value
    minorant = ExtFun(f.space, res.point[:n])
    return MinimaxReport(lhs, res.value, lhs == res.value, minorant)


@dataclass(frozen=True)
class InfConvValue:
    value: Fraction
    witness: ExtFun    # the splitting function xi attaining the inf


def infconv_eval(f: ExtFun, g: ExtFun, theta: ExtFun, Y: FunctionClass) -> InfConvValue:
    """(f^x <> g^x)(theta) = inf over xi of f^x(xi) + g^x(theta - xi), by LP."""
    if Y.kind != FULL:
        raise ValueError("inf-convolution is offered for the full class only")
    for h, name in ((f, "f"), (g, "g"), (theta, "theta")):
        if not h.is_finite_everywhere():
            raise ValueError(f"{name} must be finite everywhere")
    n = f.space.n
    # variables: xi(point) per point, then s >= f^x(xi), t >= g^x(theta - xi)
    constraints = []
    for x in range(n):
        row = [0] * (n + 2)
        row[x] = 1
        row[n] = -1
        constraints.append((tuple(row), LE, f.values[x]))
        row2 = [0] * (n + 2)
        row2[x] = -1
        row2[n + 1] = -1
        constraints.append((tuple(row2), LE, g.values[x] - theta.values[x]))
    objective = [0] * n + [1, 1]
    res = solve(make_lp(tuple(objective), constraints, maximize=False))
    assert isinstance(res, Optimal)
    return InfConvValue(res.value, ExtFun(f.space, res.point[:n]))


@dataclass(frozen=True)
class InfConvReport:
    infconv: Fraction
    direct: Fraction   # (f+g)^x(theta) by scan
    ok: bool
    witness: ExtFun


def check_infconv_theorem(f: ExtFun, g: ExtFun, theta: ExtFun) -> InfConvReport:
    """(f+g)^x = f^x <> g^x at theta, both sides exact."""
    iv = infconv_eval(f, g, theta, full_class())
    direct = conjugate(f + g, theta).value
    return InfConvReport(iv.value, direct, iv.value == direct, iv.witness)
