"""The measure-side transform, delta sets, and the simplex lift of minimization.

A bounded-below function f on a finite space lifts to a convex function on
the probability simplex over the points (the Dirac masses are the
vertices).  The lift extends f, is linear in the measure for real-valued
functions, preserves infima and argmins, and is +inf outside the simplex
with an explicit unbounded-ray certificate.  Over the full class or the
Lipschitz cone, and for delta sets, these are closed forms; a finite cone
takes an LP.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    INF,
    ExtFun,
    Measure,
    Space,
    check_same_space,
    constant,
    dirac,
    in_simplex,
    is_finite,
    pairing,
    rat,
)
from .cones import FINITE_CONE, FunctionClass, full_class
from .lp import EQ, LE, Optimal, Unbounded, make_lp, solve


@dataclass(frozen=True)
class DeltaSet:
    """A set of functions cut out by pointwise upper bounds phi(x) <= lambda_x."""

    space: Space
    bounds: tuple

    def __post_init__(self):
        b = tuple(rat(v) for v in self.bounds)
        if len(b) != self.space.n:
            raise ValueError("one bound per point required")
        object.__setattr__(self, "bounds", b)


@dataclass(frozen=True)
class TransformValue:
    value: object            # Fraction, or INF
    ray: tuple | None = None  # certificate when the defining LP is unbounded

    @property
    def finite(self) -> bool:
        return is_finite(self.value)


def _linear_sup(Q: Measure, vals: tuple, shift: bool) -> TransformValue:
    """sup of <Q, phi> - s over phi - s <= vals (or of <Q, phi> over
    phi <= vals without shift); a +inf value bounds nothing.  A +inf sup
    carries a ray in (phi; s), or phi alone: (-e_x; 0) at the first x with
    Q(x) < 0, else (e_x; 0) at the first x with Q(x) > 0 and vals(x) +inf,
    else (1,...,1; 1) when the mass of Q is above 1, (-1,...,-1; -1) below.
    """
    w = Q.weights
    ray = [Fraction(0)] * (len(w) + shift)
    neg = next((i for i, q in enumerate(w) if q < 0), None)
    off = next((i for i, q in enumerate(w) if q > 0 and not is_finite(vals[i])), None)
    if neg is not None:
        ray[neg] = Fraction(-1)
    elif off is not None:
        ray[off] = Fraction(1)
    elif shift and Q.total() != 1:
        ray = [Fraction(1 if Q.total() > 1 else -1)] * len(ray)
    else:
        return TransformValue(sum((q * v for q, v in zip(w, vals) if q), Fraction(0)))
    return TransformValue(INF, tuple(ray))


def fenchel_transform(f: ExtFun, Y: FunctionClass, Q: Measure) -> TransformValue:
    """F(f)(Q) = sup over phi in Y of <Q, phi> - f^x(phi).

    Under property (H) (the full class and the Lipschitz cone) this is
    <Q, f> for Q in the simplex supported on dom(f), else +inf; a finite
    cone takes one LP in the generator weights.  The ray certifying +inf
    is a direction in the variables (phi, s), or (weights, s) for a
    finite cone, along which the objective grows without bound.
    """
    check_same_space(Q.space, f.space, "measure and function")
    Y.check_space(f.space)
    if Y.kind != FINITE_CONE:
        return _linear_sup(Q, f.values, shift=True)
    gens = Y.generators
    k = len(gens)
    # variables: generator weights lam >= 0, then s >= phi - f pointwise
    constraints = [
        (tuple(g.values[y] for g in gens) + (-1,), LE, f.values[y])
        for y in f.dom()
    ]
    objective = tuple(pairing(Q, g) for g in gens) + (Fraction(-1),)
    nonneg = [True] * k + [False]
    res = solve(make_lp(objective, constraints, maximize=True, nonneg=nonneg))
    if isinstance(res, Unbounded):
        return TransformValue(INF, res.ray)
    assert isinstance(res, Optimal)
    return TransformValue(res.value)


class TransformedFunction:
    """The lift T(f): evaluable at simplex measures."""

    def __init__(self, source: ExtFun, fclass: FunctionClass):
        if not source.is_finite_everywhere():
            raise ValueError("the lift is defined for finite-valued functions")
        self.source = source
        self.fclass = fclass

    def __call__(self, Q: Measure) -> Fraction:
        if not in_simplex(Q):
            raise ValueError("evaluation outside the probability simplex")
        return fenchel_transform(self.source, self.fclass, Q).value


def transform_T(f: ExtFun, Y: FunctionClass | None = None) -> TransformedFunction:
    return TransformedFunction(f, Y if Y is not None else full_class())


def delta_set_to_function(A: DeltaSet) -> ExtFun:
    """The pointwise supremum of the set: on a finite discrete space the
    bound function itself is admissible, so the sup is the bounds."""
    return ExtFun(A.space, A.bounds)


def function_to_delta_set(f: ExtFun) -> DeltaSet:
    if not f.is_finite_everywhere():
        raise ValueError("delta sets represent finite-valued functions only")
    return DeltaSet(f.space, f.values)


def support_function(A: DeltaSet, Q: Measure) -> TransformValue:
    """sup of <Q, phi> over phi with phi(x) <= bound(x): <Q, bounds> when
    Q >= 0, else +inf with the ray -e_x at the first x where Q(x) < 0."""
    check_same_space(Q.space, A.space, "measure and delta set")
    return _linear_sup(Q, A.bounds, shift=False)


@dataclass(frozen=True)
class CheckItem:
    label: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class CheckReport:
    title: str
    items: tuple
    seed: int | None = None

    @property
    def ok(self) -> bool:
        return all(i.ok for i in self.items)


def sample_simplex_measures(space: Space, count: int, seed: int):
    """Deterministic rational convex combinations of the Dirac vertices."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        raw = [Fraction(rng.randint(0, 12)) for _ in range(space.n)]
        if not any(raw):
            raw[rng.randrange(space.n)] = Fraction(1)
        total = sum(raw)
        out.append(Measure(space, tuple(w / total for w in raw)))
    return out


def _fmt(v) -> str:
    return "+inf" if not is_finite(v) else str(v)


def check_constant_transform(space: Space, c, sample, Y=None) -> CheckReport:
    """F(c) is c on the simplex and +inf outside it."""
    Y = Y if Y is not None else full_class()
    cf = constant(space, rat(c))
    items = []
    for Q in sample:
        tv = fenchel_transform(cf, Y, Q)
        if in_simplex(Q):
            ok = tv.value == rat(c)
            expected = str(rat(c))
        else:
            ok = not tv.finite and tv.ray is not None
            expected = "+inf"
        items.append(
            CheckItem(
                f"F({c})(Q={tuple(map(str, Q.weights))}) = {expected}",
                ok,
                f"got {_fmt(tv.value)}",
            )
        )
    return CheckReport("F(c) = c + indicator of the simplex", tuple(items))


def check_translation(f: ExtFun, phi: ExtFun, sample, Y=None) -> CheckReport:
    """F(f - phi) = F(f) - <., phi> on the simplex, for phi in Y and -Y."""
    Y = Y if Y is not None else full_class()
    items = []
    for Q in sample:
        if not in_simplex(Q):
            continue
        lhs = fenchel_transform(f - phi, Y, Q).value
        base = fenchel_transform(f, Y, Q).value
        rhs = base - pairing(Q, phi) if is_finite(base) else INF
        items.append(
            CheckItem(
                f"F(f-phi)(Q) = F(f)(Q) - <Q,phi> at Q={tuple(map(str, Q.weights))}",
                lhs == rhs,
                f"lhs={_fmt(lhs)} rhs={_fmt(rhs)}",
            )
        )
        affine = fenchel_transform(phi, Y, Q).value
        items.append(
            CheckItem(
                f"F(phi)(Q) = <Q,phi> at Q={tuple(map(str, Q.weights))}",
                affine == pairing(Q, phi),
                f"got {_fmt(affine)}",
            )
        )
    return CheckReport("F(f-phi) = F(f) - <., phi>", tuple(items))


def check_cone_morphism(f: ExtFun, g: ExtFun, alpha, beta, sample) -> CheckReport:
    """T(a f + b g) = a T(f) + b T(g) at sampled simplex measures."""
    a, b = rat(alpha), rat(beta)
    if a < 0 or b < 0:
        raise ValueError("cone combinations need nonnegative coefficients")
    combined = transform_T(f.scale(a) + g.scale(b))
    Tf, Tg = transform_T(f), transform_T(g)
    items = []
    for Q in sample:
        lhs = combined(Q)
        rhs = a * Tf(Q) + b * Tg(Q)
        items.append(
            CheckItem(
                f"T({a}f+{b}g)(Q) = {a}T(f)(Q)+{b}T(g)(Q) "
                f"at Q={tuple(map(str, Q.weights))}",
                lhs == rhs,
                f"lhs={lhs} rhs={rhs}",
            )
        )
    return CheckReport("T(af+bg) = aT(f) + bT(g)", tuple(items))


def check_isotone(f: ExtFun, g: ExtFun, sample) -> CheckReport:
    """Order transfer between functions and their lifts, both directions."""
    if not (f.is_finite_everywhere() and g.is_finite_everywhere()):
        raise ValueError("isotonicity check requires finite-valued functions")
    space = f.space
    Tf, Tg = transform_T(f), transform_T(g)
    diracs = [dirac(space, p) for p in space.point_ids]
    items = []
    if f.leq(g):
        for Q in list(diracs) + list(sample):
            items.append(
                CheckItem(
                    f"f <= g so T(f)(Q) <= T(g)(Q) at Q={tuple(map(str, Q.weights))}",
                    Tf(Q) <= Tg(Q),
                    f"T(f)={Tf(Q)} T(g)={Tg(Q)}",
                )
            )
    lifted_le = all(Tf(D) <= Tg(D) for D in diracs)
    if lifted_le:
        items.append(
            CheckItem(
                "T(f) <= T(g) at every Dirac mass so f <= g pointwise",
                f.leq(g),
                "",
            )
        )
    if not f.leq(g) and not lifted_le:
        items.append(
            CheckItem("f and g are incomparable; neither direction applies", True, "")
        )
    return CheckReport("f <= g  iff  T(f) <= T(g)", tuple(items))


@dataclass(frozen=True)
class MinimizeReport:
    inf_value: Fraction
    lift_min: Fraction
    ok: bool
    argmin: tuple        # point ids minimizing f
    argmin_face: tuple   # same ids: vertices spanning the optimal face of the lift
    lift_point: Measure  # an optimal measure returned by the LP


def minimize_equivalence(f: ExtFun) -> MinimizeReport:
    """inf of f equals the minimum of its lift over the simplex, with the
    argmin face spanned by the Dirac masses of the minimizers of f."""
    space = f.space
    dom = f.dom()
    inf_value = min(f.values[i] for i in dom)
    argmin = tuple(space.point_ids[i] for i in dom if f.values[i] == inf_value)

    # minimize sum q_x f(x) over the simplex supported on dom(f)
    k = len(dom)
    constraints = [((1,) * k, EQ, 1)]
    objective = tuple(f.values[i] for i in dom)
    res = solve(make_lp(objective, constraints, maximize=False, nonneg=[True] * k))
    assert isinstance(res, Optimal)
    weights = [Fraction(0)] * space.n
    for j, i in enumerate(dom):
        weights[i] = res.point[j]
    lift_point = Measure(space, tuple(weights))

    # vertex correspondence: dirac(x) is optimal for the lift iff x minimizes f
    Y = full_class()
    vertices_ok = True
    for i in range(space.n):
        v = fenchel_transform(f, Y, dirac(space, space.point_ids[i])).value
        at_min = is_finite(v) and v == res.value
        if at_min != (is_finite(f.values[i]) and f.values[i] == inf_value):
            vertices_ok = False
    ok = res.value == inf_value and vertices_ok
    return MinimizeReport(inf_value, res.value, ok, argmin, argmin, lift_point)


def perturbation_principle(f: ExtFun, phi: ExtFun, sample) -> CheckReport:
    """T(f+phi) = T(f) + <., phi>, and minimization transfers for f+phi."""
    if not f.is_finite_everywhere():
        raise ValueError("the perturbation principle is for finite-valued f")
    if not phi.is_finite_everywhere():
        raise ValueError("perturbations must be finite-valued")
    shifted = transform_T(f + phi)
    Tf = transform_T(f)
    items = []
    for Q in sample:
        lhs = shifted(Q)
        rhs = Tf(Q) + pairing(Q, phi)
        items.append(
            CheckItem(
                f"T(f+phi)(Q) = T(f)(Q) + <Q,phi> at Q={tuple(map(str, Q.weights))}",
                lhs == rhs,
                f"lhs={lhs} rhs={rhs}",
            )
        )
    mr = minimize_equivalence(f + phi)
    items.append(
        CheckItem(
            "argmin(f+phi) corresponds to Dirac minimizers of T(f)+<., phi>",
            mr.ok,
            f"inf={mr.inf_value} lift min={mr.lift_min} argmin={mr.argmin}",
        )
    )
    return CheckReport("T(f+phi) = T(f) + <., phi>", tuple(items))


@dataclass(frozen=True)
class LiftedMinimizersReport:
    eps_minimizers: tuple
    ok: bool
    inf_value: Fraction
    lift_min: Fraction


def minimizing_sequence_lift(f: ExtFun, eps) -> LiftedMinimizersReport:
    """Every eps-minimizer of f gives an eps-minimizer of the lift at its Dirac."""
    e = rat(eps)
    if e < 0:
        raise ValueError("eps must be nonnegative")
    mr = minimize_equivalence(f)
    space = f.space
    Y = full_class()
    pts = []
    ok = True
    for i in f.dom():
        if f.values[i] <= mr.inf_value + e:
            p = space.point_ids[i]
            pts.append(p)
            v = fenchel_transform(f, Y, dirac(space, p)).value
            if not (is_finite(v) and v <= mr.lift_min + e):
                ok = False
    return LiftedMinimizersReport(tuple(pts), ok, mr.inf_value, mr.lift_min)
