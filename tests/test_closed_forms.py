"""Closed forms under property (H) against the LP.

The full class and the Lipschitz cone answer biconjugation, the minorant
envelope and the transform in closed form.  The finite cone spanned by
the indicators of the points and their negatives holds every function,
so its LP path must give the same values; the support function is
compared with its LP solved directly.  Every closed-form ray must be a
certificate for the LP it stands for.
"""

import random
from fractions import Fraction as F

import pytest

from linmin import (
    INF,
    DeltaSet,
    ExtFun,
    Measure,
    Space,
    biconjugate,
    dirac,
    fenchel_transform,
    finite_cone,
    full_class,
    indicator,
    lipschitz_cone,
    minorant_envelope,
    support_function,
)
from linmin.lp import LE, Optimal, Unbounded, make_lp, solve
from helpers import is_valid_ray, rand_ext_fun, rand_outside_measure, rand_rational, rand_space


def pm_indicator_cone(space):
    gens = []
    for p in space.point_ids:
        e = indicator(space, p)
        gens += [e, e.scale(-1)]
    return finite_cone(gens, affine_closed=False)


def transform_lp(f, Q):
    """max <Q, phi> - s over phi(y) - s <= f(y) on dom(f), phi and s free."""
    n = f.space.n
    rows = []
    for y in f.dom():
        row = [0] * (n + 1)
        row[y], row[n] = 1, -1
        rows.append((tuple(row), LE, f.values[y]))
    return make_lp(tuple(Q.weights) + (-1,), rows, maximize=True)


def support_lp(A, Q):
    """max <Q, phi> over phi(x) <= bound(x), phi free."""
    n = A.space.n
    rows = []
    for x in range(n):
        row = [0] * n
        row[x] = 1
        rows.append((tuple(row), LE, A.bounds[x]))
    return make_lp(tuple(Q.weights), rows, maximize=True)


def normalized(space, raw):
    total = sum(raw)
    return Measure(space, tuple(w / total for w in raw))


def sample_measures(f, rng):
    """Simplex measures on dom(f) and charging a point off it, and measures
    off the simplex: signed, nonnegative of any mass, and of mass 1/2."""
    s, dom = f.space, f.dom()
    on_dom = [F(rng.randint(1, 6)) if i in dom else F(0) for i in range(s.n)]
    out = [normalized(s, on_dom), dirac(s, s.point_ids[rng.choice(dom)])]
    off = [i for i in range(s.n) if i not in dom]
    if off:
        charged = list(on_dom)
        charged[rng.choice(off)] = F(rng.randint(1, 3))
        out.append(normalized(s, charged))
    out.append(rand_outside_measure(s, rng))
    w = [F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(s.n)]
    out.append(Measure(s, tuple(w)))
    half_mass = normalized(s, [v + 1 for v in w]).weights
    out.append(Measure(s, tuple(v / 2 for v in half_mass)))
    return out


def test_closed_forms_match_the_indicator_cone_lp():
    rng = random.Random(303)
    compared = 0
    for _ in range(60):
        s = rand_space(rng, rng.randint(1, 5), with_metric=True)
        f = rand_ext_fun(s, rng)
        cone = pm_indicator_cone(s)
        want_biconj = biconjugate(f, cone).values
        want_env = minorant_envelope(f, cone).values
        for Y in (full_class(), lipschitz_cone()):
            assert biconjugate(f, Y).values == want_biconj == f.values
            assert minorant_envelope(f, Y).values == want_env == f.values
        for Q in sample_measures(f, rng):
            want = fenchel_transform(f, cone, Q)
            for Y in (full_class(), lipschitz_cone()):
                got = fenchel_transform(f, Y, Q)
                assert got.value == want.value
                if got.finite:
                    assert got.ray is None
                    assert got.value == solve(transform_lp(f, Q)).value
                else:
                    assert is_valid_ray(transform_lp(f, Q), got.ray)
                compared += 1
    assert compared > 500


def test_support_function_matches_its_lp():
    rng = random.Random(304)
    for _ in range(100):
        s = rand_space(rng, rng.randint(1, 5))
        A = DeltaSet(s, tuple(rand_rational(rng) for _ in range(s.n)))
        signed = Measure(s, tuple(rand_rational(rng) for _ in range(s.n)))
        nonneg = Measure(s, tuple(abs(w) for w in signed.weights))
        for Q in (signed, nonneg):
            lp = support_lp(A, Q)
            res = solve(lp)
            tv = support_function(A, Q)
            if isinstance(res, Unbounded):
                assert tv.value is INF and is_valid_ray(lp, tv.ray)
            else:
                assert isinstance(res, Optimal)
                assert tv.value == res.value and tv.ray is None


@pytest.mark.parametrize(
    "f_vals, weights, ray",
    [
        # a negative weight wins over every other case, first one first
        (("0", "+inf", "0"), (2, 3, -1), (0, 0, -1, 0)),
        (("0", "0", "0"), (-1, 3, -1), (-1, 0, 0, 0)),
        # then weight on a point off dom(f)
        (("0", "+inf", "+inf"), (0, 0, "1/2"), (0, 0, 1, 0)),
        # then the mass: above 1 raises phi and s together, below 1 lowers them
        (("0", "1", "+inf"), (1, 1, 0), (1, 1, 1, 1)),
        (("0", "1", "+inf"), ("1/4", "1/4", 0), (-1, -1, -1, -1)),
        (("0", "1", "2"), (0, 0, 0), (-1, -1, -1, -1)),
    ],
)
def test_transform_rays_follow_the_stated_order(f_vals, weights, ray):
    s = Space(("a", "b", "c"))
    f = ExtFun(s, f_vals)
    Q = Measure(s, weights)
    tv = fenchel_transform(f, full_class(), Q)
    assert tv.value is INF and tv.ray == tuple(F(v) for v in ray)
    assert is_valid_ray(transform_lp(f, Q), tv.ray)


def test_support_function_ray_has_no_s_coordinate():
    s = Space(("a", "b"))
    tv = support_function(DeltaSet(s, (1, 2)), Measure(s, (3, -1)))
    assert tv.value is INF and tv.ray == (0, -1)
    # nonnegative measures off the simplex are finite: the bounds cap phi
    assert support_function(DeltaSet(s, (1, 2)), Measure(s, (3, 1))).value == 5


def test_lipschitz_cone_needs_a_metric_everywhere():
    s = Space(("a", "b"))
    f = ExtFun(s, (0, 1))
    Q = Measure(s, (F(1, 2), F(1, 2)))
    for call in (
        lambda: biconjugate(f, lipschitz_cone()),
        lambda: minorant_envelope(f, lipschitz_cone()),
        lambda: fenchel_transform(f, lipschitz_cone(), Q),
    ):
        with pytest.raises(ValueError, match="metric"):
            call()
