"""Function classes: membership, bump functions, point separation."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from linmin import (
    ExtFun,
    Space,
    check_property_H,
    check_property_H_all,
    constant,
    contains,
    finite_cone,
    full_class,
    lipschitz_cone,
    separates_points,
)
from linmin.cones import best_lipschitz_constant
from helpers import rand_finite_fun, rand_space


@pytest.fixture
def ab():
    return Space(("a", "b"), [[0, 1], [1, 0]])


@pytest.fixture
def skew_cone(ab):
    # nonnegative combinations of {(1,1), (-1,-1), (0,1)}: exactly (c, c+gamma)
    return finite_cone([ExtFun(ab, (0, 1))])


def test_full_contains_everything(ab):
    assert contains(full_class(), ExtFun(ab, (F(-7, 3), 100))).member


def test_lipschitz_contains_with_best_constant(ab):
    m = contains(lipschitz_cone(), ExtFun(ab, (0, 3)))
    assert m.member and m.certificate == 3


def test_membership_rejects_mismatched_spaces(ab, skew_cone):
    abc = Space(("a", "b", "c"))
    for phi in (ExtFun(abc, (0, 1, 2)), ExtFun(Space(("x",)), (0,))):
        with pytest.raises(ValueError, match="different spaces"):
            contains(skew_cone, phi)
    with pytest.raises(ValueError, match="different spaces"):
        finite_cone([ExtFun(ab, (0, 1)), ExtFun(abc, (0, 1, 2))])
    with pytest.raises(ValueError, match="different spaces"):
        check_property_H(skew_cone, abc, "c", ["c"])
    with pytest.raises(ValueError, match="different spaces"):
        separates_points(abc, skew_cone)


def test_lipschitz_needs_metric():
    s = Space(("a", "b"))
    with pytest.raises(ValueError, match="metric"):
        contains(lipschitz_cone(), ExtFun(s, (0, 1)))


@pytest.mark.parametrize("points", [("a", "b"), ("a",)])
def test_best_lipschitz_constant_needs_a_metric(points):
    s = Space(points)
    with pytest.raises(ValueError, match="^space has no metric$"):
        best_lipschitz_constant(s, ExtFun(s, (0,) * len(points)))


def test_best_lipschitz_constant_needs_phi_on_the_space(ab):
    abc = Space(("a", "b", "c"), [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    # phi must not be indexed past its values, nor read on only the first
    # points of a larger space
    with pytest.raises(ValueError, match="different spaces"):
        best_lipschitz_constant(abc, ExtFun(ab, (0, 1)))
    with pytest.raises(ValueError, match="different spaces"):
        best_lipschitz_constant(ab, ExtFun(abc, (0, 1, 5)))


def test_best_lipschitz_constant_needs_finite_values(ab):
    with pytest.raises(ValueError, match="finite-valued"):
        best_lipschitz_constant(ab, ExtFun(ab, (0, "+inf")))


def test_finite_cone_membership(ab, skew_cone):
    # oracle first: every cone element has value(b) >= value(a), so (1,0) is out
    rng = random.Random(1)
    for _ in range(200):
        lam = [F(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(3)]
        vals = [
            sum(l * g.values[i] for l, g in zip(lam, skew_cone.generators))
            for i in range(2)
        ]
        assert vals[1] >= vals[0]
    assert not contains(skew_cone, ExtFun(ab, (1, 0))).member

    m = contains(skew_cone, ExtFun(ab, (-2, 5)))
    assert m.member
    recon = [
        sum(l * g.values[i] for l, g in zip(m.certificate, skew_cone.generators))
        for i in range(2)
    ]
    assert recon == [-2, 5]


def test_affine_closure_adjoins_constants(ab):
    Y = finite_cone([ExtFun(ab, (0, 1))])
    assert constant(ab, 1) in Y.generators and constant(ab, -1) in Y.generators
    Ybare = finite_cone([ExtFun(ab, (0, 1))], affine_closed=False)
    assert constant(ab, -1) not in Ybare.generators


def test_property_H_full_indicator(ab):
    sigma = check_property_H(full_class(), ab, "a", ("a",))
    assert sigma.values == (F(1), F(0))


def test_property_H_lipschitz_hat(ab):
    sigma = check_property_H(lipschitz_cone(), ab, "a", ("a",))
    assert sigma.values == (F(1), F(0))
    # whole space: the constant-one bump works
    sigma = check_property_H(lipschitz_cone(), ab, "a", ("a", "b"))
    assert sigma.values == (F(1), F(1))


def test_property_H_requires_membership(ab):
    with pytest.raises(ValueError, match="not in"):
        check_property_H(full_class(), ab, "a", ("b",))


def test_property_H_finite_cone_failure(ab, skew_cone):
    assert check_property_H(skew_cone, ab, "a", ("a",)) is None
    rep = check_property_H_all(skew_cone, ab)
    assert not rep.ok
    assert ("a", ("a",)) in rep.failures


def test_property_H_all_passes_for_full_and_lipschitz():
    rng = random.Random(3)
    for n in (1, 2, 4, 6):
        s = rand_space(rng, n, with_metric=True)
        for Y in (full_class(), lipschitz_cone()):
            rep = check_property_H_all(Y, s)
            assert rep.ok
            for x, U, sigma in rep.witnesses:
                xi = s.index(x)
                assert sigma.values[xi] == 1
                assert all(0 <= v <= 1 for v in sigma.values)
                for i in range(s.n):
                    if s.point_ids[i] not in U:
                        assert sigma.values[i] == 0
                assert contains(Y, sigma).member


def test_property_H_witness_valid_on_larger_neighborhoods(ab):
    sigma = check_property_H(lipschitz_cone(), ab, "b", ("a", "b"))
    assert sigma.values[1] == 1
    assert contains(lipschitz_cone(), sigma).member


@given(num=st.integers(1, 40), den=st.integers(1, 10))
def test_cone_membership_is_scale_invariant(num, den):
    s = Space(("a", "b"))
    Y = finite_cone([ExtFun(s, (0, 1))])
    alpha = F(num, den)
    inside = ExtFun(s, (1, 2))
    outside = ExtFun(s, (1, 0))
    assert contains(Y, inside.scale(alpha)).member == contains(Y, inside).member
    assert contains(Y, outside.scale(alpha)).member == contains(Y, outside).member


def test_separation_full():
    s = Space(("a", "b", "c"))
    rep = separates_points(s, full_class())
    assert rep.ok
    for x, y, phi in rep.witnesses:
        assert phi.values[s.index(x)] != phi.values[s.index(y)]


def test_separation_lipschitz_hat():
    rng = random.Random(9)
    s = rand_space(rng, 4, with_metric=True)
    rep = separates_points(s, lipschitz_cone())
    assert rep.ok
    for x, y, phi in rep.witnesses:
        assert phi.values[s.index(x)] != phi.values[s.index(y)]


def test_separation_fails_for_constant_generators(ab):
    Y = finite_cone([constant(ab, 1)])
    rep = separates_points(ab, Y)
    assert not rep.ok
    assert rep.failures == (("a", "b"),)


# The Lipschitz class is computed on the space's int metric; these direct
# Fraction formulas are its reference.


def _fraction_hat(space, xi, U_idx):
    outside = [i for i in range(space.n) if i not in U_idx]
    if not outside:
        return (F(1),) * space.n
    r = min(space.dist(xi, i) for i in outside)
    return tuple(max(F(0), 1 - space.dist(xi, i) / r) for i in range(space.n))


def _fraction_lipschitz_constant(space, phi):
    best = F(0)
    for i in range(space.n):
        for j in range(i + 1, space.n):
            r = abs(phi.values[i] - phi.values[j]) / space.dist(i, j)
            if r > best:
                best = r
    return best


metric_dens = st.sampled_from([1, 2, 3, 12, 3**7, 3**25])


@st.composite
def metric_spaces(draw):
    """1-8 points with a shortest-path metric over denominators up to 3**25,
    given as strings or as Fractions.  The seed distances have few
    numerators and often one denominator, so ties d(x, i) == d(x, j) are
    common."""
    n = draw(st.integers(1, 8))
    shared = draw(st.one_of(st.none(), metric_dens))
    d = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            den = shared or draw(metric_dens)
            d[i][j] = d[j][i] = F(draw(st.integers(1, 6)), den)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    as_str = draw(st.booleans())
    metric = [[str(v) if as_str else v for v in row] for row in d]
    return Space(tuple(f"p{i}" for i in range(n)), metric)


values = st.one_of(
    st.builds(F, st.integers(-6, 6), st.integers(1, 4)),
    st.builds(F, st.integers(-(2**200), 2**200), st.integers(1, 2**120)),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(metric_spaces(), st.data())
def test_lipschitz_hat_matches_the_fraction_formula(space, data):
    xi = data.draw(st.integers(0, space.n - 1))
    whole = data.draw(st.booleans())
    U_idx = set(range(space.n)) if whole else data.draw(
        st.sets(st.integers(0, space.n - 1))
    ) | {xi}
    U = [space.point_ids[i] for i in sorted(U_idx)]
    sigma = check_property_H(lipschitz_cone(), space, space.point_ids[xi], U)
    assert sigma.values == _fraction_hat(space, xi, U_idx)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(metric_spaces(), st.data())
def test_lipschitz_constant_matches_the_fraction_formula(space, data):
    phi = ExtFun(space, tuple(data.draw(values) for _ in range(space.n)))
    want = _fraction_lipschitz_constant(space, phi)
    assert best_lipschitz_constant(space, phi) == want
    assert contains(lipschitz_cone(), phi).certificate == want
