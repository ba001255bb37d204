"""Spaces, extended functions, measures, and the Dirac embedding."""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from linmin import (
    INF,
    ExtFun,
    Measure,
    Space,
    classify_measure,
    constant,
    dirac,
    pairing,
    rat,
    zero,
)

rationals = st.builds(F, st.integers(-30, 30), st.integers(1, 12))


@pytest.fixture
def ab():
    return Space(("a", "b"))


def test_space_needs_points():
    with pytest.raises(ValueError):
        Space(())


def test_space_duplicate_ids():
    with pytest.raises(ValueError):
        Space(("a", "a"))


def test_metric_validation():
    Space(("a", "b"), [[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="diagonal"):
        Space(("a", "b"), [[1, 1], [1, 0]])
    with pytest.raises(ValueError, match="symmetric"):
        Space(("a", "b"), [[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="positive"):
        Space(("a", "b"), [[0, 0], [0, 0]])


def test_triangle_inequality_names_the_triple():
    with pytest.raises(ValueError, match=r"\(a, c, b\)"):
        Space(("a", "b", "c"), [[0, 1, 5], [1, 0, 1], [5, 1, 0]])


def test_extfun_rejects_empty_domain(ab):
    with pytest.raises(ValueError, match="empty domain"):
        ExtFun(ab, (INF, INF))


def test_extfun_parses_inf_strings(ab):
    f = ExtFun(ab, ("0", "+inf"))
    assert f.values == (F(0), INF)
    assert f.dom() == (0,)


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)


def test_rat_accepts_only_integer_and_fraction_strings():
    assert rat("1/2") == F(1, 2)
    assert rat("-3") == -3 and rat("+4/6") == F(2, 3)
    for bad in ("0.1", "1e-2", "1/0", "1/-2", " 1", "1\n", "", "inf", "1/2/3"):
        with pytest.raises(ValueError, match="exact rational"):
            rat(bad)


def test_dirac_examples(ab):
    assert dirac(ab, "a").weights == (F(1), F(0))
    with pytest.raises(ValueError, match="unknown point"):
        dirac(ab, "c")
    # pairing(dirac(a), phi) = phi(a)
    assert pairing(dirac(ab, "a"), ExtFun(ab, (3, 7))) == 3
    assert dirac(ab, "a") != dirac(ab, "b")


def test_pairing_examples(ab):
    assert pairing(Measure(ab, (F(1, 2), F(1, 2))), ExtFun(ab, (0, 1))) == F(1, 2)
    assert pairing(Measure(ab, (1, 0)), ExtFun(ab, (0, 1))) == 0
    assert pairing(Measure(ab, (2, -1)), ExtFun(ab, (1, 1))) == 1


def test_pairing_rejects_extended(ab):
    with pytest.raises(ValueError, match="finite"):
        pairing(dirac(ab, "a"), ExtFun(ab, (0, INF)))


def test_classify_measure(ab):
    assert classify_measure(Measure(ab, (1, 0))) == "vertex"
    assert classify_measure(Measure(ab, (F(1, 3), F(2, 3)))) == "interior-of-simplex"
    assert classify_measure(Measure(ab, (F(3, 2), F(-1, 2)))) == "outside-simplex"
    abc = Space(("a", "b", "c"))
    assert classify_measure(Measure(abc, (F(1, 2), F(1, 2), 0))) == "boundary-of-simplex"


@given(
    w=st.tuples(rationals, rationals),
    u=st.tuples(rationals, rationals),
    a=rationals,
    phi=st.tuples(rationals, rationals),
    psi=st.tuples(rationals, rationals),
)
def test_pairing_is_bilinear(w, u, a, phi, psi):
    s = Space(("a", "b"))
    Qw, Qu = Measure(s, w), Measure(s, u)
    fphi, fpsi = ExtFun(s, phi), ExtFun(s, psi)
    lhs = pairing(Measure(s, tuple(x + a * y for x, y in zip(w, u))), fphi)
    assert lhs == pairing(Qw, fphi) + a * pairing(Qu, fphi)
    rhs = pairing(Qw, ExtFun(s, tuple(x + a * y for x, y in zip(phi, psi))))
    assert rhs == pairing(Qw, fphi) + a * pairing(Qw, fpsi)


def test_dirac_is_injective():
    s = Space(tuple("abcde"))
    seen = {dirac(s, p).weights for p in s.point_ids}
    assert len(seen) == s.n


def test_extfun_arithmetic(ab):
    f = ExtFun(ab, (1, INF))
    g = ExtFun(ab, (2, 3))
    assert (f + g).values == (F(3), INF)
    assert (f - g).values == (F(-1), INF)
    with pytest.raises(ValueError):
        g - f  # cannot subtract an extended-valued function
    assert f.scale(0).values == zero(ab).values
    assert f.scale(2).values == (F(2), INF)
    with pytest.raises(ValueError):
        f.scale(-1)
    assert constant(ab, F(1, 2)).leq(g)
