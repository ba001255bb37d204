"""Spaces, extended functions, measures, and the Dirac embedding."""

import dataclasses
import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

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
from linmin.core import _RATIONAL, dot
from linmin.transform import _linear_sup

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


def _first_metric_error(ids, metric):
    """The metric checks as one ordered Fraction scan, every (i, j, k) of the
    triangle law included: the message of the first failure, or None."""
    n = len(ids)
    rows = [[F(v) for v in row] for row in metric]
    for i in range(n):
        if rows[i][i] != 0:
            return f"metric diagonal must be zero at {ids[i]}"
        for j in range(n):
            if i != j and rows[i][j] <= 0:
                return f"distance must be positive for ({ids[i]}, {ids[j]})"
            if rows[i][j] != rows[j][i]:
                return f"metric must be symmetric at ({ids[i]}, {ids[j]})"
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rows[i][j] > rows[i][k] + rows[k][j]:
                    return (
                        "triangle inequality fails for "
                        f"({ids[i]}, {ids[j]}, {ids[k]})"
                    )
    return None


dens = st.sampled_from([1, 2, 3, 7, 12, 35, 2**40, 3**25])


@st.composite
def metrics(draw):
    """A positive symmetric matrix over mixed denominators, closed under
    shortest paths (mostly) or not, then up to three entries overwritten at
    random positions (mostly symmetrically, by values that may be 0 or
    negative), so that each check fails first somewhere."""
    n = draw(st.integers(1, 7))
    d = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = draw(st.builds(F, st.integers(1, 40), dens))
    mostly = st.sampled_from([True, True, True, False])
    if draw(mostly):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        d[i][j] = draw(st.builds(F, st.integers(-2, 60), dens))
        if draw(mostly):
            d[j][i] = d[i][j]
    as_str = draw(st.booleans())
    return [[str(v) if as_str else v for v in row] for row in d]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(metrics())
def test_metric_checks_match_the_ordered_fraction_scan(metric):
    ids = tuple(f"p{i}" for i in range(len(metric)))
    want = _first_metric_error(ids, metric)
    if want is None:
        assert Space(ids, metric).metric == tuple(tuple(F(v) for v in r) for r in metric)
    else:
        with pytest.raises(ValueError) as err:
            Space(ids, metric)
        assert str(err.value) == want


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


# the strings rat accepts: ASCII or other Unicode decimal digits, an optional
# sign, leading zeros, and numerators past a thousand digits
_any_digit = st.sampled_from("0123456789") | st.characters(categories=("Nd",))
_short = st.text(_any_digit, min_size=1, max_size=8)
_long = st.integers(0, 10**4000).map(str)


@st.composite
def _rational_strings(draw):
    s = draw(st.sampled_from(["", "+", "-"])) + "0" * draw(st.integers(0, 3))
    s += draw(_short | _long)
    if draw(st.booleans()):
        s += "/" + draw(st.sampled_from("123456789")) + draw(
            st.text(_any_digit, max_size=6)
        )
    return s


@settings(max_examples=300, deadline=None)
@given(_rational_strings())
@example("-0")
@example("\u0663")
@example("\u0663/5")
@example("-007/10")
def test_rat_gives_the_value_fraction_gives(s):
    assert _RATIONAL.fullmatch(s)
    q = rat(s)
    assert type(q) is F and q == F(s)


# the set of strings rat accepts, as it was before the pattern had groups
_ACCEPTED = re.compile(r"[+-]?\d+(/[1-9]\d*)?")


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from("0123456789+-/ ._e\u0663\n"), max_size=8))
def test_rat_accepts_exactly_the_rational_pattern(s):
    if _ACCEPTED.fullmatch(s):
        assert rat(s) == F(s)
    else:
        with pytest.raises(ValueError, match="exact rational"):
            rat(s)


def test_measure_label_is_its_weights_as_text_and_no_field(ab):
    Q = Measure(ab, ("1/2", "-1/2"))
    assert Q.label == "('1/2', '-1/2')" == str(tuple(map(str, Q.weights)))
    assert Q.label is Q.label
    assert [f.name for f in dataclasses.fields(Q)] == ["space", "weights"]
    assert Q == Measure(ab, (F(1, 2), F(-1, 2)))
    assert "label" not in repr(Q)


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


# numerators up to 2**70 and denominators of mixed primes, with zeros common
mixed = st.one_of(
    st.just(F(0)),
    st.builds(
        F,
        st.integers(-(2**70), 2**70),
        st.sampled_from([1, 2, 3, 7, 12, 35, 2**40, 3**25]),
    ),
)


@given(
    st.lists(st.tuples(mixed, mixed, st.booleans()), min_size=1, max_size=12),
    st.booleans(),
)
def test_exact_sums_match_the_plain_fraction_sum(terms, all_zero):
    s = Space(tuple(f"p{i}" for i in range(len(terms))))
    w = tuple(F(0) if all_zero else t[0] for t in terms)
    phi = tuple(t[1] for t in terms)
    Q, f = Measure(s, w), ExtFun(s, phi)
    assert pairing(Q, f) == sum((a * b for a, b in zip(w, phi)), F(0))
    assert Q.total() == sum(w, F(0))
    assert type(pairing(Q, f)) is F and type(Q.total()) is F
    # +inf under a zero weight is never read; with Q >= 0 the sup of <Q, phi>
    # over phi <= vals is finite, and it is <Q, vals> over the weights != 0
    vals = tuple(INF if a == 0 and inf else b for a, (_, b, inf) in zip(w, terms))
    Qpos = Measure(s, tuple(abs(a) for a in w))
    tv = _linear_sup(Qpos, vals, shift=False)
    assert tv.value == sum((abs(a) * b for a, b in zip(w, vals) if a), F(0))
    assert tv.ray is None


def test_exact_sums_of_an_all_zero_measure(ab):
    Q = Measure(ab, (0, 0))
    assert Q.total() == 0
    assert pairing(Q, ExtFun(ab, (F(1, 3), -7))) == 0
    assert _linear_sup(Q, (INF, F(1, 3)), shift=False).value == 0
    assert dot((), ()) == 0


def _fresh_classification(w):
    total = sum(w, F(0))
    if any(v < 0 for v in w) or total != 1:
        return "outside-simplex"
    support = [v for v in w if v != 0]
    if len(support) == 1 and support[0] == 1:
        return "vertex"
    return "interior-of-simplex" if all(v > 0 for v in w) else "boundary-of-simplex"


def _general_linear_sup(w, vals, shift):
    """_linear_sup with every Q taking the general path: the q < 0 scan and
    the mass taken afresh.  Returns (value, ray)."""
    ray = [F(0)] * (len(w) + shift)
    neg = next((i for i, q in enumerate(w) if q < 0), None)
    off = next((i for i, q in enumerate(w) if q > 0 and vals[i] is INF), None)
    if neg is not None:
        ray[neg] = F(-1)
    elif off is not None:
        ray[off] = F(1)
    else:
        total = sum(w, F(0)) if shift else 1
        if total == 1:
            return sum((q * v for q, v in zip(w, vals) if q), F(0)), None
        ray = [F(1 if total > 1 else -1)] * len(ray)
    return INF, tuple(ray)


# simplex measures (normalised counts, zeros common) and signed ones
measure_weights = st.one_of(
    st.lists(st.integers(0, 3), min_size=1, max_size=7)
    .filter(any)
    .map(lambda c: tuple(F(x, sum(c)) for x in c)),
    st.lists(mixed, min_size=1, max_size=7).map(tuple),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(measure_weights)
def test_measure_facts_equal_a_fresh_computation(w):
    Q = Measure(Space(tuple(f"p{i}" for i in range(len(w)))), w)
    assert Q.total() == sum(w, F(0)) and type(Q.total()) is F
    assert classify_measure(Q) == _fresh_classification(w)
    # the facts are no dataclass fields: equality and repr see the weights only
    assert [f.name for f in dataclasses.fields(Q)] == ["space", "weights"]
    assert Q == Measure(Q.space, tuple(str(v) for v in w))
    assert "_total" not in repr(Q)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(measure_weights, st.data(), st.booleans())
def test_linear_sup_simplex_path_equals_the_general_path(w, data, shift):
    n = len(w)
    values = st.lists(st.one_of(st.just(INF), rationals), min_size=n, max_size=n)
    vals = tuple(data.draw(values))
    Q = Measure(Space(tuple(f"p{i}" for i in range(n))), w)
    tv = _linear_sup(Q, vals, shift)
    assert (tv.value, tv.ray) == _general_linear_sup(w, vals, shift)


def test_linear_sup_reads_inf_only_under_positive_weights():
    abc = Space(("a", "b", "c"))
    Q = Measure(abc, (F(1, 3), F(2, 3), 0))
    tv = _linear_sup(Q, (F(3), F(-3, 2), INF), True)
    assert (tv.value, tv.ray) == (F(0), None)
    tv = _linear_sup(Q, (F(3), INF, F(0)), True)
    assert tv.value is INF and tv.ray == (0, 1, 0, 0)
    assert (tv.value, tv.ray) == _general_linear_sup(Q.weights, (F(3), INF, F(0)), True)


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
