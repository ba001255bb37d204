"""Simplex solver: golden cases, exactness, rays, and brute-force agreement."""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from linmin.lp import (
    EQ,
    GE,
    LE,
    Infeasible,
    LinearProgram,
    Optimal,
    Unbounded,
    make_lp,
    solve,
    solve_many,
)
from helpers import brute_force_optimum, constraint_violation, is_valid_ray, rand_rational


def test_bounded_scalar():
    res = solve(make_lp([1], [((1,), LE, 5)], maximize=True, nonneg=[True]))
    assert res == Optimal(F(5), (F(5),))


def test_unbounded_scalar_with_ray():
    lp = make_lp([1], [], maximize=True, nonneg=[True])
    res = solve(lp)
    assert isinstance(res, Unbounded)
    assert is_valid_ray(lp, res.ray)


def test_infeasible_scalar():
    res = solve(make_lp([1], [((1,), LE, -1)], maximize=True, nonneg=[True]))
    assert isinstance(res, Infeasible)


def test_free_variables_and_equalities():
    # min x + y  s.t. x + y = 3, x - y >= 1, both free
    res = solve(
        make_lp(
            [1, 1],
            [((1, 1), EQ, 3), ((1, -1), GE, 1)],
            maximize=False,
        )
    )
    assert isinstance(res, Optimal)
    assert res.value == 3


def test_negative_rhs_normalization():
    # max -x s.t. -x <= -2, x >= 0  ->  x = 2
    res = solve(make_lp([-1], [((-1,), LE, -2)], maximize=True, nonneg=[True]))
    assert res == Optimal(F(-2), (F(2),))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        LinearProgram(("x",), (1, 2), True, (), (True,))
    with pytest.raises(ValueError):
        make_lp([1, 1], [((1,), LE, 0)], nonneg=[True, True])


@pytest.mark.parametrize("scalar", [0.1, True, "1/2"])
def test_non_exact_scalars_rejected(scalar):
    # a float would be read as its binary value, 0.1 as 3602879701896397/2**55
    with pytest.raises(ValueError, match=repr(scalar)):
        solve(make_lp([1], [((1,), LE, scalar)], nonneg=[True]))
    with pytest.raises(ValueError, match=repr(scalar)):
        solve(make_lp([scalar], [((1,), LE, 1)], nonneg=[True]))


def test_deterministic_repeat():
    lp = make_lp(
        [3, -1, 2],
        [((1, 1, 1), LE, 4), ((1, -1, 0), GE, -2), ((0, 1, 1), EQ, 1)],
        maximize=True,
        nonneg=[True, True, False],
    )
    first = solve(lp)
    assert all(solve(lp) == first for _ in range(5))


def test_random_bounded_programs_match_brute_force():
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        constraints = [
            (
                tuple(rand_rational(rng, -4, 4, 3) for _ in range(n)),
                rng.choice([LE, GE, EQ]),
                rand_rational(rng, -4, 4, 2),
            )
            for _ in range(m)
        ]
        # box constraints keep the region bounded so vertex enumeration is sound
        for k in range(n):
            row = [0] * n
            row[k] = 1
            constraints.append((tuple(row), LE, F(10)))
            constraints.append((tuple(row), GE, F(-10)))
        lp = make_lp(
            tuple(rand_rational(rng, -4, 4, 2) for _ in range(n)),
            constraints,
            maximize=bool(rng.randint(0, 1)),
            nonneg=[bool(rng.randint(0, 1)) for _ in range(n)],
        )
        res = solve(lp)
        expected, _ = brute_force_optimum(lp)
        if expected is None:
            assert isinstance(res, Infeasible)
        else:
            assert isinstance(res, Optimal)
            assert res.value == expected
            assert constraint_violation(lp, res.point) == 0


def test_strong_duality_on_random_standard_programs():
    # primal: max c.x, Ax <= b, x >= 0; dual: min b.y, A^T y >= c, y >= 0
    rng = random.Random(77)
    checked = 0
    while checked < 30:
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        A = [[rand_rational(rng, -3, 3, 2) for _ in range(n)] for _ in range(m)]
        b = [rand_rational(rng, 0, 5, 2) for _ in range(m)]
        c = [rand_rational(rng, -3, 3, 2) for _ in range(n)]
        primal = make_lp(
            c, [(tuple(A[i]), LE, b[i]) for i in range(m)],
            maximize=True, nonneg=[True] * n,
        )
        pres = solve(primal)
        if not isinstance(pres, Optimal):
            continue
        dual = make_lp(
            b,
            [(tuple(A[i][k] for i in range(m)), GE, c[k]) for k in range(n)],
            maximize=False,
            nonneg=[True] * m,
        )
        dres = solve(dual)
        assert isinstance(dres, Optimal)
        assert dres.value == pres.value
        checked += 1


def test_unbounded_rays_are_certificates():
    rng = random.Random(55)
    found = 0
    for _ in range(200):
        n = rng.randint(1, 3)
        m = rng.randint(0, 2)
        lp = make_lp(
            tuple(rand_rational(rng, -3, 3, 2) for _ in range(n)),
            [
                (
                    tuple(rand_rational(rng, -3, 3, 2) for _ in range(n)),
                    rng.choice([LE, GE]),
                    rand_rational(rng, -3, 3, 2),
                )
                for _ in range(m)
            ],
            maximize=bool(rng.randint(0, 1)),
            nonneg=[bool(rng.randint(0, 1)) for _ in range(n)],
        )
        res = solve(lp)
        if isinstance(res, Unbounded):
            assert is_valid_ray(lp, res.ray)
            found += 1
    assert found > 10


# --- zero-heavy, degenerate and redundant programs against brute force -----

# Coefficients are halves with numerators in [-3, 3], right-hand sides halves
# in [-4, 4], and there are at most three variables.  Doubled, every row is
# integral, so by Cramer's rule every basic point has coordinates of at most
# 3! * 6 * 6 * 8 = 1728.  A box of half-width BOX around the origin therefore
# keeps a feasible point and an optimal one whenever the program has them:
# the boxed program is feasible iff the program is, an Unbounded result is
# certified by its ray on a feasible program, and an Optimal value must equal
# the boxed optimum, which brute force finds.
BOX = 10_000
halves = st.sampled_from([1, 2])
sparse_coeff = st.one_of(
    st.just(F(0)), st.just(F(0)), st.builds(F, st.integers(-3, 3), halves)
)
small_rhs = st.one_of(st.just(F(0)), st.builds(F, st.integers(-4, 4), halves))


@st.composite
def sparse_programs(draw):
    n = draw(st.integers(1, 3))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        coeffs = tuple(draw(sparse_coeff) for _ in range(n))
        rel = draw(st.sampled_from([LE, GE, EQ]))
        rhs = draw(small_rhs)
        rows.append((coeffs, rel, rhs))
        if rel == EQ and draw(st.booleans()):
            k = draw(st.sampled_from([F(-1), F(2), F(1, 2)]))
            rows.append((tuple(k * c for c in coeffs), EQ, k * rhs))
    return make_lp(
        tuple(draw(sparse_coeff) for _ in range(n)),
        rows,
        maximize=draw(st.booleans()),
        nonneg=[draw(st.booleans()) for _ in range(n)],
    )


def boxed(lp, half_width=BOX):
    n = len(lp.variables)
    box = []
    for k in range(n):
        unit = tuple(F(int(j == k)) for j in range(n))
        box += [(unit, LE, F(half_width)), (unit, GE, F(-half_width))]
    return make_lp(lp.objective, lp.constraints + tuple(box), lp.maximize, lp.nonneg)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(sparse_programs())
def test_sparse_degenerate_programs_match_brute_force(lp):
    res = solve(lp)
    expected, _ = brute_force_optimum(boxed(lp))
    if expected is None:
        assert isinstance(res, Infeasible)
    elif isinstance(res, Unbounded):
        assert is_valid_ray(lp, res.ray)
    else:
        assert isinstance(res, Optimal)
        assert res.value == expected
        assert constraint_violation(lp, res.point) == 0
        assert sum(F(c) * p for c, p in zip(lp.objective, res.point)) == res.value


# --- fixed programs whose exact results are pinned -------------------------

# f on 12 points, None marking +inf; the rows phi(y) - s <= f(y) over dom(f)
# are the feasible set of the full-class biconjugate and transform LPs.
PINNED_F = [
    F(3, 2), F(-1), None, F(7, 3), F(0), F(5), None, F(-2, 3), F(4), F(1, 5), None, F(2)
]
PINNED_GENS = [
    [F(1), F(0), F(2), F(-1), F(3, 2), F(0)],
    [F(0), F(1), F(-1), F(2), F(0), F(1, 2)],
    [F(2), F(1), F(0), F(0), F(-1), F(1)],
    [F(-1, 2), F(3), F(1), F(1), F(0), F(-2)],
    [F(1)] * 6,
    [F(-1)] * 6,
]


def _full_class_lp(objective):
    n = len(PINNED_F)
    rows = []
    for y, v in enumerate(PINNED_F):
        if v is not None:
            row = [0] * (n + 1)
            row[y], row[n] = 1, -1
            rows.append((tuple(row), LE, v))
    return make_lp(tuple(objective), rows, maximize=True)


def _biconjugate_lp(x):
    objective = [0] * (len(PINNED_F) + 1)
    objective[x], objective[-1] = 1, -1
    return _full_class_lp(objective)


def _membership_lp(phi):
    k = len(PINNED_GENS)
    rows = [(tuple(g[x] for g in PINNED_GENS), EQ, phi[x]) for x in range(6)]
    return make_lp([0] * k, rows, maximize=False, nonneg=[True] * k)


def _bump_lp(xi, U):
    k = len(PINNED_GENS)
    cols = [tuple(g[i] for g in PINNED_GENS) for i in range(6)]
    rows = [(cols[xi], EQ, 1)]
    rows += [(cols[i], EQ, 0) for i in range(6) if i not in U]
    for i in U:
        rows += [(cols[i], GE, 0), (cols[i], LE, 1)]
    return make_lp([0] * k, rows, maximize=False, nonneg=[True] * k)


def _e(n, *ones):
    return tuple(F(int(j in ones)) for j in range(n))


PINNED = [
    (
        "biconjugate at a point of dom f",
        _biconjugate_lp(3),
        Optimal(F(7, 3), (0, 0, 0, F(10, 3), 0, 0, 0, F(1, 3), 0, 0, 0, 0, 1)),
    ),
    ("biconjugate off dom f", _biconjugate_lp(6), Unbounded(_e(13, 6))),
    (
        "transform at a measure off the simplex",
        _full_class_lp(
            (F(1, 2), F(1, 3), 0, F(1, 4), 0, 0, F(1, 6), 0, F(-1, 8), 0, 0, F(1, 5))
            + (-1,)
        ),
        Unbounded(_e(13, 0, 1, 3, 7, 12)),
    ),
    (
        "finite-cone member",
        _membership_lp(
            [F(-11, 12), F(7, 4), F(-23, 12), F(31, 12), F(-1, 2), F(-11, 12)]
        ),
        Optimal(F(0), (F(1, 2), F(2), 0, F(1, 3), 0, F(5, 4))),
    ),
    (
        "finite-cone non-member",
        _membership_lp([F(1), F(-2), F(0), F(3), F(1, 2), F(-1)]),
        Infeasible(),
    ),
    ("finite-cone bump, none exists", _bump_lp(0, [0, 2, 4]), Infeasible()),
    (
        "finite-cone bump",
        _bump_lp(3, [3, 1, 5, 0]),
        Optimal(F(0), (0, F(1, 3), F(1, 3), 0, F(1, 3), 0)),
    ),
    # ratio-test ties: the tie-break decides which optimal vertex or ray comes out
    (
        "degenerate, tied ratios, optimal",
        make_lp(
            [1, 2, 2, 1],
            [((-2, 1, 1, 3), GE, 2), ((-1, 1, 3, -2), EQ, 2), ((1, 3, 3, 2), LE, 2)],
            maximize=True,
            nonneg=[False, True, True, True],
        ),
        Optimal(F(8, 7), (F(-4, 7), F(4, 7), F(2, 7), 0)),
    ),
    (
        "degenerate, tied ratios, unbounded",
        make_lp(
            [0, 0, 1, 3],
            [((1, 0, 2, 0), GE, 2), ((1, 1, 1, 3), LE, 1)],
            maximize=True,
            nonneg=[False, True, False, True],
        ),
        Unbounded((-2, 1, 1, 0)),
    ),
]


@pytest.mark.parametrize(
    "lp, expected", [p[1:] for p in PINNED], ids=[p[0] for p in PINNED]
)
def test_pinned_results(lp, expected):
    res = solve(lp)
    assert res == expected
    for v in getattr(res, "point", ()) + getattr(res, "ray", ()):
        assert type(v) is F


# --- integer rows: mixed denominators, large magnitudes, sign flips --------

# Numerators reach 2**40 and denominators come from {1, 3, 7, 12}, so a row
# scaled to integers has entries below 2**40 * 84 < 2**47.  With at most
# three variables, Cramer's rule bounds every basic point of the program and
# of its faces by 3! * (2**47)**3 < 2**144, and the argument above for BOX
# holds with BIG_BOX in its place.
BIG_BOX = 2**150
mixed_den = st.sampled_from([1, 3, 7, 12])
big_num = st.one_of(
    st.integers(-9, 9), st.integers(-(2**40), 2**40), st.sampled_from([2**40, -(2**40)])
)
mixed_coeff = st.one_of(
    st.just(F(0)), st.builds(F, big_num, mixed_den), st.sampled_from([F(1, 3), F(5, 7), F(-7, 12)])
)


@st.composite
def mixed_programs(draw):
    n = draw(st.integers(1, 3))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        coeffs = tuple(draw(mixed_coeff) for _ in range(n))
        rel = draw(st.sampled_from([LE, LE, GE, EQ]))
        rhs = draw(mixed_coeff)
        rows.append((coeffs, rel, rhs))
        if draw(st.booleans()):
            # a negative multiple flips the row's sign when it is normalised;
            # an equality copy leaves an artificial basic at zero, which is
            # driven out on whatever sign its pivot entry has
            k = draw(st.sampled_from([F(-1), F(-5, 7), F(7, 12), F(-(2**40), 3)]))
            rows.append((tuple(k * c for c in coeffs), rel if k > 0 else EQ, k * rhs))
    return make_lp(
        tuple(draw(mixed_coeff) for _ in range(n)),
        rows,
        maximize=draw(st.booleans()),
        nonneg=[draw(st.booleans()) for _ in range(n)],
    )


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mixed_programs())
def test_mixed_denominator_programs_match_brute_force(lp):
    res = solve(lp)
    expected, _ = brute_force_optimum(boxed(lp, BIG_BOX))
    if expected is None:
        assert isinstance(res, Infeasible)
    elif isinstance(res, Unbounded):
        assert is_valid_ray(lp, res.ray)
    else:
        assert isinstance(res, Optimal)
        assert res.value == expected
        assert constraint_violation(lp, res.point) == 0
        assert sum(F(c) * p for c, p in zip(lp.objective, res.point)) == res.value
    for v in getattr(res, "point", ()) + getattr(res, "ray", ()):
        assert type(v) is F
    assert type(getattr(res, "value", F(0))) is F


# --- a seeded corpus of finite-cone programs, results pinned by digest -----

# The four program shapes the library solves on a finite cone, each on a
# random cone (generator values with mixed denominators, the constants ±1
# added to half of them): membership as in cones.contains, the [0,1]-bump of
# cones.check_property_H, the per-point programs of duality.biconjugate and
# duality.minorant_envelope, and the program of transform.fenchel_transform.
# The digest was taken from the kernel that pivoted on Fraction entries, so
# it pins the pivot order and every value, point and ray of the
# fraction-free one.
CORPUS_SIZE = 300
CORPUS_SHA256 = "0db615ec8550e5a6d0e031509dfeb5faff7076f9ddd1defb1a8a1c4d1fcd85a5"


def _corpus_value(rng):
    if rng.random() < 0.2:
        return F(0)
    return F(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7, 12]))


def _corpus_program(rng, shape, n_range=(3, 7), k_range=(2, 6)):
    n, k = rng.randint(*n_range), rng.randint(*k_range)
    gens = [[_corpus_value(rng) for _ in range(n)] for _ in range(k)]
    if rng.random() < 0.5:
        gens += [[F(1)] * n, [F(-1)] * n]
        k += 2
    cols = [tuple(g[x] for g in gens) for x in range(n)]
    if shape == 0:
        if rng.random() < 0.5:
            lam = [F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(k)]
            phi = [sum(l * g[x] for l, g in zip(lam, gens)) for x in range(n)]
        else:
            phi = [_corpus_value(rng) for _ in range(n)]
        rows = [(cols[x], EQ, phi[x]) for x in range(n)]
        return make_lp([0] * k, rows, maximize=False, nonneg=[True] * k)
    if shape == 1:
        xi = rng.randrange(n)
        U = {xi} | {i for i in range(n) if rng.random() < 0.5}
        rows = [(cols[xi], EQ, 1)]
        rows += [(cols[i], EQ, 0) for i in range(n) if i not in U]
        for i in sorted(U):
            rows += [(cols[i], GE, 0), (cols[i], LE, 1)]
        return make_lp([0] * k, rows, maximize=False, nonneg=[True] * k)
    f = [None if rng.random() < 0.25 else _corpus_value(rng) for _ in range(n)]
    dom = [y for y in range(n) if f[y] is not None]
    if shape == 2 and rng.random() < 0.5:
        # minorant_envelope: phi <= f on dom(f), maximise phi(x)
        rows = [(cols[y], LE, f[y]) for y in dom]
        x = rng.randrange(n)
        return make_lp(cols[x], rows, maximize=True, nonneg=[True] * k)
    rows = [(cols[y] + (-1,), LE, f[y]) for y in dom]
    if shape == 2:
        objective = cols[rng.randrange(n)] + (-1,)
    else:
        if rng.random() < 0.5:
            w = [F(rng.randint(0, 3)) for _ in range(n)]
            total = sum(w) or F(1)
            Q = [v / total for v in w]
        else:
            Q = [_corpus_value(rng) for _ in range(n)]
        objective = tuple(sum(q * g[x] for x, q in enumerate(Q)) for g in gens) + (F(-1),)
    return make_lp(objective, rows, maximize=True, nonneg=[True] * k + [False])


def _canonical(res):
    if isinstance(res, Optimal):
        return "O " + str(res.value) + " " + ",".join(map(str, res.point))
    if isinstance(res, Unbounded):
        return "U " + ",".join(map(str, res.ray))
    return "I"


def _corpus_lines(seed, size, **sizes):
    rng = random.Random(seed)
    return [_canonical(solve(_corpus_program(rng, i % 4, **sizes))) for i in range(size)]


def _corpus_digest(lines):
    kinds = {line[0] for line in lines}
    assert kinds == {"O", "U", "I"}
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_finite_cone_corpus_results_are_pinned():
    lines = _corpus_lines(20240611, CORPUS_SIZE)
    assert _corpus_digest(lines) == CORPUS_SHA256


# The same shapes at the sizes of the benchmark's finite cones: n = 10..24
# points and k = 6..10 generators, plus the constants on half of them.  Their
# tableau entries grow past one machine word, which the small corpus above
# seldom reaches, so this pins the kernel where its row reductions matter.
# The digest was taken from the kernel that reduced every row it touched.
LARGE_CORPUS_SIZE = 300
LARGE_CORPUS_SHA256 = "a4bdcb375aea74970533246ae1e58d9308cc94e61150e510c33c89faf8b91bce"


def test_large_finite_cone_corpus_results_are_pinned():
    lines = _corpus_lines(
        20261019, LARGE_CORPUS_SIZE, n_range=(10, 24), k_range=(6, 10)
    )
    assert _corpus_digest(lines) == LARGE_CORPUS_SHA256


# --- many objectives over one polyhedron -----------------------------------


@st.composite
def shared_polyhedra(draw):
    """A program from the strategies above and objectives for its polyhedron:
    its own first, then random ones, a repeat and a negation, so that later
    objectives start from the bases earlier ones left, optimal or not."""
    lp = draw(st.one_of(sparse_programs(), mixed_programs()))
    coeff = st.one_of(sparse_coeff, mixed_coeff)
    n = len(lp.variables)
    rest = draw(st.lists(st.tuples(*[coeff] * n), min_size=1, max_size=5))
    pick = draw(st.sampled_from([lp.objective] + rest))
    rest += [pick, tuple(-c for c in pick), (F(0),) * n]
    return lp, [lp.objective] + draw(st.permutations(rest))


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(shared_polyhedra())
def test_solve_many_agrees_with_cold_solves(case):
    lp, objectives = case
    results = solve_many(lp, objectives)
    assert len(results) == len(objectives)
    assert results[0] == solve(lp)
    if isinstance(results[0], Infeasible):
        assert all(isinstance(res, Infeasible) for res in results)
    for objective, res in zip(objectives, results):
        single = replace(lp, objective=objective)
        cold = solve(single)
        assert type(res) is type(cold)
        if isinstance(res, Optimal):
            assert res.value == cold.value
            assert constraint_violation(lp, res.point) == 0
            assert sum(F(c) * p for c, p in zip(objective, res.point)) == res.value
        elif isinstance(res, Unbounded):
            assert is_valid_ray(single, res.ray)


def test_solve_many_on_an_empty_polyhedron():
    lp = make_lp([1, 1], [((1, 1), LE, 1), ((1, 0), GE, 2)], nonneg=[True, True])
    assert solve_many(lp, [(1, 0), (0, -1), (0, 0)]) == [Infeasible()] * 3


def test_solve_many_warm_starts_after_unbounded():
    # max x is unbounded on x - y <= 1; max -x - y is then 0 at the origin
    lp = make_lp([1, 0], [((1, -1), LE, 1)], nonneg=[True, True])
    first, second = solve_many(lp, [(1, 0), (-1, -1)])
    assert isinstance(first, Unbounded) and is_valid_ray(lp, first.ray)
    assert second == Optimal(F(0), (F(0), F(0)))


def test_solve_many_rejects_a_wrong_length_objective():
    lp = make_lp([1, 1], [((1, 1), LE, 1)], nonneg=[True, True])
    with pytest.raises(ValueError):
        solve_many(lp, [(1, 1), (1,)])
