"""Acceptance gate: one test per release criterion, at exact (zero-tolerance)
equality and within a stated wall-clock budget.

The oracle concordance runs first (module-scoped autouse fixture): every
frozen example value must be reproduced by the brute-force oracles before
the identity criteria are trusted.  Each test prints one pass/fail line.
"""

import random
import time
from fractions import Fraction as F

import pytest

from linmin import (
    INF,
    ExtFun,
    GridSpec,
    Measure,
    Space,
    biconjugate,
    check_biconjugation,
    check_cone_morphism,
    check_infconv_theorem,
    check_property_H,
    check_property_H_all,
    conjugate,
    contains,
    dirac,
    fenchel_transform,
    finite_cone,
    full_class,
    function_to_delta_set,
    delta_set_to_function,
    grid_inf_convolution,
    grid_sup_conjugate_transform,
    indicator,
    infconv_eval,
    insert_between,
    lipschitz_cone,
    minimax_identity_check,
    minimize_equivalence,
    minimizing_sequence_lift,
    minorant_envelope,
    pairing,
    sample_simplex_measures,
    sum_decompose,
    support_function,
    vertex_enumerate_min,
    zero,
)
from linmin.lp import LE, make_lp, solve
from helpers import rand_finite_fun, rand_ext_fun, rand_outside_measure, rand_space

_oracle_state = {"ran": False, "elapsed": None, "mismatches": None}


def _report(capsys, num, label, ok, elapsed, limit):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"criterion {num:2d} [{verdict}] {label} ({elapsed:.2f}s < {limit}s)")


def _run_oracle_concordance():
    """Recompute every frozen example value with the brute-force oracles and
    compare against the LP pipeline.  Returns a list of mismatch labels."""
    bad = []

    def check(label, got, want):
        if got != want:
            bad.append(f"{label}: oracle {want!r} vs pipeline {got!r}")

    ab = Space(("a", "b"))
    abm = Space(("a", "b"), [[0, 1], [1, 0]])
    f01 = ExtFun(ab, (0, 1))
    g20 = ExtFun(ab, (2, 0))
    half = Measure(ab, (F(1, 2), F(1, 2)))

    # conjugate: direct scan over the two points
    cv = conjugate(f01, g20)
    check("conjugate", (cv.value, cv.maximizer), (max(2 - 0, 0 - 1), "a"))

    # finite-cone biconjugate (5,0) -> (0,0): coarse grid over generator weights
    Y = finite_cone([f01])
    best = [None, None]
    grid = [F(k, 2) for k in range(0, 13)]
    for l0 in grid:
        for l1 in grid:
            for l2 in grid:
                phi = [
                    sum(l * g.values[i] for l, g in zip((l0, l1, l2), Y.generators))
                    for i in range(2)
                ]
                fx = max(phi[0] - 5, phi[1])
                for i in range(2):
                    v = phi[i] - fx
                    if best[i] is None or v > best[i]:
                        best[i] = v
    rep = check_biconjugation(ExtFun(ab, (5, 0)), Y)
    check("finite-cone biconjugate", list(rep.biconj.values), best)
    check("finite-cone gap", rep.gaps, (("a", 5, 0),))

    # finite-cone membership: every element satisfies value(b) >= value(a)
    rng = random.Random(1)
    sampled_ok = all(
        sum(l * g.values[1] for l, g in zip(lam, Y.generators))
        >= sum(l * g.values[0] for l, g in zip(lam, Y.generators))
        for lam in (
            [F(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(3)]
            for _ in range(200)
        )
    )
    check("cone order property", sampled_ok, True)
    check("cone excludes (1,0)", contains(Y, ExtFun(ab, (1, 0))).member, False)

    # bump functions: Lipschitz hat formula; finite-cone failure at (a, {a})
    sigma = check_property_H(lipschitz_cone(), abm, "a", ("a",))
    hat = tuple(max(F(0), 1 - abm.dist(0, j)) for j in range(2))
    check("lipschitz hat", sigma.values, hat)
    check("finite-cone bump failure", check_property_H(Y, ab, "a", ("a",)), None)

    # inf-convolution: grid search over xi, M=4 h=1/2
    spec = GridSpec(F(4), F(1, 2))
    check(
        "infconv value",
        infconv_eval(f01, g20, zero(ab), full_class()).value,
        grid_inf_convolution(f01, g20, zero(ab), spec),
    )
    check(
        "infconv equals direct conjugate",
        conjugate(f01 + g20, zero(ab)).value,
        grid_inf_convolution(f01, g20, zero(ab), spec),
    )

    # minimax: LP value against the direct two-point maximum
    mm = minimax_identity_check(f01, full_class(), g20)
    check("minimax", (mm.lhs, mm.rhs), (2, 2))

    # transform on the simplex: exhaustive grid sup
    check(
        "transform at (1/2,1/2)",
        fenchel_transform(f01, full_class(), half).value,
        grid_sup_conjugate_transform(f01, half, spec),
    )
    check("transform closed form", grid_sup_conjugate_transform(f01, half, spec), F(1, 2))

    # translation: both sides shift by <Q, phi> = 1
    ones = ExtFun(ab, (1, 1))
    check(
        "translation",
        fenchel_transform(f01 - ones, full_class(), half).value,
        grid_sup_conjugate_transform(f01, half, spec) - pairing(half, ones),
    )

    # divergence outside the simplex: the grid sup grows without bound
    outside = Measure(ab, (2, -1))
    growth = [
        grid_sup_conjugate_transform(f01, outside, GridSpec(F(M), F(1)))
        for M in (2, 4, 8)
    ]
    check("outside divergence evidence", growth[0] < growth[1] < growth[2], True)

    # support function of bounds (1,2): sup attained at the bound function
    A = function_to_delta_set(ExtFun(ab, (1, 2)))
    check("support function", support_function(A, half).value, pairing(half, ExtFun(ab, (1, 2))))
    check("support value", pairing(half, ExtFun(ab, (1, 2))), F(3, 2))

    # morphism at alpha=beta=1: linearity of the pairing
    check(
        "morphism",
        fenchel_transform(f01 + g20, full_class(), half).value,
        pairing(half, f01) + pairing(half, g20),
    )

    # minimization: vertex enumeration
    abc = Space(("x1", "x2", "x3"))
    check("min (3,1,2)", vertex_enumerate_min(ExtFun(abc, (3, 1, 2))), (1, ("x2",)))
    m = minimize_equivalence(ExtFun(abc, (3, 1, 2)))
    check("min lp agreement", (m.inf_value, m.argmin), (1, ("x2",)))
    check("degenerate face", vertex_enumerate_min(ExtFun(abc, (0, 0, 7)))[1], ("x1", "x2"))
    check(
        "degenerate face lp",
        minimize_equivalence(ExtFun(abc, (0, 0, 7))).argmin_face,
        ("x1", "x2"),
    )

    # insertion: pairwise slopes give the minimal constant, then min-plus
    u, v = ExtFun(abm, (-1, 2)), ExtFun(abm, (0, 3))
    L = max(
        (u.values[x] - v.values[y]) / abm.dist(x, y)
        for x in range(2)
        for y in range(2)
        if x != y
    )
    check("insertion constant", L, 2)
    psi_oracle = tuple(
        min(v.values[y] + L * abm.dist(x, y) for y in range(2)) for x in range(2)
    )
    check("insertion", insert_between(u, v, lipschitz_cone()).values, psi_oracle)
    check("insertion values", psi_oracle, (0, 2))

    # perturbation: scan of f + phi
    fp = ExtFun(ab, (0, 1)) + ExtFun(ab, (1, -1))
    check("perturbation argmin", vertex_enumerate_min(fp)[1], ("b",))
    check("perturbation lp", minimize_equivalence(fp).argmin, ("b",))

    # epsilon-minimizer lift: direct scan
    feps = ExtFun(abc, (0, F(1, 10), 5))
    scan = tuple(
        p for p, val in zip(abc.point_ids, feps.values) if val <= 0 + F(1, 10)
    )
    check("eps minimizers", minimizing_sequence_lift(feps, F(1, 10)).eps_minimizers, scan)
    check("eps scan", scan, ("x1", "x2"))

    # closed forms under (H) against the LP on the cone spanned by the
    # indicators and their negatives, which holds every function
    pm = finite_cone(
        [indicator(abm, p).scale(c) for p in abm.point_ids for c in (1, -1)],
        affine_closed=False,
    )
    measures = (
        Measure(abm, (F(1, 2), F(1, 2))),
        dirac(abm, "b"),
        Measure(abm, (2, -1)),
        Measure(abm, (1, 1)),
    )
    for f in (ExtFun(abm, (0, 1)), ExtFun(abm, (0, INF))):
        for Y in (full_class(), lipschitz_cone()):
            check("biconjugate closed form", biconjugate(f, Y).values, biconjugate(f, pm).values)
            check("envelope closed form", minorant_envelope(f, Y).values, minorant_envelope(f, pm).values)
            for Q in measures:
                check(
                    f"transform closed form at {Q.weights}",
                    fenchel_transform(f, Y, Q).value,
                    fenchel_transform(f, pm, Q).value,
                )
    support_lp = make_lp(half.weights, [((1, 0), LE, 1), ((0, 1), LE, 2)])
    check("support function closed form", support_function(A, half).value, solve(support_lp).value)

    return bad


@pytest.fixture(scope="module", autouse=True)
def oracle_gate():
    # concordance must pass before any identity criterion is trusted
    start = time.perf_counter()
    mismatches = _run_oracle_concordance()
    _oracle_state.update(
        ran=True,
        elapsed=time.perf_counter() - start,
        mismatches=mismatches,
    )
    if mismatches:
        pytest.fail("oracle concordance failed:\n" + "\n".join(mismatches))
    yield


def test_criterion_01_biconjugation(capsys):
    start = time.perf_counter()
    rng = random.Random(20240801)
    ok = True
    for i in range(500):
        s = rand_space(rng, rng.randint(2, 10), with_metric=True)
        f = rand_ext_fun(s, rng) if i % 2 else rand_finite_fun(s, rng)
        Y = full_class() if i % 4 < 2 else lipschitz_cone()
        rep = check_biconjugation(f, Y)
        if not rep.equal:
            ok = False
            break
    elapsed = time.perf_counter() - start
    _report(capsys, 1, "biconjugation f^xx = f under bump-rich classes", ok and elapsed < 10, elapsed, 10)
    assert ok
    assert elapsed < 10


def test_criterion_02_gap_without_bumps(capsys):
    start = time.perf_counter()
    ab = Space(("a", "b"))
    Y = finite_cone([ExtFun(ab, (0, 1))])
    hrep = check_property_H_all(Y, ab)
    brep = check_biconjugation(ExtFun(ab, (5, 0)), Y)
    ok = (
        not hrep.ok
        and ("a", ("a",)) in hrep.failures
        and not brep.equal
        and brep.biconj.values == (F(0), F(0))
        and brep.gaps == (("a", 5, 0),)
    )
    elapsed = time.perf_counter() - start
    _report(capsys, 2, "biconjugation gap co-occurs with bump failure", ok and elapsed < 1, elapsed, 1)
    assert ok
    assert elapsed < 1


def test_criterion_03_inf_convolution(capsys):
    start = time.perf_counter()
    rng = random.Random(20240803)
    ok = True
    for _ in range(200):
        s = rand_space(rng, rng.randint(2, 8))
        f, g, th = (rand_finite_fun(s, rng) for _ in range(3))
        if not check_infconv_theorem(f, g, th).ok:
            ok = False
            break
    elapsed = time.perf_counter() - start
    _report(capsys, 3, "(f+g)^x = f^x <> g^x on 200 random triples", ok and elapsed < 30, elapsed, 30)
    assert ok
    assert elapsed < 30


def test_criterion_04_minimax(capsys):
    start = time.perf_counter()
    rng = random.Random(20240804)
    ok = True
    for _ in range(200):
        s = rand_space(rng, rng.randint(2, 8))
        f = rand_ext_fun(s, rng)
        xi = rand_finite_fun(s, rng)
        if not minimax_identity_check(f, full_class(), xi).ok:
            ok = False
            break
    elapsed = time.perf_counter() - start
    _report(capsys, 4, "minimax identity on 200 random (f, xi)", ok and elapsed < 20, elapsed, 20)
    assert ok
    assert elapsed < 20


def test_criterion_05_decomposition(capsys):
    start = time.perf_counter()
    rng = random.Random(20240805)
    ok = True
    for i in range(100):
        s = rand_space(rng, rng.randint(2, 6), with_metric=True)
        f, g = rand_finite_fun(s, rng), rand_finite_fun(s, rng)
        slack = tuple(F(rng.randint(0, 6), 2) for _ in range(s.n))
        phi = ExtFun(s, tuple(a + b - c for a, b, c in zip(f.values, g.values, slack)))
        Y = full_class() if i % 2 else lipschitz_cone()
        psi1, psi2 = sum_decompose(phi, f, g, Y)
        if not (
            psi1.leq(f)
            and psi2.leq(g)
            and (psi1 + psi2).values == phi.values
            and contains(Y, psi1).member
            and contains(Y, psi2).member
        ):
            ok = False
            break
    elapsed = time.perf_counter() - start
    _report(capsys, 5, "certified splits of phi <= f + g", ok and elapsed < 10, elapsed, 10)
    assert ok
    assert elapsed < 10


def test_criterion_06_morphism(capsys):
    start = time.perf_counter()
    rng = random.Random(20240806)
    ok = True
    for i in range(100):
        s = rand_space(rng, rng.randint(2, 5))
        f, g = rand_finite_fun(s, rng), rand_finite_fun(s, rng)
        if i == 0:
            a, b = F(0), F(rng.randint(0, 5))
        elif i == 1:
            a, b = F(rng.randint(0, 5)), F(0)
        elif i == 2:
            a, b = F(1), F(1)
        else:
            a, b = F(rng.randint(0, 4), 2), F(rng.randint(0, 4), 2)
        sample = sample_simplex_measures(s, 20, rng.randint(0, 10**6))
        if not check_cone_morphism(f, g, a, b, sample).ok:
            ok = False
            break
    elapsed = time.perf_counter() - start
    _report(capsys, 6, "T(af+bg) = aT(f) + bT(g) at sampled measures", ok and elapsed < 30, elapsed, 30)
    assert ok
    assert elapsed < 30


def test_criterion_07_conservation_of_infima(capsys):
    start = time.perf_counter()
    rng = random.Random(20240807)
    ok = True
    for i in range(200):
        s = rand_space(rng, rng.randint(2, 7))
        if i % 3 == 0:
            # force ties so the argmin face is nontrivial
            base = F(rng.randint(-4, 4), 2)
            vals = [base if rng.random() < F(1, 2) else base + F(rng.randint(0, 5)) for _ in range(s.n)]
            if rng.random() < F(1, 3):
                vals[rng.randrange(s.n)] = INF
            if all(v is INF for v in vals):
                vals[0] = base
            f = ExtFun(s, tuple(vals))
        else:
            f = rand_ext_fun(s, rng)
        value, argmin = vertex_enumerate_min(f)
        rep = minimize_equivalence(f)
        if not (rep.ok and rep.inf_value == rep.lift_min == value and rep.argmin == argmin):
            ok = False
            break
    elapsed = time.perf_counter() - start
    _report(capsys, 7, "inf f = simplex minimum with matching argmin sets", ok and elapsed < 20, elapsed, 20)
    assert ok
    assert elapsed < 20


def test_criterion_08_support_representation(capsys):
    start = time.perf_counter()
    rng = random.Random(20240808)
    ok = True
    for _ in range(100):
        s = rand_space(rng, rng.randint(2, 5))
        f = rand_finite_fun(s, rng)
        if delta_set_to_function(function_to_delta_set(f)).values != f.values:
            ok = False
            break
        A = function_to_delta_set(f)
        for Q in sample_simplex_measures(s, 20, rng.randint(0, 10**6)):
            if support_function(A, Q).value != fenchel_transform(f, full_class(), Q).value:
                ok = False
                break
        if not ok:
            break
    elapsed = time.perf_counter() - start
    _report(capsys, 8, "support function equals the transform; round trips", ok and elapsed < 20, elapsed, 20)
    assert ok
    assert elapsed < 20


def test_criterion_09_domain_confinement(capsys):
    start = time.perf_counter()
    rng = random.Random(20240809)
    ok = True
    for _ in range(100):
        s = rand_space(rng, rng.randint(2, 6))
        f = rand_finite_fun(s, rng)
        Q = rand_outside_measure(s, rng)
        tv = fenchel_transform(f, full_class(), Q)
        if tv.finite or tv.ray is None:
            ok = False
            break
        # the ray must improve the objective while keeping every constraint
        *phi, sv = tv.ray
        if sum(q * p for q, p in zip(Q.weights, phi)) - sv <= 0:
            ok = False
            break
        if any(p - sv > 0 for p in phi):
            ok = False
            break
    elapsed = time.perf_counter() - start
    _report(capsys, 9, "transform diverges off the simplex with a ray", ok and elapsed < 10, elapsed, 10)
    assert ok
    assert elapsed < 10


def test_criterion_10_oracle_concordance(capsys):
    ok = _oracle_state["ran"] and not _oracle_state["mismatches"]
    elapsed = _oracle_state["elapsed"]
    _report(capsys, 10, "frozen example values reproduced by oracles", ok and elapsed < 30, elapsed, 30)
    assert ok
    assert elapsed < 30
