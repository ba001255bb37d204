"""Conjugacy, biconjugation, insertion, minimax, and inf-convolution."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from linmin import (
    INF,
    ExtFun,
    GridSpec,
    Space,
    biconjugate,
    check_biconjugation,
    check_infconv_theorem,
    conjugate,
    constant,
    contains,
    finite_cone,
    full_class,
    grid_inf_convolution,
    infconv_eval,
    insert_between,
    lipschitz_cone,
    minimax_identity_check,
    minorant_envelope,
    sum_decompose,
    zero,
)
from linmin.duality import _cone_dual
from linmin.lp import LE, Infeasible, Optimal, Unbounded, make_lp, solve
from helpers import (
    constraint_violation,
    rand_ext_fun,
    rand_finite_fun,
    rand_rational,
    rand_space,
)

rationals = st.builds(F, st.integers(-20, 20), st.integers(1, 8))


@pytest.fixture
def ab():
    return Space(("a", "b"))


@pytest.fixture
def abm():
    return Space(("a", "b"), [[0, 1], [1, 0]])


@pytest.fixture
def skew_cone(ab):
    return finite_cone([ExtFun(ab, (0, 1))])


class TestConjugate:
    def test_two_point_direct(self, ab):
        cv = conjugate(ExtFun(ab, (0, 1)), ExtFun(ab, (2, 0)))
        assert (cv.value, cv.maximizer) == (2, "a")

    def test_domain_restriction(self, ab):
        cv = conjugate(ExtFun(ab, (0, INF)), ExtFun(ab, (0, 5)))
        assert (cv.value, cv.maximizer) == (0, "a")

    def test_zero_argument_is_minus_inf(self, ab):
        f = ExtFun(ab, (0, 1))
        assert conjugate(f, zero(ab)).value == -min(f.values)

    def test_tie_breaks_to_lowest_index(self, ab):
        cv = conjugate(ExtFun(ab, (1, 1)), ExtFun(ab, (0, 0)))
        assert cv.maximizer == "a"

    def test_rejects_mismatched_spaces(self, ab):
        abc = Space(("a", "b", "c"))
        f, phi = ExtFun(ab, (0, 1)), ExtFun(abc, (5, 0, 0))
        with pytest.raises(ValueError, match="different spaces"):
            conjugate(f, phi)
        with pytest.raises(ValueError, match="different spaces"):
            conjugate(phi, f)
        cone = finite_cone([f])
        for build in (biconjugate, minorant_envelope):
            with pytest.raises(ValueError, match="different spaces"):
                build(phi, cone)

    def test_rejects_extended_argument(self, ab):
        with pytest.raises(ValueError):
            conjugate(ExtFun(ab, (0, 1)), ExtFun(ab, (0, INF)))

    @given(
        f=st.tuples(rationals, rationals),
        phi=st.tuples(rationals, rationals),
        psi=st.tuples(rationals, rationals),
    )
    def test_change_of_variable(self, f, phi, psi):
        # (f - phi)^x(psi) = f^x(phi + psi)
        s = Space(("a", "b"))
        ff, fphi, fpsi = ExtFun(s, f), ExtFun(s, phi), ExtFun(s, psi)
        assert conjugate(ff - fphi, fpsi).value == conjugate(ff, fphi + fpsi).value

    def test_antitone_in_the_function(self, ab):
        rng = random.Random(5)
        for _ in range(50):
            f = rand_finite_fun(ab, rng)
            g = ExtFun(ab, tuple(v + F(rng.randint(0, 5)) for v in f.values))
            phi = rand_finite_fun(ab, rng)
            assert conjugate(g, phi).value <= conjugate(f, phi).value


class TestBiconjugate:
    def test_full_reproduces_extended_function(self):
        s = Space(("a", "b", "c"))
        f = ExtFun(s, (0, 1, INF))
        assert biconjugate(f, full_class()).values == f.values

    def test_zero_function(self, ab):
        assert biconjugate(zero(ab), full_class()).values == (0, 0)

    def test_finite_cone_gap(self, ab, skew_cone):
        # oracle: coarse grid over generator weights bounds the sup near (0,0)
        f = ExtFun(ab, (5, 0))
        gens = skew_cone.generators
        best = [None, None]
        lam_grid = [F(k, 2) for k in range(0, 13)]
        for l0 in lam_grid:
            for l1 in lam_grid:
                for l2 in lam_grid:
                    lam = (l0, l1, l2)
                    phi = [
                        sum(l * g.values[i] for l, g in zip(lam, gens))
                        for i in range(2)
                    ]
                    fx = max(phi[0] - 5, phi[1] - 0)
                    for i in range(2):
                        v = phi[i] - fx
                        if best[i] is None or v > best[i]:
                            best[i] = v
        assert best == [0, 0]
        rep = check_biconjugation(f, skew_cone)
        assert rep.biconj.values == (0, 0)
        assert not rep.equal
        assert rep.gaps == (("a", 5, 0),)

    def test_lipschitz_equals_function(self, abm):
        rng = random.Random(11)
        for _ in range(25):
            f = rand_ext_fun(abm, rng)
            assert biconjugate(f, lipschitz_cone()).values == f.values

    def test_pointwise_below(self, ab, skew_cone):
        rng = random.Random(13)
        for _ in range(25):
            f = rand_ext_fun(ab, rng)
            fxx = biconjugate(f, skew_cone)
            assert fxx.leq(f)

    def test_no_minorant_is_reported(self, ab):
        Y = finite_cone([constant(ab, 1)], affine_closed=False)
        with pytest.raises(ValueError, match="minorant"):
            biconjugate(ExtFun(ab, (-1, -1)), Y)


class TestMinorantEnvelope:
    def test_full_reproduces(self, ab):
        assert minorant_envelope(ExtFun(ab, (1, 2)), full_class()).values == (1, 2)

    def test_off_domain_is_unbounded(self, ab):
        env = minorant_envelope(ExtFun(ab, (0, INF)), full_class())
        assert env.values == (0, INF)

    def test_matches_biconjugate_on_finite_cone(self, ab, skew_cone):
        f = ExtFun(ab, (5, 0))
        assert minorant_envelope(f, skew_cone).values == (0, 0)
        rng = random.Random(17)
        for _ in range(20):
            g = rand_finite_fun(ab, rng)
            assert (
                minorant_envelope(g, skew_cone).values
                == biconjugate(g, skew_cone).values
            )


# The finite-cone builders solve all their per-point LPs over one polyhedron,
# and find out whether the cone holds a minorant of f from one more
# objective on the biconjugate's polyhedron, which is shifted by min f so
# that it needs no phase 1.  The reference below is the formulation they
# replace: a cold, unshifted LP per point and a separate feasibility LP for
# the minorant.


def _cone_rows(f, Y, extra=()):
    gens = Y.generators
    return [(tuple(g.values[y] for g in gens) + extra, LE, f.values[y]) for y in f.dom()]


def reference_biconjugate(f, Y):
    k = len(Y.generators)
    feasibility = make_lp([0] * k, _cone_rows(f, Y), maximize=False, nonneg=[True] * k)
    if not isinstance(solve(feasibility), Optimal):
        raise ValueError("the cone contains no minorant of f")
    out = []
    for x in range(f.space.n):
        objective = tuple(g.values[x] for g in Y.generators) + (-1,)
        lp = make_lp(objective, _cone_rows(f, Y, (-1,)), nonneg=[True] * k + [False])
        res = solve(lp)
        out.append(INF if isinstance(res, Unbounded) else res.value)
    return tuple(out)


def reference_envelope(f, Y):
    k = len(Y.generators)
    out = []
    for x in range(f.space.n):
        objective = tuple(g.values[x] for g in Y.generators)
        res = solve(make_lp(objective, _cone_rows(f, Y), nonneg=[True] * k))
        if isinstance(res, Infeasible):
            raise ValueError("the cone contains no minorant of f")
        out.append(INF if isinstance(res, Unbounded) else res.value)
    return tuple(out)


def _outcome(values):
    try:
        return values()
    except ValueError as e:
        return "ValueError: " + str(e)


def _compare_on_random_cones(builder, reference, seed, rand_f):
    rng = random.Random(seed)
    seen = set()
    for _ in range(200):
        n, k = rng.randint(2, 7), rng.randint(1, 5)
        space = rand_space(rng, n)
        gens = [
            ExtFun(space, tuple(
                F(0) if rng.random() < 0.3 else rand_rational(rng) for _ in range(n)
            ))
            for _ in range(k)
        ]
        Y = finite_cone(gens, affine_closed=rng.random() < 0.5)
        f = rand_f(space, rng)
        got = _outcome(lambda: builder(f, Y).values)
        assert got == _outcome(lambda: reference(f, Y))
        seen.add("no minorant" if isinstance(got, str) else "minorant")
        if not isinstance(got, str) and INF in got:
            seen.add("+inf")
    assert seen == {"minorant", "no minorant", "+inf"}


def _negative_fun(space, rng):
    """Every finite value negative; about a quarter of the points at +inf."""
    vals = [INF if rng.random() < 0.25 else F(rng.randint(-9, -1), rng.randint(1, 4))
            for _ in range(space.n)]
    if all(v is INF for v in vals):
        vals[0] = F(-1)
    return ExtFun(space, tuple(vals))


BUILDERS = pytest.mark.parametrize(
    "builder, reference",
    [(biconjugate, reference_biconjugate), (minorant_envelope, reference_envelope)],
    ids=["biconjugate", "minorant_envelope"],
)


@BUILDERS
def test_finite_cone_builders_match_one_lp_per_point(builder, reference):
    _compare_on_random_cones(builder, reference, 4242, rand_ext_fun)


@BUILDERS
def test_finite_cone_builders_match_on_negative_functions(builder, reference):
    # biconjugate's program is shifted by min f < 0 here; unshifted, every
    # one of its rows would need phase 1
    _compare_on_random_cones(builder, reference, 5151, _negative_fun)


def test_cone_dual_starts_feasible():
    # every row is <= with rhs >= 0, so the origin is a vertex and no row
    # needs an artificial: the simplex runs no phase 1
    rng = random.Random(6161)
    for _ in range(100):
        n, k = rng.randint(2, 7), rng.randint(1, 5)
        space = rand_space(rng, n)
        gens = [ExtFun(space, tuple(rand_rational(rng) for _ in range(n))) for _ in range(k)]
        Y = finite_cone(gens, affine_closed=rng.random() < 0.5)
        f = rand_ext_fun(space, rng) if rng.random() < 0.5 else _negative_fun(space, rng)
        objective = (0,) * len(Y.generators) + (-1,)
        lp, m = _cone_dual(f, Y, objective)
        assert m == min(f.values[y] for y in f.dom())
        assert len(lp.constraints) == len(f.dom())
        assert all(rel == LE and rhs >= 0 for _, rel, rhs in lp.constraints)
        assert min(rhs for _, _, rhs in lp.constraints) == 0
        assert lp.nonneg == (True,) * len(Y.generators) + (False,)
        # the origin (lam, s') = 0 is feasible
        assert constraint_violation(lp, (0,) * (len(Y.generators) + 1)) == 0


class TestInsertion:
    def test_pasch_hausdorff_example(self, abm):
        # oracle: enumerate the pairwise slopes for the minimal constant
        u, v = ExtFun(abm, (-1, 2)), ExtFun(abm, (0, 3))
        slopes = [
            (u.values[x] - v.values[y]) / abm.dist(x, y)
            for x in range(2)
            for y in range(2)
            if x != y
        ]
        assert max(slopes) == 2
        psi = insert_between(u, v, lipschitz_cone())
        assert psi.values == (0, 2)

    def test_squeeze(self, abm):
        u = ExtFun(abm, (1, 4))
        assert insert_between(u, u, lipschitz_cone()).values == u.values

    def test_full_returns_lower(self, ab):
        u, v = ExtFun(ab, (0, 0)), ExtFun(ab, (1, 1))
        assert insert_between(u, v, full_class()) == u

    def test_rejects_unordered(self, abm):
        with pytest.raises(ValueError, match="u <= v"):
            insert_between(ExtFun(abm, (2, 2)), ExtFun(abm, (1, 3)), lipschitz_cone())

    def test_rejects_finite_cone(self, ab, skew_cone):
        with pytest.raises(ValueError, match="not supported"):
            insert_between(zero(ab), constant(ab, 1), skew_cone)

    def test_certified_random(self):
        rng = random.Random(23)
        Y = lipschitz_cone()
        for _ in range(40):
            s = rand_space(rng, rng.randint(2, 5), with_metric=True)
            v = rand_ext_fun(s, rng)
            u = ExtFun(
                s,
                tuple(
                    (min(w for w in v.values if w is not INF) if x is INF else x)
                    - F(rng.randint(0, 4), 2)
                    for x in v.values
                ),
            )
            psi = insert_between(u, v, Y)
            assert u.leq(psi) and psi.leq(v)
            assert contains(Y, psi).member


class TestSumDecompose:
    def test_worked_example(self, abm):
        f, g = ExtFun(abm, (0, 3)), ExtFun(abm, (2, 0))
        phi = ExtFun(abm, (1, 2))
        psi1, psi2 = sum_decompose(phi, f, g, lipschitz_cone())
        assert psi1.values == (0, 2)
        assert psi2.values == (1, 0)

    def test_zero_summand(self, ab):
        f = ExtFun(ab, (3, 4))
        phi = ExtFun(ab, (1, 1))
        psi1, psi2 = sum_decompose(phi, f, zero(ab), full_class())
        assert psi1 == phi and psi2.values == (0, 0)

    def test_exact_split(self, ab):
        f, g = ExtFun(ab, (1, 2)), ExtFun(ab, (3, 4))
        psi1, psi2 = sum_decompose(f + g, f, g, full_class())
        assert psi1.values == f.values and psi2.values == g.values

    def test_precondition_violations(self, ab):
        f, g = ExtFun(ab, (0, 0)), ExtFun(ab, (0, 0))
        with pytest.raises(ValueError, match="phi <= f \\+ g"):
            sum_decompose(ExtFun(ab, (1, 0)), f, g, full_class())
        with pytest.raises(ValueError, match="finite"):
            sum_decompose(f, ExtFun(ab, (0, INF)), g, full_class())


class TestMinimax:
    def test_lp_matches_direct_max(self, ab):
        rep = minimax_identity_check(ExtFun(ab, (0, 1)), full_class(), ExtFun(ab, (2, 0)))
        assert rep.lhs == rep.rhs == 2
        assert rep.ok

    def test_zero_argument(self, ab):
        f = ExtFun(ab, (0, 1))
        rep = minimax_identity_check(f, full_class(), zero(ab))
        assert rep.lhs == rep.rhs == 0

    def test_constants(self, ab):
        rep = minimax_identity_check(constant(ab, 4), full_class(), constant(ab, 7))
        assert rep.lhs == rep.rhs == 3

    def test_minorant_witness_is_admissible(self, ab):
        rng = random.Random(31)
        for _ in range(30):
            f = rand_ext_fun(ab, rng)
            xi = rand_finite_fun(ab, rng)
            rep = minimax_identity_check(f, full_class(), xi)
            assert rep.ok
            assert rep.minorant.leq(f)
            assert conjugate(rep.minorant, xi).value == rep.rhs

    def test_requires_full_class(self, ab, abm):
        with pytest.raises(ValueError, match="full class"):
            minimax_identity_check(ExtFun(abm, (0, 1)), lipschitz_cone(), zero(abm))


class TestInfConvolution:
    def test_worked_example(self, ab):
        f, g = ExtFun(ab, (0, 1)), ExtFun(ab, (2, 0))
        # oracle: spec grid xi in {-3..3}^2
        grid = [F(k) for k in range(-3, 4)]
        best = None
        for x0 in grid:
            for x1 in grid:
                xi = ExtFun(ab, (x0, x1))
                v = conjugate(f, xi).value + conjugate(g, zero(ab) - xi).value
                best = v if best is None else min(best, v)
        assert best == -1
        iv = infconv_eval(f, g, zero(ab), full_class())
        assert iv.value == -1
        # the witness attains the value
        assert (
            conjugate(f, iv.witness).value
            + conjugate(g, zero(ab) - iv.witness).value
            == -1
        )

    def test_zero_summand_reduces_to_conjugate(self, ab):
        rng = random.Random(37)
        for _ in range(20):
            f = rand_finite_fun(ab, rng)
            th = rand_finite_fun(ab, rng)
            assert infconv_eval(f, zero(ab), th, full_class()).value == conjugate(f, th).value

    def test_zero_case(self, ab):
        assert infconv_eval(zero(ab), zero(ab), zero(ab), full_class()).value == 0

    def test_rejects_extended(self, ab):
        with pytest.raises(ValueError, match="finite"):
            infconv_eval(ExtFun(ab, (0, INF)), zero(ab), zero(ab), full_class())

    def test_theorem_on_random_instances(self):
        rng = random.Random(41)
        for _ in range(60):
            s = rand_space(rng, rng.randint(2, 8))
            f, g, th = (rand_finite_fun(s, rng) for _ in range(3))
            rep = check_infconv_theorem(f, g, th)
            assert rep.ok

    def test_translation_equivariance(self, ab):
        f, g = ExtFun(ab, (0, 1)), ExtFun(ab, (2, 0))
        base = check_infconv_theorem(f, g, zero(ab))
        shifted = check_infconv_theorem(f, g, constant(ab, F(5, 3)))
        assert shifted.infconv == base.infconv + F(5, 3)
        assert shifted.direct == base.direct + F(5, 3)
