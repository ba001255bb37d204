"""The measure-side transform, delta sets, and minimization equivalence."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from linmin import (
    INF,
    DeltaSet,
    ExtFun,
    Measure,
    Space,
    check_cone_morphism,
    check_constant_transform,
    check_isotone,
    check_translation,
    constant,
    delta_set_to_function,
    dirac,
    fenchel_transform,
    finite_cone,
    full_class,
    function_to_delta_set,
    in_simplex,
    minimize_equivalence,
    minimizing_sequence_lift,
    pairing,
    perturbation_principle,
    sample_simplex_measures,
    support_function,
    transform_T,
    vertex_enumerate_min,
    zero,
)
from linmin.lp import LE, Optimal, Unbounded, make_lp, solve
from helpers import (
    is_valid_ray,
    rand_ext_fun,
    rand_finite_fun,
    rand_outside_measure,
    rand_rational,
    rand_space,
)

rationals = st.builds(F, st.integers(-20, 20), st.integers(1, 8))


@pytest.fixture
def ab():
    return Space(("a", "b"))


@pytest.fixture
def half(ab):
    return Measure(ab, (F(1, 2), F(1, 2)))


class TestFenchelTransform:
    def test_extends_the_function_at_diracs(self, ab):
        f = ExtFun(ab, (0, 1))
        assert fenchel_transform(f, full_class(), dirac(ab, "a")).value == 0
        assert fenchel_transform(f, full_class(), dirac(ab, "b")).value == 1

    def test_interior_value_is_the_mean(self, ab, half):
        assert fenchel_transform(ExtFun(ab, (0, 1)), full_class(), half).value == F(1, 2)

    def test_outside_simplex_diverges_with_ray(self, ab):
        f = ExtFun(ab, (0, 1))
        Q = Measure(ab, (2, -1))
        tv = fenchel_transform(f, full_class(), Q)
        assert tv.value is INF and tv.ray is not None
        # the ray improves the defining objective and respects the constraints
        phi_a, phi_b, s = tv.ray
        assert 2 * phi_a - phi_b - s > 0
        assert phi_a - s <= 0 and phi_b - s <= 0

    def test_closed_form_on_simplex(self):
        rng = random.Random(101)
        for _ in range(30):
            s = rand_space(rng, rng.randint(2, 5))
            f = rand_finite_fun(s, rng)
            for Q in sample_simplex_measures(s, 5, rng.randint(0, 999)):
                assert fenchel_transform(f, full_class(), Q).value == pairing(Q, f)

    def test_charging_a_non_domain_point_diverges(self, ab, half):
        f = ExtFun(ab, (0, INF))
        tv = fenchel_transform(f, full_class(), half)
        assert tv.value is INF and tv.ray is not None

    def test_finite_cone_transform_is_dominated(self, ab, half):
        Y = finite_cone([ExtFun(ab, (0, 1))])
        f = ExtFun(ab, (5, 0))
        full_val = fenchel_transform(f, full_class(), half).value
        cone_val = fenchel_transform(f, Y, half).value
        assert cone_val <= full_val
        assert cone_val == 0  # sup over (c, c+gamma): best minorant is (0, 0)


class TestConstantAndTranslation:
    def test_constant_on_simplex_and_outside(self, ab, half):
        rep = check_constant_transform(
            ab, 3, [half, dirac(ab, "a"), Measure(ab, (2, -1))]
        )
        assert rep.ok

    def test_zero_constant_at_vertex(self, ab):
        rep = check_constant_transform(ab, 0, [dirac(ab, "a")])
        assert rep.ok

    def test_translation_worked_example(self, ab, half):
        f, phi = ExtFun(ab, (0, 1)), ExtFun(ab, (1, 1))
        lhs = fenchel_transform(f - phi, full_class(), half).value
        rhs = fenchel_transform(f, full_class(), half).value - pairing(half, phi)
        assert lhs == rhs == -F(1, 2)
        assert check_translation(f, phi, [half]).ok

    def test_translation_identity_when_phi_zero(self, ab, half):
        assert check_translation(ExtFun(ab, (0, 1)), zero(ab), [half]).ok

    def test_transform_of_zero_vanishes(self, ab, half):
        assert fenchel_transform(zero(ab), full_class(), half).value == 0


class TestDeltaSets:
    def test_round_trip(self, ab):
        A = DeltaSet(ab, (1, 2))
        assert delta_set_to_function(A).values == (1, 2)
        assert function_to_delta_set(delta_set_to_function(A)) == A

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(100):
            s = rand_space(rng, rng.randint(1, 6))
            f = rand_finite_fun(s, rng)
            assert delta_set_to_function(function_to_delta_set(f)).values == f.values

    def test_rejects_extended(self, ab):
        with pytest.raises(ValueError, match="finite"):
            function_to_delta_set(ExtFun(ab, (0, INF)))

    def test_support_function_examples(self, ab, half):
        A = DeltaSet(ab, (1, 2))
        # oracle: on the simplex the sup is attained at the bound function
        assert support_function(A, half).value == pairing(half, ExtFun(ab, (1, 2)))
        assert support_function(A, half).value == F(3, 2)
        assert support_function(A, dirac(ab, "a")).value == 1
        tv = support_function(A, Measure(ab, (-1, 2)))
        assert tv.value is INF and tv.ray is not None
        # the ray lowers phi(a), which the bounds never prevent
        assert tv.ray[0] < 0

    def test_support_matches_transform(self, half, ab):
        rng = random.Random(71)
        for _ in range(25):
            f = rand_finite_fun(ab, rng)
            A = function_to_delta_set(f)
            for Q in sample_simplex_measures(ab, 4, rng.randint(0, 999)):
                assert (
                    support_function(A, Q).value
                    == fenchel_transform(f, full_class(), Q).value
                )


class TestLift:
    def test_rejects_extended_source(self, ab):
        with pytest.raises(ValueError, match="finite-valued"):
            transform_T(ExtFun(ab, (0, INF)))

    def test_rejects_outside_queries(self, ab):
        T = transform_T(ExtFun(ab, (0, 1)))
        with pytest.raises(ValueError, match="outside"):
            T(Measure(ab, (2, -1)))

    def test_extension_and_affinity(self):
        rng = random.Random(19)
        s = rand_space(rng, 4)
        phi = rand_finite_fun(s, rng)
        T = transform_T(phi)
        for p in s.point_ids:
            assert T(dirac(s, p)) == phi.values[s.index(p)]
        for Q in sample_simplex_measures(s, 10, 3):
            assert T(Q) == pairing(Q, phi)

    def test_injective_at_diracs(self, ab):
        f, g = ExtFun(ab, (0, 1)), ExtFun(ab, (0, 2))
        Tf, Tg = transform_T(f), transform_T(g)
        assert any(
            Tf(dirac(ab, p)) != Tg(dirac(ab, p)) for p in ab.point_ids
        )

    def test_cache_is_consistent(self, ab, half):
        T = transform_T(ExtFun(ab, (0, 1)))
        assert T(half) == T(half) == F(1, 2)


class TestMorphismAndOrder:
    def test_morphism_worked_example(self, ab, half):
        f, g = ExtFun(ab, (0, 1)), ExtFun(ab, (2, 0))
        assert transform_T(f + g)(half) == F(3, 2)
        rep = check_cone_morphism(f, g, 1, 1, [half])
        assert rep.ok

    def test_zero_coefficients(self, ab, half):
        rep = check_cone_morphism(ExtFun(ab, (0, 1)), ExtFun(ab, (2, 0)), 0, 0, [half])
        assert rep.ok
        assert transform_T(zero(ab))(half) == 0

    def test_positive_homogeneity(self, ab):
        f = ExtFun(ab, (0, 1))
        rep = check_cone_morphism(f, zero(ab), 2, 0, sample_simplex_measures(ab, 20, 5))
        assert rep.ok

    def test_rejects_negative_coefficients(self, ab, half):
        with pytest.raises(ValueError, match="nonnegative"):
            check_cone_morphism(ExtFun(ab, (0, 1)), zero(ab), -1, 0, [half])

    def test_isotone_comparable(self, ab):
        sample = sample_simplex_measures(ab, 20, 9)
        rep = check_isotone(ExtFun(ab, (0, 1)), ExtFun(ab, (1, 1)), sample)
        assert rep.ok

    def test_isotone_equal(self, ab):
        f = ExtFun(ab, (2, 3))
        assert check_isotone(f, f, sample_simplex_measures(ab, 5, 1)).ok

    def test_isotone_incomparable(self, ab):
        rep = check_isotone(
            ExtFun(ab, (0, 2)), ExtFun(ab, (1, 1)), sample_simplex_measures(ab, 5, 1)
        )
        assert rep.ok
        assert any("incomparable" in item.label for item in rep.items)


class TestMinimization:
    def test_three_point_example(self):
        s = Space(("x1", "x2", "x3"))
        f = ExtFun(s, (3, 1, 2))
        assert vertex_enumerate_min(f) == (1, ("x2",))
        rep = minimize_equivalence(f)
        assert rep.ok and rep.inf_value == rep.lift_min == 1
        assert rep.argmin == ("x2",)

    def test_constant_is_minimized_everywhere(self, ab):
        rep = minimize_equivalence(constant(ab, 5))
        assert rep.ok and rep.argmin == ("a", "b")

    def test_degenerate_face(self):
        s = Space(("x1", "x2", "x3"))
        f = ExtFun(s, (0, 0, 7))
        assert vertex_enumerate_min(f) == (0, ("x1", "x2"))
        rep = minimize_equivalence(f)
        assert rep.ok and rep.argmin_face == ("x1", "x2")

    def test_extended_values(self, ab):
        rep = minimize_equivalence(ExtFun(ab, (0, INF)))
        assert rep.ok and rep.argmin == ("a",)

    def test_agrees_with_vertex_oracle_randomly(self):
        rng = random.Random(59)
        for _ in range(40):
            s = rand_space(rng, rng.randint(2, 6))
            f = rand_ext_fun(s, rng)
            value, argmin = vertex_enumerate_min(f)
            rep = minimize_equivalence(f)
            assert rep.ok
            assert (rep.inf_value, rep.argmin) == (value, argmin)

    def test_perturbation_shifts_the_argmin(self, ab):
        f, phi = ExtFun(ab, (0, 1)), ExtFun(ab, (1, -1))
        rep = perturbation_principle(f, phi, sample_simplex_measures(ab, 20, 2))
        assert rep.ok
        assert minimize_equivalence(f + phi).argmin == ("b",)

    def test_perturbation_by_zero(self, ab):
        f = ExtFun(ab, (0, 1))
        assert perturbation_principle(f, zero(ab), [dirac(ab, "a")]).ok

    def test_perturbation_to_constant(self, ab):
        f = ExtFun(ab, (0, 1))
        phi = zero(ab) - f
        rep = perturbation_principle(f, phi, [dirac(ab, "a")])
        assert rep.ok
        assert minimize_equivalence(f + phi).argmin == ("a", "b")

    def test_eps_minimizer_lift(self):
        s = Space(("a", "b", "c"))
        f = ExtFun(s, (0, F(1, 10), 5))
        rep = minimizing_sequence_lift(f, F(1, 10))
        assert rep.ok and rep.eps_minimizers == ("a", "b")
        assert minimizing_sequence_lift(f, 100).eps_minimizers == ("a", "b", "c")
        exact = minimizing_sequence_lift(f, 0)
        assert exact.ok and exact.eps_minimizers == ("a",)


@given(st.lists(rationals, min_size=2, max_size=2))
def test_outside_measures_always_diverge(w):
    s = Space(("a", "b"))
    Q = Measure(s, tuple(w))
    tv = fenchel_transform(ExtFun(s, (0, 1)), full_class(), Q)
    if in_simplex(Q):
        assert tv.value == pairing(Q, ExtFun(s, (0, 1)))
    else:
        assert tv.value is INF and tv.ray is not None


def test_sampled_measures_are_deterministic_and_in_simplex(ab):
    a = sample_simplex_measures(ab, 20, 42)
    b = sample_simplex_measures(ab, 20, 42)
    assert a == b
    assert all(in_simplex(Q) for Q in a)
    assert a != sample_simplex_measures(ab, 20, 43)


# On a finite cone the transform's LP runs over the cone's dual program
# shifted by m = min f, so that it starts at a feasible vertex.  The
# reference below is the unshifted program with the same objective, solved
# cold from phase 1.  Values must agree; a +inf may come with another ray
# than the cold solve's, and that ray must certify the unshifted program.


def reference_transform_lp(f, Y, Q):
    """max <Q, sum lam*g> - s over sum lam*g(y) - s <= f(y) on dom(f), lam >= 0."""
    gens = Y.generators
    rows = [(tuple(g.values[y] for g in gens) + (-1,), LE, f.values[y]) for y in f.dom()]
    objective = tuple(pairing(Q, g) for g in gens) + (F(-1),)
    return make_lp(objective, rows, maximize=True, nonneg=[True] * len(gens) + [False])


def _cone_measures(f, rng):
    """A simplex measure, one charging a point off dom(f) if there is one,
    and a signed or off-mass measure."""
    s, dom = f.space, f.dom()
    raw = [F(rng.randint(0, 5)) for _ in range(s.n)]
    raw[rng.choice(dom)] += 1
    out = [Measure(s, tuple(w / sum(raw) for w in raw))]
    off = [i for i in range(s.n) if i not in dom]
    if off:
        charged = list(raw)
        charged[rng.choice(off)] += 1
        out.append(Measure(s, tuple(w / sum(charged) for w in charged)))
    out.append(rand_outside_measure(s, rng))
    return out


def test_finite_cone_transform_matches_the_unshifted_lp():
    rng = random.Random(6060)
    seen = set()
    for _ in range(300):
        n, k = rng.randint(2, 6), rng.randint(1, 4)
        space = rand_space(rng, n)
        gens = [
            ExtFun(space, tuple(
                F(0) if rng.random() < 0.3 else rand_rational(rng) for _ in range(n)
            ))
            for _ in range(k)
        ]
        affine = rng.random() < 0.5
        Y = finite_cone(gens, affine_closed=affine)
        f = rand_ext_fun(space, rng)
        for Q in _cone_measures(f, rng):
            tv = fenchel_transform(f, Y, Q)
            lp = reference_transform_lp(f, Y, Q)
            ref = solve(lp)
            if isinstance(ref, Unbounded):
                assert tv.value is INF
                assert is_valid_ray(lp, tv.ray)
                seen.add(("+inf", affine))
                if tv.ray != ref.ray:
                    seen.add("another ray")
            else:
                assert isinstance(ref, Optimal)
                assert tv.value == ref.value and tv.ray is None
                seen.add(("finite", affine))
    assert seen == {
        ("+inf", True), ("+inf", False), ("finite", True), ("finite", False), "another ray"
    }
