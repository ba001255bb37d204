"""Instance loading, suite reports, exit codes, and the eval subcommand."""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from linmin.cli import (
    InstanceError,
    Report,
    ReportLine,
    SUITES,
    _parser,
    eval_expression,
    load_instance,
    main,
    run_suite,
)

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
GOLDEN = Path(__file__).resolve().parent / "golden"
TWO_POINT = str(INSTANCES / "two_point_full.json")
GAP = str(INSTANCES / "finite_cone_gap.json")


def write(tmp_path, doc):
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(doc))
    return str(p)


BASE = {
    "points": ["a", "b"],
    "metric": [["0", "1"], ["1", "0"]],
    "class": {"kind": "full"},
    "functions": {"f": ["0", "1"]},
    "measures": {"Q": ["1/2", "1/2"]},
}


class TestLoadInstance:
    def test_bundled_instance(self):
        inst = load_instance(TWO_POINT)
        assert inst.space.point_ids == ("a", "b")
        assert set(inst.functions) == {"f", "g", "h", "zero"}
        assert "A" in inst.delta_sets
        assert inst.expect_fail == ()

    def test_missing_file(self, tmp_path):
        with pytest.raises(InstanceError, match="cannot read"):
            load_instance(str(tmp_path / "nope.json"))

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{")
        with pytest.raises(InstanceError, match="parse error"):
            load_instance(str(p))

    def test_rejects_decimal_rationals(self, tmp_path):
        doc = dict(BASE, functions={"f": ["0.5", "1"]})
        with pytest.raises(InstanceError, match="exact rational"):
            load_instance(write(tmp_path, doc))

    def test_rejects_json_numbers(self, tmp_path):
        doc = dict(BASE, measures={"Q": [0.5, 0.5]})
        with pytest.raises(InstanceError, match="exact rational"):
            load_instance(write(tmp_path, doc))

    def test_inf_only_in_function_values(self, tmp_path):
        doc = dict(BASE, measures={"Q": ["+inf", "0"]})
        with pytest.raises(InstanceError, match="measures\\[Q\\]"):
            load_instance(write(tmp_path, doc))

    def test_wrong_length(self, tmp_path):
        doc = dict(BASE, functions={"f": ["0"]})
        with pytest.raises(InstanceError, match="one value per point"):
            load_instance(write(tmp_path, doc))

    def test_triangle_violation_is_reported(self, tmp_path):
        doc = dict(
            BASE,
            points=["a", "b", "c"],
            metric=[["0", "1", "5"], ["1", "0", "1"], ["5", "1", "0"]],
            functions={},
            measures={},
        )
        with pytest.raises(InstanceError, match="triangle"):
            load_instance(write(tmp_path, doc))

    def test_lipschitz_requires_metric(self, tmp_path):
        doc = dict(BASE, **{"class": {"kind": "lipschitz"}})
        del doc["metric"]
        with pytest.raises(InstanceError, match="requires a metric"):
            load_instance(write(tmp_path, doc))

    def test_unknown_class_kind(self, tmp_path):
        doc = dict(BASE, **{"class": {"kind": "convex"}})
        with pytest.raises(InstanceError, match="unknown kind"):
            load_instance(write(tmp_path, doc))

    def test_finite_cone_needs_generators(self, tmp_path):
        doc = dict(BASE, **{"class": {"kind": "finite_cone"}})
        with pytest.raises(InstanceError, match="generators"):
            load_instance(write(tmp_path, doc))

    def test_unknown_expect_fail_suite(self, tmp_path):
        doc = dict(BASE, expect_fail=["frobnicate"])
        with pytest.raises(InstanceError, match="unknown suite"):
            load_instance(write(tmp_path, doc))

    def test_all_domain_empty(self, tmp_path):
        doc = dict(BASE, functions={"f": ["+inf", "+inf"]})
        with pytest.raises(InstanceError, match="functions\\[f\\]"):
            load_instance(write(tmp_path, doc))


class TestSuites:
    def test_all_suites_pass_on_two_point(self):
        inst = load_instance(TWO_POINT)
        report = run_suite(inst, "all", seed=7)
        assert report.ok and report.exit_code == 0
        assert {l.suite for l in report.lines} == {
            "biconjugation",
            "infconv",
            "minimax",
            "transform",
            "isotone",
            "minimize",
            "delta",
        }

    def test_unknown_suite(self):
        inst = load_instance(TWO_POINT)
        with pytest.raises(InstanceError, match="unknown suite"):
            run_suite(inst, "nope")

    def test_gap_instance_fails_as_expected(self):
        inst = load_instance(GAP)
        report = run_suite(inst, "biconjugation")
        assert not report.ok and report.exit_code == 1
        rendered = [l.render() for l in report.lines]
        assert any(
            "[FAIL (hypothesis (H) fails: expected)]" in r for r in rendered
        )
        # both the (H) failure and the biconjugation gap are flagged
        failing = [l for l in report.lines if not l.passed]
        assert any("property (H)" in l.identity for l in failing)
        assert any("f^xx = f" in l.identity for l in failing)

    def test_translation_is_skipped_off_the_lineality_space(self):
        # (5,0) is not in Y: b - a is never negative in the gap cone
        report = run_suite(load_instance(GAP), "transform", seed=5)
        (line,) = [l for l in report.lines if l.identity == "F(f-phi) = F(f) - <., phi>"]
        assert line.passed and line.detail.startswith("skipped: hypothesis not met")
        assert report.ok

    def test_translation_runs_on_the_lineality_space(self, tmp_path):
        doc = {
            "points": ["a", "b"],
            "class": {"kind": "finite_cone", "generators": [["0", "1"]]},
            "functions": {"f": ["5", "0"], "c": ["2", "2"], "g": ["0", "1"]},
        }
        report = run_suite(load_instance(write(tmp_path, doc)), "transform", seed=5)
        lines = {
            l.subject: l
            for l in report.lines
            if l.identity == "F(f-phi) = F(f) - <., phi>"
        }
        # constants are in Y and -Y, so the identity is checked and holds
        for subject in ("f=c phi=c", "f=f phi=c"):
            assert lines[subject].passed and not lines[subject].detail
        # f is not in Y, and g is in Y but -g is not
        for subject in ("f=c phi=f", "f=f phi=f", "f=f phi=g", "f=g phi=g"):
            assert lines[subject].detail.startswith("skipped: hypothesis not met")

    OFF_SIMPLEX = "F(f) = +inf outside the simplex, with a ray"

    @pytest.mark.parametrize(
        "generators, affine_closed, f, R, reason",
        [
            # 1 is not in Y: the first value of every member is <= 0
            ([["-1", "1"], ["-1", "-1"]], False, ["1", "1"], ["1", "2"], "constants"),
            # Y is the constants, so F(f)(R) = min f = 1 at a measure of mass 1
            ([["1", "1"]], True, ["1", "2"], ["2", "-1"], "mass 1"),
        ],
    )
    def test_off_simplex_is_skipped_without_the_constant_shifts(
        self, tmp_path, generators, affine_closed, f, R, reason
    ):
        doc = {
            "points": ["a", "b"],
            "class": {
                "kind": "finite_cone",
                "generators": generators,
                "affine_closed": affine_closed,
            },
            "functions": {"f": f},
            "measures": {"R": R},
        }
        report = run_suite(load_instance(write(tmp_path, doc)), "transform", seed=0)
        (line,) = [l for l in report.lines if l.identity == self.OFF_SIMPLEX]
        assert line.passed
        assert line.detail.startswith("skipped: hypothesis not met")
        assert reason in line.detail
        assert report.ok and report.exit_code == 0

    def test_off_simplex_runs_with_the_constant_shifts(self, tmp_path):
        doc = {
            "points": ["a", "b"],
            "class": {
                "kind": "finite_cone",
                "generators": [["1", "1"]],
                "affine_closed": True,
            },
            "functions": {"f": ["1", "2"]},
            "measures": {"R": ["2", "1"], "S": ["1/2", "-1"]},
        }
        report = run_suite(load_instance(write(tmp_path, doc)), "transform", seed=0)
        lines = [l for l in report.lines if l.identity == self.OFF_SIMPLEX]
        assert [l.subject for l in lines] == ["f=f Q=R", "f=f Q=S"]
        for line in lines:
            assert line.passed and line.detail == "got +inf"

    FULL_CLASS_ONLY = (
        ("infconv", "(f+g)^x = f^x <> g^x"),
        ("minimax", "f^x(xi) = inf over phi <= f of phi^x(xi)"),
        ("transform", "T(af+bg) = aT(f) + bT(g)"),
        ("transform", "support function of the minorant set equals F(f)"),
    )

    @pytest.mark.parametrize("name", ["two_point_full", "lipschitz_hats", "finite_cone_gap"])
    def test_full_class_identities_skip_once_on_other_classes(self, name):
        inst = load_instance(str(INSTANCES / f"{name}.json"))
        report = run_suite(inst, "all", seed=5)
        for suite, identity in self.FULL_CLASS_ONLY:
            lines = [l for l in report.lines if l.identity == identity]
            assert lines and all(l.suite == suite for l in lines)
            if inst.fclass.kind == "full":
                assert not any(l.skipped for l in lines)
            else:
                (line,) = lines
                assert line.subject == f"class {inst.fclass.kind}" and line.passed
                assert line.detail == "skipped: identity is stated for the full class"
                assert line.render().startswith("[SKIP]")
        assert report.ok == all(l.passed for l in report.lines if not l.skipped)

    def test_report_lines_render_pass(self):
        line = ReportLine("minimize", "id", "f=f", True, False)
        assert line.render().startswith("[PASS]")

    def test_skipped_lines_render_with_their_reason(self):
        reason = "skipped: hypothesis not met: phi is not in Y ∩ -Y"
        line = ReportLine("transform", "id", "f=f phi=f", True, False, reason)
        assert line.skipped
        assert line.render() == f"[SKIP] transform | id | f=f phi=f | {reason}"
        # a checked line keeps its bare tag, whatever its detail
        checked = ReportLine("transform", "id", "f=f", True, False, "got +inf")
        assert not checked.skipped and checked.render() == "[PASS] transform | id | f=f"
        failed = ReportLine("transform", "id", "f=f", False, False, "skipped: x")
        assert not failed.skipped and failed.render().startswith("[FAIL]")

    def test_skipped_lines_count_as_passed(self):
        report = run_suite(load_instance(GAP), "transform", seed=5)
        skipped = [l for l in report.lines if l.skipped]
        assert skipped and all(l.passed for l in skipped)
        assert report.ok and report.exit_code == 0

    def test_determinism(self):
        inst = load_instance(TWO_POINT)
        a = run_suite(inst, "all", seed=3)
        b = run_suite(inst, "all", seed=3)
        assert [l.render() for l in a.lines] == [l.render() for l in b.lines]

    @pytest.mark.parametrize("name", ["two_point_full", "finite_cone_gap", "lipschitz_hats"])
    def test_all_is_the_single_suites_in_order(self, name):
        inst = load_instance(str(INSTANCES / f"{name}.json"))
        single = [l for s in SUITES if s != "all" for l in run_suite(inst, s, 5).lines]
        assert list(run_suite(inst, "all", 5).lines) == single

    def test_the_line_order_is_pinned(self, tmp_path):
        # two delta sets, two off-simplex measures (R, S), a +inf value in f
        doc = {
            "points": ["a", "b"],
            "metric": [["0", "1"], ["1", "0"]],
            "class": {"kind": "full"},
            "functions": {"f": ["0", "+inf"], "g": ["1", "2"], "h": ["0", "0"]},
            "measures": {"Q": ["1/2", "1/2"], "R": ["2", "1"], "S": ["1/2", "-1"]},
            "delta_sets": {"A": ["0", "1"], "B": ["2", "3"]},
            "expect_fail": ["delta"],
        }
        report = run_suite(load_instance(write(tmp_path, doc)), "all", seed=5)
        got = [(l.suite, l.identity, l.subject, l.passed, l.expected_fail) for l in report.lines]
        finite = "gh"
        lines = (
            [("biconjugation", "bump functions exist for every point (property (H))", "class full")]
            + [("biconjugation", "f^xx = f", f"f={f}") for f in "fgh"]
            + [
                ("infconv", "(f+g)^x = f^x <> g^x", f"f={f} g={g} theta={t}")
                for f in finite for g in finite for t in finite
            ]
            + [
                ("minimax", "f^x(xi) = inf over phi <= f of phi^x(xi)", f"f={f} xi={x}")
                for f in "fgh" for x in finite
            ]
            + [("transform", "F(c) = c + indicator of the simplex", "c=3")]
            + [
                ("transform", "F(f-phi) = F(f) - <., phi>", f"f={f} phi={p}")
                for f in "fgh" for p in finite
            ]
            + [
                ("transform", "T(af+bg) = aT(f) + bT(g)", f"f={f} g={g} a=1 b=1")
                for f in finite for g in finite
            ]
            + [
                ("transform", "support function of the minorant set equals F(f)", f"f={f}")
                for f in finite
            ]
            + [
                ("transform", "F(f) = +inf outside the simplex, with a ray", f"f={f} Q={q}")
                for q in "RS" for f in "fgh"
            ]
            + [("isotone", "f <= g iff T(f) <= T(g)", s) for s in ("f=g g=h", "f=h g=g")]
            + [
                ("minimize", "inf of f = min of T(f) over the simplex; argmins correspond", f"f={f}")
                for f in "fgh"
            ]
            + [
                ("delta", identity, f"A={a}")
                for a in "AB"
                for identity in (
                    "delta set <-> bound function round trip is the identity",
                    "support function of the set equals F of its bound function",
                )
            ]
        )
        assert got == [(*line, True, line[0] == "delta") for line in lines]


class TestEval:
    @pytest.fixture
    def inst(self):
        return load_instance(TWO_POINT)

    def test_conjugate(self, inst):
        assert eval_expression(inst, "conjugate(f, g)") == {
            "value": "2",
            "maximizer": "a",
        }

    def test_biconjugate(self, inst):
        assert eval_expression(inst, "biconjugate(h)") == {"value": ["0", "+inf"]}

    def test_transform(self, inst):
        assert eval_expression(inst, "T(f)(Q)") == {"value": "1/2"}
        assert eval_expression(inst, "T(f)(outside)") == {"value": "+inf"}

    def test_support(self, inst):
        assert eval_expression(inst, "sigma(A)(Q)") == {"value": "3/2"}
        assert eval_expression(inst, "sigma(A)(outside)") == {"value": "+inf"}

    def test_infconv(self, inst):
        out = eval_expression(inst, "infconv(f, g)(zero)")
        assert out["value"] == "-1"

    def test_bad_names_and_shapes(self, inst):
        for expr, msg in [
            ("conjugate(f, nope)", "unknown function"),
            ("T(f)(R)", "unknown measure"),
            ("sigma(B)(Q)", "unknown delta set"),
            ("T(f)", "needs a measure"),
            ("conjugate(f)", "expected 2"),
            ("frob(f)", "unknown expression head"),
            ("not an expression", "cannot parse"),
        ]:
            with pytest.raises(InstanceError, match=msg):
                eval_expression(inst, expr)


class TestMain:
    def test_validate(self, capsys):
        assert main(["validate", TWO_POINT]) == 0
        assert "ok: 2 points" in capsys.readouterr().out

    def test_validate_bad_file(self, tmp_path, capsys):
        doc = dict(BASE, functions={"f": ["0.5", "1"]})
        assert main(["validate", write(tmp_path, doc)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_check_pass(self, capsys):
        assert main(["check", TWO_POINT, "--suite", "minimize", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "seed: 7" in out and "[PASS]" in out

    def test_check_expected_fail_exits_one(self, capsys):
        assert main(["check", GAP, "--suite", "biconjugation"]) == 1
        assert "expected" in capsys.readouterr().out

    def test_check_json_output(self, capsys):
        assert main(["check", TWO_POINT, "--suite", "delta", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True and doc["lines"]

    def test_check_output_is_byte_identical(self, capsys):
        main(["check", TWO_POINT, "--suite", "all", "--seed", "5"])
        first = capsys.readouterr().out
        main(["check", TWO_POINT, "--suite", "all", "--seed", "5"])
        assert capsys.readouterr().out == first

    def test_eval(self, capsys):
        assert main(["eval", TWO_POINT, "T(f)(Q)"]) == 0
        assert capsys.readouterr().out.strip() == "1/2"

    def test_eval_json(self, capsys):
        assert main(["eval", TWO_POINT, "conjugate(f, g)", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "value": "2",
            "maximizer": "a",
        }

    def test_eval_bad_expression(self, capsys):
        assert main(["eval", TWO_POINT, "frob(f)"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["two_point_full", "finite_cone_gap", "lipschitz_hats"])
    @pytest.mark.parametrize("fmt", ["txt", "json"])
    def test_check_matches_golden_output(self, capsys, name, fmt):
        argv = ["check", str(INSTANCES / f"{name}.json"), "--suite", "all", "--seed", "5"]
        code = main(argv + (["--json"] if fmt == "json" else []))
        assert code == (1 if name == "finite_cone_gap" else 0)
        golden = (GOLDEN / f"{name}.seed5.{fmt}").read_bytes()
        assert capsys.readouterr().out.encode() == golden

    @pytest.mark.parametrize("expr", ["biconjugate(f)", "envelope(f)"])
    def test_eval_library_error_exits_two(self, tmp_path, capsys, expr):
        # the cone {lam * (0, 1) : lam >= 0} holds no minorant of (0, -5)
        doc = {
            "points": ["a", "b"],
            "class": {"kind": "finite_cone", "generators": [["0", "1"]], "affine_closed": False},
            "functions": {"f": ["0", "-5"]},
        }
        path = write(tmp_path, doc)
        with pytest.raises(InstanceError, match="no minorant"):
            eval_expression(load_instance(path), expr)
        assert main(["eval", path, expr]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "minorant" in captured.err
        assert "Traceback" not in captured.err + captured.out

    def test_the_shared_parser_keeps_no_state_between_calls(self, capsys):
        # the reference: a call with no flags on a newly built parser
        _parser.cache_clear()
        assert main(["check", TWO_POINT]) == 0
        fresh = capsys.readouterr().out
        assert fresh.startswith("seed: 0\n")
        _parser.cache_clear()

        golden = {
            fmt: (GOLDEN / f"two_point_full.seed5.{fmt}").read_bytes()
            for fmt in ("json", "txt")
        }
        assert main(["check", TWO_POINT, "--suite", "all", "--seed", "5", "--json"]) == 0
        assert capsys.readouterr().out.encode() == golden["json"]
        # the defaults all / 0 / text come back, not the last call's flags
        assert main(["check", TWO_POINT]) == 0
        assert capsys.readouterr().out == fresh
        with pytest.raises(SystemExit) as exc:
            main(["check", TWO_POINT, "--suite", "bogus"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: linmin check [-h]")
        assert "argument --suite: invalid choice: 'bogus'" in captured.err
        # the calls after a parse error still work
        assert main(["validate", TWO_POINT]) == 0
        assert capsys.readouterr().out.startswith("ok: 2 points")
        assert main(["check", TWO_POINT, "--suite", "all", "--seed", "5"]) == 0
        assert capsys.readouterr().out.encode() == golden["txt"]

    @pytest.mark.parametrize("points", [[1, 2], [None, True], ["a", ["b"]]])
    def test_point_ids_must_be_strings(self, tmp_path, capsys, points):
        path = write(tmp_path, dict(BASE, points=points))
        for argv in (["validate", path], ["check", path]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err == (
                "error: field 'points': expected a nonempty list of strings\n"
            )
            assert captured.out == ""

    @pytest.mark.skipif(
        not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
        reason="this interpreter parses 5,000-digit ints",
    )
    def test_a_value_past_the_int_digit_limit_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, dict(BASE, functions={"f": ["0", "1" * 5000]}))
        for argv in (["validate", path], ["check", path]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(
                "error: functions[f]: expected an exact rational string like '1/2'"
            )
            assert "Traceback" not in captured.err + captured.out

    def assert_bad_input(self, tmp_path, capsys, doc, field):
        path = write(tmp_path, doc)
        for argv in (["validate", path], ["check", path]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert f"error: field '{field}': expected a JSON " in captured.err
            assert "Traceback" not in captured.err + captured.out

    def test_class_must_be_an_object(self, tmp_path, capsys):
        doc = dict(BASE, **{"class": "full"})
        self.assert_bad_input(tmp_path, capsys, doc, "class")

    def test_affine_closed_must_be_a_bool(self, tmp_path, capsys):
        cls = {"kind": "finite_cone", "generators": [["0", "1"]]}
        doc = dict(BASE, **{"class": dict(cls, affine_closed="false")})
        self.assert_bad_input(tmp_path, capsys, doc, "class.affine_closed")

    def test_expect_fail_must_be_a_list(self, tmp_path, capsys):
        doc = dict(BASE, expect_fail="minimize")
        self.assert_bad_input(tmp_path, capsys, doc, "expect_fail")

    def test_sections_and_metric_must_have_their_json_types(self, tmp_path, capsys):
        for key, value in [
            ("functions", [["0", "1"]]),
            ("measures", "Q"),
            ("delta_sets", 3),
            ("metric", 3),
            ("metric", ["0", "1"]),
        ]:
            self.assert_bad_input(tmp_path, capsys, dict(BASE, **{key: value}), key)


# --- fuzzing: any instance file and expression keeps the exit-code contract --

# mostly well-formed values and known names, so that most files load and
# most expressions reach the library
_GOOD = ["0", "1", "-1", "2", "-5", "1/2", "-3/4", "+inf"]
_BAD = ["0.5", "1e-2", "inf", "1/0", "", 3, None, ["1"]]
_values = st.sampled_from(_GOOD * 40 + _BAD)
_fnames = st.sampled_from(["f", "g", "h", "x"])
_mnames = st.sampled_from(["Q", "R", "x"])


def _rows(n, values=_values):
    return st.lists(values, min_size=n, max_size=n)


@st.composite
def _instances(draw):
    n = draw(st.integers(1, 3))
    doc = {"points": [f"p{i}" for i in range(n)]}
    if draw(st.sampled_from([True, True, True, False])):
        d = draw(st.sampled_from(["1", "2", "1/2"]))
        doc["metric"] = [["0" if i == j else d for j in range(n)] for i in range(n)]
    kind = draw(st.sampled_from(["full", "lipschitz", "finite_cone", "finite_cone", "convex"]))
    cls = {"kind": kind}
    if kind == "finite_cone":
        gen = st.sampled_from(["0", "1", "-1", "2"])
        cls["generators"] = draw(st.lists(_rows(n, gen), min_size=1, max_size=3))
        cls["affine_closed"] = draw(st.booleans())
    doc["class"] = cls
    doc["functions"] = draw(st.dictionaries(_fnames, _rows(n), min_size=1, max_size=3))
    doc["measures"] = draw(st.dictionaries(_mnames, _rows(n), max_size=2))
    doc["delta_sets"] = draw(st.dictionaries(st.just("A"), _rows(n), max_size=1))
    doc["expect_fail"] = draw(st.lists(st.sampled_from(SUITES), max_size=2))
    # damage one file in ten: a wrong length or a missing field
    damage = draw(st.sampled_from([None] * 18 + ["length", "field"]))
    if damage == "length":
        doc["points"] = doc["points"][:-1]
    elif damage == "field":
        del doc[draw(st.sampled_from(sorted(doc)))]
    return doc


_expressions = st.one_of(
    st.builds("conjugate({},{})".format, _fnames, _fnames),
    st.builds("biconjugate({})".format, _fnames),
    st.builds("envelope({})".format, _fnames),
    st.builds("T({})({})".format, _fnames, _mnames),
    st.builds("sigma({})({})".format, st.sampled_from(["A", "B"]), _mnames),
    st.builds("infconv({},{})({})".format, _fnames, _fnames, _fnames),
    st.sampled_from(["T(f)", "frob(f)", "conjugate(f)(g)", ")("]),
)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=_instances(), expr=_expressions, suite=st.sampled_from(SUITES))
def test_fuzzed_instances_keep_the_exit_code_contract(tmp_path_factory, doc, expr, suite):
    path = tmp_path_factory.mktemp("fuzz") / "inst.json"
    path.write_text(json.dumps(doc))
    for argv in (["eval", str(path), expr], ["check", str(path), "--suite", suite]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error: ")
