"""Instance loading, suite reports, exit codes, and the eval subcommand."""

import json
from pathlib import Path

import pytest

from linmin.cli import (
    InstanceError,
    Report,
    ReportLine,
    eval_expression,
    load_instance,
    main,
    run_suite,
)

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
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

    def test_report_lines_render_pass(self):
        line = ReportLine("minimize", "id", "f=f", True, False)
        assert line.render().startswith("[PASS]")

    def test_determinism(self):
        inst = load_instance(TWO_POINT)
        a = run_suite(inst, "all", seed=3)
        b = run_suite(inst, "all", seed=3)
        assert [l.render() for l in a.lines] == [l.render() for l in b.lines]


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
