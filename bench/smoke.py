#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size.

    python3 bench/smoke.py

It is kept out of the tier-1 suite (pytest does not collect this file).
It checks that:
  * every metric BENCHMARK.json names is printed, with its unit, on every
    workload, with --trace 0 (end-to-end) and --trace 1 (per layer);
  * the exact gate counts a perturbed result (a biconjugate value off by 1)
    as a failed op, and fail_ratio reports it;
  * the tracer refuses to run while a module holds an unwrapped function.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 7
_BUILDER_KINDS = ("biconjugate", "minorant_envelope", "minimize_equivalence",
                  "infconv_eval", "minimax_identity_check")
TINY = {
    "api_full_large": {"sizes": ((6, "full"), (7, "lipschitz")),
                       "heavy": {k: (6, 7) for k in _BUILDER_KINDS}},
    "api_finite_cone": {"sizes": ((5, 2), (6, 3)), "per_size": 1, "heavy_max_n": 6},
    "cli_check": {"per_class": 1},
}


def _tiny_run(workload, trace, perturb=None):
    return run.measure(workload, SEED, 0.0, trace, build_kwargs=TINY[workload],
                       perturb=perturb, min_passes=1, max_passes=1)


def check_metrics_and_units():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, report = _tiny_run(workload, trace)
            assert result["correct"] and result["failed"] == 0, report["failures"]
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (workload, name, m)
            print(f"ok  {workload} --trace {trace}: {len(got)} metrics with units")


def _off_by_one(op, result):
    if op.kind != "biconjugate":
        return result
    vals = list(result.values)
    i = next(i for i, v in enumerate(vals) if type(v).__name__ != "PosInf")
    vals[i] += 1
    return type(result)(result.space, tuple(vals))


def check_gate_counts_a_perturbed_result():
    for workload in ("api_full_large", "api_finite_cone"):
        result, report = _tiny_run(workload, 0, perturb=_off_by_one)
        wrong = report["ops_by_kind"]["biconjugate"]["ops"]
        assert wrong > 0
        assert result["failed"] == wrong and not result["correct"], report["failures"]
        assert report["fail_ratio"] == wrong / result["attempted"]
        assert all("biconjugate" in r for r in report["failures"]), report["failures"]
        print(f"ok  {workload}: {wrong} perturbed biconjugate results failed, "
              f"fail_ratio={report['fail_ratio']:.3f}")


def check_tracer_refuses_unwrapped_reference():
    lm = run.import_linmin()
    original = lm.lp.solve
    tracer = Tracer()
    tracer.install(lm)
    try:
        lm.cones.solve = original      # a reference the tracer did not rebind
        try:
            tracer.verify()
        except RuntimeError as e:
            print(f"ok  tracer refuses to run: {e}")
        else:
            raise AssertionError("tracer accepted an unwrapped reference")
    finally:
        tracer.uninstall()


def main():
    sys.path.insert(0, run.SRC)
    check_metrics_and_units()
    check_gate_counts_a_perturbed_result()
    check_tracer_refuses_unwrapped_reference()
    print("smoke test passed")


if __name__ == "__main__":
    main()
