#!/usr/bin/env python3
"""Benchmark for linmin: one closed-loop client, no threads, exact gates.

    python3 bench/run.py --workload api_full_large --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Workloads (see BENCHMARK.json and workloads.py):
  api_full_large   library calls, full class and Lipschitz cone, n = 16..32
  api_finite_cone  affine-closed finite cones, n = 10..24, k = 6..10
  cli_check        in-process ``linmin check``/``eval`` on generated files

A run sets the workload up several times (fresh import of linmin, input
generation, instance files) and reports the median set-up time.  It then
makes passes over the workload's operations until ``--seconds`` of
operation time have passed and at least MIN_PASSES passes are done.  An
op's latency is its median over the passes, scaled to a reference machine
speed (see CAL_REF_S); the latency metrics and ops_per_s are computed from
those.  Every result is gated against an exact reference; a gate failure
or an exception fails the op.

With ``--trace 1`` the run makes untraced passes for half of ``--seconds``
and then one traced pass, and reports the per-layer metrics of the traced
pass.  The spans are written to ``bench/out/``.

The last line of stdout is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it is the full report: environment stamp, tail percentile,
failure reasons, per-kind output digests and per-layer call table.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import workloads
from tracer import Tracer, tail

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("api_full_large", "api_finite_cone", "cli_check")
MODULES = ("core", "lp", "cones", "duality", "transform", "oracle", "cli")
SETUP_REPEATS = 5
# This machine's speed swings by up to 2x for minutes at a time, for linmin
# and for any other Python arithmetic alike, because it shares its cores.
# Times are therefore scaled to a reference speed at which calibration_s()
# takes 1 ms, from calibrations taken right before and after each timed
# piece of work; the report keeps the raw times as well.
CAL_REF_S = 0.001
MIN_PASSES = 3
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_linmin():
    """A fresh import of linmin from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "linmin" or n.startswith("linmin.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"linmin.{m}") for m in MODULES}
    origin = os.path.abspath(sys.modules["linmin"].__file__)
    if not origin.startswith(SRC + os.sep):
        raise ImportError(f"linmin was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def set_up(workload, seed, workdir, tracer=None, build_kwargs=None):
    """Import linmin afresh and build the workload's operations."""
    lm = import_linmin()
    if tracer is not None:
        tracer.install(lm)
    kwargs = dict(build_kwargs or {})
    if workload == "cli_check":
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        kwargs["workdir"] = workdir
    return workloads.BUILDERS[workload](lm, seed, **kwargs)


def canon(x):
    """A JSON-able canonical form of a library result, for the digests."""
    if isinstance(x, Fraction):
        return str(x)
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if type(x).__name__ == "PosInf":
        return "+inf"
    if isinstance(x, (tuple, list)):
        return [canon(v) for v in x]
    if dataclasses.is_dataclass(x):
        return {f.name: canon(getattr(x, f.name))
                for f in dataclasses.fields(x) if f.name != "space"}
    return repr(x)


class Loop:
    """Closed-loop passes over a workload's operations, with gating and
    bookkeeping.  A pass runs every operation once, in order."""

    def __init__(self, ops, tracer=None, perturb=None):
        self.ops = ops
        self.tracer = tracer
        self.perturb = perturb
        self.raw = [[] for _ in ops]      # seconds, per op, one per pass
        self.scaled = [[] for _ in ops]   # the same at reference speed
        self.pass_busy = []
        self.pass_scaled = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.kinds = {}          # kind -> [ops, seconds]
        self.digests = {}
        self.cli_stats = {}

    def run(self, seconds, min_passes, max_passes=None):
        """Passes until ``seconds`` of operation time and ``min_passes``."""
        clock = time.perf_counter
        tracer = self.tracer
        cal_before = calibration_s()
        while True:
            first = not self.pass_busy
            busy = scaled = 0.0
            for j, op in enumerate(self.ops):
                if tracer is not None:
                    tracer.current_op = j
                t0 = clock()
                try:
                    result = op.call()
                    error = None
                except Exception as e:  # a raising op is a failed op
                    result = None
                    error = f"{op.kind}: raised {type(e).__name__}: {e}"
                dt = clock() - t0
                cal_after = calibration_s()
                at_ref = to_reference(dt, cal_before, cal_after)
                cal_before = cal_after
                busy += dt
                scaled += at_ref
                self.raw[j].append(dt)
                self.scaled[j].append(at_ref)
                self.kinds.setdefault(op.kind, [0, 0.0])[0] += 1
                self.kinds[op.kind][1] += dt
                self._gate(op, result, error, record_digest=first)
            self.pass_busy.append(busy)
            self.pass_scaled.append(scaled)
            passes = len(self.pass_busy)
            if max_passes is not None and passes >= max_passes:
                return
            if sum(self.pass_busy) >= seconds and passes >= min_passes:
                return

    def latencies(self, raw=False):
        """Each op's latency: its median over the passes, at reference speed
        unless ``raw``."""
        return [statistics.median(s) for s in (self.raw if raw else self.scaled)]

    def _gate(self, op, result, error, record_digest):
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            if error is None and self.perturb is not None:
                result = self.perturb(op, result)
            reason = error
            if reason is None:
                try:
                    reason = op.gate(result)
                except Exception as e:  # a result the gate cannot read is wrong
                    reason = f"gate raised {type(e).__name__}: {e}"
                if reason is not None:
                    reason = f"{op.kind}: {reason}"
        finally:
            if self.tracer is not None:
                self.tracer.paused = False
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(reason)
        for key, value in op.stats.items():
            self.cli_stats[key] = self.cli_stats.get(key, 0) + value
        op.stats = {}
        if record_digest:
            h = self.digests.setdefault(op.kind, hashlib.sha256())
            h.update(json.dumps(canon(result), sort_keys=True).encode())
            h.update(b"\n")


def calibration_s(repeats=1):
    """Time of a fixed piece of Fraction arithmetic that does not touch
    linmin; the median of ``repeats`` timings."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for i in range(1, 200):
            Fraction(i, i + 1) * Fraction(i + 2, i + 3) + Fraction(1, i)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def to_reference(seconds, cal_before, cal_after):
    """``seconds`` as they would read on a machine that runs calibration_s()
    in CAL_REF_S, judged from calibrations right before and after."""
    return seconds * CAL_REF_S * 2 / (cal_before + cal_after)


def environment(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "commit": git_commit(),
        "seed": seed,
        # the same test lp makes when it picks its scalar type
        "scalar_backend": "gmpy2.mpq" if importlib.util.find_spec("gmpy2") else "fractions.Fraction",
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed, seconds, trace, build_kwargs=None, perturb=None,
            min_passes=MIN_PASSES, max_passes=None):
    """One benchmark run; returns (result line, report)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"instances-{workload}-{seed}-{os.getpid()}")
    try:
        if trace:
            return _measure_traced(workload, seed, seconds, workdir, build_kwargs, perturb,
                                   max_passes)
        return _measure(workload, seed, seconds, workdir, build_kwargs, perturb,
                        min_passes, max_passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(workload, seed, seconds, workdir, build_kwargs, perturb, min_passes, max_passes):
    setup_raw, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        cal = calibration_s(5)
        t0 = time.perf_counter()
        ops = set_up(workload, seed, workdir, build_kwargs=build_kwargs)
        dt = time.perf_counter() - t0
        setup_raw.append(dt)
        setup_scaled.append(to_reference(dt, cal, calibration_s(5)))
    loop = Loop(ops, perturb=perturb)
    loop.run(seconds, min_passes, max_passes)
    rss = peak_rss_mb()
    metrics, tail_info = _end_to_end(loop.latencies(), setup_scaled, rss)
    report = _report(workload, seed, loop, metrics)
    report["op_tail"] = tail_info
    report["raw_metrics"], _ = _end_to_end(loop.latencies(raw=True), setup_raw, rss)
    return _result(loop, metrics), report


def _end_to_end(latencies, setup_times, rss):
    lat_ms = [x * 1e3 for x in latencies]
    tail_ms, pct, n = tail(lat_ms)
    metrics = {
        "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    return metrics, {"percentile": pct, "samples": n}


def _measure_traced(workload, seed, seconds, workdir, build_kwargs, perturb, max_passes):
    # untraced passes first, then one traced pass over the same inputs; the
    # traced pass over the median untraced pass is the tracing overhead
    ops = set_up(workload, seed, workdir, build_kwargs=build_kwargs)
    plain = Loop(ops, perturb=perturb)
    plain.run(seconds / 2, 1, max_passes)
    tracer = Tracer()
    try:
        ops = set_up(workload, seed, workdir, tracer=tracer, build_kwargs=build_kwargs)
        loop = Loop(ops, tracer=tracer, perturb=perturb)
        loop.run(0, 1, 1)
    finally:
        tracer.uninstall()
    overhead = loop.pass_scaled[0] / statistics.median(plain.pass_scaled)
    layer = tracer.layer_metrics(loop.latencies(raw=True), loop.cli_stats, overhead)
    names = _per_layer_names()
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items() if k in names}
    report = _report(workload, seed, loop, metrics)
    report["layers"] = {k: v for k, (v, _u) in sorted(layer.items())}
    spans = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.tsv")
    tracer.write(spans, {"workload": workload, "environment": report["environment"]})
    report["spans_file"] = os.path.relpath(spans, ROOT)
    loop.attempted += plain.attempted
    loop.failed += plain.failed
    loop.failures = (plain.failures + loop.failures)[:20]
    return _result(loop, metrics), report


def _report(workload, seed, loop, metrics):
    return {
        "workload": workload,
        "environment": environment(seed),
        "passes": len(loop.pass_busy),
        "pass_busy_s": loop.pass_busy,
        "pass_reference_s": loop.pass_scaled,
        "ops_per_pass": len(loop.ops),
        "fail_ratio": loop.failed / loop.attempted,
        "failures": loop.failures,
        "ops_by_kind": {k: {"ops": c, "busy_s": t} for k, (c, t) in sorted(loop.kinds.items())},
        "digests": {k: h.hexdigest()[:16] for k, h in sorted(loop.digests.items())},
        "cli": loop.cli_stats,
        "metrics": metrics,
    }


def _result(loop, metrics):
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }


def _per_layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)["per_layer"]}


def run_all(args):
    """Each workload in its own process, so each reports its own peak RSS."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", w,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {w} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"{w} (scalar backend {report['environment']['scalar_backend']})")
        rows = dict(result["metrics"], fail_ratio={"value": report["fail_ratio"], "unit": "ratio"})
        for name, m in rows.items():
            print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
            total["metrics"][f"{w}.{name}"] = m
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    print(json.dumps(total))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "linmin", "__init__.py")):
        print(f"error: no linmin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        run_all(args)
        return 0
    result, report = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
