"""Span tracer that wraps linmin's public functions from outside the package.

Each traced function is rebound in every ``linmin`` module that holds a
reference to it (``solve`` is imported separately by ``cones``, ``duality``
and ``transform``), and installation fails if any module still holds the
original, so no call escapes the count.  Spans live in parallel arrays in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from array import array

# (module, function); the module names the layer
FUNCTIONS = (
    ("core", "pairing"),
    ("lp", "solve"),
    ("cones", "contains"),
    ("cones", "check_property_H"),
    ("cones", "check_property_H_all"),
    ("cones", "separates_points"),
    ("duality", "conjugate"),
    ("duality", "biconjugate"),
    ("duality", "minorant_envelope"),
    ("duality", "insert_between"),
    ("duality", "sum_decompose"),
    ("duality", "minimax_identity_check"),
    ("duality", "infconv_eval"),
    ("transform", "fenchel_transform"),
    ("transform", "support_function"),
    ("transform", "minimize_equivalence"),
    ("cli", "load_instance"),
    ("cli", "run_suite"),
    ("cli", "eval_expression"),
    ("cli", "main"),
)
# (module, class, method, span name)
METHODS = (
    ("core", "Space", "__post_init__", "core.space_build"),
    ("transform", "TransformedFunction", "__call__", "transform.T_call"),
)


def _bits(q):
    return max(int(q.numerator).bit_length(), int(q.denominator).bit_length())


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        # one entry per span: name id, start, duration, self time, parent, op
        self.name = array("i")
        self.start = array("d")
        self.dur = array("d")
        self.self_time = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1
        self.paused = False
        self._stack = []          # [span index, time covered by children]
        # one entry per lp.solve: tableau cells, outcome, result bits, shared rows
        self.solves = []
        self._last_rows = None
        self._installed = []      # (owner, attribute, original)

    # --- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name):
        nid = self._name_id(name)
        after = self._after_solve if name == "lp.solve" else None
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.op.append(self.current_op)
            self.dur.append(0.0)
            self.self_time.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += d
                self.dur[idx] = d
                self.self_time[idx] = d - frame[1]
            if after is not None:
                after(args[0], result)
            return result

        return traced

    def _after_solve(self, lp, result):
        kind = type(result).__name__
        nums = []
        for attr in ("value", "point", "ray"):
            v = getattr(result, attr, None)
            if isinstance(v, tuple):
                nums.extend(v)
            elif v is not None:
                nums.append(v)
        bits = max((_bits(q) for q in nums), default=0)
        rows = lp.constraints
        shared = rows == self._last_rows
        self._last_rows = rows
        self.solves.append((len(rows) * len(lp.variables), kind, bits, shared))

    # --- installation ------------------------------------------------------

    def install(self, lm):
        """Wrap every traced function and method of the namespace ``lm``."""
        modules = _linmin_modules()
        for modname, attr in FUNCTIONS:
            original = getattr(getattr(lm, modname), attr)
            wrapped = self._wrap(original, f"{modname}.{attr}")
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._installed.append((mod, key, original))
        for modname, clsname, meth, name in METHODS:
            cls = getattr(getattr(lm, modname), clsname)
            original = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(original, name))
            self._installed.append((cls, meth, original))
        self.verify()

    def verify(self):
        originals = {id(o): f"{o.__module__}.{o.__qualname__}" for _, _, o in self._installed}
        for mod in _linmin_modules():
            for key, value in vars(mod).items():
                held = [value]
                if isinstance(value, dict):
                    held += list(value.values())
                elif isinstance(value, (list, tuple)):
                    held += list(value)
                elif isinstance(value, type):
                    held += list(vars(value).values())
                for v in held:
                    if id(v) in originals:
                        raise RuntimeError(
                            f"{mod.__name__}.{key} still holds unwrapped {originals[id(v)]}"
                        )

    def uninstall(self):
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    # --- results -----------------------------------------------------------

    def _rows(self):
        """Rows (name, start, duration, self time, parent, op) in start order."""
        return [
            (self.names[self.name[i]], self.start[i], self.dur[i], self.self_time[i],
             self.parent[i], self.op[i])
            for i in range(len(self.start))
        ]

    def layer_metrics(self, op_seconds, cli_stats, overhead_ratio):
        """Every per-layer metric of the benchmark, as name -> (value, unit).

        ``op_seconds`` is the traced duration of each op of the pass and
        ``cli_stats`` the summed line counts of its check ops."""
        rows = self._rows()
        calls, total, selfs = {}, {}, {}
        for name, _s, d, st, _p, _o in rows:
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + d
            selfs[name] = selfs.get(name, 0.0) + st
        wall = sum(op_seconds)
        n_ops = len(op_seconds)
        solve_ms = sorted(d * 1e3 for name, _s, d, _st, _p, _o in rows if name == "lp.solve")
        n_solves = len(solve_ms)
        outcomes = [s[1] for s in self.solves]

        def ratio(a, b):
            return a / b if b else 0.0

        # T(f) calls answered from the cache made no fenchel_transform call
        t_calls = {i for i, r in enumerate(rows) if r[0] == "transform.T_call"}
        t_miss = {r[4] for r in rows if r[0] == "transform.fenchel_transform" and r[4] in t_calls}
        # solves made under cli.run_suite, for solves per report line
        suite_spans = {i for i, r in enumerate(rows) if r[0] == "cli.run_suite"}
        suite_solves = 0
        for r in rows:
            if r[0] == "lp.solve":
                p = r[4]
                while p >= 0 and p not in suite_spans:
                    p = rows[p][4]
                suite_solves += p >= 0

        m = {
            "lp.solve.calls": (n_solves, "count"),
            "lp.solves_per_op": (ratio(n_solves, n_ops), "count"),
            "lp.solve.self_s": (selfs.get("lp.solve", 0.0), "s"),
            "lp.share_of_wall": (ratio(total.get("lp.solve", 0.0), wall), "ratio"),
            "lp.solve.p50_ms": (statistics.median(solve_ms) if solve_ms else 0.0, "ms"),
            "lp.solve.tail_ms": (tail(solve_ms)[0] if solve_ms else 0.0, "ms"),
            "lp.tableau_cells.mean": (ratio(sum(s[0] for s in self.solves), n_solves), "count"),
            "lp.result_bits.max": (max((s[2] for s in self.solves), default=0), "bits"),
            "lp.outcome.optimal_ratio": (ratio(outcomes.count("Optimal"), n_solves), "ratio"),
            "lp.outcome.unbounded_ratio": (ratio(outcomes.count("Unbounded"), n_solves), "ratio"),
            "lp.outcome.infeasible_ratio": (ratio(outcomes.count("Infeasible"), n_solves), "ratio"),
            "lp.shared_polyhedron_ratio": (ratio(sum(s[3] for s in self.solves), n_solves), "ratio"),
            "transform.T_cache_hit_ratio": (
                ratio(len(t_calls) - len(t_miss), len(t_calls)), "ratio"),
            "core.space_build_s": (total.get("core.space_build", 0.0), "s"),
            "cli.output_s": (selfs.get("cli.main", 0.0), "s"),
            "cli.lines": (cli_stats.get("lines", 0), "count"),
            "cli.fail_lines": (cli_stats.get("fail_lines", 0), "count"),
            "cli.expected_fail_lines": (cli_stats.get("expected_fail_lines", 0), "count"),
            "cli.solves_per_line": (ratio(suite_solves, cli_stats.get("lines", 0)), "count"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }
        for modname, attr in FUNCTIONS:
            name = f"{modname}.{attr}"
            m.setdefault(f"{name}.calls", (calls.get(name, 0), "count"))
            m.setdefault(f"{name}.self_s", (selfs.get(name, 0.0), "s"))
        return m

    def write(self, path, header):
        """Write the spans as tab-separated rows after a JSON header line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            fh.write("name\tstart_s\tdur_s\tself_s\tparent\top\n")
            for name, s, d, st, p, o in self._rows():
                fh.write(f"{name}\t{s:.9f}\t{d:.9f}\t{st:.9f}\t{p}\t{o}\n")


def tail(values):
    """The highest-percentile sample with at least ten samples above it.

    Returns (value, percentile, number of samples); with ten or fewer
    samples the largest one is returned."""
    xs = sorted(values)
    n = len(xs)
    k = n - 11 if n > 10 else n - 1
    return xs[k], 100.0 * (k + 1) / n, n


def _linmin_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "linmin" or name.startswith("linmin."))]
