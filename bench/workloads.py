"""Seeded inputs, operations and exact correctness gates for each workload.

A workload is a list of operations built from a seed and a namespace ``lm``
of linmin modules (``lm.core``, ``lm.cones``, ...).  Every operation looks
its library function up on the module at call time, so the tracer's
rebinding is seen.
Each operation carries a gate that returns ``None`` when the result is
exactly right and a reason string otherwise.

Structural properties that drive LP work (the share of ``+inf`` values,
the share of negative values, sizes and generator counts) are fixed per
workload; the seed draws everything else.  That keeps the work of one
pass comparable across seeds, so a metric's spread measures the program
and not the luck of the draw.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    gate: Callable[[object], "str | None"]
    # per-op facts the gate records for the per-layer report (cli line counts)
    stats: dict = field(default_factory=dict)


# --- shared generators -------------------------------------------------------


def _ids(n):
    return tuple(f"p{i}" for i in range(n))


def _metric(rng, n):
    # distances in [1, 2] satisfy the triangle inequality by construction
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = Fraction(rng.randint(8, 16), 8)
    return d


def _magnitude(rng, lo=1):
    return Fraction(rng.randint(lo, 16), rng.randint(1, 4))


def _values(rng, n, n_inf, INF):
    """n values: exactly n_inf are +inf and half of the rest are negative."""
    order = list(range(n))
    rng.shuffle(order)
    n_neg = (n - n_inf) // 2
    vals = [None] * n
    for rank, i in enumerate(order):
        if rank < n_inf:
            vals[i] = INF
        elif rank < n_inf + n_neg:
            vals[i] = -_magnitude(rng)
        else:
            vals[i] = _magnitude(rng, 0)
    return vals


def _simplex(rng, n, support):
    raw = [Fraction(0)] * n
    for i in support:
        raw[i] = Fraction(rng.randint(1, 12))
    total = sum(raw)
    return [w / total for w in raw]


def _off_simplex(rng, n, i):
    # odd i: mass 2 and no negative weight; even i: one negative weight
    w = _simplex(rng, n, range(n))
    if i % 2:
        return [2 * v for v in w]
    j = rng.randrange(n)
    w[j] = -w[j]
    return w


# --- exact references --------------------------------------------------------


def _scan(f_vals, phi_vals, finite):
    """max over dom f of phi - f, and its lowest-index maximizer."""
    best, where = None, -1
    for i, (fv, pv) in enumerate(zip(f_vals, phi_vals)):
        if finite(fv) and (best is None or pv - fv > best):
            best, where = pv - fv, i
    return best, where


def _dot(w, vals):
    return sum((a * b for a, b in zip(w, vals)), Fraction(0))


# --- api_full_large ----------------------------------------------------------

# (n, class) per instance: n = 16, 18, ..., 32, so that the latencies of the
# single-LP operations spread evenly instead of forming a few clusters, and
# the class alternates
FULL_SIZES = tuple((n, ("full", "lipschitz")[(n // 2) % 2]) for n in range(16, 33, 2))
# The costliest operations (n LPs each, or one LP with n to 2n rows) run on
# a subset of sizes, so that one pass takes about 5 s on Fraction arithmetic
# and a run repeats it several times; the other operations run on every
# instance.
FULL_HEAVY = {
    "biconjugate": (16, 24),
    "minorant_envelope": (20,),
    "minimize_equivalence": (18,),
    "minimax_identity_check": (28,),
    "infconv_eval": (22,),
}


def build_api_full_large(lm, seed, sizes=FULL_SIZES, heavy=FULL_HEAVY):
    rng = random.Random(f"api_full_large:{seed}")
    ops = []
    for n, kind in sizes:
        ops.extend(_full_instance_ops(lm, rng, n, kind, heavy))
    return ops


def _full_instance_ops(lm, rng, n, kind, heavy):
    core, cones = lm.core, lm.cones
    INF, is_finite = core.INF, core.is_finite
    X = core.Space(_ids(n), _metric(rng, n))
    Y = cones.full_class() if kind == "full" else cones.lipschitz_cone()
    fv = _values(rng, n, n // 4, INF)
    f = core.ExtFun(X, fv)
    dom = f.dom()
    off_dom = [i for i in range(n) if i not in dom]

    def finite_fun():
        return core.ExtFun(X, _values(rng, n, 0, INF))

    f1, g1, theta, xi = finite_fun(), finite_fun(), finite_fun(), finite_fun()
    Q_dom = core.Measure(X, _simplex(rng, n, dom))
    Q_all = core.Measure(X, _simplex(rng, n, range(n)))
    D = core.dirac(X, X.point_ids[rng.choice(dom)])
    Q_off = core.Measure(X, _off_simplex(rng, n, n // 2))
    A = lm.transform.DeltaSet(X, _values(rng, n, 0, INF))
    u = finite_fun()
    v_vals = [a + _magnitude(rng, 0) for a in u.values]
    for i in rng.sample(range(n), n // 4):
        v_vals[i] = INF
    v = core.ExtFun(X, v_vals)
    slack = [_magnitude(rng, 0) for _ in range(n)]
    phi = core.ExtFun(X, [a + b - s for a, b, s in zip(f1.values, g1.values, slack)])
    full = cones.full_class()
    lip = cones.lipschitz_cone()
    tag = f"n={n} {kind}"

    def equals_f(res):
        if res.values != f.values:
            return f"{tag}: differs from f"
        return None

    def transform_value(expected):
        def gate(tv):
            if tv.value != expected:
                return f"{tag}: F(f)(Q)={tv.value} expected {expected}"
            return None
        return gate

    def off_simplex_gate(tv):
        if is_finite(tv.value) or tv.ray is None:
            return f"{tag}: finite off the simplex"
        *ray_phi, ray_s = tv.ray
        if _dot(Q_off.weights, ray_phi) - ray_s <= 0:
            return f"{tag}: ray does not improve the objective"
        if any(ray_phi[y] - ray_s > 0 for y in dom):
            return f"{tag}: ray leaves the feasible set"
        return None

    def sigma_gate(tv):
        want = _dot(Q_all.weights, A.bounds)
        return None if tv.value == want else f"{tag}: sigma={tv.value} expected {want}"

    def infconv_gate(iv):
        want, _ = _scan(
            [a + b for a, b in zip(f1.values, g1.values)], theta.values, is_finite
        )
        if iv.value != want:
            return f"{tag}: infconv={iv.value} expected {want}"
        w = iv.witness.values
        a, _ = _scan(f1.values, w, is_finite)
        b, _ = _scan(g1.values, [t - x for t, x in zip(theta.values, w)], is_finite)
        if a + b != want:
            return f"{tag}: witness gives {a + b}, not {want}"
        return None

    def minimax_gate(rep):
        lhs, _ = _scan(f.values, xi.values, is_finite)
        if not rep.ok or rep.lhs != lhs or rep.rhs != lhs:
            return f"{tag}: lhs={rep.lhs} rhs={rep.rhs} scan={lhs}"
        m = rep.minorant.values
        if any(m[y] > f.values[y] for y in dom):
            return f"{tag}: minorant exceeds f"
        if max(a - b for a, b in zip(xi.values, m)) != rep.rhs:
            return f"{tag}: minorant does not attain rhs"
        return None

    def minimize_gate(rep):
        value, argmin = lm.oracle.vertex_enumerate_min(f)
        if not rep.ok or rep.inf_value != value or rep.lift_min != value:
            return f"{tag}: inf={rep.inf_value} lift={rep.lift_min} expected {value}"
        if rep.argmin != argmin:
            return f"{tag}: argmin {rep.argmin} expected {argmin}"
        w = rep.lift_point.weights
        if any(x < 0 for x in w) or sum(w) != 1:
            return f"{tag}: lift point off the simplex"
        if any(w[i] for i in off_dom) or _dot([w[i] for i in dom], [f.values[i] for i in dom]) != value:
            return f"{tag}: lift point does not attain the minimum"
        return None

    def conjugate_gate(cv):
        value, where = _scan(f.values, f1.values, is_finite)
        if cv.value != value or cv.maximizer != X.point_ids[where]:
            return f"{tag}: conjugate {cv.value}@{cv.maximizer} expected {value}@{X.point_ids[where]}"
        return None

    def insert_gate(psi):
        if not (u.leq(psi) and psi.leq(v) and psi.is_finite_everywhere()):
            return f"{tag}: inserted function not between u and v"
        return None

    def decompose_gate(pair):
        p1, p2 = pair
        if any(a + b != c for a, b, c in zip(p1.values, p2.values, phi.values)):
            return f"{tag}: psi1 + psi2 != phi"
        if not (p1.leq(f1) and p2.leq(g1)):
            return f"{tag}: parts exceed f or g"
        return None

    def hats_gate(rep):
        return _bump_reason(rep, X, tag, require_all=True)

    paired = _dot([Q_dom.weights[i] for i in dom], [f.values[i] for i in dom])
    at_dirac = f.values[D.weights.index(1)]

    ops = [
        Op("biconjugate", lambda: lm.duality.biconjugate(f, Y), equals_f),
        Op("minorant_envelope", lambda: lm.duality.minorant_envelope(f, Y), equals_f),
        Op("minimize_equivalence", lambda: lm.transform.minimize_equivalence(f), minimize_gate),
        Op("infconv_eval", lambda: lm.duality.infconv_eval(f1, g1, theta, full), infconv_gate),
        Op("minimax_identity_check", lambda: lm.duality.minimax_identity_check(f, full, xi), minimax_gate),
    ]
    ops = [op for op in ops if n in heavy[op.kind]] + [
        Op("fenchel_simplex", lambda: lm.transform.fenchel_transform(f, Y, Q_dom),
           transform_value(paired)),
        Op("fenchel_simplex_inf", lambda: lm.transform.fenchel_transform(f, Y, Q_all),
           transform_value(INF)),
        Op("fenchel_dirac", lambda: lm.transform.fenchel_transform(f, Y, D),
           transform_value(at_dirac)),
        Op("fenchel_off_simplex", lambda: lm.transform.fenchel_transform(f, Y, Q_off), off_simplex_gate),
        Op("support_function", lambda: lm.transform.support_function(A, Q_all), sigma_gate),
        Op("conjugate", lambda: lm.duality.conjugate(f, f1), conjugate_gate),
        Op("insert_between", lambda: lm.duality.insert_between(u, v, Y), insert_gate),
        Op("sum_decompose", lambda: lm.duality.sum_decompose(phi, f1, g1, Y), decompose_gate),
        Op("check_property_H_all", lambda: lm.cones.check_property_H_all(lip, X), hats_gate),
    ]
    return ops


def _bump_reason(rep, X, tag, require_all):
    """Property-(H) witnesses lie in [0,1], equal 1 at x and 0 off U."""
    if len(rep.witnesses) + len(rep.failures) != X.n:
        return f"{tag}: {len(rep.witnesses) + len(rep.failures)} bumps for {X.n} points"
    if rep.ok != (not rep.failures) or (require_all and rep.failures):
        return f"{tag}: bump failures {rep.failures}"
    for x, U, sigma in rep.witnesses:
        xi = X.index(x)
        inside = {X.index(p) for p in U}
        vals = sigma.values
        if vals[xi] != 1:
            return f"{tag}: bump at {x} is {vals[xi]} there"
        for i, s in enumerate(vals):
            if not (0 <= s <= 1) or (i not in inside and s != 0):
                return f"{tag}: bump at {x} has value {s} at {X.point_ids[i]}"
    return None


# --- api_finite_cone ---------------------------------------------------------

# (n, k): n spans 10..24 with k = 6..10 random generators
CONE_SIZES = ((10, 6), (14, 7), (17, 8), (20, 9), (24, 10))
# The cost of an LP over a random cone varies by tens of percent from one
# cone to the next, so a pass has many cones of each size, and runs the
# n-LP operations only where n <= CONE_HEAVY_MAX_N to afford that;
# single-LP operations run at every size.
CONE_PER_SIZE = 12
CONE_HEAVY_MAX_N = 10


def build_api_finite_cone(lm, seed, sizes=CONE_SIZES, per_size=CONE_PER_SIZE,
                          heavy_max_n=CONE_HEAVY_MAX_N):
    rng = random.Random(f"api_finite_cone:{seed}")
    ops = []
    for _ in range(per_size):
        for n, k in sizes:
            ops.extend(_cone_instance_ops(lm, rng, n, k, n <= heavy_max_n))
    return ops


def _cone_instance_ops(lm, rng, n, k, heavy):
    core, cones = lm.core, lm.cones
    INF, is_finite = core.INF, core.is_finite
    X = core.Space(_ids(n))
    gens = [core.ExtFun(X, [Fraction(rng.randint(-4, 4)) for _ in range(n)]) for _ in range(k)]
    Y = cones.finite_cone(gens, affine_closed=True)
    f = core.ExtFun(X, _values(rng, n, n // 4, INF))
    dom = f.dom()
    lam = [Fraction(rng.randint(0, 3), rng.randint(1, 2)) if rng.random() < 0.7 else Fraction(0)
           for _ in Y.generators]
    member = core.ExtFun(X, [_dot(lam, [g.values[i] for g in Y.generators]) for i in range(n)])
    stranger = core.ExtFun(X, _values(rng, n, 0, INF))
    Q = core.Measure(X, _simplex(rng, n, dom))
    x = rng.choice(dom)
    D = core.dirac(X, X.point_ids[x])
    tag = f"n={n} k={k}"
    env = {}   # this instance's minorant envelope, once its op has run

    def contains_gate(phi, must_be_member):
        def gate(m):
            if not m.member:
                return f"{tag}: a built member was not found" if must_be_member else None
            w = m.certificate
            if len(w) != len(Y.generators) or any(c < 0 for c in w):
                return f"{tag}: certificate is not a nonnegative weight vector"
            for i in range(n):
                if _dot(w, [g.values[i] for g in Y.generators]) != phi.values[i]:
                    return f"{tag}: certificate does not reproduce phi at {X.point_ids[i]}"
            return None
        return gate

    def envelope_gate(e):
        env["values"] = e.values
        if any(e.values[y] > f.values[y] for y in dom):
            return f"{tag}: envelope exceeds f on dom f"
        return None

    def biconjugate_gate(b):
        if "values" not in env:
            return f"{tag}: no envelope to compare with"
        if b.values != env["values"]:
            return f"{tag}: biconjugate differs from the minorant envelope"
        return None

    def upper(w):
        # every minorant in the cone lies below the envelope, which lies below
        # f on dom f, so F(f)(Q) <= <Q, env> <= <Q, f> for Q supported on dom f
        e = env.get("values", f.values)
        return _dot([w[i] for i in dom], [e[i] for i in dom])

    def dirac_gate(tv):
        if "values" in env:
            want = env["values"][x]
            return None if tv.value == want else f"{tag}: F(f)(dirac)={tv.value} expected {want}"
        if not is_finite(tv.value) or tv.value > f.values[x]:
            return f"{tag}: F(f)(dirac)={tv.value} above f={f.values[x]}"
        return None

    def simplex_gate(tv):
        bound = upper(Q.weights)
        if not is_finite(tv.value) or tv.value > bound:
            return f"{tag}: F(f)(Q)={tv.value} above {bound}"
        return None

    def separation_gate(rep):
        pairs = n * (n - 1) // 2
        if len(rep.witnesses) + len(rep.failures) != pairs or rep.ok != (not rep.failures):
            return f"{tag}: separation report covers the wrong pairs"
        for a, b, g in rep.witnesses:
            if g.values[X.index(a)] == g.values[X.index(b)]:
                return f"{tag}: witness does not separate {a}, {b}"
        for a, b in rep.failures:
            i, j = X.index(a), X.index(b)
            if any(g.values[i] != g.values[j] for g in Y.generators):
                return f"{tag}: a generator separates {a}, {b}"
        return None

    ops = [
        Op("contains_member", lambda: lm.cones.contains(Y, member), contains_gate(member, True)),
        Op("contains_random", lambda: lm.cones.contains(Y, stranger), contains_gate(stranger, False)),
    ]
    if heavy:
        ops += [
            Op("check_property_H_all", lambda: lm.cones.check_property_H_all(Y, X),
               lambda rep: _bump_reason(rep, X, tag, require_all=False)),
            Op("minorant_envelope", lambda: lm.duality.minorant_envelope(f, Y), envelope_gate),
            Op("biconjugate", lambda: lm.duality.biconjugate(f, Y), biconjugate_gate),
        ]
    ops += [
        Op("fenchel_dirac", lambda: lm.transform.fenchel_transform(f, Y, D), dirac_gate),
        Op("fenchel_simplex", lambda: lm.transform.fenchel_transform(f, Y, Q), simplex_gate),
        Op("separates_points", lambda: lm.cones.separates_points(X, Y), separation_gate),
    ]
    return ops


# --- cli_check ---------------------------------------------------------------

SUITES = ("biconjugation", "infconv", "minimax", "transform", "isotone", "minimize", "delta")
# class -> (points, functions), fixed so that the work does not depend on the seed
CLI_SHAPES = {"full": (5, 3), "lipschitz": (5, 4), "finite_cone": (6, 3)}
CLI_PER_CLASS = 3


def build_cli_check(lm, seed, workdir, per_class=CLI_PER_CLASS):
    """``per_class`` instance files per class; every file gets a ``check
    --suite <s> --json`` per suite and an ``eval --json`` per expression."""
    rng = random.Random(f"cli_check:{seed}")
    ops = []
    for i in range(per_class):
        for kind, (n, m) in CLI_SHAPES.items():
            path = os.path.join(workdir, f"{kind}-{i}.json")
            doc, objs = _cli_instance(lm, rng, n, m, kind)
            with open(path, "w") as fh:
                json.dump(doc, fh)
            ops.extend(_cli_ops(lm, path, kind, objs))
    return ops


def _fmt(v):
    return "+inf" if v.__class__.__name__ == "PosInf" else str(v)


def _cli_instance(lm, rng, n, m, kind):
    core, cones, transform = lm.core, lm.cones, lm.transform
    INF = core.INF
    ids = _ids(n)
    metric = _metric(rng, n)
    funcs = {"f0": _values(rng, n, 1, INF)}
    for j in range(1, m):
        funcs[f"f{j}"] = _values(rng, n, 0, INF)
    Q = _simplex(rng, n, range(n))
    R = _off_simplex(rng, n, n)
    A = _values(rng, n, 0, INF)
    doc = {
        "points": list(ids),
        "metric": [[str(v) for v in row] for row in metric],
        "functions": {k: [_fmt(v) for v in vals] for k, vals in funcs.items()},
        "measures": {"Q": [str(v) for v in Q], "R": [str(v) for v in R]},
        "delta_sets": {"A": [str(v) for v in A]},
    }
    X = core.Space(ids, metric)
    if kind == "finite_cone":
        gens = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(3 + n % 2)]
        doc["class"] = {"kind": kind, "generators": [[str(v) for v in g] for g in gens],
                        "affine_closed": True}
        doc["expect_fail"] = ["biconjugation"]
        Y = cones.finite_cone([core.ExtFun(X, g) for g in gens], affine_closed=True)
    else:
        doc["class"] = {"kind": kind}
        Y = cones.full_class() if kind == "full" else cones.lipschitz_cone()
    objs = {
        "Y": Y,
        "functions": {k: core.ExtFun(X, v) for k, v in funcs.items()},
        "measures": {"Q": core.Measure(X, Q), "R": core.Measure(X, R)},
        "A": transform.DeltaSet(X, A),
    }
    return doc, objs


def _run_cli(lm, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lm.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_ops(lm, path, kind, objs):
    name = os.path.basename(path)
    fs = objs["functions"]
    ops = []
    for suite in SUITES:
        op = Op(f"check.{suite}", None, None)
        op.call = lambda argv=("check", path, "--suite", suite, "--json"): _run_cli(lm, list(argv))
        op.gate = _check_gate(op, f"{name} {suite}", strict=kind != "finite_cone")
        ops.append(op)

    Y, Q, R, A = objs["Y"], objs["measures"]["Q"], objs["measures"]["R"], objs["A"]
    f0, f1, f2 = fs["f0"], fs["f1"], fs["f2"]
    # expression, then the direct library call whose result it must equal
    evals = (
        ("conjugate(f1,f2)", lambda: _conjugate_doc(lm.duality.conjugate(f1, f2))),
        ("conjugate(f0,f1)", lambda: _conjugate_doc(lm.duality.conjugate(f0, f1))),
        ("biconjugate(f0)", lambda: {"value": [_fmt(v) for v in lm.duality.biconjugate(f0, Y).values]}),
        ("envelope(f0)", lambda: {"value": [_fmt(v) for v in lm.duality.minorant_envelope(f0, Y).values]}),
        ("T(f0)(Q)", lambda: {"value": _fmt(lm.transform.fenchel_transform(f0, Y, Q).value)}),
        ("T(f0)(R)", lambda: {"value": _fmt(lm.transform.fenchel_transform(f0, Y, R).value)}),
        ("sigma(A)(Q)", lambda: {"value": _fmt(lm.transform.support_function(A, Q).value)}),
        ("sigma(A)(R)", lambda: {"value": _fmt(lm.transform.support_function(A, R).value)}),
        ("infconv(f1,f2)(f1)", lambda: _infconv_doc(
            lm.duality.infconv_eval(f1, f2, f1, lm.cones.full_class()))),
    )
    for expr, reference in evals:
        head = expr.split("(", 1)[0]
        op = Op(f"eval.{head}", None, None)
        op.call = lambda argv=("eval", path, expr, "--json"): _run_cli(lm, list(argv))
        op.gate = _eval_gate(f"{name} {expr}", reference)
        ops.append(op)
    return ops


def _conjugate_doc(cv):
    return {"value": str(cv.value), "maximizer": cv.maximizer}


def _infconv_doc(iv):
    return {"value": str(iv.value), "witness": [str(v) for v in iv.witness.values]}


def _parse_output(result, tag):
    code, stdout, stderr = result
    if "Traceback" in stdout or "Traceback" in stderr:
        return None, f"{tag}: traceback in output"
    try:
        return json.loads(stdout), None
    except json.JSONDecodeError:
        return None, f"{tag}: output is not JSON (exit {code}): {stderr.strip()[:200]}"


def _check_gate(op, tag, strict):
    """Exit 0 or 1 with a JSON report.  On full and Lipschitz instances every
    line must pass, which (H) guarantees; on finite cones failing lines are
    counted, not gated, since no reference yet tells real gaps from false ones."""
    def gate(result):
        doc, reason = _parse_output(result, tag)
        if reason:
            return reason
        code = result[0]
        if code not in (0, 1):
            return f"{tag}: exit code {code}"
        lines = doc["lines"]
        failed = [l for l in lines if not l["passed"]]
        op.stats = {
            "lines": len(lines),
            "fail_lines": sum(1 for l in failed if not l["expected_fail"]),
            "expected_fail_lines": sum(1 for l in failed if l["expected_fail"]),
        }
        if code != (1 if failed else 0):
            return f"{tag}: exit code {code} with {len(failed)} failing lines"
        if strict and failed:
            return f"{tag}: {failed[0]['identity']} fails for {failed[0]['subject']}"
        return None
    return gate


def _eval_gate(tag, reference):
    want = []   # the library's answer, computed once on first use

    def gate(result):
        doc, reason = _parse_output(result, tag)
        if reason:
            return reason
        if result[0] != 0:
            return f"{tag}: exit code {result[0]}"
        if not want:
            want.append(reference())
        if doc != want[0]:
            return f"{tag}: {doc} but the library gives {want[0]}"
        return None
    return gate


BUILDERS = {
    "api_full_large": build_api_full_large,
    "api_finite_cone": build_api_finite_cone,
    "cli_check": build_cli_check,
}
