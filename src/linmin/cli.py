"""Command line front end: instance files, identity suites, and evaluation.

Instance files are JSON with exact rationals written as strings ("1/2",
"-3"); "+inf" is accepted for function values only.  Reports are
deterministic for a fixed (instance, seed, command line) and every line
names the identity it checks.  Exit codes: 0 all-pass, 1 identity
failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass

from .core import (
    INF,
    ExtFun,
    Measure,
    Space,
    in_simplex,
    is_finite,
    rat,
)
from .cones import (
    FULL,
    FunctionClass,
    check_property_H_all,
    contains,
    finite_cone,
    full_class,
    lipschitz_cone,
)
from .duality import (
    biconjugate,
    check_biconjugation,
    check_infconv_theorem,
    conjugate,
    infconv_eval,
    minimax_identity_check,
    minorant_envelope,
)
from .transform import (
    DeltaSet,
    check_cone_morphism,
    check_constant_transform,
    check_isotone,
    check_translation,
    delta_set_to_function,
    fenchel_transform,
    function_to_delta_set,
    minimize_equivalence,
    sample_simplex_measures,
    support_function,
)

SUITES = (
    "biconjugation",
    "infconv",
    "minimax",
    "transform",
    "isotone",
    "minimize",
    "delta",
    "all",
)

class InstanceError(ValueError):
    pass


def _parse_rational(raw, where):
    if isinstance(raw, str):
        try:
            return rat(raw)
        except ValueError:
            pass
    raise InstanceError(
        f"{where}: expected an exact rational string like '1/2', got {raw!r}"
    )


def _parse_value(raw, where):
    if raw == "+inf":
        return INF
    return _parse_rational(raw, where)


_JSON_TYPES = {
    dict: "object",
    list: "list",
    bool: "bool",
    str: "string",
    int: "number",
    float: "number",
}


def _typed(doc, key, typ, default, where=None):
    """doc[key] if it is a JSON value of type typ; default if absent or null."""
    v = doc.get(key)
    if v is None:
        return default
    if not isinstance(v, typ):
        raise InstanceError(
            f"field '{where or key}': expected a JSON {_JSON_TYPES[typ]}, "
            f"got a JSON {_JSON_TYPES[type(v)]}"
        )
    return v


@dataclass(frozen=True)
class Instance:
    space: Space
    fclass: FunctionClass
    functions: dict
    measures: dict
    delta_sets: dict
    expect_fail: tuple


def load_instance(path) -> Instance:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise InstanceError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise InstanceError(f"{path}: parse error at line {e.lineno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise InstanceError(f"{path}: top level must be an object")

    points = doc.get("points")
    if not isinstance(points, list) or not points:
        raise InstanceError("field 'points': expected a nonempty list of strings")
    metric = _typed(doc, "metric", list, None)
    if metric is not None:
        if not all(isinstance(row, list) for row in metric):
            raise InstanceError("field 'metric': expected a JSON list of rows")
        metric = [
            [_parse_rational(v, f"metric[{i}][{j}]") for j, v in enumerate(row)]
            for i, row in enumerate(metric)
        ]
    try:
        space = Space(tuple(points), metric)
    except ValueError as e:
        raise InstanceError(f"field 'points'/'metric': {e}") from None

    def fun(name, vals):
        where = f"functions[{name}]"
        if not isinstance(vals, list) or len(vals) != space.n:
            raise InstanceError(f"{where}: expected one value per point")
        parsed = tuple(_parse_value(v, where) for v in vals)
        try:
            return ExtFun(space, parsed)
        except ValueError as e:
            raise InstanceError(f"{where}: {e}") from None

    functions = {
        str(k): fun(k, v) for k, v in _typed(doc, "functions", dict, {}).items()
    }

    cls = _typed(doc, "class", dict, {}) or {"kind": "full"}
    kind = cls.get("kind")
    if kind == "full":
        fclass = full_class()
    elif kind == "lipschitz":
        if space.metric is None:
            raise InstanceError("field 'class': lipschitz requires a metric")
        fclass = lipschitz_cone()
    elif kind == "finite_cone":
        gens = _typed(cls, "generators", list, [], "class.generators")
        if not gens:
            raise InstanceError("field 'class': finite_cone needs generators")
        gfuns = []
        for i, vals in enumerate(gens):
            where = f"class.generators[{i}]"
            if not isinstance(vals, list) or len(vals) != space.n:
                raise InstanceError(f"{where}: expected one value per point")
            gfuns.append(
                ExtFun(space, tuple(_parse_rational(v, where) for v in vals))
            )
        affine = _typed(cls, "affine_closed", bool, True, "class.affine_closed")
        fclass = finite_cone(gfuns, affine)
    else:
        raise InstanceError(f"field 'class.kind': unknown kind {kind!r}")

    measures = {}
    for k, vals in _typed(doc, "measures", dict, {}).items():
        where = f"measures[{k}]"
        if not isinstance(vals, list) or len(vals) != space.n:
            raise InstanceError(f"{where}: expected one weight per point")
        measures[str(k)] = Measure(
            space, tuple(_parse_rational(v, where) for v in vals)
        )

    delta_sets = {}
    for k, vals in _typed(doc, "delta_sets", dict, {}).items():
        where = f"delta_sets[{k}]"
        if not isinstance(vals, list) or len(vals) != space.n:
            raise InstanceError(f"{where}: expected one bound per point")
        delta_sets[str(k)] = DeltaSet(
            space, tuple(_parse_rational(v, where) for v in vals)
        )

    expect_fail = tuple(_typed(doc, "expect_fail", list, ()))
    for s in expect_fail:
        if s not in SUITES:
            raise InstanceError(f"field 'expect_fail': unknown suite {s!r}")
    return Instance(space, fclass, functions, measures, delta_sets, expect_fail)


@dataclass(frozen=True)
class ReportLine:
    suite: str
    identity: str
    subject: str
    passed: bool
    expected_fail: bool
    detail: str = ""

    def render(self) -> str:
        if self.passed:
            tag = "PASS"
        elif self.expected_fail:
            tag = "FAIL (hypothesis (H) fails: expected)"
        else:
            tag = "FAIL"
        line = f"[{tag}] {self.suite} | {self.identity} | {self.subject}"
        if self.detail and not self.passed:
            line += f" | {self.detail}"
        return line


@dataclass(frozen=True)
class Report:
    lines: tuple
    seed: int

    @property
    def ok(self) -> bool:
        return all(l.passed for l in self.lines)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


def _fmt(v) -> str:
    return "+inf" if not is_finite(v) else str(v)


def _finite_functions(inst):
    return [(n, f) for n, f in sorted(inst.functions.items()) if f.is_finite_everywhere()]


def _suite_biconjugation(inst, seed, out):
    hrep = check_property_H_all(inst.fclass, inst.space)
    xf = "biconjugation" in inst.expect_fail
    out.append(
        ReportLine(
            "biconjugation",
            "bump functions exist for every point (property (H))",
            f"class {inst.fclass.kind}",
            hrep.ok,
            xf,
            f"fails at {hrep.failures}" if not hrep.ok else "",
        )
    )
    for name, f in sorted(inst.functions.items()):
        try:
            rep = check_biconjugation(f, inst.fclass)
        except ValueError as e:
            out.append(
                ReportLine("biconjugation", "f^xx = f", f"f={name}", False, xf, str(e))
            )
            continue
        detail = "" if rep.equal else "gaps " + ", ".join(
            f"{p}: f^xx={_fmt(b)} < f={_fmt(a)}" for p, a, b in rep.gaps
        )
        out.append(
            ReportLine("biconjugation", "f^xx = f", f"f={name}", rep.equal, xf, detail)
        )


def _suite_infconv(inst, seed, out):
    xf = "infconv" in inst.expect_fail
    if inst.fclass.kind != FULL:
        out.append(
            ReportLine(
                "infconv",
                "(f+g)^x = f^x <> g^x",
                f"class {inst.fclass.kind}",
                True,
                xf,
                "skipped: identity is stated for the full class",
            )
        )
        return
    finite = _finite_functions(inst)
    for fname, f in finite:
        for gname, g in finite:
            for tname, th in finite:
                rep = check_infconv_theorem(f, g, th)
                out.append(
                    ReportLine(
                        "infconv",
                        "(f+g)^x = f^x <> g^x",
                        f"f={fname} g={gname} theta={tname}",
                        rep.ok,
                        xf,
                        f"infconv={rep.infconv} direct={rep.direct}",
                    )
                )


def _suite_minimax(inst, seed, out):
    xf = "minimax" in inst.expect_fail
    if inst.fclass.kind != FULL:
        out.append(
            ReportLine(
                "minimax",
                "f^x(xi) = inf over phi <= f of phi^x(xi)",
                f"class {inst.fclass.kind}",
                True,
                xf,
                "skipped: identity is stated for the full class",
            )
        )
        return
    for fname, f in sorted(inst.functions.items()):
        for xname, xi in _finite_functions(inst):
            rep = minimax_identity_check(f, inst.fclass, xi)
            out.append(
                ReportLine(
                    "minimax",
                    "f^x(xi) = inf over phi <= f of phi^x(xi)",
                    f"f={fname} xi={xname}",
                    rep.ok,
                    xf,
                    f"lhs={rep.lhs} rhs={rep.rhs}",
                )
            )


def _suite_transform(inst, seed, out):
    xf = "transform" in inst.expect_fail
    sample = sample_simplex_measures(inst.space, 20, seed)
    rep = check_constant_transform(inst.space, 3, sample, inst.fclass)
    out.append(
        ReportLine(
            "transform",
            "F(c) = c + indicator of the simplex",
            "c=3",
            rep.ok,
            xf,
            "; ".join(i.label for i in rep.items if not i.ok),
        )
    )
    finite = _finite_functions(inst)
    # the translation identity is stated for phi in Y and -phi in Y
    lineal = {
        pname
        for pname, phi in finite
        if contains(inst.fclass, phi).member
        and contains(inst.fclass, phi.scale(-1)).member
    }
    for fname, f in sorted(inst.functions.items()):
        for pname, phi in finite:
            if pname in lineal:
                rep = check_translation(f, phi, sample, inst.fclass)
                ok = rep.ok
                detail = "; ".join(i.detail for i in rep.items if not i.ok)
            else:
                ok = True
                detail = "skipped: hypothesis not met: phi is not in Y ∩ -Y"
            out.append(
                ReportLine(
                    "transform",
                    "F(f-phi) = F(f) - <., phi>",
                    f"f={fname} phi={pname}",
                    ok,
                    xf,
                    detail,
                )
            )
    if inst.fclass.kind == FULL:
        for fname, f in finite:
            for gname, g in finite:
                rep = check_cone_morphism(f, g, 1, 1, sample)
                out.append(
                    ReportLine(
                        "transform",
                        "T(af+bg) = aT(f) + bT(g)",
                        f"f={fname} g={gname} a=1 b=1",
                        rep.ok,
                        xf,
                        "; ".join(i.detail for i in rep.items if not i.ok),
                    )
                )
        for fname, f in finite:
            A = function_to_delta_set(f)
            bad = []
            for Q in sample:
                lhs = support_function(A, Q).value
                rhs = fenchel_transform(f, inst.fclass, Q).value
                if lhs != rhs:
                    bad.append(f"Q={tuple(map(str, Q.weights))}")
            out.append(
                ReportLine(
                    "transform",
                    "support function of the minorant set equals F(f)",
                    f"f={fname}",
                    not bad,
                    xf,
                    "; ".join(bad),
                )
            )
    for qname, Q in sorted(inst.measures.items()):
        if in_simplex(Q):
            continue
        for fname, f in sorted(inst.functions.items()):
            tv = fenchel_transform(f, inst.fclass, Q)
            ok = not tv.finite and tv.ray is not None
            out.append(
                ReportLine(
                    "transform",
                    "F(f) = +inf outside the simplex, with a ray",
                    f"f={fname} Q={qname}",
                    ok,
                    xf,
                    f"got {_fmt(tv.value)}",
                )
            )


def _suite_isotone(inst, seed, out):
    xf = "isotone" in inst.expect_fail
    sample = sample_simplex_measures(inst.space, 20, seed)
    finite = _finite_functions(inst)
    for fname, f in finite:
        for gname, g in finite:
            if fname == gname:
                continue
            rep = check_isotone(f, g, sample)
            out.append(
                ReportLine(
                    "isotone",
                    "f <= g iff T(f) <= T(g)",
                    f"f={fname} g={gname}",
                    rep.ok,
                    xf,
                    "; ".join(i.detail for i in rep.items if not i.ok),
                )
            )


def _suite_minimize(inst, seed, out):
    xf = "minimize" in inst.expect_fail
    for fname, f in sorted(inst.functions.items()):
        rep = minimize_equivalence(f)
        out.append(
            ReportLine(
                "minimize",
                "inf of f = min of T(f) over the simplex; argmins correspond",
                f"f={fname}",
                rep.ok,
                xf,
                f"inf={rep.inf_value} lift={rep.lift_min} argmin={rep.argmin}",
            )
        )


def _suite_delta(inst, seed, out):
    xf = "delta" in inst.expect_fail
    sample = sample_simplex_measures(inst.space, 20, seed)
    for aname, A in sorted(inst.delta_sets.items()):
        f = delta_set_to_function(A)
        back = function_to_delta_set(f)
        out.append(
            ReportLine(
                "delta",
                "delta set <-> bound function round trip is the identity",
                f"A={aname}",
                back == A,
                xf,
            )
        )
        bad = []
        for Q in list(sample) + [
            Q for _, Q in sorted(inst.measures.items()) if in_simplex(Q)
        ]:
            lhs = support_function(A, Q).value
            rhs = fenchel_transform(f, full_class(), Q).value
            if lhs != rhs:
                bad.append(f"Q={tuple(map(str, Q.weights))}")
        out.append(
            ReportLine(
                "delta",
                "support function of the set equals F of its bound function",
                f"A={aname}",
                not bad,
                xf,
                "; ".join(bad),
            )
        )


_SUITE_FUNCS = {
    "biconjugation": _suite_biconjugation,
    "infconv": _suite_infconv,
    "minimax": _suite_minimax,
    "transform": _suite_transform,
    "isotone": _suite_isotone,
    "minimize": _suite_minimize,
    "delta": _suite_delta,
}


def run_suite(inst: Instance, suite: str, seed: int = 0) -> Report:
    if suite not in SUITES:
        raise InstanceError(f"unknown suite {suite!r}; choose from {SUITES}")
    names = list(_SUITE_FUNCS) if suite == "all" else [suite]
    out: list = []
    for name in names:
        _SUITE_FUNCS[name](inst, seed, out)
    return Report(tuple(out), seed)


_EXPR = re.compile(r"^\s*(\w+)\(([^()]*)\)(?:\(([^()]*)\))?\s*$")


def eval_expression(inst: Instance, expression: str):
    """Evaluate one of: conjugate(f,phi), biconjugate(f), T(f)(Q),
    sigma(A)(Q), infconv(f,g)(theta), envelope(f).  Returns a dict; a
    ValueError from the library is raised as an InstanceError."""
    try:
        return _evaluate(inst, expression)
    except ValueError as e:
        raise InstanceError(str(e)) from None


def _evaluate(inst: Instance, expression: str):
    m = _EXPR.match(expression)
    if not m:
        raise InstanceError(f"cannot parse expression {expression!r}")
    head, args1, args2 = m.group(1), m.group(2), m.group(3)
    args = [a.strip() for a in args1.split(",")] if args1.strip() else []
    extra = [a.strip() for a in args2.split(",")] if args2 and args2.strip() else None

    def want(n, have, ctx):
        if len(have) != n:
            raise InstanceError(f"{ctx}: expected {n} argument(s), got {len(have)}")

    def fn(name):
        try:
            return inst.functions[name]
        except KeyError:
            raise InstanceError(f"unknown function name {name!r}") from None

    def meas(name):
        try:
            return inst.measures[name]
        except KeyError:
            raise InstanceError(f"unknown measure name {name!r}") from None

    if head == "conjugate":
        want(2, args, "conjugate")
        if extra is not None:
            raise InstanceError("conjugate takes a single argument list")
        cv = conjugate(fn(args[0]), fn(args[1]))
        return {"value": str(cv.value), "maximizer": cv.maximizer}
    if head == "biconjugate":
        want(1, args, "biconjugate")
        g = biconjugate(fn(args[0]), inst.fclass)
        return {"value": [_fmt(v) for v in g.values]}
    if head == "envelope":
        want(1, args, "envelope")
        g = minorant_envelope(fn(args[0]), inst.fclass)
        return {"value": [_fmt(v) for v in g.values]}
    if head == "T":
        want(1, args, "T")
        if extra is None:
            raise InstanceError("T(f) needs a measure argument: T(f)(Q)")
        want(1, extra, "T")
        tv = fenchel_transform(fn(args[0]), inst.fclass, meas(extra[0]))
        return {"value": _fmt(tv.value)}
    if head == "sigma":
        want(1, args, "sigma")
        if extra is None:
            raise InstanceError("sigma(A) needs a measure argument: sigma(A)(Q)")
        want(1, extra, "sigma")
        try:
            A = inst.delta_sets[args[0]]
        except KeyError:
            raise InstanceError(f"unknown delta set name {args[0]!r}") from None
        tv = support_function(A, meas(extra[0]))
        return {"value": _fmt(tv.value)}
    if head == "infconv":
        want(2, args, "infconv")
        if extra is None:
            raise InstanceError("infconv(f,g) needs an argument: infconv(f,g)(theta)")
        want(1, extra, "infconv")
        iv = infconv_eval(fn(args[0]), fn(args[1]), fn(extra[0]), full_class())
        return {
            "value": str(iv.value),
            "witness": [str(v) for v in iv.witness.values],
        }
    raise InstanceError(f"unknown expression head {head!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="linmin",
        description="Exact identity checks for conjugacy, inf-convolution, "
        "and the simplex lift of minimization on finite spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run an identity suite on an instance")
    p_check.add_argument("instance")
    p_check.add_argument("--suite", default="all", choices=SUITES)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--json", action="store_true")

    p_eval = sub.add_parser("eval", help="evaluate an expression on an instance")
    p_eval.add_argument("instance")
    p_eval.add_argument("expression")
    p_eval.add_argument("--json", action="store_true")

    p_val = sub.add_parser("validate", help="load and validate an instance file")
    p_val.add_argument("instance")

    ns = parser.parse_args(argv)
    try:
        inst = load_instance(ns.instance)
    except InstanceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    if ns.command == "validate":
        print(
            f"ok: {len(inst.space.point_ids)} points, class {inst.fclass.kind}, "
            f"{len(inst.functions)} functions, {len(inst.measures)} measures, "
            f"{len(inst.delta_sets)} delta sets"
        )
        return 0

    if ns.command == "check":
        try:
            report = run_suite(inst, ns.suite, ns.seed)
        except InstanceError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        if ns.json:
            doc = {
                "seed": report.seed,
                "ok": report.ok,
                "lines": [
                    {
                        "suite": l.suite,
                        "identity": l.identity,
                        "subject": l.subject,
                        "passed": l.passed,
                        "expected_fail": l.expected_fail,
                        "detail": l.detail,
                    }
                    for l in report.lines
                ],
            }
            print(json.dumps(doc, indent=2))
        else:
            print(f"seed: {report.seed}")
            for line in report.lines:
                print(line.render())
            n_ok = sum(1 for l in report.lines if l.passed)
            print(f"{n_ok}/{len(report.lines)} checks passed")
        return report.exit_code

    # eval
    try:
        result = eval_expression(inst, ns.expression)
    except InstanceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if ns.json:
        print(json.dumps(result))
    else:
        v = result["value"]
        print(" ".join(v) if isinstance(v, list) else v)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
