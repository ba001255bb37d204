"""Command line front end: instance files, identity suites, and evaluation.

Instance files are JSON with exact rationals written as strings ("1/2",
"-3"); "+inf" is accepted for function values only.  Reports are
deterministic for a fixed (instance, seed, command line) and every line
names the identity it checks.  Exit codes: 0 all-pass, 1 identity
failure, 2 input error.

Each suite is a tuple of checks, generators of (identity, subject, passed,
detail) tuples, and run_suite is the one loop that turns them into report
lines.  An identity stated for another class than the instance's is
gated by one table and gives one skipped line.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass

from .core import (
    INF,
    ExtFun,
    Measure,
    Space,
    constant,
    in_simplex,
    rat,
)
from .cones import (
    FINITE_CONE,
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
    _fmt,
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
    if (
        not isinstance(points, list)
        or not points
        or not all(isinstance(p, str) for p in points)
    ):
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
        if s not in _CHECKS:
            raise InstanceError(
                f"field 'expect_fail': unknown suite {s!r}; choose from {tuple(_CHECKS)}"
            )
    return Instance(space, fclass, functions, measures, delta_sets, expect_fail)


@dataclass(frozen=True)
class ReportLine:
    suite: str
    identity: str
    subject: str
    passed: bool
    expected_fail: bool
    detail: str = ""

    @property
    def skipped(self) -> bool:
        """A passing line whose identity was not checked: its hypothesis
        does not hold, and the detail gives the reason."""
        return self.passed and self.detail.startswith("skipped: ")

    def render(self) -> str:
        if self.skipped:
            tag = "SKIP"
        elif self.passed:
            tag = "PASS"
        elif self.expected_fail:
            tag = "FAIL (hypothesis (H) fails: expected)"
        else:
            tag = "FAIL"
        line = f"[{tag}] {self.suite} | {self.identity} | {self.subject}"
        if self.detail and (self.skipped or not self.passed):
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


def _skip(reason) -> str:
    """The detail of a line whose identity was not checked because its
    hypothesis does not hold: what ReportLine.skipped reads."""
    return "skipped: " + reason


def _failures(rep) -> str:
    return "; ".join(i.detail for i in rep.items if not i.ok)


def _support_mismatches(A, f, fclass, measures) -> str:
    """The measures Q at which sigma_A(Q) and F(f)(Q) differ, as a detail."""
    return "; ".join(
        f"Q={Q.label}"
        for Q in measures
        if support_function(A, Q).value != fenchel_transform(f, fclass, Q).value
    )


class _Shared:
    """The values several suites read, each made on first use, so that a
    single-suite run pays only for what its suite reads."""

    def __init__(self, inst, seed):
        self.inst, self.seed = inst, seed

    @functools.cached_property
    def functions(self):
        return sorted(self.inst.functions.items())

    @functools.cached_property
    def finite(self):
        return [(n, f) for n, f in self.functions if f.is_finite_everywhere()]

    @functools.cached_property
    def sample(self):
        return sample_simplex_measures(self.inst.space, 20, self.seed)


_INFCONV = "(f+g)^x = f^x <> g^x"
_MINIMAX = "f^x(xi) = inf over phi <= f of phi^x(xi)"
_CONE_MORPHISM = "T(af+bg) = aT(f) + bT(g)"
_MINORANT_SUPPORT = "support function of the minorant set equals F(f)"


def _biconjugation(inst, shared):
    hrep = check_property_H_all(inst.fclass, inst.space)
    yield (
        "bump functions exist for every point (property (H))",
        f"class {inst.fclass.kind}",
        hrep.ok,
        f"fails at {hrep.failures}" if not hrep.ok else "",
    )
    for name, f in shared.functions:
        try:
            rep = check_biconjugation(f, inst.fclass)
        except ValueError as e:
            yield "f^xx = f", f"f={name}", False, str(e)
            continue
        detail = "" if rep.equal else "gaps " + ", ".join(
            f"{p}: f^xx={_fmt(b)} < f={_fmt(a)}" for p, a, b in rep.gaps
        )
        yield "f^xx = f", f"f={name}", rep.equal, detail


def _infconv(inst, shared):
    for fname, f in shared.finite:
        for gname, g in shared.finite:
            for tname, th in shared.finite:
                rep = check_infconv_theorem(f, g, th)
                detail = f"infconv={rep.infconv} direct={rep.direct}"
                yield _INFCONV, f"f={fname} g={gname} theta={tname}", rep.ok, detail


def _minimax(inst, shared):
    for fname, f in shared.functions:
        for xname, xi in shared.finite:
            rep = minimax_identity_check(f, inst.fclass, xi)
            yield _MINIMAX, f"f={fname} xi={xname}", rep.ok, f"lhs={rep.lhs} rhs={rep.rhs}"


def _constant_transform(inst, shared):
    rep = check_constant_transform(inst.space, 3, shared.sample, inst.fclass)
    detail = "; ".join(i.label for i in rep.items if not i.ok)
    yield "F(c) = c + indicator of the simplex", "c=3", rep.ok, detail


def _translation(inst, shared):
    # the identity is stated for phi in Y and -phi in Y
    lineal = {
        pname
        for pname, phi in shared.finite
        if contains(inst.fclass, phi).member
        and contains(inst.fclass, phi.scale(-1)).member
    }
    for fname, f in shared.functions:
        for pname, phi in shared.finite:
            if pname in lineal:
                rep = check_translation(f, phi, shared.sample, inst.fclass)
                ok, detail = rep.ok, _failures(rep)
            else:
                ok, detail = True, _skip("hypothesis not met: phi is not in Y ∩ -Y")
            yield "F(f-phi) = F(f) - <., phi>", f"f={fname} phi={pname}", ok, detail


def _cone_morphism(inst, shared):
    for fname, f in shared.finite:
        for gname, g in shared.finite:
            rep = check_cone_morphism(f, g, 1, 1, shared.sample)
            subject = f"f={fname} g={gname} a=1 b=1"
            yield _CONE_MORPHISM, subject, rep.ok, _failures(rep)


def _minorant_support(inst, shared):
    for fname, f in shared.finite:
        A = function_to_delta_set(f)
        detail = _support_mismatches(A, f, inst.fclass, shared.sample)
        yield _MINORANT_SUPPORT, f"f={fname}", not detail, detail


def _off_simplex(inst, shared):
    # (H) makes F(f) = +inf off the simplex; on a finite cone only shifts
    # by the constants do, and only for a measure whose mass is not 1
    off = [(qname, Q) for qname, Q in sorted(inst.measures.items()) if not in_simplex(Q)]
    cone = inst.fclass.kind == FINITE_CONE
    lacking = None
    if cone and off and not all(
        contains(inst.fclass, constant(inst.space, c)).member for c in (1, -1)
    ):
        lacking = "the constants 1 and -1 are not both in Y"
    for qname, Q in off:
        skip = lacking or ("Q has mass 1 on a finite cone" if cone and Q.total() == 1 else None)
        for fname, f in shared.functions:
            if skip is None:
                tv = fenchel_transform(f, inst.fclass, Q)
                ok, detail = not tv.finite and tv.ray is not None, f"got {_fmt(tv.value)}"
            else:
                ok, detail = True, _skip(f"hypothesis not met: {skip}")
            subject = f"f={fname} Q={qname}"
            yield "F(f) = +inf outside the simplex, with a ray", subject, ok, detail


def _isotone(inst, shared):
    for fname, f in shared.finite:
        for gname, g in shared.finite:
            if fname != gname:
                rep = check_isotone(f, g, shared.sample)
                yield "f <= g iff T(f) <= T(g)", f"f={fname} g={gname}", rep.ok, _failures(rep)


def _minimize(inst, shared):
    for fname, f in shared.functions:
        rep = minimize_equivalence(f)
        yield (
            "inf of f = min of T(f) over the simplex; argmins correspond",
            f"f={fname}",
            rep.ok,
            f"inf={rep.inf_value} lift={rep.lift_min} argmin={rep.argmin}",
        )


def _delta(inst, shared):
    on_simplex = [Q for _, Q in sorted(inst.measures.items()) if in_simplex(Q)]
    for aname, A in sorted(inst.delta_sets.items()):
        f = delta_set_to_function(A)
        yield (
            "delta set <-> bound function round trip is the identity",
            f"A={aname}",
            function_to_delta_set(f) == A,
            "",
        )
        detail = _support_mismatches(A, f, full_class(), shared.sample + on_simplex)
        yield (
            "support function of the set equals F of its bound function",
            f"A={aname}",
            not detail,
            detail,
        )


# suite -> its checks, in report order
_CHECKS = {
    "biconjugation": (_biconjugation,),
    "infconv": (_infconv,),
    "minimax": (_minimax,),
    "transform": (
        _constant_transform,
        _translation,
        _cone_morphism,
        _minorant_support,
        _off_simplex,
    ),
    "isotone": (_isotone,),
    "minimize": (_minimize,),
    "delta": (_delta,),
}
SUITES = (*_CHECKS, "all")

# The class gate: check -> (identity, does it hold for the class?, the
# reason it does not).  On a class it does not hold for, the identity
# gives one skipped line.
_FULL_ONLY = (lambda fclass: fclass.kind == FULL, "identity is stated for the full class")
_CLASS_GATES = {
    _infconv: (_INFCONV, *_FULL_ONLY),
    _minimax: (_MINIMAX, *_FULL_ONLY),
    _cone_morphism: (_CONE_MORPHISM, *_FULL_ONLY),
    _minorant_support: (_MINORANT_SUPPORT, *_FULL_ONLY),
}


def run_suite(inst: Instance, suite: str, seed: int = 0) -> Report:
    if suite not in SUITES:
        raise InstanceError(f"unknown suite {suite!r}; choose from {SUITES}")
    shared = _Shared(inst, seed)
    out = []
    for name in _CHECKS if suite == "all" else (suite,):
        xf = name in inst.expect_fail
        for check in _CHECKS[name]:
            gate = _CLASS_GATES.get(check)
            if gate and not gate[1](inst.fclass):
                identity, _, reason = gate
                lines = [(identity, f"class {inst.fclass.kind}", True, _skip(reason))]
            else:
                lines = check(inst, shared)
            for identity, subject, passed, detail in lines:
                out.append(ReportLine(name, identity, subject, passed, xf, detail))
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The `linmin` argument parser, built on the first call and shared by
    every later one (not at import: most importers never parse a command
    line).  parse_args keeps no state in it between calls."""
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
    return parser


def main(argv=None) -> int:
    """Run one `linmin` command line; return its exit code (0 all-pass,
    1 identity failure, 2 input error; argparse exits 2 itself on a bad
    command line).  The argument parser is built once per process, on
    first use, so an in-process caller pays only for the instance and its
    identities."""
    ns = _parser().parse_args(argv)
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
                # vars() keys come in field order
                "lines": [dict(vars(l)) for l in report.lines],
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
