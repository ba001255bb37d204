"""Finite ground spaces, extended-real functions, and rational measures.

Scalars are exact rationals throughout and +inf is an explicit tagged
value, so domain logic and every identity check are decided exactly.
A finite Hausdorff space is discrete, so no topology is carried: every
subset is open and every function is continuous.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm


class PosInf:
    """The extended value +inf, kept as a tag rather than a big number."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "+inf"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("PosInf")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __sub__(self, other):
        if other is self:
            raise ArithmeticError("inf - inf is undefined")
        return self

    def __rsub__(self, other):
        raise ArithmeticError("-inf is not representable")

    def __neg__(self):
        raise ArithmeticError("-inf is not representable")


INF = PosInf()


def is_finite(v) -> bool:
    return not isinstance(v, PosInf)


_RATIONAL = re.compile(r"([+-]?\d+)(?:/([1-9]\d*))?")


def rat(v) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to an exact rational.

    Floats are rejected: no floating point may enter an identity check,
    nor may decimal or exponent strings such as '0.1' or '1e-2'.  A string
    is parsed once: the numerator and denominator come from the one match
    of _RATIONAL, with the values Fraction(str) would give.
    """
    if isinstance(v, Fraction):
        return v
    if isinstance(v, bool):
        raise TypeError(f"not an exact rational: {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        m = _RATIONAL.fullmatch(v)
        if not m:
            raise ValueError(f"not an exact rational string like '1/2': {v!r}")
        num, den = m.groups()
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    raise TypeError(f"not an exact rational: {v!r}")


def _ext(v):
    if v is INF or isinstance(v, PosInf):
        return INF
    if isinstance(v, str) and v.strip() in ("+inf", "inf"):
        return INF
    return rat(v)


@dataclass(frozen=True)
class Space:
    """A finite ground set of named points with an optional exact metric.

    The metric is checked once, when the space is made, on ints: its
    entries times one lcm of their denominators.  The checks run in a fixed
    order (per row: zero diagonal, then positive and symmetric entries; then
    the triangle law over ordered triples), and the ValueError names the
    first failure.  The stored metric keeps its Fraction entries.  The ints
    and their denominator are kept too (see int_metric), outside the
    dataclass fields, so == and repr see only the points and the metric.
    """

    point_ids: tuple
    metric: tuple | None = None

    def __post_init__(self):
        ids = tuple(str(p) for p in self.point_ids)
        if not ids:
            raise ValueError("a space needs at least one point")
        if len(set(ids)) != len(ids):
            raise ValueError("point ids must be distinct")
        object.__setattr__(self, "point_ids", ids)
        object.__setattr__(self, "_scaled", None)
        if self.metric is not None:
            n = len(ids)
            rows = tuple(tuple(rat(v) for v in row) for row in self.metric)
            if len(rows) != n or any(len(r) != n for r in rows):
                raise ValueError("metric must be a square matrix over the points")
            # one lcm of the denominators makes every entry an int and keeps
            # every comparison
            den = lcm(*[q.denominator for row in rows for q in row])
            m = tuple(
                tuple([q.numerator * (den // q.denominator) for q in row]) for row in rows
            )
            for i in range(n):
                mi = m[i]
                if mi[i] != 0:
                    raise ValueError(f"metric diagonal must be zero at {ids[i]}")
                for j in range(n):
                    if i != j and mi[j] <= 0:
                        raise ValueError(
                            f"distance must be positive for ({ids[i]}, {ids[j]})"
                        )
                    if mi[j] != m[j][i]:
                        raise ValueError(
                            f"metric must be symmetric at ({ids[i]}, {ids[j]})"
                        )
            # the first (i, j, k) in order with d(i,j) > d(i,k) + d(k,j); the
            # metric is symmetric, so d(k,j) is row j's k-th entry and (j, i, k)
            # fails with (i, j, k), and d(i,i) = 0, so the first has j > i
            for i in range(n):
                mi = m[i]
                for j in range(i + 1, n):
                    mij = mi[j]
                    mj = m[j]
                    for k in range(n):
                        if mij > mi[k] + mj[k]:
                            raise ValueError(
                                "triangle inequality fails for "
                                f"({ids[i]}, {ids[j]}, {ids[k]})"
                            )
            object.__setattr__(self, "metric", rows)
            object.__setattr__(self, "_scaled", (m, den))

    @property
    def n(self) -> int:
        return len(self.point_ids)

    def index(self, point_id) -> int:
        try:
            return self.point_ids.index(point_id)
        except ValueError:
            raise ValueError(f"unknown point id: {point_id!r}") from None

    def dist(self, i: int, j: int) -> Fraction:
        if self.metric is None:
            raise ValueError("space has no metric")
        return self.metric[i][j]

    def int_metric(self) -> tuple:
        """(m, den): the metric's rows as ints over one denominator, so
        dist(i, j) == Fraction(m[i][j], den); found when the space is made."""
        if self._scaled is None:
            raise ValueError("space has no metric")
        return self._scaled


@dataclass(frozen=True)
class ExtFun:
    """An extended-real-valued function on a Space; values rational or +inf.

    The domain (set of finite values) is required to be nonempty.
    """

    space: Space
    values: tuple

    def __post_init__(self):
        vals = tuple(_ext(v) for v in self.values)
        if len(vals) != self.space.n:
            raise ValueError("one value per point required")
        if not any(is_finite(v) for v in vals):
            raise ValueError("function has empty domain")
        object.__setattr__(self, "values", vals)

    def dom(self) -> tuple:
        return tuple(i for i, v in enumerate(self.values) if is_finite(v))

    def is_finite_everywhere(self) -> bool:
        return all(is_finite(v) for v in self.values)

    def __add__(self, other: "ExtFun") -> "ExtFun":
        check_same_space(self.space, other.space, "functions")
        return ExtFun(self.space, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "ExtFun") -> "ExtFun":
        check_same_space(self.space, other.space, "functions")
        if not other.is_finite_everywhere():
            raise ValueError("can only subtract a finite-valued function")
        return ExtFun(self.space, tuple(a - b for a, b in zip(self.values, other.values)))

    def scale(self, alpha) -> "ExtFun":
        # cone convention: 0 * f is the zero function even off dom(f)
        a = rat(alpha)
        if a == 0:
            return zero(self.space)
        if a < 0 and not self.is_finite_everywhere():
            raise ValueError("negative scaling of an extended-valued function")
        return ExtFun(
            self.space,
            tuple(v if not is_finite(v) else a * v for v in self.values),
        )

    def leq(self, other: "ExtFun") -> bool:
        check_same_space(self.space, other.space, "functions")
        return all(a <= b for a, b in zip(self.values, other.values))


def check_same_space(a: Space, b: Space, what: str) -> None:
    """Raise ValueError naming `what` unless the two spaces are the same."""
    if a != b:
        raise ValueError(f"{what} live on different spaces ({a.n} and {b.n} points)")


def constant(space: Space, c) -> ExtFun:
    return ExtFun(space, (rat(c),) * space.n)


def zero(space: Space) -> ExtFun:
    return constant(space, 0)


def indicator(space: Space, point_id) -> ExtFun:
    """The 0/1 indicator of a single point (continuous on a discrete space)."""
    i = space.index(point_id)
    vals = [Fraction(0)] * space.n
    vals[i] = Fraction(1)
    return ExtFun(space, tuple(vals))


@dataclass(frozen=True)
class Measure:
    """A rational weight vector on a Space; signed weights are permitted.

    A measure is immutable, so its simplex facts are found once, when it is
    made: its weights scaled to ints (see _scale), its mass, and its place
    relative to the simplex (classify_measure).  They, and the report label,
    are kept outside the dataclass fields, so == and repr see only the space
    and the weights.
    """

    space: Space
    weights: tuple

    def __post_init__(self):
        w = tuple(rat(v) for v in self.weights)
        if len(w) != self.space.n:
            raise ValueError("one weight per point required")
        object.__setattr__(self, "weights", w)
        sw = _scale(w)
        _, ints, den = sw
        total = Fraction(sum(ints), den)
        object.__setattr__(self, "_scaled", sw)
        object.__setattr__(self, "_total", total)
        object.__setattr__(self, "_where", _locate(len(w), ints, total))

    def total(self) -> Fraction:
        return self._total

    @cached_property
    def label(self) -> str:
        """The weights as report text, e.g. "('1/2', '1/2')", made once, on
        first use: a sample of measures is labelled by every check it is
        reused in."""
        return str(tuple(map(str, self.weights)))

    def dot(self, values) -> Fraction:
        """dot(self.weights, values), with the weights' ints made once."""
        return _scaled_dot(self._scaled, values)


def dirac(space: Space, point_id) -> Measure:
    """The Dirac mass at a point: weight 1 there, 0 elsewhere."""
    i = space.index(point_id)
    w = [Fraction(0)] * space.n
    w[i] = Fraction(1)
    return Measure(space, tuple(w))


def _scale(weights) -> tuple:
    """(indices of the nonzero weights, those weights as ints over one
    denominator, that denominator): the weights' half of dot, made once
    and reused over many value vectors by _scaled_dot."""
    idx = [i for i, w in enumerate(weights) if w]
    ratios = [weights[i].as_integer_ratio() for i in idx]
    den = lcm(*[b for _, b in ratios])
    return idx, [a * (den // b) for a, b in ratios], den


def _scaled_dot(sw: tuple, values) -> Fraction:
    """dot(weights, values) for sw = _scale(weights)."""
    idx, ints, den = sw
    vs = [values[i].as_integer_ratio() for i in idx]
    dv = lcm(*[d for _, d in vs])
    num = 0
    for a, (c, d) in zip(ints, vs):
        num += a * c * (dv // d)
    return Fraction(num, den * dv)


def dot(weights, values) -> Fraction:
    """The exact sum of w * v over the pairs with w != 0.

    Each side is scaled to ints by one lcm of its denominators, so the sum
    is taken over ints and one Fraction is made.  A value under a zero
    weight is never read, so it may be +inf.
    """
    return _scaled_dot(_scale(weights), values)


def pairing(Q: Measure, phi: ExtFun) -> Fraction:
    """<Q, phi> = sum of weight(x) * phi(x), exact, by one int dot product
    over a common denominator (see dot, and Measure.dot, which scales Q's
    weights once); phi must be finite everywhere."""
    check_same_space(Q.space, phi.space, "measure and function")
    if not phi.is_finite_everywhere():
        raise ValueError("pairing requires a finite-valued function")
    return Q.dot(phi.values)


VERTEX = "vertex"
INTERIOR = "interior-of-simplex"
BOUNDARY = "boundary-of-simplex"
OUTSIDE = "outside-simplex"


def _locate(n: int, ints: list, total: Fraction) -> str:
    """Where a measure on n points lies, from its nonzero weights as ints
    (signs kept, see _scale) and its mass."""
    if total != 1 or any(a < 0 for a in ints):
        return OUTSIDE
    if len(ints) == 1:
        return VERTEX
    return INTERIOR if len(ints) == n else BOUNDARY


def classify_measure(Q: Measure) -> str:
    """Locate Q relative to the probability simplex over the points (found
    once, when Q is made)."""
    return Q._where


def in_simplex(Q: Measure) -> bool:
    return classify_measure(Q) != OUTSIDE
