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


_RATIONAL = re.compile(r"[+-]?\d+(/[1-9]\d*)?")


def rat(v) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to an exact rational.

    Floats are rejected: no floating point may enter an identity check,
    nor may decimal or exponent strings such as '0.1' or '1e-2'.
    """
    if isinstance(v, Fraction):
        return v
    if isinstance(v, bool):
        raise TypeError(f"not an exact rational: {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        if not _RATIONAL.fullmatch(v):
            raise ValueError(f"not an exact rational string like '1/2': {v!r}")
        return Fraction(v)
    raise TypeError(f"not an exact rational: {v!r}")


def _ext(v):
    if v is INF or isinstance(v, PosInf):
        return INF
    if isinstance(v, str) and v.strip() in ("+inf", "inf"):
        return INF
    return rat(v)


@dataclass(frozen=True)
class Space:
    """A finite ground set of named points with an optional exact metric."""

    point_ids: tuple
    metric: tuple | None = None

    def __post_init__(self):
        ids = tuple(str(p) for p in self.point_ids)
        if not ids:
            raise ValueError("a space needs at least one point")
        if len(set(ids)) != len(ids):
            raise ValueError("point ids must be distinct")
        object.__setattr__(self, "point_ids", ids)
        if self.metric is not None:
            n = len(ids)
            rows = tuple(tuple(rat(v) for v in row) for row in self.metric)
            if len(rows) != n or any(len(r) != n for r in rows):
                raise ValueError("metric must be a square matrix over the points")
            for i in range(n):
                if rows[i][i] != 0:
                    raise ValueError(f"metric diagonal must be zero at {ids[i]}")
                for j in range(n):
                    if i != j and rows[i][j] <= 0:
                        raise ValueError(
                            f"distance must be positive for ({ids[i]}, {ids[j]})"
                        )
                    if rows[i][j] != rows[j][i]:
                        raise ValueError(
                            f"metric must be symmetric at ({ids[i]}, {ids[j]})"
                        )
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        if rows[i][j] > rows[i][k] + rows[k][j]:
                            raise ValueError(
                                "triangle inequality fails for "
                                f"({ids[i]}, {ids[j]}, {ids[k]})"
                            )
            object.__setattr__(self, "metric", rows)

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
    """A rational weight vector on a Space; signed weights are permitted."""

    space: Space
    weights: tuple

    def __post_init__(self):
        w = tuple(rat(v) for v in self.weights)
        if len(w) != self.space.n:
            raise ValueError("one weight per point required")
        object.__setattr__(self, "weights", w)

    def total(self) -> Fraction:
        return sum(self.weights, Fraction(0))


def dirac(space: Space, point_id) -> Measure:
    """The Dirac mass at a point: weight 1 there, 0 elsewhere."""
    i = space.index(point_id)
    w = [Fraction(0)] * space.n
    w[i] = Fraction(1)
    return Measure(space, tuple(w))


def pairing(Q: Measure, phi: ExtFun) -> Fraction:
    """<Q, phi> = sum of weight(x) * phi(x); phi must be finite everywhere."""
    check_same_space(Q.space, phi.space, "measure and function")
    if not phi.is_finite_everywhere():
        raise ValueError("pairing requires a finite-valued function")
    return sum((w * v for w, v in zip(Q.weights, phi.values)), Fraction(0))


VERTEX = "vertex"
INTERIOR = "interior-of-simplex"
BOUNDARY = "boundary-of-simplex"
OUTSIDE = "outside-simplex"


def classify_measure(Q: Measure) -> str:
    """Locate Q relative to the probability simplex over the points."""
    w = Q.weights
    if any(v < 0 for v in w) or Q.total() != 1:
        return OUTSIDE
    ones = [v for v in w if v != 0]
    if len(ones) == 1 and ones[0] == 1:
        return VERTEX
    return INTERIOR if all(v > 0 for v in w) else BOUNDARY


def in_simplex(Q: Measure) -> bool:
    return classify_measure(Q) != OUTSIDE
