"""Exact rational linear programming via two-phase simplex with Bland's rule.

Everything is computed over exact rationals; an Optimal result satisfies
every constraint with zero tolerance, and an Unbounded result carries a
certificate ray along which the objective improves without bound.
Internally the pivoting runs on gmpy2 rationals when gmpy2 is installed;
otherwise on Fraction.  The public API speaks Fraction.

The tableau is dense but mostly zero, so the work skips the zeros: a pivot
divides and subtracts only at the nonzero columns of the pivot row, and
the phase-1 and phase-2 cost rows are built from the nonzeros of each
basic row.  The pivot order (Bland's entering rule, the ratio test and its
tie-break) is the one a dense pivot would take, and every entry is the
same exact rational, so results do not depend on the skipping.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

try:
    from gmpy2 import mpq as _q
except ImportError:  # no gmpy2: the Fraction fallback runs, with identical results
    _q = Fraction

LE = "<="
EQ = "="
GE = ">="

_RELATIONS = (LE, EQ, GE)


def _frac(v) -> Fraction:
    return Fraction(int(v.numerator), int(v.denominator))


@dataclass(frozen=True)
class LinearProgram:
    variables: tuple
    objective: tuple        # rational coefficients, one per variable
    maximize: bool
    constraints: tuple      # items (coeffs, relation, rhs)
    nonneg: tuple           # per-variable bool: True means x >= 0, else free

    def __post_init__(self):
        n = len(self.variables)
        if n == 0:
            raise ValueError("a linear program needs at least one variable")
        if len(self.objective) != n:
            raise ValueError("objective length does not match variable count")
        if len(self.nonneg) != n:
            raise ValueError("nonneg flags length does not match variable count")
        for coeffs, rel, _rhs in self.constraints:
            if len(coeffs) != n:
                raise ValueError("constraint length does not match variable count")
            if rel not in _RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")


@dataclass(frozen=True)
class Optimal:
    value: Fraction
    point: tuple


@dataclass(frozen=True)
class Unbounded:
    ray: tuple


@dataclass(frozen=True)
class Infeasible:
    pass


def make_lp(objective, constraints, maximize=True, nonneg=None, variables=None):
    n = len(objective)
    if variables is None:
        variables = tuple(f"v{i}" for i in range(n))
    if nonneg is None:
        nonneg = (False,) * n
    return LinearProgram(
        variables=tuple(variables),
        objective=tuple(objective),
        maximize=maximize,
        constraints=tuple(
            (tuple(coeffs), rel, rhs) for coeffs, rel, rhs in constraints
        ),
        nonneg=tuple(bool(b) for b in nonneg),
    )


def _nonzeros(row):
    return [(j, v) for j, v in enumerate(row) if v]


def _pivot(T, basis, row, col):
    prow = T[row]
    piv = prow[col]
    nz = [(j, v / piv) for j, v in _nonzeros(prow)]
    for j, v in nz:
        prow[j] = v
    for i, Ti in enumerate(T):
        if i != row:
            f = Ti[col]
            if f:
                for j, b in nz:
                    Ti[j] -= f * b
    basis[row] = col


def _iterate(T, basis, m, cols):
    """Run simplex on tableau T (cost row at index m) restricted to cols.

    Bland's rule: entering = lowest-index column with negative reduced cost,
    leaving = minimum ratio with ties broken by lowest basic-variable index.
    Returns None at optimality, or the entering column index on unboundedness.
    """
    while True:
        cost = T[m]
        enter = -1
        for j in cols:
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            return None
        leave = -1
        best = None
        for i in range(m):
            a = T[i][enter]
            if a > 0:
                r = T[i][-1] / a
                if best is None or r < best or (r == best and basis[i] < basis[leave]):
                    best = r
                    leave = i
        if leave < 0:
            return enter
        _pivot(T, basis, leave, enter)


def solve(lp: LinearProgram):
    """Solve exactly; returns Optimal, Unbounded (with ray), or Infeasible."""
    n = len(lp.variables)
    free = [k for k in range(n) if not lp.nonneg[k]]
    has_free = bool(free)
    tcol = n if has_free else -1          # shared negative part for free vars
    nstruct = n + (1 if has_free else 0)

    zero = _q(0)

    def to_y(coeffs):
        row = [_q(v) if v else zero for v in coeffs]
        if has_free:
            neg = zero
            for k in free:
                if row[k]:
                    neg -= row[k]
            row.append(neg)
        return row

    obj = to_y(lp.objective)
    if lp.maximize:
        obj = [-v for v in obj]

    rows = []
    for coeffs, rel, rhs in lp.constraints:
        row = to_y(coeffs)
        b = _q(rhs)
        if b < 0:
            row = [-v for v in row]
            b = -b
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
        rows.append((row, rel, b))

    m = len(rows)
    nslack = sum(1 for _, rel, _ in rows if rel != EQ)
    nart = sum(1 for _, rel, _ in rows if rel != LE)
    N = nstruct + nslack + nart

    T = []
    basis = []
    si = nstruct
    ai = nstruct + nslack
    for row, rel, b in rows:
        full = row + [zero] * (N - nstruct) + [b]
        if rel == LE:
            full[si] = _q(1)
            basis.append(si)
            si += 1
        elif rel == GE:
            full[si] = _q(-1)
            si += 1
            full[ai] = _q(1)
            basis.append(ai)
            ai += 1
        else:
            full[ai] = _q(1)
            basis.append(ai)
            ai += 1
        T.append(full)

    nonart = list(range(nstruct + nslack))

    if nart:
        cost = [zero] * (N + 1)
        for j in range(nstruct + nslack, N):
            cost[j] = _q(1)
        for i in range(m):
            if basis[i] >= nstruct + nslack:
                for j, v in _nonzeros(T[i]):
                    cost[j] -= v
        T.append(cost)
        _iterate(T, basis, m, nonart)     # phase-1 objective is bounded below
        if T[m][N] != 0:
            return Infeasible()
        T.pop()
        drop = []
        for i in range(m):
            if basis[i] >= nstruct + nslack:
                j = next((j for j in nonart if T[i][j] != 0), None)
                if j is None:
                    drop.append(i)        # redundant row
                else:
                    _pivot(T, basis, i, j)
        for i in reversed(drop):
            T.pop(i)
            basis.pop(i)
        m = len(T)

    corig = obj + [zero] * (N - nstruct)
    cost = corig + [zero]
    for i in range(m):
        cb = corig[basis[i]]
        if cb:
            for j, v in _nonzeros(T[i]):
                cost[j] -= cb * v
    T.append(cost)

    enter = _iterate(T, basis, m, nonart)
    if enter is not None:
        ray_y = [zero] * N
        ray_y[enter] = _q(1)
        for i in range(m):
            ray_y[basis[i]] = -T[i][enter]
        ray = [
            ray_y[k] - (ray_y[tcol] if (has_free and not lp.nonneg[k]) else zero)
            for k in range(n)
        ]
        return Unbounded(tuple(_frac(v) for v in ray))

    y = [zero] * N
    for i in range(m):
        y[basis[i]] = T[i][N]
    x = [
        y[k] - (y[tcol] if (has_free and not lp.nonneg[k]) else zero)
        for k in range(n)
    ]
    value = sum((_q(lp.objective[k]) * x[k] for k in range(n)), zero)
    return Optimal(_frac(value), tuple(_frac(v) for v in x))
