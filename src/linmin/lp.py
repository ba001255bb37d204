"""Exact rational linear programming via two-phase simplex with Bland's rule.

Everything is computed over exact rationals; an Optimal result satisfies
every constraint with zero tolerance, and an Unbounded result carries a
certificate ray along which the objective improves without bound.  The
public API speaks Fraction.

The tableau is fraction-free: each row is a list of Python ints with one
positive int denominator, so entry j of row i is T[i][j] / D[i].  An input
row, whose scalars must be ints or Fractions, is scaled to integers once,
by the lcm of its denominators, and so are the phase-1 and phase-2 cost
rows.  A pivot makes the pivot entry the denominator of the pivot row R,
its sign made positive.  Every other row A with a nonzero entry f in the
pivot column becomes d*A - f*R over d*D, where d is R's denominator, D is
A's, and d and f are first divided by their gcd; when that leaves d = 1
only the nonzeros of R are subtracted.  Rows with a zero in the pivot
column are not touched.  A row is reduced by one gcd over its denominator
and entries only where that pays: the pivot row always, since its entry is
every other row's multiplier, and a row that d*A - f*R rebuilt once its
denominator passes _REDUCE_BITS bits.  A row the d = 1 path updated keeps
its denominator and is left alone.  A common factor left in a row never
changes the rationals it stands for.

Bland's entering rule reads the sign of an int and the ratio test compares
rhs/a by cross-multiplying ints, with the same tie-break.  Signs, zero tests
and those cross-products do not see a row's positive scale, so the pivot
order is the one exact rational pivots take and every entry is the same
rational.  Fractions are made only to report the result, so every value,
point and ray is the same, in lowest terms, however far rows were reduced.

Artificial variables are basis labels, not columns.  A >= or = row starts
with an artificial basic variable, labelled N, N+1, ... where N counts the
structural and slack columns, and the phase-1 cost row is minus the sum
of those rows.  No rule enters an artificial and no result reads one, so
the tableau stores only the N columns and the rhs.

solve_many shares one polyhedron among many objectives: set-up and phase 1
run once, and each objective's phase 2 starts from the basis the previous
one ended in.  Its first result is solve's, bit for bit.  A later result
has the kind and value of a cold solve, but in degenerate cases its point
or ray may differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

LE = "<="
EQ = "="
GE = ">="

_RELATIONS = (LE, EQ, GE)


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


def _scaled(values):
    """The values as ints over one positive common denominator: (ints, lcm).

    Only ints and Fractions are exact; a float, a bool or a string raises
    ValueError rather than being read as some nearby rational."""
    pairs = []
    for v in values:
        if type(v) is int:
            pairs.append((v, 1))
        elif isinstance(v, Fraction):
            pairs.append(v.as_integer_ratio())
        else:
            raise ValueError(f"an LP coefficient must be an int or a Fraction, not {v!r}")
    den = lcm(*[d for _, d in pairs])
    return [p * (den // d) for p, d in pairs], den


# A rebuilt row is reduced only once its denominator passes this many bits.
# Ints within a machine word or two multiply about as fast as small ones,
# while a gcd over the whole row costs about as much as the update itself,
# so reducing small rows costs more than their smaller entries save.
_REDUCE_BITS = 62


def _reduce(T, D, i):
    """Divide row i and its denominator by their common gcd."""
    g = gcd(D[i], *T[i])
    if g > 1:
        T[i] = [v // g for v in T[i]]
        D[i] //= g


def _append_cost_row(T, D, base, base_den, weights):
    """Append the row base/base_den - sum of (c/base_den) * T[i]/D[i] over
    the pairs (i, c) of weights, built from the nonzeros of each T[i]."""
    den = lcm(*[D[i] for i, _ in weights])
    cost = [den * v for v in base]
    for i, c in weights:
        s = c * (den // D[i])
        for j, v in _nonzeros(T[i]):
            cost[j] -= s * v
    T.append(cost)
    D.append(base_den * den)
    _reduce(T, D, len(T) - 1)


def _pivot(T, D, basis, row, col):
    if T[row][col] < 0:
        T[row] = [-v for v in T[row]]
    D[row] = T[row][col]
    _reduce(T, D, row)
    prow, piv = T[row], D[row]
    nz = _nonzeros(prow)
    for i, Ti in enumerate(T):
        if i != row:
            f = Ti[col]
            if f:
                g = gcd(piv, f)
                a, f = piv // g, f // g
                if a == 1:
                    for j, b in nz:
                        Ti[j] -= f * b
                else:
                    T[i] = [a * v - f * b for v, b in zip(Ti, prow)]
                    D[i] *= a
                    if D[i].bit_length() > _REDUCE_BITS:
                        _reduce(T, D, i)
    basis[row] = col


def _iterate(T, D, basis, m):
    """Run simplex on tableau T (cost row at index m).

    Bland's rule: entering = lowest-index column with negative reduced cost,
    leaving = minimum ratio with ties broken by lowest basic-variable index.
    Denominators are positive, so a sign is the sign of the int, and the
    ratio rhs/a of row i is T[i][-1] / T[i][enter], compared crosswise.
    Returns None at optimality, or the entering column index on unboundedness.
    """
    while True:
        cost = T[m]
        enter = -1
        for j in range(len(cost) - 1):
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            return None
        leave = -1
        for i in range(m):
            a = T[i][enter]
            if a > 0:
                b = T[i][-1]
                if (
                    leave < 0
                    or b * best_a < best_b * a
                    or (b * best_a == best_b * a and basis[i] < basis[leave])
                ):
                    leave, best_b, best_a = i, b, a
        if leave < 0:
            return enter
        _pivot(T, D, basis, leave, enter)


def solve(lp: LinearProgram):
    """Solve exactly; returns Optimal, Unbounded (with ray), or Infeasible."""
    return solve_many(lp, [lp.objective])[0]


def solve_many(lp: LinearProgram, objectives):
    """Solve lp once per objective, in order, over its one polyhedron.

    Set-up and phase 1 run once.  Each objective gets its own phase-2 cost
    row, iterated from the basis the previous objective ended in; that basis
    stays feasible after Optimal and Unbounded alike.  lp.objective itself
    is not used; lp.maximize applies to every objective.  Returns one
    result per objective, all Infeasible if the polyhedron is empty.
    """
    n = len(lp.variables)
    objectives = list(objectives)
    if any(len(c) != n for c in objectives):
        raise ValueError("objective length does not match variable count")
    free = [k for k in range(n) if not lp.nonneg[k]]
    has_free = bool(free)
    tcol = n if has_free else -1          # shared negative part for free vars
    nstruct = n + (1 if has_free else 0)

    def to_y(row):
        if has_free:
            row.append(-sum(row[k] for k in free))
        return row

    rows = []
    for coeffs, rel, rhs in lp.constraints:
        row, den = _scaled((*coeffs, rhs))
        b = row.pop()
        row = to_y(row)
        if b < 0:
            row = [-v for v in row]
            b = -b
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
        rows.append((row, rel, b, den))

    nslack = sum(1 for _, rel, _, _ in rows if rel != EQ)
    N = nstruct + nslack                  # columns; the rhs is column N

    # the basic variable of a >= or = row is an artificial: a label from N up
    T = []
    D = []
    basis = []
    si = nstruct
    ai = N
    for row, rel, b, den in rows:
        full = row + [0] * nslack + [b]
        if rel == LE:
            full[si] = den
            basis.append(si)
            si += 1
        else:
            if rel == GE:
                full[si] = -den
                si += 1
            basis.append(ai)
            ai += 1
        T.append(full)
        D.append(den)

    m = len(T)
    if ai > N:
        # minimise the sum of the artificials, i.e. of their rows
        _append_cost_row(
            T, D, [0] * (N + 1), 1, [(i, 1) for i in range(m) if basis[i] >= N]
        )
        _iterate(T, D, basis, m)  # phase-1 objective is bounded below
        if T[m][N] != 0:
            return [Infeasible()] * len(objectives)
        T.pop()
        D.pop()
        drop = []
        for i in range(m):
            if basis[i] >= N:
                j = next((j for j in range(N) if T[i][j] != 0), None)
                if j is None:
                    drop.append(i)        # redundant row
                else:
                    _pivot(T, D, basis, i, j)
        for i in reversed(drop):
            T.pop(i)
            D.pop(i)
            basis.pop(i)
        m = len(T)

    zero = Fraction(0)

    def to_x(y):
        return tuple(
            y[k] - (y[tcol] if (has_free and not lp.nonneg[k]) else zero)
            for k in range(n)
        )

    results = []
    for objective in objectives:
        obj, dobj = _scaled(objective)
        corig = to_y([-v for v in obj] if lp.maximize else obj)
        corig += [0] * (N + 1 - nstruct)
        weights = [(i, corig[basis[i]]) for i in range(m) if corig[basis[i]]]
        _append_cost_row(T, D, corig, dobj, weights)
        enter = _iterate(T, D, basis, m)
        y = [zero] * N
        if enter is not None:
            y[enter] = Fraction(1)
            for i in range(m):
                y[basis[i]] = Fraction(-T[i][enter], D[i])
            results.append(Unbounded(to_x(y)))
        else:
            for i in range(m):
                y[basis[i]] = Fraction(T[i][N], D[i])
            # the cost row's rhs is minus the minimised objective, <c, x> or -<c, x>
            z = Fraction(T[m][N], D[m])
            results.append(Optimal(z if lp.maximize else -z, to_x(y)))
        T.pop()
        D.pop()
    return results
