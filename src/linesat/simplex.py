"""Exact linear programming by integer pivoting.

A dense two-phase tableau simplex with Bland's rule: the pivot choice is
the lowest-index improving column and, on ratio ties, the row whose basic
variable has the lowest index, which rules out cycling.  The tableau holds
Python ints over one common positive denominator D, the absolute
determinant of the current basis.  A pivot on entry p updates every other
row by x <- (x*p - f*y) // D and then sets D <- p; the division is exact
(Edmonds 1967; Bareiss 1968), so every sign and ratio decision is exact and
no gcd is ever taken.  Inputs may be ints or Fractions; results are
Fractions.  The intended problems are small (tens to a hundred rows).

Also provides fraction-free Gauss-Jordan elimination for presolving
equality systems down to a particular solution plus an integer nullspace
basis.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: Fraction | None
    solution: tuple[Fraction, ...] | None


def _as_ints(rows):
    """Scale rows of ints or Fractions by one positive integer to ints."""
    scale = lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (scale // v.denominator) for v in row] for row in rows]


def _pivot(rows, d, r, c, z=None):
    """Pivot rows (and the cost row z) on entry (r, c) over denominator d.

    Keeps the denominator positive by negating the pivot row when the
    pivot is negative; returns the new denominator.
    """
    prow = rows[r]
    p = prow[c]
    if p < 0:
        p = -p
        prow = rows[r] = [-y for y in prow]

    def combine(row):
        f = row[c]
        if f == 0:
            return row if p == d else [x * p // d for x in row]
        if d == 1:
            return [x * p - f * y for x, y in zip(row, prow)]
        return [(x * p - f * y) // d for x, y in zip(row, prow)]

    for i, row in enumerate(rows):
        if i != r:
            rows[i] = combine(row)
    if z is not None:
        z[:] = combine(z)
    return p


def solve_linear_system(rows, rhs):
    """Solve A x = b exactly by fraction-free Gauss-Jordan elimination.

    Returns (particular_solution, nullspace_basis) or None when the system
    is inconsistent.  The particular solution is a list of Fractions; the
    nullspace basis has one primitive integer vector per free column,
    positive in that column.
    """
    a = _as_ints([list(row) + [b] for row, b in zip(rows, rhs)])
    m = len(a)
    ncols = len(rows[0]) if m else 0
    d = 1
    pivot_of_col: dict[int, int] = {}
    prow = 0
    for col in range(ncols):
        pr = next((i for i in range(prow, m) if a[i][col]), None)
        if pr is None:
            continue
        a[prow], a[pr] = a[pr], a[prow]
        d = _pivot(a, d, prow, col)
        pivot_of_col[col] = prow
        prow += 1
        if prow == m:
            break
    if any(a[i][ncols] for i in range(prow, m)):
        return None
    particular = [Fraction(0)] * ncols
    for col, row in pivot_of_col.items():
        particular[col] = Fraction(a[row][ncols], d)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_of_col):
        v = [0] * ncols
        v[fc] = d
        for col, row in pivot_of_col.items():
            v[col] = -a[row][fc]
        g = gcd(*v)
        basis.append([x // g for x in v])
    return particular, basis


def _bland(tab, d, basis, z, labels):
    """Minimize over the current basic feasible tableau in place.

    Each row ends in its right-hand side; z holds the reduced costs scaled
    by d; labels[j] is the variable index of column j, ascending, and basis
    holds variable indices.  Returns (status, final denominator).
    """
    while True:
        enter = next((j for j in range(len(labels)) if z[j] < 0), None)
        if enter is None:
            return "optimal", d
        leave = None
        for i, row in enumerate(tab):
            coeff = row[enter]
            if coeff > 0:
                if leave is None:
                    leave, num, den = i, row[-1], coeff
                    continue
                lhs, rhs = row[-1] * den, num * coeff
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, num, den = i, row[-1], coeff
        if leave is None:
            return "unbounded", d
        d = _pivot(tab, d, leave, enter, z)
        basis[leave] = labels[enter]


def linprog_max(c, ge_rows=(), ge_rhs=()) -> LPResult:
    """Maximize c.x subject to ge_rows.x >= ge_rhs and x >= 0.

    Every row is scaled by one common positive integer, which leaves the
    pivot path unchanged; the objective is scaled by its own.
    """
    nvars = len(c)
    (cost,) = _as_ints([c])
    rows = _as_ints([list(row) + [b] for row, b in zip(ge_rows, ge_rhs)])
    m = len(rows)
    nreal = nvars + m
    # Each row a.x >= b becomes -a.x + slack = -b, then gets artificial
    # variable nreal + i, which starts basic; a row is negated, artificial
    # aside, to make its right side nonnegative.  Only a negated row needs
    # its artificial column: elsewhere that column equals the slack's and
    # costs more, so Bland's rule never brings it back.
    flipped = [i for i, row in enumerate(rows) if row[-1] > 0]
    labels = list(range(nreal)) + [nreal + i for i in flipped]
    tab = []
    for i, row in enumerate(rows):
        sign = -1 if row[-1] > 0 else 1
        full = [-sign * v for v in row[:-1]] + [0] * (len(labels) - nvars)
        full[nvars + i] = sign
        tab.append(full + [-sign * row[-1]])
    for k, i in enumerate(flipped):
        tab[i][nreal + k] = 1
    basis = [nreal + i for i in range(m)]
    z = [-sum(col) for col in zip(*tab)] if tab else [0] * (nvars + 1)
    z[nreal:-1] = [0] * len(flipped)
    _, d = _bland(tab, 1, basis, z, labels)
    if any(tab[i][-1] for i in range(m) if basis[i] >= nreal):
        return LPResult("infeasible", None, None)
    # Drive zero-level artificials out of the basis.  Every row has its own
    # slack column, so no row can run out of real coefficients.
    for i in range(m):
        if basis[i] >= nreal:
            col = next(j for j in range(nreal) if tab[i][j])
            d = _pivot(tab, d, i, col)
            basis[i] = col
    tab = [row[:nreal] + row[-1:] for row in tab]
    z = [-d * v for v in cost] + [0] * (m + 1)
    for i, b in enumerate(basis):
        if b < nvars and cost[b]:
            z = [x + cost[b] * y for x, y in zip(z, tab[i])]
    status, d = _bland(tab, d, basis, z, range(nreal))
    if status == "unbounded":
        return LPResult("unbounded", None, None)
    x = [Fraction(0)] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            x[b] = Fraction(tab[i][-1], d)
    value = sum((Fraction(ci) * xi for ci, xi in zip(c, x)), Fraction(0))
    return LPResult("optimal", value, tuple(x))
