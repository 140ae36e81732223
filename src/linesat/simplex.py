"""Exact slack maximization by integer pivoting.

`max_slack` solves the one linear program the realizability search asks:
maximize a free slack t subject to rows a.y - c*t >= b over y >= 0.  Since
t is free, one pivot on t reaches a feasible basis, and a dense tableau
simplex with Bland's rule takes it from there: the pivot choice is the
lowest-index improving column and, on ratio ties, the row whose basic
variable has the lowest index, which rules out cycling.  The tableau holds
Python ints over one common positive denominator D, the absolute
determinant of the current basis.  A pivot on entry p updates every other
row by x <- (x*p - f*y) // D and then sets D <- p; the division is exact
(Edmonds 1967; Bareiss 1968), so every sign and ratio decision is exact and
no gcd is ever taken.  The intended problems are small (tens to a hundred
rows).

Also provides fraction-free Gauss-Jordan elimination for presolving
equality systems down to a particular solution plus an integer nullspace
basis.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import InternalConsistencyError


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


def _bland(tab, d, basis, z):
    """Minimize over the current basic feasible tableau in place.

    Each row ends in its right-hand side; z holds the reduced costs scaled
    by d, and basis holds the column index of each row's basic variable.
    Returns the final denominator.
    """
    while True:
        enter = next((j for j in range(len(z) - 1) if z[j] < 0), None)
        if enter is None:
            return d
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
            raise InternalConsistencyError("the slack program is unbounded")
        d = _pivot(tab, d, leave, enter, z)
        basis[leave] = enter


def max_slack(rows, rhs):
    """Maximize t = x[-2] - x[-1] subject to rows.x >= rhs and x >= 0.

    The rows are ints, and each one ends in -c, c for one common c > 0, so
    it reads a.y - c*t >= b with the slack t free.  Returns (t, x) as
    Fractions.  Every slack column starts basic; if some b is positive, one
    pivot brings t's negative part into the row with the largest b (the
    lowest such row on ties), which makes every right side nonnegative, and
    Bland's rule runs from that feasible start.  An unbounded t raises
    InternalConsistencyError: the realizability program bounds it.
    """
    nvars = len(rows[0])
    c = rows[0][-1]
    if c <= 0 or any(row[-2] != -c or row[-1] != c for row in rows):
        raise ValueError("every row must end in -c, c for one common c > 0")
    m = len(rows)
    # a.x >= b becomes -a.x + slack = -b, slack nvars + i basic in row i.
    tab = [[-v for v in row] + [0] * m + [-b] for row, b in zip(rows, rhs)]
    for i, row in enumerate(tab):
        row[nvars + i] = 1
    basis = [nvars + i for i in range(m)]
    z = [0] * (nvars + m + 1)
    z[nvars - 2], z[nvars - 1] = -1, 1  # minimize -t
    d = 1
    top = max(range(m), key=lambda i: (rhs[i], -i))
    if rhs[top] > 0:
        d = _pivot(tab, d, top, nvars - 1, z)
        basis[top] = nvars - 1
    d = _bland(tab, d, basis, z)
    x = [Fraction(0)] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            x[b] = Fraction(tab[i][-1], d)
    return x[-2] - x[-1], tuple(x)
