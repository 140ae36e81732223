"""Exact slack maximization by integer pivoting.

`max_slack` solves the one linear program the realizability search asks:
maximize a slack t subject to rows a.x >= b over x >= 0, with every b <= 0.
So x = 0 is feasible, and a dense tableau simplex with Bland's rule starts
there with no phase 1: the pivot choice is the lowest-index improving
column and, on ratio ties, the row whose basic variable has the lowest
index, which rules out cycling.  The tableau holds Python ints over one
common positive denominator D, the absolute determinant of the current
basis.  A pivot on entry p updates every other row by
x <- (x*p - f*y) // D and then sets D <- p; the division is exact
(Edmonds 1967; Bareiss 1968), so every sign and ratio decision is exact and
no gcd is ever taken.  The intended problems are small (tens to a hundred
rows).

Also provides fraction-free Gauss-Jordan elimination for presolving a
homogeneous equality system down to an integer nullspace basis.
"""

from fractions import Fraction
from math import gcd

from .errors import InternalConsistencyError


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


def solve_linear_system(rows, ncols):
    """Solve rows.x = 0 by fraction-free Gauss-Jordan elimination.

    The rows are ints over ncols unknowns.  Returns the integer nullspace basis: one primitive
    vector per free column, positive in that column and 0 in every other
    free column.
    """
    a = [list(row) for row in rows]
    m = len(a)
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
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_of_col):
        v = [0] * ncols
        v[fc] = d
        for col, row in pivot_of_col.items():
            v[col] = -a[row][fc]
        g = gcd(*v)
        basis.append([x // g for x in v])
    return basis


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
    """Maximize t = x[-1] subject to rows.x >= rhs and x >= 0.

    The rows and right sides are ints, and every right side is <= 0, so
    Bland's rule starts from the all-slack basis at x = 0.  Returns (t, x)
    as Fractions.  A positive right side raises ValueError; an unbounded t
    raises InternalConsistencyError: the realizability program bounds it.
    """
    if any(b > 0 for b in rhs):
        raise ValueError("every right side must be <= 0, so that x = 0 is feasible")
    nvars = len(rows[0])
    m = len(rows)
    # a.x >= b becomes -a.x + slack = -b, slack nvars + i basic in row i.
    tab = [[-v for v in row] + [0] * m + [-b] for row, b in zip(rows, rhs)]
    for i, row in enumerate(tab):
        row[nvars + i] = 1
    basis = [nvars + i for i in range(m)]
    z = [0] * (nvars + m + 1)
    z[nvars - 1] = -1  # minimize -t
    d = _bland(tab, 1, basis, z)
    x = [Fraction(0)] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            x[b] = Fraction(tab[i][-1], d)
    return x[-1], tuple(x)
