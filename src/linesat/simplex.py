"""Exact slack maximization by integer pivoting.

`max_slack` solves the one linear program the realizability search asks:
maximize a slack t subject to rows a.x >= b over x >= 0, with every b <= 0.
So x = 0 is feasible, and a simplex with Bland's rule starts there with no
phase 1: the least-index improving variable enters and, on ratio ties, the
row whose basic variable has the least index leaves, which rules out
cycling.  It pivots a compact dictionary, as lrs does (Avis 2000): one row
per constraint over the nonbasic variables only, so the identity columns
of the basic slacks are never stored or updated.  The entries are Python
ints over one common positive denominator D, the absolute determinant of
the current basis.  A pivot on entry p updates every other row by
x <- (x*p - f*y) // D and then sets D <- p; the division is exact
(Edmonds 1967; Bareiss 1968), so every sign and ratio decision is exact and
no gcd is ever taken.  Every entry equals the dense tableau's, so the pivot
path is the one a dense tableau takes.  The intended problems are small
(tens to a hundred rows).

Also provides fraction-free Gauss-Jordan elimination for presolving a
homogeneous equality system down to an integer nullspace basis.
"""

from fractions import Fraction
from math import gcd

from .errors import InternalConsistencyError


def _pivot(rows, d, r, c):
    """Pivot rows on entry (r, c) over denominator d.

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


def _exchange(tab, z, basis, nonbasic, d, r, q):
    """Pivot the dictionary on (r, q) over denominator d: nonbasic[q]
    enters in row r, basis[r] leaves and takes over column q.

    The pivot p = tab[r][q] is positive.  Every other row and the cost
    row z become (x*p - f*y) // d, f being their entry q, which then holds
    -f, the leaving variable's column; row r keeps its entries, with d in
    column q.  Returns p, the new denominator.
    """
    prow = tab[r]
    p = prow[q]

    def combine(row):
        f = row[q]
        if f == 0 and p == d:
            return row
        if d == 1:
            row = [x * p - f * y for x, y in zip(row, prow)]
        else:
            row = [(x * p - f * y) // d for x, y in zip(row, prow)]
        row[q] = -f
        return row

    for i, row in enumerate(tab):
        if i != r:
            tab[i] = combine(row)
    z[:] = combine(z)
    prow[q] = d
    basis[r], nonbasic[q] = nonbasic[q], basis[r]
    return p


def max_slack(rows, rhs):
    """Maximize t = x[-1] subject to rows.x >= rhs and x >= 0.

    The rows and right sides are ints, and every right side is <= 0, so
    Bland's rule starts from the all-slack basis at x = 0.  Returns (t, x)
    as Fractions.  A positive right side raises ValueError; an unbounded t
    raises InternalConsistencyError: the realizability program bounds it.

    Variable j < nvars is x[j] and nvars + i is row i's slack.  The
    dictionary holds one row per constraint, basis[i] being its basic
    variable, over the nonbasic variables nonbasic[q] and a last
    right-hand-side entry; z holds their reduced costs for minimizing -t,
    the nonbasic slacks' among them.  All are ints over the denominator d,
    equal to the dense tableau [-A | I | -b]'s entries in those columns.
    """
    if any(b > 0 for b in rhs):
        raise ValueError("every right side must be <= 0, so that x = 0 is feasible")
    nvars = len(rows[0])
    m = len(rows)
    # a.x >= b becomes -a.x + slack = -b, slack nvars + i basic in row i.
    tab = [[-v for v in row] + [-b] for row, b in zip(rows, rhs)]
    basis = list(range(nvars, nvars + m))
    nonbasic = list(range(nvars))
    z = [0] * (nvars + 1)
    z[nvars - 1] = -1  # minimize -t
    d = 1
    while True:
        # Bland's rule goes by variable index, not by column position
        enter = min((v for v, c in zip(nonbasic, z) if c < 0), default=None)
        if enter is None:
            break
        q = nonbasic.index(enter)
        leave = None
        for i, row in enumerate(tab):
            coeff = row[q]
            if coeff > 0:
                if leave is None:
                    leave, num, den = i, row[-1], coeff
                    continue
                here, best = row[-1] * den, num * coeff
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave, num, den = i, row[-1], coeff
        if leave is None:
            raise InternalConsistencyError("the slack program is unbounded")
        d = _exchange(tab, z, basis, nonbasic, d, leave, q)
    x = [Fraction(0)] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            x[b] = Fraction(tab[i][-1], d)
    return x[-1], tuple(x)
