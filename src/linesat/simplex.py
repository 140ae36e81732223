"""Exact slack maximization by integer pivoting.

`max_slack` solves the one linear program the realizability search asks:
maximize a slack t subject to rows a.x >= b over x >= 0, with every b <= 0.
So x = 0 is feasible, and a simplex with Bland's rule starts there with no
phase 1: the least-index improving variable enters and, on ratio ties, the
variable with the least index leaves, which rules out cycling.  The
programs have many more rows than structural variables (tens of rows, a
handful of variables), so, as in the revised simplex (Dantzig and
Orchard-Hays 1954), only the dictionary rows of the structural variables
are stored: each in terms of the current nonbasic variables.  A basic
slack's row is its constraint row times those, formed only as far as the
ratio test and the pivot need it.  The entries are Python ints over one
common positive denominator D, the absolute determinant of the current
basis.  A pivot on entry p updates each stored row by
x <- (x*p - f*y) // D and then sets D <- p; the division is exact
(Edmonds 1967; Bareiss 1968), so every sign and ratio decision is exact and
no gcd is ever taken.  Every entry equals the dense tableau's, so the pivot
path is the one a dense tableau takes.

Also provides fraction-free Gauss-Jordan elimination for presolving a
homogeneous equality system down to an integer nullspace basis.
"""

from fractions import Fraction
from math import gcd
from operator import mul

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

    for i, row in enumerate(rows):
        f = row[c]
        if i == r or f == 0 and p == d:
            continue
        if d == 1:
            rows[i] = [x * p - f * y for x, y in zip(row, prow)]
        else:
            rows[i] = [(x * p - f * y) // d for x, y in zip(row, prow)]
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


def _exchange(tab, z, nonbasic, d, q, leave, prow):
    """Pivot on column q over denominator d: nonbasic[q] enters and the
    variable `leave`, whose dictionary row is prow, leaves and takes over
    column q.

    The pivot p = prow[q] is positive.  Every stored row and the cost row
    z become (x*p - f*y) // d, f being their entry q, which then holds -f,
    the leaving variable's column.  So the entering variable's row becomes
    prow with d in column q, and a leaving structural variable's row -p in
    column q alone.  Returns p, the new denominator.
    """
    p = prow[q]

    def combine(row):
        f = row[q]
        if f == 0 and p == d:
            return row
        row = [(x * p - f * y) // d for x, y in zip(row, prow)]
        row[q] = -f
        return row

    tab[:] = [combine(row) for row in tab]
    z[:] = combine(z)
    nonbasic[q] = leave
    return p


def max_slack(rows, rhs):
    """Maximize t = x[-1] subject to rows.x >= rhs and x >= 0.

    The rows and right sides are ints, and every right side is <= 0, so
    Bland's rule starts from the all-slack basis at x = 0.  Returns (t, x)
    as Fractions.  A positive right side raises ValueError; an unbounded t
    raises InternalConsistencyError: the realizability program bounds it.

    Variable j < nvars is x[j] and nvars + i is row i's slack.  Over the
    denominator d, the dictionary row of a variable v reads
    d*v + sum(row[q] * nonbasic[q]) = row[-1], so a nonbasic v has -d in
    its own column and 0 elsewhere.  Only the nvars structural rows are
    stored, in tab, with the reduced costs z for minimizing -t.  Row i's
    slack is rows[i].x - rhs[i], so its row is rows[i] times tab, less
    d*rhs[i] in the last entry.  The ratio test forms a slack's entry in
    the entering column and, where that is positive, its right side; the
    full row only of the slack that leaves.  Every entry equals the dense
    tableau [-A | I | -b]'s in those columns.
    """
    if any(b > 0 for b in rhs):
        raise ValueError("every right side must be <= 0, so that x = 0 is feasible")
    nvars = len(rows[0])
    # every x[j] starts nonbasic in column j, at 0; d = 1
    tab = [[-int(j == k) for k in range(nvars)] + [0] for j in range(nvars)]
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
        # The ratio test scans variables by index, so a tie keeps the least.
        # No ratio is below 0, so a 0 ends it.
        leave = None
        for j, row in enumerate(tab):
            coeff = row[q]
            if coeff > 0 and (leave is None or row[-1] * den < num * coeff):
                leave, num, den = j, row[-1], coeff
        if leave is None or num:
            tq = [row[q] for row in tab]
            last = [row[-1] for row in tab]
            for i, a in enumerate(rows):
                coeff = sum(map(mul, a, tq))
                if coeff > 0:
                    here = sum(map(mul, a, last)) - d * rhs[i]
                    if leave is None or here * den < num * coeff:
                        leave, num, den = nvars + i, here, coeff
                        if not num:
                            break
        if leave is None:
            raise InternalConsistencyError("the slack program is unbounded")
        if leave < nvars:
            prow = tab[leave]
        else:
            a = rows[leave - nvars]
            prow = [sum(map(mul, a, c)) for c in zip(*tab)]
            prow[-1] -= d * rhs[leave - nvars]
        d = _exchange(tab, z, nonbasic, d, q, leave, prow)
    x = tuple(Fraction(row[-1], d) for row in tab)
    return x[-1], x
