"""Exact slack maximization by integer pivoting.

`max_slack` solves the one linear program the realizability search asks:
maximize a slack t subject to rows a.x >= b over x >= 0, with every b <= 0.
So x = 0 is feasible, and a simplex with Bland's rule starts there with no
phase 1: the least-index improving variable enters and, on ratio ties, the
variable with the least index leaves, which rules out cycling.  The
programs have many more rows than structural variables (tens of rows, a
handful of variables), so, as in the revised simplex (Dantzig and
Orchard-Hays 1954), only the dictionary rows of the structural variables
are kept, each in terms of the current nonbasic variables, and they are
held by column: the entering column and the value column are read as
they are stored.  A basic slack's entry in a column is its constraint
row times that column, formed only as far as the ratio test and the
pivot need it.  The entries are Python ints over one common positive
denominator D, the absolute determinant of the current basis.  A pivot on
entry p updates each stored entry by x <- (x*p - f*y) // D and then sets
D <- p; the division is exact (Edmonds 1967; Bareiss 1968), so every sign
and ratio decision is exact and no gcd is ever taken.  Every entry equals
the dense tableau's, so the pivot path is the one a dense tableau takes.

Also provides fraction-free Gauss-Jordan elimination, held by column the
same way, for presolving a homogeneous equality system down to an
integer nullspace basis.
"""

from fractions import Fraction
from math import gcd
from operator import mul

from .errors import InternalConsistencyError


def solve_linear_system(rows, ncols):
    """Solve rows.x = 0 by fraction-free Gauss-Jordan elimination.

    The rows are ints over ncols unknowns.  Returns the integer nullspace
    basis: one primitive vector per free column, positive in that column
    and 0 in every other free column.  The system is held by column over
    one positive denominator d.  A pivot on entry p of row r, that row
    negated first if p < 0, rewrites every entry x of each column not yet
    pivoted to (x*p - f*y) // d, f being the pivot column's entry in x's
    row and y the column's entry in row r, which keeps y; a column with
    y = 0 changes only when p != d.  The pivot row is the first one not
    yet pivoted that is nonzero in the column.  The reduced row echelon
    form is unique, so the basis does not depend on which row pivots.
    """
    m = len(rows)
    cols = [list(col) for col in zip(*rows)] or [[] for _ in range(ncols)]
    pivot_of_col: dict[int, int] = {}
    used = [False] * m
    d = 1
    for c, f in enumerate(cols):
        r = next((i for i, x in enumerate(f) if x and not used[i]), None)
        if r is None:
            continue
        p = f[r]
        s = -1 if p < 0 else 1
        p *= s
        used[r] = True
        pivot_of_col[c] = r
        for j, col in enumerate(cols):
            if j in pivot_of_col:
                continue
            y = col[r] * s
            if y:
                col = [(x * p - g * y) // d for x, g in zip(col, f)]
                col[r] = y
                cols[j] = col
            elif p != d:
                cols[j] = [x * p // d for x in col]
        d = p
        if len(pivot_of_col) == m:
            break
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_of_col):
        v = [0] * ncols
        v[fc] = d
        for col, row in pivot_of_col.items():
            v[col] = -cols[fc][row]
        g = gcd(*v)
        basis.append([x // g for x in v])
    return basis


def _exchange(cols, z, nonbasic, d, q, leave, prow):
    """Pivot on column q over denominator d: nonbasic[q] enters and the
    variable `leave`, whose dictionary row is prow, leaves and takes over
    column q.

    The pivot p = prow[q] is positive.  Every entry x of every stored
    column k, and z[k], becomes (x*p - f*y) // d, f being its row's entry
    in column q and y = prow[k]; column q then holds -f, the leaving
    variable's column.  So the entering variable's row becomes prow with d
    in column q, and a leaving structural variable's row -p in column q
    alone.  When p == d a column with y = 0 is left as it is.  Returns p,
    the new denominator.
    """
    p = prow[q]
    fq, zq = cols[q], z[q]
    for k, y in enumerate(prow):
        if k == q or not y and p == d:
            continue
        cols[k] = [(x * p - f * y) // d for x, f in zip(cols[k], fq)]
        z[k] = (z[k] * p - zq * y) // d
    cols[q] = [-f for f in fq]
    z[q] = -zq
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
    stored, as nvars + 1 columns of nvars entries in cols, the last
    holding the values, with the reduced costs z for minimizing -t.  Row
    i's slack is rows[i].x - rhs[i], so its entry in a column is rows[i]
    times that column, less d*rhs[i] in the last.  The ratio test forms a
    slack's entry in the entering column and, where that is positive, its
    value; the whole row only of the slack that leaves, one product per
    column.  Every entry equals the dense tableau [-A | I | -b]'s in those
    columns.
    """
    if any(b > 0 for b in rhs):
        raise ValueError("every right side must be <= 0, so that x = 0 is feasible")
    nvars = len(rows[0])
    # every x[j] starts nonbasic in column j, at 0; d = 1
    cols = [[-int(j == k) for j in range(nvars)] for k in range(nvars)]
    cols.append([0] * nvars)
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
        tq, last = cols[q], cols[-1]
        # The ratio test scans variables by index, so a tie keeps the least.
        # No ratio is below 0, so a 0 ends it.
        leave = None
        for j, (coeff, here) in enumerate(zip(tq, last)):
            if coeff > 0 and (leave is None or here * den < num * coeff):
                leave, num, den = j, here, coeff
        if leave is None or num:
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
            prow = [col[leave] for col in cols]
        else:
            a = rows[leave - nvars]
            prow = [sum(map(mul, a, col)) for col in cols]
            prow[-1] -= d * rhs[leave - nvars]
        d = _exchange(cols, z, nonbasic, d, q, leave, prow)
    x = tuple(Fraction(v, d) for v in cols[-1])
    return x[-1], x
