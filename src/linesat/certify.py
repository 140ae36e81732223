"""Rank certificates: a checked lower bound on weakly saturated sizes.

Give each r-set T a vector v_T over a prime field so that, in every k-set S,
the vectors of S's r-subsets satisfy one linear relation whose coefficients
are all nonzero.  A closure step adds the one r-subset of some S that the
family lacks, and that subset's vector is then a combination of vectors the
family already has, so the span of the family's vectors never grows.  A
weakly saturated family therefore spans every v_T and has at least
rank{v_T} members (Frankl 1982; Kalai 1985).

A certificate is one point x_i of F_P^(k-r) per vertex, P = 2^31 - 1; the
vectors are a function of the points, v_T = sum over i in T of
(-1)^pos(i,T) x_i (x) e_(T-i).  In S the relation's coefficient of T is
(-1)^(sum of T's positions in S) det(x_(S-T)), and the relation, a Laplace
expansion of a matrix with a repeated row, vanishes for any points; the
tests check that identity.  Only dependence can fail: a coefficient is zero
when its k-r points are dependent.  So the checker refuses the wrong point
count or dimension and any dependent (k-r)-set, then takes the rank; it
imports nothing from the rest of the package.  `moment_curve` gives the
points x_i = (1, i+1, (i+1)^2, ...).

Column j * (k-r) + e of a vector is coordinate e of the block of the j-th
(r-1)-subset in `itertools.combinations` order.
"""

from itertools import combinations

P = 2**31 - 1  # prime


def moment_curve(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """One point of F_P^d per vertex on the moment curve."""
    return tuple(tuple(pow(i + 1, e, P) for e in range(d)) for i in range(n))


def _rank(rows: list[list[int]]) -> int:
    """The rank mod P of integer rows, row-reduced in place."""
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % P), None)
        if pivot is None:
            continue
        top = rows[pivot]
        rows[pivot], rows[rank] = rows[rank], top
        inv = pow(top[col], -1, P)
        top = [a * inv % P for a in top]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] % P
            if f:
                rows[i] = [(a - f * b) % P for a, b in zip(rows[i], top)]
        rank += 1
    return rank


def _rows(points: tuple[tuple[int, ...], ...], n: int, r: int) -> list[list[int]]:
    """Each r-set T's vector v_T, in `combinations` order."""
    d = len(points[0]) if points else 0
    block = {u: j * d for j, u in enumerate(combinations(range(n), r - 1))}
    rows = []
    for t in combinations(range(n), r):
        row = [0] * (d * len(block))
        for q, i in enumerate(t):
            j = block[t[:q] + t[q + 1:]]
            row[j:j + d] = [-a for a in points[i]] if q % 2 else points[i]
        rows.append(row)
    return rows


def check(points: tuple[tuple[int, ...], ...], n: int, r: int, k: int) -> int | None:
    """The lower bound rank{v_T} mod P that `points` prove for every weakly
    saturated r-uniform family on n vertices at clique size k, or None when
    there are not n points of dimension k - r or some k - r of them are
    dependent."""
    d = k - r
    if not 1 <= r < k or len(points) != n or any(len(x) != d for x in points):
        return None
    if any(_rank([list(points[i]) for i in u]) < d for u in combinations(range(n), d)):
        return None
    return _rank(_rows(points, n, r))


def lower_bound(n: int, r: int, k: int) -> int | None:
    """The checked rank bound of the moment-curve points, or None."""
    return check(moment_curve(n, k - r), n, r, k)
