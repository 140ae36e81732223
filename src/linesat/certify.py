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
(-1)^(sum of T's positions in S) det(x_(S-T)): Laplace expansion makes the
sum vanish.  The checker builds the vectors from the points, checks that
every (k-r)-set of points is independent, so that no coefficient is zero,
and that each relation vanishes mod P, and only then takes the rank; it
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


def _reduce(rows: list[list[int]]) -> tuple[int, int]:
    """Row-reduce integer rows mod P, in place.  Returns the rank and the
    product of the pivots, negated per row swap: for a square matrix of full
    rank, its determinant."""
    rank, product = 0, 1
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % P), None)
        if pivot is None:
            continue
        top = rows[pivot]
        rows[pivot], rows[rank] = rows[rank], top
        product = (product if pivot == rank else -product) * top[col] % P
        inv = pow(top[col], -1, P)
        top = [a * inv % P for a in top]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] % P
            if f:
                rows[i] = [(a - f * b) % P for a, b in zip(rows[i], top)]
        rank += 1
    return rank, product


def check(points: tuple[tuple[int, ...], ...], n: int, r: int, k: int) -> int | None:
    """The lower bound rank{v_T} mod P that `points` prove for every weakly
    saturated r-uniform family on n vertices at clique size k, or None when
    any check fails: there are not n points of dimension k - r, some k - r
    of them are dependent, or some k-set's relation does not vanish."""
    d = k - r
    if not 1 <= r < k or len(points) != n or any(len(x) != d for x in points):
        return None
    det = {}  # det(x_U) for each d-set U of vertices
    for u in combinations(range(n), d):
        rank, det[u] = _reduce([list(points[i]) for i in u])
        if rank < d:
            return None
    block = {u: j * d for j, u in enumerate(combinations(range(n), r - 1))}
    vectors = {
        t: [
            (block[t[:q] + t[q + 1:]] + e, (-1) ** q * x)
            for q, i in enumerate(t)
            for e, x in enumerate(points[i])
        ]
        for t in combinations(range(n), r)
    }
    # each r-set of positions in a k-set, its sign and the positions it leaves
    splits = [
        (q, [j for j in range(k) if j not in q], (-1) ** sum(q))
        for q in combinations(range(k), r)
    ]
    for s in combinations(range(n), k):
        total = {}
        for q, rest, sign in splits:
            c = sign * det[tuple(map(s.__getitem__, rest))]
            for j, a in vectors[tuple(map(s.__getitem__, q))]:
                total[j] = total.get(j, 0) + c * a
        if any(a % P for a in total.values()):
            return None
    rows = [[0] * (d * len(block)) for _ in vectors]
    for row, v in zip(rows, vectors.values()):
        for j, a in v:
            row[j] += a
    return _reduce(rows)[0]


def lower_bound(n: int, r: int, k: int) -> int | None:
    """The checked rank bound of the moment-curve points, or None."""
    return check(moment_curve(n, k - r), n, r, k)
