"""Rank certificates: a checked lower bound on weakly saturated sizes.

Give each r-set T a vector v_T over a prime field so that, in every k-set S,
the vectors of S's r-subsets satisfy one linear relation whose coefficients
are all nonzero.  A closure step adds the one r-subset of some S that the
family lacks, and that subset's vector is then a combination of vectors the
family already has, so the span of the family's vectors never grows.  A
weakly saturated family therefore spans every v_T and has at least
rank{v_T} members (Frankl 1982; Kalai 1985).

The construction puts one point per vertex on the moment curve, x_i = (1,
i+1, (i+1)^2, ...) in F_p^(k-r), and sets v_T = sum over i in T of
(-1)^pos(i,T) x_i (x) e_(T-i).  In S the relation's coefficient of T is
(-1)^(sum of T's positions in S) det(x_(S-T)): Laplace expansion makes the
sum vanish.  The checker recomputes each coefficient from the points, checks
it is nonzero and that the relation holds, and only then takes the rank; it
imports no search engine.

Subsets are indexed in `itertools.combinations` order, and column
j * (k-r) + e of a vector is coordinate e of the block of the j-th
(r-1)-subset.
"""

from itertools import combinations
from math import comb

from .hypergraph import Record

P = 2**31 - 1
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_BASES_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


class RankCertificate(Record):
    """A prime p, one point of F_p^(k-r) per vertex, and each r-set's vector
    as (column, value) pairs, the r-sets in `combinations` order."""

    __slots__ = ("p", "points", "vectors")
    p: int
    points: tuple[tuple[int, ...], ...]
    vectors: tuple[tuple[tuple[int, int], ...], ...]


def moment_curve(n: int, r: int, k: int) -> RankCertificate:
    """The moment-curve certificate for weak K_k^r-saturation, 1 <= r < k."""
    d, p = k - r, P
    points = tuple(tuple(pow(i + 1, e, p) for e in range(d)) for i in range(n))
    block = {u: j * d for j, u in enumerate(combinations(range(n), r - 1))}
    vectors = tuple(
        tuple(
            (block[t[:q] + t[q + 1:]] + e, (-1) ** q * x % p)
            for q, i in enumerate(t)
            for e, x in enumerate(points[i])
        )
        for t in combinations(range(n), r)
    )
    return RankCertificate(p, points, vectors)


def _is_prime(p: int) -> bool:
    """Miller-Rabin with the bases in _BASES: exact below _BASES_EXACT_BELOW,
    and a p at or above it is refused."""
    if p < 2 or p >= _BASES_EXACT_BELOW:
        return False
    if p in _BASES or any(p % a == 0 for a in _BASES):
        return p in _BASES
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for a in _BASES:  # p passes base a if a^odd = 1 or a^(odd 2^j) = -1 for a j < twos
        x = pow(a, odd, p)
        if x == 1:
            continue
        for _ in range(twos):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


def _reduce(rows: list[list[int]], p: int) -> tuple[int, int]:
    """Row-reduce integer rows mod a prime p, in place.  Returns the rank and
    the product of the pivots, negated per row swap: for a square matrix of
    full rank, its determinant."""
    rank, product = 0, 1
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        top = rows[pivot]
        rows[pivot], rows[rank] = rows[rank], top
        product = (product if pivot == rank else -product) * top[col] % p
        inv = pow(top[col], -1, p)
        top = [a * inv % p for a in top]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] % p
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], top)]
        rank += 1
    return rank, product


def check(cert: RankCertificate, n: int, r: int, k: int) -> int | None:
    """The lower bound rank{v_T} mod p that `cert` proves for every weakly
    saturated r-uniform family on n vertices at clique size k, or None when
    any check fails: p is not prime, a shape is wrong, a column is out of
    range, some coefficient is zero, or some k-set's relation does not
    vanish."""
    p, points, vectors = cert.p, cert.points, cert.vectors
    if not 1 <= r < k or not _is_prime(p):
        return None
    d, width = k - r, (k - r) * comb(n, r - 1)
    if len(points) != n or any(len(x) != d for x in points) or len(vectors) != comb(n, r):
        return None
    if any(not 0 <= j < width for v in vectors for j, _ in v):
        return None
    det = {}  # det(x_U) for each d-set U of vertices, 0 when singular
    for u in combinations(range(n), d):
        rank, product = _reduce([list(points[i]) for i in u], p)
        det[u] = product if rank == d else 0
    index = {t: i for i, t in enumerate(combinations(range(n), r))}
    # each r-set of positions in a k-set, its sign and the positions it leaves
    splits = [
        (q, [j for j in range(k) if j not in q], (-1) ** sum(q))
        for q in combinations(range(k), r)
    ]
    for s in combinations(range(n), k):
        total = {}
        for q, rest, sign in splits:
            c = sign * det[tuple(map(s.__getitem__, rest))]
            if not c:
                return None
            for j, a in vectors[index[tuple(map(s.__getitem__, q))]]:
                total[j] = total.get(j, 0) + c * a
        if any(a % p for a in total.values()):
            return None
    rows = [[0] * width for _ in vectors]
    for row, v in zip(rows, vectors):
        for j, a in v:
            row[j] += a
    return _reduce(rows, p)[0]


def lower_bound(n: int, r: int, k: int) -> int | None:
    """The checked rank bound of the moment-curve certificate, or None."""
    return check(moment_curve(n, r, k), n, r, k)
