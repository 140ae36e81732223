"""Exact-rational finite metric spaces.

Distances are `fractions.Fraction` throughout and every comparison is exact.
Floating point is deliberately absent: the betweenness relation
d(r,s) + d(s,t) == d(r,t) is a knife-edge equality that rounding would
destroy.  Points are 0-based integer indices.
"""

import random
from collections import deque
from fractions import Fraction
from itertools import compress, count
from math import comb

from .errors import (
    AsymmetryError,
    DisconnectedGraph,
    DuplicateCoordinate,
    IndexOutOfRange,
    InternalConsistencyError,
    NonpositiveDistance,
    NonzeroDiagonal,
    TooFewPoints,
    TooFewVertices,
    TriangleViolation,
)
from .hypergraph import Record, UniformHypergraph, _bitset, check_budget


class DistanceMatrix(Record):
    """Symmetric matrix of exact rational distances on n labeled points.

    The container itself only guarantees shape; run :func:`validate_metric`
    to enforce the metric axioms.
    """

    __slots__ = ("n", "d")
    n: int
    d: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows) -> "DistanceMatrix":
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("distance matrix must be square and nonempty")
        return cls(n, rows)

    def dist(self, i: int, j: int) -> Fraction:
        return self.d[i][j]


class Graph(Record):
    """Simple undirected graph; edges stored as (u, v) pairs with u < v."""

    __slots__ = ("n", "edges")
    n: int
    edges: frozenset[tuple[int, int]]

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        out = set()
        for u, v in edges:
            for x in (u, v):
                if not 0 <= x < n:
                    raise IndexOutOfRange(x, n)
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            out.add((min(u, v), max(u, v)))
        return cls(n, frozenset(out))

    def adjacency(self) -> list[list[int]]:
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


def _check_point(i: int, n: int) -> None:
    if not isinstance(i, int) or not 0 <= i < n:
        raise IndexOutOfRange(i, n)


def validate_metric(d: DistanceMatrix) -> None:
    """Check all metric axioms, raising on the first violation found.

    Scan order is deterministic: diagonal, then symmetry, positivity and the
    triangle inequality over pairs i < j in ascending order.  The scan is
    cubic, so a matrix with more triangles than the default budget is
    refused before it starts.  It runs on integers: each inequality is
    cross-multiplied by the positive denominators of its three entries.
    """
    n = d.n
    check_budget(n, 3)
    num = [[x.numerator for x in row] for row in d.d]
    den = [[x.denominator for x in row] for row in d.d]
    for i in range(n):
        if num[i][i] != 0:
            raise NonzeroDiagonal(i)
    for i in range(n):
        ni, di = num[i], den[i]
        for j in range(i + 1, n):
            nij, dij = ni[j], di[j]
            if nij != num[j][i] or dij != den[j][i]:
                raise AsymmetryError(i, j)
            if nij <= 0:
                raise NonpositiveDistance(i, j)
            # d(i,j) > d(i,k) + d(k,j); with a zero diagonal, k == i or j never holds
            for k in range(n):
                if nij * di[k] * den[k][j] > (ni[k] * den[k][j] + num[k][j] * di[k]) * dij:
                    raise TriangleViolation(i, j, k)


def betweenness(d: DistanceMatrix, r: int, s: int, t: int) -> bool:
    """True iff r, s, t are pairwise distinct and d(r,s) + d(s,t) == d(r,t)."""
    for x in (r, s, t):
        _check_point(x, d.n)
    if r == s or s == t or r == t:
        return False
    m = d.d
    return m[r][s] + m[s][t] == m[r][t]


def middle_of(d: DistanceMatrix, triple) -> int | None:
    """The unique point of the triple lying metrically between the other two,
    or None if the triangle is nondegenerate.

    In a valid metric at most one of the three placements can hold; finding
    two middles means the input violates the axioms.
    """
    pts = sorted(set(triple))
    if len(pts) != 3:
        raise ValueError(f"{tuple(triple)} is not a 3-subset")
    a, b, c = pts
    for x in pts:
        _check_point(x, d.n)
    m = d.d
    mids = []
    for s, (r, t) in ((a, (b, c)), (b, (a, c)), (c, (a, b))):
        if m[r][s] + m[s][t] == m[r][t]:
            mids.append(s)
    if len(mids) > 1:
        raise InternalConsistencyError(
            f"triple {pts} has {len(mids)} middles; the metric axioms were violated"
        )
    return mids[0] if mids else None


def _degeneracy_test(d: DistanceMatrix):
    """A test of whether the triple a < b < c is degenerate in d: the three
    placements of :func:`middle_of`, with its error where two of them hold,
    on integer numerators and denominators instead of `Fraction` sums."""
    num = [[x.numerator for x in row] for row in d.d]
    den = [[x.denominator for x in row] for row in d.d]

    def between(r, s, t):
        # d(r,s) + d(s,t) == d(r,t), cross-multiplied by the positive denominators
        return (num[r][s] * den[s][t] + num[s][t] * den[r][s]) * den[r][t] == (
            num[r][t] * den[r][s] * den[s][t]
        )

    def degenerate(a, b, c):
        mids = between(b, a, c) + between(a, b, c) + between(a, c, b)
        if mids > 1:
            raise InternalConsistencyError(
                f"triple {[a, b, c]} has {mids} middles; the metric axioms were violated"
            )
        return mids == 1

    return degenerate


def degenerate_hypergraph(d: DistanceMatrix) -> UniformHypergraph:
    """The 3-uniform hypergraph of all degenerate triangles of the metric.

    Each triple is decided by :func:`_degeneracy_test`, in colex order (by
    largest point, then the next), and the ranks of the degenerate ones
    are set by the hypergraph module's one bitset builder.
    """
    n = d.n
    if n < 3:
        raise TooFewPoints(n, 3)
    check_budget(n, 3)
    degenerate = _degeneracy_test(d)
    flags = (degenerate(a, b, c) for c in range(2, n) for b in range(1, c) for a in range(b))
    return UniformHypergraph(n, 3, _bitset(compress(count(), flags), comb(n, 3)))


def graph_metric(g: Graph) -> DistanceMatrix:
    """Shortest-path distances of a connected graph with unit edge lengths."""
    if g.n < 1:
        raise TooFewPoints(g.n, 1)
    adj = g.adjacency()
    rows = []
    for src in range(g.n):
        dist = [-1] * g.n
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if any(x < 0 for x in dist):
            raise DisconnectedGraph({v for v in range(g.n) if dist[v] >= 0})
        rows.append(tuple(Fraction(x) for x in dist))
    return DistanceMatrix(g.n, tuple(rows))


def theta_graph(n: int) -> Graph:
    """Two degree-3 branch vertices joined by three paths, with a tail.

    Vertices 0 and 1 each join 2 and 3; vertices 3,4,...,n-1 form a path.
    Its shortest-path metric has exactly n-4 nondegenerate triangles, all of
    the form {0, 1, i} with i >= 4, which makes its degenerate-triangle set
    the standard witness that large degenerate families need not force a
    linear order.
    """
    if n < 5:
        raise TooFewVertices(n, 5)
    edges = [(0, 2), (0, 3), (1, 2), (1, 3)]
    edges.extend((i, i + 1) for i in range(3, n - 1))
    return Graph.from_edges(n, edges)


def line_metric(coords) -> DistanceMatrix:
    """The metric of points on the real line at the given rational coordinates."""
    cs = [Fraction(c) for c in coords]
    for i in range(len(cs)):
        for j in range(i + 1, len(cs)):
            if cs[i] == cs[j]:
                raise DuplicateCoordinate(i, j)
    rows = tuple(tuple(abs(a - b) for b in cs) for a in cs)
    return DistanceMatrix(len(cs), rows)


def four_cycle_metric() -> DistanceMatrix:
    """Four points in cyclic order with unit sides and diagonals of length 2.

    Every triangle is degenerate, yet no linear order realizes the space:
    the smallest such example.
    """
    rows = [
        [0, 1, 2, 1],
        [1, 0, 1, 2],
        [2, 1, 0, 1],
        [1, 2, 1, 0],
    ]
    return DistanceMatrix.from_rows(rows)


def random_rational_metric(n: int, seed: int) -> DistanceMatrix:
    """Deterministic pseudo-random metric on n points with rational distances.

    Samples distinct rational points in a planar box and takes the L1
    distance, so the triangle inequality holds by construction; no
    rejection loop over candidate matrices is ever needed.
    """
    if n < 1:
        raise TooFewPoints(n, 1)
    rng = random.Random(seed * 1_000_003 + n)
    # Coordinates a/b with b in 1..4, times 12 (the lcm of 1..4): integers,
    # so the sums are too and each distance is built once as a Fraction.
    pts: list[tuple[int, int]] = []
    seen = set()
    while len(pts) < n:
        p = (
            12 * rng.randint(0, 8 * n) // rng.randint(1, 4),
            12 * rng.randint(0, 8 * n) // rng.randint(1, 4),
        )
        if p not in seen:
            seen.add(p)
            pts.append(p)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, (x, y) in enumerate(pts):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = Fraction(abs(x - pts[j][0]) + abs(y - pts[j][1]), 12)
    return DistanceMatrix(n, tuple(map(tuple, rows)))
