"""r-uniform hypergraphs as bitsets over colexicographically ranked subsets.

Colex ranking is independent of the ground-set size, so adding a vertex
extends the rank space without renumbering existing edges; this keeps
closure certificates stable across vertex deletions.  Bitsets are plain
Python ints, one bit per r-subset rank.
"""

from functools import lru_cache
from itertools import repeat
from math import comb

from .errors import BudgetExceeded, OutOfRange, TooFewVertices

DEFAULT_BUDGET = 10**6
TABLE_BITS = 2**32  # closure tables: C(n, k) k-subset masks of C(n, r) bits
TABLE_ENTRIES = 2 * 10**7  # and C(n, k) * C(k, r) entries: the builder's masks, the tests' reverse index
DEFAULT_CEILING = 6  # vertex limit of a realizability search unless raised


def check_budget(n: int, *sizes: int) -> None:
    """Refuse a ground set whose s-subsets outnumber the default budget.

    Runs before any bitset or table over those subsets is built, so an
    oversized input fails at once; a closure table's size is bounded
    separately, by TABLE_BITS and TABLE_ENTRIES in `_kmasks`.
    """
    for s in sizes:
        j = min(s, n - s)
        if j < 0:
            continue  # no such subsets, or a shape error reported elsewhere
        # C(n, s) >= 2**j, so a large j is over budget without computing it
        small = j < DEFAULT_BUDGET.bit_length()
        count = comb(n, j) if small else f"at least 2**{j}"
        if not small or count > DEFAULT_BUDGET:
            raise BudgetExceeded(count, DEFAULT_BUDGET, f"{s}-subsets of {n} vertices")


def rank(subset, n: int) -> int:
    """Colex rank of an r-subset of {0..n-1}."""
    s = sorted(subset)
    if len(set(s)) != len(s):
        raise OutOfRange(f"{tuple(subset)} has repeated elements")
    if s and not (0 <= s[0] and s[-1] < n):
        raise OutOfRange(f"{tuple(subset)} is not inside 0..{n - 1}")
    return sum(comb(x, i + 1) for i, x in enumerate(s))


def unrank(k: int, n: int, r: int) -> tuple[int, ...]:
    """Inverse of :func:`rank`: the k-th r-subset of {0..n-1} in colex order."""
    if not 0 <= k < comb(n, r):
        raise OutOfRange(f"rank {k} outside [0, C({n},{r}))")
    out = []
    for i in range(r, 0, -1):
        c = i - 1
        while comb(c + 1, i) <= k:
            c += 1
        k -= comb(c, i)
        out.append(c)
    return tuple(reversed(out))


def colex_combinations(n: int, r: int):
    """Yield all r-subsets of {0..n-1} in colexicographic (rank) order, without
    recursion: the lowest entry runs up to the next, then the lowest upper
    entry with room above it rises and those below it reset."""
    if r == 0:
        yield ()
        return
    if r > n:
        return
    c = [*range(r), n]  # c[r] = n bounds the top entry
    while True:
        upper = tuple(c[1:r])
        for low in range(c[1]):
            yield (low, *upper)
        j = next((j for j in range(1, r) if c[j] + 1 < c[j + 1]), r)
        if j == r:
            return
        c[j] += 1
        c[1:j] = range(1, j)


def _bitset(ranks, size: int) -> int:
    """A size-bit mask set in a byte buffer, not by copying a growing int per bit."""
    bits = bytearray((size + 7) // 8)
    for t in ranks:
        bits[t >> 3] |= 1 << (t & 7)
    return int.from_bytes(bits, "little")


# Bounded: tables reach megabytes by n = 16, and a run uses few (n, r, k).
@lru_cache(maxsize=8)
def _kmasks(n: int, r: int, k: int) -> tuple[int, ...]:
    """Each k-subset's r-subset mask, in colex rank order.

    Built up by size: the size-subsets with largest vertex x are the
    (size-1)-subsets below x, a colex prefix, with x added, which keeps the
    ranks of their i-subsets and adds C(x, i) to those that gain x.  Only
    subsets that leave room for the larger vertices are kept, and only the
    i-subset masks that can grow into r-subset masks, none over C(n, r) bits.
    A subset has no i-subsets above its size, so those masks are not stored.
    """
    check_budget(n, r, k)
    for size, bound, what in (
        (comb(n, k) * comb(n, r), TABLE_BITS, "closure-table bits"),
        (comb(n, k) * comb(k, r), TABLE_ENTRIES, "closure-table entries"),
    ):
        if size > bound:
            raise BudgetExceeded(size, bound, f"{what} for {k}-subsets of {n} vertices")
    if k > n:
        return ()  # no k-subsets; building up to size k would cost O(k) passes
    # masks[i][j]: the i-subsets of the j-th subset of the current size
    masks = [[1]] + [[] for _ in range(r)]
    for size in range(1, k + 1):
        grown = [[] for _ in range(r + 1)]
        for x in range(size - 1, n - k + size):
            below = comb(x, size - 1)
            grown[0] += masks[0][:below]
            for i in range(max(1, r - k + size), min(r, size) + 1):
                shift = comb(x, i)
                kept = masks[i][:below] if i < size else repeat(0, below)  # no size-subsets yet
                grown[i] += [a | b << shift for a, b in zip(kept, masks[i - 1])]
        masks = grown
    return tuple(masks[r])


def _meeting_mask(n: int, r: int, d: int) -> int:
    """The mask of the r-subsets of {0..n-1} that meet {0..d-1}.

    Built vertex by vertex as `_kmasks` builds its masks: the i-subsets
    holding vertex m follow those below m, from rank C(m, i) on, and meet
    {0..d-1} when m < d or when their (i-1)-subset below m does.  At m only
    the levels i >= r - (n-1-m), which can still grow into r-subsets, are
    kept, so no mask is wider than C(n, r) bits.
    """
    masks = [0] * (r + 1)  # masks[i]: the i-subsets below m meeting {0..d-1}
    for m in range(n):
        for i in range(min(r, m + 1), max(0, r - n + m), -1):  # down: masks[i-1] is still below m
            gained = (1 << comb(m, i - 1)) - 1 if m < d else masks[i - 1]
            masks[i] |= gained << comb(m, i)
    return masks[r]


class Record:
    """Immutable value record whose fields are its class's `__slots__`.

    Built positionally, in `__slots__` order.  A record equals only a record
    of the same type with equal fields, hashes its field tuple, refuses
    assignment and pickles by its fields.  It is a plain class because the
    standard library's record decorator loads `inspect`, `ast` and more
    into every CLI run's start-up.
    """

    __slots__ = ()

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(values)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a record")

    def __reduce__(self):
        return type(self), self._fields()


class UniformHypergraph(Record):
    """r-uniform hypergraph on vertices 0..n-1; edges as a bitset of ranks."""

    __slots__ = ("n", "r", "edges")
    n: int
    r: int
    edges: int

    def __init__(self, n: int, r: int, edges: int):
        if r < 0:
            raise OutOfRange(f"uniformity r={r} is negative")
        if n < r:
            raise OutOfRange(f"n={n} smaller than uniformity r={r}")
        if not 0 <= edges < 1 << comb(n, r):
            raise OutOfRange("edge bitset wider than C(n, r)")
        super().__init__(n, r, edges)

    @classmethod
    def from_edges(cls, n: int, r: int, edges) -> "UniformHypergraph":
        def ranked(e):
            e = tuple(sorted(e))
            if len(e) != r or len(set(e)) != r:
                raise OutOfRange(f"{e} is not a {r}-subset")
            if e and not (0 <= e[0] and e[-1] < n):
                raise OutOfRange(f"{e} is not inside 0..{n - 1}")
            return sum(map(comb, e, range(1, r + 1)))  # rank(e, n), checked once

        # a negative n or r admits no edge, and __init__ refuses it
        return cls(n, r, _bitset(map(ranked, edges), comb(max(n, 0), max(r, 0))))

    @property
    def edge_count(self) -> int:
        return self.edges.bit_count()

    def has_edge(self, subset) -> bool:
        return bool(self.edges >> rank(subset, self.n) & 1)

    def edge_list(self) -> list[tuple[int, ...]]:
        """Edges decoded in colex order, in one walk beside the mask's bits."""
        bits = bin(self.edges)[:1:-1]  # bits[t] is the bit of rank t
        return [e for e, b in zip(colex_combinations(self.n, self.r), bits) if b == "1"]

    def is_complete(self) -> bool:
        return self.edges == full_edge_mask(self.n, self.r)


def full_edge_mask(n: int, r: int) -> int:
    return (1 << comb(n, r)) - 1


def complete_hypergraph(n: int, r: int) -> UniformHypergraph:
    return UniformHypergraph(n, r, full_edge_mask(n, r))


def complement(h: UniformHypergraph) -> UniformHypergraph:
    return UniformHypergraph(h.n, h.r, h.edges ^ full_edge_mask(h.n, h.r))


def delete_vertex(h: UniformHypergraph, v: int) -> UniformHypergraph:
    """Restrict to the edges avoiding v, relabeling vertices above v down by one."""
    if not 0 <= v < h.n:
        raise OutOfRange(f"vertex {v} outside 0..{h.n - 1}")
    kept = [
        tuple(x - 1 if x > v else x for x in e)
        for e in h.edge_list()
        if v not in e
    ]
    return UniformHypergraph.from_edges(h.n - 1, h.r, kept)


def star_construction(n: int) -> UniformHypergraph:
    """All triples meeting the fixed 3-set {0,1,2}: 3*C(n-2,2)+1 edges.

    The smallest known weakly saturated family at clique size 6, and an
    anchor for line reconstruction on n >= 5 points.  Its mask comes from
    `_meeting_mask`, with no triple listed or ranked.
    """
    if n < 5:
        raise TooFewVertices(n, 5)
    check_budget(n, 3)
    return UniformHypergraph(n, 3, _meeting_mask(n, 3, 3))

