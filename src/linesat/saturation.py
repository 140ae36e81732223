"""Weak K^r_k-saturation: closure, certificates, and exhaustive size checks.

The closure process: while some k-subset of the vertices contains all but
one of its r-subsets, add the missing one.  The resulting set is unique
regardless of processing order.  The certificate records the order of
additions one run took; it is deterministic (the same input gives the same
steps) and a verifier can replay it step by step.

One loop computes every closure.  It keeps a per-k-subset count of present
r-subsets and updates the C(n-r, k-r) affected counts on every insertion,
so closures on desk-scale inputs (n around 12) run in milliseconds instead
of rescanning all k-subsets after each step.  Its tables are built without
ranking: `hypergraph._kmasks` gives each k-subset's r-subset mask, and the
reverse index (the k-subsets containing each r-subset) is read off those
masks only when some k-subset lacks exactly one r-subset, so an input that
is already closed costs one count per k-subset.

An exhaustive scan closes every family of a given size, enumerating the
chosen ranks (the edges, or the non-edges when fewer) in colex order.  One
walk fixes them from the largest down, carrying the family's mask; siblings
at the last level differ in one rank, so their counts are the prefix
family's, computed once, moved by one on the k-subsets containing that rank.
When the non-edges are chosen and a leaf's removed rank lies in a k-subset
its prefix family fills, that rank comes straight back, so the leaf closes
to the prefix family's closure: once one such leaf is decided, the rest
share its verdict and are not closed.

A scan asks only whether some family of a size fails (a size check) or
saturates (the tests' oracle for the minimum saturated size), which
relabeling the vertices does not change.  Relabel the chosen ranks so that
two of them meeting in the most points, i, become rank 0 = {0..r-1} and
b_i = {0..i-1} + {r..2r-i-1}: every r-set before b_i in colex order meets
{0..r-1} in more than i points, so every other chosen rank lies above b_i,
and one class per i is scanned, in process, the largest i first.

The minimum saturated size needs no scan.  Two certificates meet at the
closed form C(n, r) - C(n-k+r, r): the r-sets meeting a fixed (k-r)-set
saturate, since one step per r-set avoiding it replays, and `certify`
checks a rank bound that no smaller family passes.
"""

import os
from functools import lru_cache
from itertools import combinations
from math import comb

from .errors import BudgetExceeded, InternalConsistencyError, InvalidK, OutOfRange
from .hypergraph import (
    DEFAULT_BUDGET,
    Record,
    UniformHypergraph,
    _kmasks,
    full_edge_mask,
    rank,
    unrank,
)


class ClosureCertificate(Record):
    """Replayable trace of a closure run.

    Each step pairs the added r-subset T with the witnessing k-subset S that
    contained every other r-subset of itself at that moment.
    """

    __slots__ = ("base", "k", "steps")
    base: UniformHypergraph
    k: int
    steps: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


class ClosureResult(Record):
    __slots__ = ("closure", "certificate")
    closure: UniformHypergraph
    certificate: ClosureCertificate


@lru_cache(maxsize=8)
def _containing(n: int, r: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The reverse index: the k-subsets containing each r-subset, ascending.

    Scans always read it; a single closure only once it can take a step.
    """
    containing = [[] for _ in range(comb(n, r))]
    for j, m in enumerate(_kmasks(n, r, k)):
        while m:
            low = m & -m
            containing[low.bit_length() - 1].append(j)
            m ^= low
    return tuple(map(tuple, containing))


def _close_mask(mask: int, kmasks, containing, threshold: int, steps=None, counts=None) -> int:
    """Closure of a bitset.  When `steps` is a list, each addition is
    appended to it as (rank of the added r-subset, witness k-subset index).
    `counts`, when given, holds each k-subset's number of r-subsets in
    `mask` and is updated in place.
    """
    if counts is None:
        counts = [(mask & km).bit_count() for km in kmasks]
    if threshold not in counts:  # nothing can be added
        return mask
    # Counts only grow, so each k-subset reaches the threshold at most once
    # and is pushed at most once; an entry that has since filled is skipped.
    stack = [j for j, c in enumerate(counts) if c == threshold]
    while stack:
        j = stack.pop()
        if counts[j] != threshold:
            continue
        t_bit = kmasks[j] & ~mask
        mask |= t_bit
        t_rank = t_bit.bit_length() - 1
        if steps is not None:
            steps.append((t_rank, j))
        for j2 in containing[t_rank]:
            counts[j2] += 1
            if counts[j2] == threshold:
                stack.append(j2)
    return mask


def _close(h: UniformHypergraph, k: int, steps=None) -> int:
    """Closure mask of h.  An input where no k-subset lacks exactly one
    r-subset is returned at once, without building the reverse index."""
    n, r = h.n, h.r
    kmasks, threshold = _kmasks(n, r, k), comb(k, r) - 1
    counts = [(h.edges & km).bit_count() for km in kmasks]
    if threshold not in counts:
        return h.edges
    return _close_mask(h.edges, kmasks, _containing(n, r, k), threshold, steps, counts)


def weak_saturation_closure(h: UniformHypergraph, k: int) -> ClosureResult:
    """Run the closure process to its fixed point and record a certificate."""
    n, r = h.n, h.r
    if k < r:
        raise InvalidK(k, r)
    steps = []
    mask = _close(h, k, steps)
    decoded = tuple((unrank(t, n, r), unrank(j, n, k)) for t, j in steps)
    return ClosureResult(UniformHypergraph(n, r, mask), ClosureCertificate(h, k, decoded))


def verify_certificate(cert: ClosureCertificate) -> bool:
    """Replay a certificate, checking the all-but-one condition at each step."""
    h = cert.base
    n, r, k = h.n, h.r, cert.k
    if k < r:
        raise InvalidK(k, r)
    current = {tuple(e) for e in h.edge_list()}
    for t, s in cert.steps:
        t = tuple(sorted(t))
        s = tuple(sorted(s))
        if len(s) != k or len(set(s)) != k or not all(0 <= v < n for v in s):
            return False
        if len(t) != r:
            return False
        # t must be the unique r-subset of s missing from the current set:
        # that is the exactly-C(k,r)-1 condition and t's novelty in one.
        missing = [sub for sub in combinations(s, r) if sub not in current]
        if missing != [t]:
            return False
        current.add(t)
    return True


def is_weakly_saturated(h: UniformHypergraph, k: int) -> bool:
    """True iff the closure of h is the complete r-uniform hypergraph."""
    n, r = h.n, h.r
    if k < r:
        raise InvalidK(k, r)
    full = full_edge_mask(n, r)
    return h.edges == full or _close(h, k) == full


def _scan_tops(n, r, k, c, by_complement, tops, want_saturated, fixed):
    """The mask of the first candidate with the wanted verdict among those
    whose largest chosen rank is in `tops`; None when there is none.
    The candidates hold the ranks in `fixed` and c more, all above them;
    with c = 0 the one candidate is `fixed` itself and `tops` is unused.

    The walk fixes the chosen ranks from the largest down, in colex order,
    carrying the mask of the family chosen so far.  Under each fixed
    (c-1)-prefix it counts the prefix family's r-subsets in every k-subset
    once; each leaf copies those counts and moves the ones containing its
    own rank.  Recursion depth is c, and c <= log2(count) because
    C(N, c) >= 2**c for c <= N/2: at most 20 at the default budget.

    A complement leaf L = P - {t} (P the prefix family) whose t lies in a
    k-subset P fills gets t back at its first step, so cl(L) = cl(P).  The
    first such leaf is closed; if it misses, either a saturated family is
    wanted and no subset of P has one, or every later such leaf is skipped.
    Only proven misses are skipped, so the answer is unchanged.
    """
    kmasks, containing = _kmasks(n, r, k), _containing(n, r, k)
    full = full_edge_mask(n, r)
    base = full if by_complement else 0
    low = fixed[-1] + 1 if fixed else 0  # the least rank the walk may choose
    threshold = comb(k, r) - 1
    step = -1 if by_complement else 1

    def hit(mask, counts=None):
        closed = _close_mask(mask, kmasks, containing, threshold, counts=counts)
        return (closed == full) == want_saturated

    def walk(level, members, mask):
        # `level` ranks are left to choose, the largest of them from `members`
        if level > 1:
            for x in members:
                found = walk(level - 1, range(low + level - 2, x), mask ^ 1 << x)
                if found is not None:
                    return found
            return None
        prefix = [(mask & km).bit_count() for km in kmasks]
        back = 0  # the ranks in some k-subset that the prefix family fills
        if by_complement and threshold + 1 in prefix:
            for km, count in zip(kmasks, prefix):
                if count > threshold:
                    back |= km
        missed = False  # whether a leaf with its rank in `back` has missed
        for t in members:
            comes_back = back >> t & 1
            if comes_back and missed:
                continue
            counts = prefix.copy()
            for j in containing[t]:
                counts[j] += step
            if hit(mask ^ 1 << t, counts):
                return mask ^ 1 << t
            if comes_back:
                if want_saturated:  # no subset of the prefix family saturates
                    return None
                missed = True
        return None

    start = base
    for t in fixed:
        start ^= 1 << t
    if c:
        return walk(c, tops, start)
    return start if hit(start) else None


def _classes(n, r, c):
    """(fixed ranks, number of further ranks) of each class a scan visits:
    c = 0 and c = 1 fix () and (0,); otherwise, for each largest overlap i
    of two chosen r-sets, rank 0 and the rank of b_i = {0..i-1} +
    {r..2r-i-1}.  Two distinct r-sets meet in at least 2r - n points."""
    if c < 2:
        return [((0,)[:c], 0)]
    return [
        ((0, rank([*range(i), *range(r, 2 * r - i)], n)), c - 2)
        for i in range(r - 1, max(0, 2 * r - n) - 1, -1)
    ]


def _scan_all(n, r, k, size, budget, want_saturated):
    """The mask of a candidate with the wanted saturation verdict among all
    `size`-edge hypergraphs; None when there is none.

    Every family relabels into one of the `_classes` and relabeling keeps
    saturation, so only they are scanned, one after another, each in colex
    order of its walked ranks.  The hit is the first in that order; the
    budget still counts every candidate.
    """
    n_ranks = comb(n, r)
    if not 0 <= size <= n_ranks:
        raise OutOfRange(f"size {size} outside [0, C({n},{r})]")
    by_complement = n_ranks - size < size
    c = n_ranks - size if by_complement else size
    count = comb(n_ranks, c)
    if count > budget:
        raise BudgetExceeded(count, budget)
    for fixed, w in _classes(n, r, c):
        tops = range(fixed[-1] + w if fixed else 0, n_ranks)  # unused when w = 0
        hit = _scan_tops(n, r, k, w, by_complement, tops, want_saturated, fixed)
        if hit is not None:
            return hit
    return None


def _check_scan(n: int, r: int, k: int, jobs: int) -> None:
    """Refuse k < r, a negative n or r before any C(n, r) is taken, and a
    job count outside 1..the CPU count.  The scans run in process whatever
    the job count is."""
    if k < r:
        raise InvalidK(k, r)
    if n < 0 or r < 0:
        raise OutOfRange(f"n={n} and r={r} must be non-negative")
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise OutOfRange(f"jobs {jobs} outside 1..{cpus}, the CPU count")


def exhaustive_size_check(
    n: int, r: int, k: int, size: int, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> UniformHypergraph | None:
    """A hypergraph of the given size that is not weakly saturated, or None.

    None means every hypergraph with `size` edges on n vertices saturates.
    The family returned is the first in class order.  Class r-1 fixes ranks
    0 and 1 and is scanned first, so this is the colex-first counterexample
    whenever that one holds ranks 0 and 1; it is equal to the colex-first on
    every shape the tests check, but that is not proven in general.  `jobs`
    must lie in 1..the CPU count and is otherwise ignored.
    """
    _check_scan(n, r, k, jobs)
    hit = _scan_all(n, r, k, size, budget, want_saturated=False)
    return None if hit is None else UniformHypergraph(n, r, hit)


def _star_certificate(n: int, r: int, k: int) -> ClosureCertificate:
    """F_K, the r-sets meeting K = {0..k-r-1}, with one step (T, K + T) for
    each r-set T avoiding K.  Every other r-subset of K + T meets K, so the
    steps replay in any order and bring the family to all C(n, r) r-sets.
    At (3, 6) the base is `star_construction(n)`.  Needs 1 <= r <= k."""
    d = k - r
    meeting = (t for t in combinations(range(n), r) if t[0] < d)  # t is ascending
    base = UniformHypergraph.from_edges(n, r, meeting)
    steps = tuple((t, (*range(d), *t)) for t in combinations(range(d, n), r))
    return ClosureCertificate(base, k, steps)


def _replays_to_complete(cert: ClosureCertificate) -> bool:
    """Whether the certificate replays and its base and steps hold every r-set."""
    h = cert.base
    return verify_certificate(cert) and h.edge_count + len(cert.steps) == comb(h.n, h.r)


def min_saturation_search(
    n: int, r: int, k: int, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> int:
    """Smallest edge count for which some hypergraph is weakly saturated:
    wsat(n, K_k^r) = C(n, r) - C(n-k+r, r) (Frankl 1982; Kalai 1985).

    With no k-set (k > n) nothing closes, so only the complete family
    saturates.  Where a k-set has one r-subset (r = 0 or r = k) it lacks
    it, so the empty family saturates.  Otherwise two certificates meet at
    |F_K|, F_K the r-sets meeting K = {0..k-r-1}: `_star_certificate`
    replays F_K to every r-set, so F_K saturates, and `certify` checks the
    nodes of a rank bound that no smaller family passes.  `budget` bounds
    the replay's subset lookups, C(n-k+r, r) * C(k, r).  Neither side
    searches, so no family is scanned; `jobs` must lie in 1..the CPU
    count and is otherwise ignored.
    """
    _check_scan(n, r, k, jobs)
    if k > n:
        return comb(n, r)
    if comb(k, r) == 1:
        return 0
    lookups = comb(n - k + r, r) * comb(k, r)
    if lookups > budget:
        raise BudgetExceeded(lookups, budget, "replay lookups")
    cert, where = _star_certificate(n, r, k), f"at n={n} r={r} k={k}"
    if not _replays_to_complete(cert):
        raise InternalConsistencyError(f"the star certificate {where} does not replay")
    from .certify import lower_bound  # here: `close` and `verify-cert` never compile it

    size = cert.base.edge_count
    if lower_bound(n, r, k) != size:
        raise InternalConsistencyError(f"the rank certificate {where} does not give {size}")
    return size
