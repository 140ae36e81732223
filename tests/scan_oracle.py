"""The exhaustive class scan, kept as the tests' oracle for saturation sizes.

`linesat` answers the size bound and the minimum saturated size from
proofs and checked certificates, with no search.  This scan closes every
family of a size, up to relabeling, and so checks both answers directly
for small n.

An exhaustive scan closes every family of a given size, enumerating the
chosen ranks (the edges, or the non-edges when fewer) in colex order.  One
walk fixes them from the largest down, carrying the family's mask; siblings
at the last level differ in one rank, so their counts are the prefix
family's, computed once, moved by one on the k-subsets containing that rank.
When the non-edges are chosen and a leaf's removed rank lies in a k-subset
its prefix family fills, that rank comes straight back, so the leaf closes
to the prefix family's closure: once one such leaf is decided, the rest
share its verdict and are not closed.

A scan asks only whether some family of a size fails or saturates, which
relabeling the vertices does not change.  Relabel the chosen ranks so that
two of them meeting in the most points, i, become rank 0 = {0..r-1} and
b_i = {0..i-1} + {r..2r-i-1}: every r-set before b_i in colex order meets
{0..r-1} in more than i points, so every other chosen rank lies above b_i,
and one class per i is scanned, the largest i first.

The walk closes with carried counts: `_close_mask` keeps each k-subset's
count of present r-subsets and moves the counts of the k-subsets that
`_containing`, the reverse index, lists for each rank it adds or removes.
`linesat` closes by passes over the k-subset masks and builds no such index.
"""

from functools import lru_cache
from math import comb

from linesat.errors import BudgetExceeded, OutOfRange
from linesat.hypergraph import _kmasks, full_edge_mask, rank


@lru_cache(maxsize=8)
def _containing(n: int, r: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The reverse index: the k-subsets containing each r-subset, ascending.

    A closure reads it only once it can take a step.
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
