"""Weak K^r_k-saturation: closure, certificates, and size checks.

The closure process: while some k-subset of the vertices contains all but
one of its r-subsets, add the missing one.  The resulting set is unique
regardless of processing order.  The certificate records the order of
additions one run took; it is deterministic (the same input gives the same
steps) and a verifier can replay it step by step.

One loop computes every closure.  It passes over the k-subsets in colex
order, counting each one's present r-subsets in its mask from
`hypergraph._kmasks`, and adds the missing r-subset of each k-subset that
lacks exactly one, at once, so later k-subsets in the pass see it.  It
repeats until a pass adds nothing or the family is complete: an input that
is already closed costs one pass, one count per k-subset, and a complete
one none.  The certificate's steps come in pass order, and within a pass
in colex order of their witnesses.

The size bound C(n, r) - n + k - 1 (1 <= r < k <= n) needs no scan.  A
family fails to saturate exactly when the complement S of its closure is
nonempty; no k-set meets S in exactly one r-set, or the closure would add
it.  Call such an S a closed complement.

1. Below the bound, a construction.  Let S be the petals U + {x}, U =
   {0..r-2}, for the n-k+2 points x outside U and the set D of the top
   k-r-1 points.  A k-set holding one petal holds k-r further points; if
   one is another petal's x it holds that petal too, and D has only k-r-1.
   So S is a closed complement: its complement, C(n, r) - n + k - 2 r-sets,
   does not saturate, nor, the closure being monotone, does any subfamily.
2. At the bound, an induction: every nonempty closed complement on n >= k
   points has at least n-k+2 members.  At n = k the one k-set holds all of
   S and must not meet it once, so |S| >= 2.  For n > k, S has two members,
   or a k-set around its one member would meet it once, so some vertex v
   lies in some member of S but not in all.  The members avoiding v form a
   nonempty closed complement on the other n-1 points, since every k-set
   there meets them as it meets S: by induction at least n-k+1 of them, and
   one more through v.  So a family lacking at most n-k+1 r-sets saturates.

`certify.closed_complement` checks each sunflower used, and the tests check
both sides against an exhaustive scan for n <= 9.

The minimum saturated size needs no scan.  Two certificates meet at the
closed form C(n, r) - C(n-k+r, r): the r-sets meeting a fixed (k-r)-set
saturate, since one step per r-set avoiding it replays, and `certify`
checks a rank bound that no smaller family passes.
"""

import os
from itertools import combinations
from math import comb

from .errors import BudgetExceeded, InternalConsistencyError, InvalidK, OutOfRange
from .hypergraph import (
    DEFAULT_BUDGET,
    Record,
    UniformHypergraph,
    _bitset,
    _kmasks,
    _meeting_mask,
    check_budget,
    full_edge_mask,
    rank,
    unrank,
)


_CPUS = os.cpu_count() or 1  # read once: the call costs more than a size check's answer


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


def _close(h: UniformHypergraph, k: int, steps=None) -> int:
    """Closure mask of h.  When `steps` is a list, each addition is appended
    to it as (rank of the added r-subset, witness k-subset index)."""
    kmasks, threshold = _kmasks(h.n, h.r, k), comb(k, h.r) - 1
    mask, before, full = h.edges, None, full_edge_mask(h.n, h.r)
    while mask != before and mask != full:
        before = mask
        for j, km in enumerate(kmasks):
            if (mask & km).bit_count() == threshold:
                t_bit = km & ~mask
                mask |= t_bit
                if steps is not None:
                    steps.append((t_bit.bit_length() - 1, j))
    return mask


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
        if len(s) != k or len(set(s)) != k or (s and not (0 <= s[0] and s[-1] < n)):
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


def _check_scan(n: int, r: int, k: int, jobs: int) -> None:
    """Refuse k < r, a negative n or r before any C(n, r) is taken, and a
    job count outside 1..the CPU count; nothing runs in parallel."""
    if k < r:
        raise InvalidK(k, r)
    if n < 0 or r < 0:
        raise OutOfRange(f"n={n} and r={r} must be non-negative")
    if not 1 <= jobs <= _CPUS:
        raise OutOfRange(f"jobs {jobs} outside 1..{_CPUS}, the CPU count")


def _sunflower(n: int, r: int, k: int, budget: int, mirrored: bool) -> list[int]:
    """The ranks of the module docstring's sunflower, x -> n-1-x when
    `mirrored`, checked unless the check's worst case, |S| * C(n-r, k-r)
    k-set lookups, exceeds `budget`.  Needs 1 <= r < k <= n+1."""
    lookups = (n - k + 2) * comb(n - r, k - r)
    if lookups > budget:
        raise BudgetExceeded(lookups, budget, "closed-complement lookups")
    petals = [(*range(r - 1), x) for x in range(r - 1, n - k + r + 1)]
    if mirrored:
        petals = [[n - 1 - v for v in t] for t in petals]
    from .certify import closed_complement  # here: `close` and `verify-cert` never compile it

    if not closed_complement(n, r, k, petals):
        raise InternalConsistencyError(f"the sunflower at n={n} r={r} k={k} is not a closed complement")
    return [rank(t, n) for t in petals]


def exhaustive_size_check(
    n: int, r: int, k: int, size: int, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> UniformHypergraph | None:
    """A hypergraph of the given size that is not weakly saturated, or None.

    With no k-set to close (k > n + 1, or k > n at r = 0) only the complete
    family saturates, and the family returned is the colex-first of the
    smaller side: edges 0..size-1, or all but non-edges 0..C(n,r)-size-1.
    Where C(k, r) = 1 every family saturates.  Otherwise the module
    docstring's induction answers None from C(n,r) - n + k - 1 edges on;
    below that the family is the sunflower's complement, the sunflower
    relabeled x -> n-1-x when size <= C(n,r) - size, with its highest ranks
    dropped down to `size`.  `budget` bounds the sunflower check's lookups,
    and `check_budget` the C(n, r) bits of a family.  `jobs` must lie in
    1..the CPU count and is otherwise ignored.
    """
    _check_scan(n, r, k, jobs)
    n_ranks = comb(n, r)
    if not 0 <= size <= n_ranks:
        raise OutOfRange(f"size {size} outside [0, C({n},{r})]")
    edges_side = size <= n_ranks - size
    if k > n + 1 or (k > n and r == 0):  # nothing closes
        if size == n_ranks:
            return None
        absent = range(0 if edges_side else n_ranks - size)
    elif comb(k, r) == 1 or size >= n_ranks - n + k - 1:
        return None
    else:
        absent = _sunflower(n, r, k, budget, mirrored=edges_side)
    check_budget(n, r)
    top = size  # the `size` least ranks outside `absent` are those below `top`
    for t in sorted(absent):
        top += t < top
    return UniformHypergraph(n, r, (1 << top) - 1 & ~_bitset(absent, n_ranks))


def _star_certificate(n: int, r: int, k: int) -> ClosureCertificate:
    """F_K, the r-sets meeting K = {0..k-r-1}, with one step (T, K + T) for
    each r-set T avoiding K.  Every other r-subset of K + T meets K, so the
    steps replay in any order and bring the family to all C(n, r) r-sets.
    The base's mask comes from `_meeting_mask`, as `star_construction(n)`'s
    does, which it equals at (3, 6).  Needs 1 <= r <= k."""
    d = k - r
    base = UniformHypergraph(n, r, _meeting_mask(n, r, d))
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
