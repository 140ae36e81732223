"""Checkers that import no engine: rank certificates, a checked lower bound
on weakly saturated sizes, and closed complements, which do not saturate.

Give each r-set T a vector v_T over a prime field so that, in every k-set S,
the vectors of S's r-subsets satisfy one linear relation whose coefficients
are all nonzero.  A closure step adds the one r-subset of some S that the
family lacks, and that subset's vector is then a combination of vectors the
family already has, so the span of the family's vectors never grows.  A
weakly saturated family therefore spans every v_T and has at least
rank{v_T} members (Frankl 1982; Kalai 1985).

With d = k - r, a point x_i of F_P^d per vertex, P = 2^31 - 1, and one
block of d columns per (r-1)-set, v_T = sum over i in T of
(-1)^pos(i,T) x_i (x) e_(T-i).  In S the relation's coefficient of T is
(-1)^(sum of T's positions in S) det(x_(S-T)), and the relation, a Laplace
expansion of a matrix with a repeated row, vanishes for any points; the
tests check that identity.  Let K = {0..d-1} and F_K be the r-sets meeting
K.  A certificate is n nodes, and the bound it proves is |F_K|:

1. Nodes.  Node a_i gives x_i = (1, a_i, ..., a_i^(d-1)).  Any d of these
   points form a Vandermonde matrix, so they are independent exactly when
   their nodes are distinct mod P.  Then every coefficient of the
   relations is nonzero, and the rank of {v_T} bounds every saturated
   family from below.
2. F_K's rows are independent.  Give a row v_T its level |T & K|, which is
   at least 1 in F_K.  Its blocks T-i lie at level j-1 for i in K and at
   level j otherwise, so the column blocks of level j-1 meet only rows of
   levels j-1 and j.  Take the levels from 1 up: once the rows below level
   j are shown to take no part in a dependence, the column blocks of level
   j-1 see only level-j rows.  There the rows split by W = T - K into
   block-diagonal copies of one matrix M_j, the rows of the j-subsets of K
   over the points x_0..x_(d-1); K's labels come first, so a position in T
   is the position in T & K, and the signs do not depend on W.  By 3, the
   level-j rows take no part either.
3. M_j has full row rank whenever x_0..x_(d-1) are independent.  One
   invertible map on every block sends those points to the unit vectors.
   After it, column (U, i) meets only row U + {i}, so the nonzero rows
   have disjoint supports.

So the rank is at least |F_K| = C(n, r) - C(n-d, r), and it is exactly
|F_K| because F_K saturates (`saturation._star_certificate` replays that
side).  Nothing but the shape and the nodes can fail, so the checker
refuses a bad shape or nodes that are not distinct mod P and otherwise
returns |F_K|; it builds no matrix and imports nothing from the rest of the
package.  The tests rank the full matrix over n <= 9 as the oracle.
"""

from itertools import combinations
from math import comb

P = 2**31 - 1  # prime


def check(nodes, n: int, r: int, k: int) -> int | None:
    """The lower bound |F_K| that `nodes` prove for every weakly saturated
    r-uniform family on n vertices at clique size k, or None unless
    1 <= r < k <= n and there are n nodes, distinct mod P."""
    if not 1 <= r < k <= n or len(nodes) != n or len({a % P for a in nodes}) != n:
        return None
    return comb(n, r) - comb(n - k + r, r)


def lower_bound(n: int, r: int, k: int) -> int | None:
    """The checked bound of the nodes 1..n, or None."""
    return check(range(1, n + 1), n, r, k)


def closed_complement(n: int, r: int, k: int, members) -> bool:
    """Whether `members` are distinct r-subsets of 0..n-1, at least one, and
    every k-set holding one holds another: then no closure step adds a
    member, so the family of the other r-sets does not saturate.  The
    k-sets around a member u are u plus k - r extra vertices E, and another
    member v lies inside exactly when its remainder v - u does in E.  An E
    that meets a one-vertex remainder holds that member, so only the E of
    free vertices, outside u and every one-vertex remainder, are checked,
    each against the larger remainders, all as vertex bitmasks.  A member
    with fewer than k - r free vertices costs its |members| remainders and
    no k-set, as every sunflower petal does."""
    masks = []
    for t in members:
        if len(t) != r or len(set(t)) != r or not all(0 <= v < n for v in t):
            return False
        masks.append(sum(1 << v for v in t))
    if not masks or len(set(masks)) != len(masks):
        return False
    for u in masks:
        single, larger = 0, set()  # u's own remainder is empty and adds nothing
        for v in masks:
            rest = v & ~u
            if rest & (rest - 1):
                larger.add(rest)
            else:
                single |= rest
        free = [1 << x for x in range(n) if not (u | single) >> x & 1]
        for extra in combinations(free, k - r):
            e = sum(extra)
            if not any(rest & e == rest for rest in larger):
                return False
    return True
