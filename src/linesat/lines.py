"""Linear orders realizing betweenness, and anchor certification.

A metric space is "line-like" when some ordering of its points makes every
position-ordered triple degenerate.  Reconstruction reads the order off
the line's two ends: along a valid order, distances from the first point
are strictly increasing, so sorting by distance from an end recovers the
order.  A family of triples is certified as an anchor (its degeneracy
forces such an order in every metric) through weak saturation at clique
size six.

Only `verify_non_anchor_witness` imports `metric`, when called, so
certifying an anchor loads neither it nor `fractions`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import NotAPermutation, SizeMismatch, TooFewVertices
from .hypergraph import UniformHypergraph

if TYPE_CHECKING:
    from .metric import DistanceMatrix


def check_order(d: DistanceMatrix, order) -> bool:
    """True iff every position-ordered triple of the order is degenerate.

    With p first, the triples (p, x, y) say d(x, y) = d(p, y) - d(p, x), and these
    make every other triple add up; no diagonal entry or symmetry is used,
    yet d must be a validated metric, as every matrix the CLI loads is.
    """
    seq = tuple(order)
    if sorted(seq) != list(range(d.n)):
        raise NotAPermutation(seq, d.n)
    m = d.d
    first, rest = m[seq[0]], seq[1:]
    return all(m[x][y] == first[y] - first[x] for i, x in enumerate(rest) for y in rest[i + 1 :])


def reconstruct_line(d: DistanceMatrix) -> tuple[int, ...] | None:
    """Find a linear order realizing all betweenness, or None if none exists.

    On a line the point farthest from any point is an end, and the point
    farthest from an end is the other end, so the one candidate starts at
    the lower-index end of those two and sorts all points by distance from
    it.  A line metric has exactly two valid orders, one from each end, so
    `check_order` on that candidate decides existence; a tie between two
    points fails it, as distances between points are positive.
    """
    m, points = d.d, range(d.n)
    if not m:
        return ()
    end = max(points, key=m[0].__getitem__)
    first = min(end, max(points, key=m[end].__getitem__))
    candidate = tuple(sorted(points, key=m[first].__getitem__))
    return candidate if check_order(d, candidate) else None


def anchor_via_closure(h: UniformHypergraph) -> bool:
    """Certify a triple family as an anchor via weak saturation at k = 6.

    True guarantees that in every metric where all of h's triples are
    degenerate, a linear order exists.  False is inconclusive: this is a
    sufficient condition only.
    """
    from .saturation import is_weakly_saturated

    if h.r != 3:
        raise ValueError("anchors are defined for 3-uniform hypergraphs")
    if h.n < 5:
        raise TooFewVertices(h.n, 5)
    return is_weakly_saturated(h, 6)


def verify_non_anchor_witness(h: UniformHypergraph, d: DistanceMatrix) -> bool:
    """Check that a metric proves the triple family is not an anchor.

    True iff every edge of h is degenerate in d and yet no linear order
    passes check_order.  The order search is complete (one candidate, read
    off the line's two ends), so True is a proof of non-anchorhood only when
    d is a validated metric, as every matrix the CLI loads is.  Each edge is
    tested as by `middle_of`, on integers; triples outside h are not looked
    at.
    """
    from .metric import _degeneracy_test

    if h.n != d.n:
        raise SizeMismatch(h.n, d.n)
    if h.r != 3:
        raise ValueError("anchors are defined for 3-uniform hypergraphs")
    degenerate = _degeneracy_test(d)
    for edge in h.edge_list():
        if not degenerate(*edge):
            return False
    return reconstruct_line(d) is None
