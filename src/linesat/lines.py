"""Linear orders realizing betweenness, and anchor certification.

A metric space is "line-like" when some ordering of its points makes every
position-ordered triple degenerate.  Reconstruction searches candidate
first points: along any valid order, distances from the first point are
strictly increasing, so sorting by distance from the true first point
recovers the order.  A family of triples is certified as an anchor (its
degeneracy forces such an order in every metric) through weak saturation
at clique size six.

Only `verify_non_anchor_witness` imports `metric`, when called, so
certifying an anchor loads neither it nor `fractions`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import NotAPermutation, SizeMismatch, TooFewVertices
from .hypergraph import Record, UniformHypergraph

if TYPE_CHECKING:
    from .metric import DistanceMatrix


class LinearOrder(Record):
    __slots__ = ("order",)
    order: tuple[int, ...]

    def reversed(self) -> "LinearOrder":
        return LinearOrder(tuple(reversed(self.order)))


def check_order(d: DistanceMatrix, o: LinearOrder) -> bool:
    """True iff every position-ordered triple of the order is degenerate.

    With p first, the triples (p, x, y) say d(x, y) = d(p, y) - d(p, x), and these
    make every other triple add up; no diagonal entry or symmetry is used,
    yet d must be a validated metric, as every matrix the CLI loads is.
    """
    seq = tuple(o.order)
    if sorted(seq) != list(range(d.n)):
        raise NotAPermutation(seq, d.n)
    m = d.d
    first, rest = m[seq[0]], seq[1:]
    return all(m[x][y] == first[y] - first[x] for i, x in enumerate(rest) for y in rest[i + 1 :])


def reconstruct_line(d: DistanceMatrix) -> LinearOrder | None:
    """Find a linear order realizing all betweenness, or None if none exists.

    For each candidate first point p (ascending), the other points are
    sorted by distance from p; a tie only disqualifies p, not the other
    candidates.  Any valid order is found when p is its first element, so
    exhausting all p decides existence completely.
    """
    n = d.n
    if n <= 2:
        return LinearOrder(tuple(range(n)))
    for p in range(n):
        dists = sorted((d.dist(p, q), q) for q in range(n) if q != p)
        if any(a[0] == b[0] for a, b in zip(dists, dists[1:])):
            continue
        candidate = LinearOrder((p,) + tuple(q for _, q in dists))
        if check_order(d, candidate):
            return candidate
    return None


def anchor_via_closure(h: UniformHypergraph) -> bool:
    """Certify a triple family as an anchor via weak saturation at k = 6.

    True guarantees that in every metric where all of h's triples are
    degenerate, a linear order exists.  False is inconclusive: this is a
    sufficient condition only.
    """
    from .saturation import is_weakly_saturated

    if h.n < 5:
        raise TooFewVertices(h.n, 5)
    return is_weakly_saturated(h, 6)


def verify_non_anchor_witness(h: UniformHypergraph, d: DistanceMatrix) -> bool:
    """Check that a metric proves the triple family is not an anchor.

    True iff every edge of h is degenerate in d and yet no linear order
    passes check_order.  The order search is complete (first-point
    enumeration), so True is a proof of non-anchorhood only when d is a
    validated metric, as every matrix the CLI loads is.  Each edge is tested
    as by `middle_of`, on integers; triples outside h are not looked at.
    """
    from .metric import _degeneracy_test

    if h.n != d.n:
        raise SizeMismatch(h.n, d.n)
    degenerate = _degeneracy_test(d)
    for edge in h.edge_list():
        if len(edge) != 3:
            raise ValueError(f"{edge} is not a 3-subset")
        if not degenerate(*edge):
            return False
    return reconstruct_line(d) is None
