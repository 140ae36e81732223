"""Deciding whether a 3-uniform hypergraph is the degenerate-triangle set
of some metric space.

A realizing metric assigns every hyperedge exactly one middle point, so the
search branches over middle assignments.  After each choice the betweenness
state is closed by unit propagation over clauses that hold in every metric:
the propagation rule ([abc] and [ace] force [abe] and [bce]) read as
"not both premises, or the conclusion", exclusivity, and "every edge has a
middle".  Each event visits only clauses that can fire: a placement set
true walks the rule instances it is a premise of, and one set false only
the instances concluding it whose other premise is true, found by ANDing
two bitmasks.  A branch dies when a non-edge is forced degenerate, a triple
gets two middles, or an edge loses all three.  Surviving total assignments
go to an exact LP that maximizes a uniform slack: distances are feasible
with positive slack exactly when a metric with the required degeneracy
pattern exists, because the pattern is scale-invariant.

The first two clauses hold for distinct points a, b, c, e of any metric d,
where [xyz] says d(x,y) + d(y,z) = d(x,z); the third is what an edge is.
- The propagation rule (Menger's 4-point rule).  Given [abc] and [ace],
  d(a,e) = d(a,b) + d(b,c) + d(c,e) >= d(a,b) + d(b,e) >= d(a,e) by the
  triangle inequality twice, so both are equalities: [bce] and [abe].
- Exclusivity.  [abc] and [bac] add up to 2 d(a,b) = 0, which distinct
  points rule out; the other pairs of placements are relabelings of it.

A metric realizing h restricts to one realizing h's triples inside any
6-set, and no 6-point metric has exactly 19 degenerate triangles (each
such family relabels onto the audit root).  So from n = 7 on, a 6-set
holding 19 of h's triples refutes h before any search, with `explored` 0.
That verdict rests on the audit root's n = 6 search, as every closure
answer does; at n = 6 the 6-set is the root itself, so the pass never runs.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, lcm

from .errors import CeilingExceeded, InternalConsistencyError
from .hypergraph import (
    DEFAULT_CEILING,
    Record,
    UniformHypergraph,
    _kmasks,
    colex_combinations,
    delete_vertex,
    full_edge_mask,
    rank,
)
from .metric import DistanceMatrix, degenerate_hypergraph, validate_metric
from .simplex import max_slack, solve_linear_system

OPEN, TRUE, FALSE = 0, 1, 2
_ALL_FALSE = bytes((FALSE,) * 3)


@lru_cache(maxsize=8)
def _tables(n: int) -> tuple[list, list, list]:
    """Every placement on n points and every 4-point rule instance on them,
    laid out in one colex walk of the triples: (placements, rules, premises).

    A slot, 3 * rank({m, x, y}) plus m's position in the sorted triple,
    says m lies between x and y; [x y z] says y lies between x and z.
    `placements[s]`, for the slot s of "m between lo and hi" (lo < hi),
    indexes the pairs lo-m, m-hi and lo-hi among the pairs of points in
    lexicographic order: d(lo, m) + d(m, hi) - d(lo, hi) is its defect.
    The rule: [p b q] and [p q d] force [p b d] and [b q d].  `rules[s]`
    lists, for the fact s = (b; x, y), both orders (p, q) of its ends and
    every fourth point d, the (partner, conclusion, conclusion) slots for
    both roles of s: as the first premise its partner is [p q d]; as the
    second, read [p b q], its partner is [p d b] and the conclusions are
    [p d q] and [d b q]: 4(n - 3) entries per slot.  `premises[c]` is
    (mask, groups): mask has bit x set for each premise slot x of an
    instance in `rules` concluding c, and the i-th group lists the partners
    y of its i-th lowest set bit: 8(n - 3) pairs (x, y) per slot, in both
    orders.  Read as the clause "not x, or not y, or c", a false c and a
    true x force y false.
    """
    pair = {}
    for i, p in enumerate(combinations(range(n), 2)):
        pair[p] = pair[p[::-1]] = i
    triples = list(colex_combinations(n, 3))
    slot = [[[-1] * n for _ in range(n)] for _ in range(n)]
    placements = []
    for i, (a, b, c) in enumerate(triples):
        for pos, (m, lo, hi) in enumerate(((a, b, c), (b, a, c), (c, a, b))):
            slot[m][lo][hi] = slot[m][hi][lo] = 3 * i + pos
            placements.append((pair[lo, m], pair[m, hi], pair[lo, hi]))
    rules = []
    for t in triples:
        for b in t:
            x, y = (v for v in t if v != b)
            entries = []
            for p, q in ((x, y), (y, x)):
                for d in range(n):
                    if d not in t:
                        entries.append((slot[q][p][d], slot[b][p][d], slot[q][b][d]))
                        entries.append((slot[d][p][b], slot[d][p][q], slot[b][d][q]))
            rules.append(tuple(entries))
    # premise slots s come in ascending order, so each c's groups follow its bits
    masks, groups = [0] * len(rules), [[] for _ in rules]
    for s, entries in enumerate(rules):
        by_conclusion = {}
        for partner, c1, c2 in entries:
            by_conclusion.setdefault(c1, []).append(partner)
            by_conclusion.setdefault(c2, []).append(partner)
        for c, ys in by_conclusion.items():
            masks[c] |= 1 << s
            groups[c].append(tuple(ys))
    return placements, rules, list(zip(masks, map(tuple, groups)))


# The edge-unit check by an edge's states a, b, c at index 9a + 3b + c: the
# open position when the other two are false, -1 if all are false, or None.
_UNIT = tuple(
    -1 if t.count(FALSE) == 3 else t.index(OPEN) if sorted(t) == [OPEN, FALSE, FALSE] else None
    for t in product((OPEN, TRUE, FALSE), repeat=3)
)


def _set_true(state: bytearray, queue: list[int], s: int) -> bool:
    """Set slot s true and its two siblings false, queueing s alone.

    Returns False, changing nothing, when s is already false; a true s is
    left alone.  The siblings need no events of their own: for a rule
    instance (A, B) concluding C and a sibling C' of C, `_tables(n)` has
    C' as a premise with partner B concluding a sibling of A, or with
    partner A concluding a sibling of B.  So whichever of A and C' is
    handled last sets B false, as an event for C' would have.  Their edge
    has a true placement, so the edge-unit check has nothing to do either.
    """
    cur = state[s]
    if cur == OPEN:
        base = s - s % 3
        state[base : base + 3] = _ALL_FALSE
        state[s] = TRUE
        queue.append(s)
    return cur != FALSE


class MiddleAssignment:
    """Choice of middles for hyperedges plus the derived betweenness state.

    For every triple T and candidate middle s, `state[3 * rank(T) + i]`,
    s being the i-th point of sorted T, records whether the placement "s
    between the other two points of T" is forced true, forced false, or
    open.  Non-edges start with all three placements false.  Later changes
    are queued as events until `propagate` has handled them: a slot s set
    true as s, whose premise rules in `_tables(n)` are then scanned, and a
    slot set false by a rule as ~s, whose edge and whose conclusion rules
    in `_tables(n)` are then checked.  The siblings of a slot set true go
    false silently (see `_set_true`).  `_true` has bit s set for each true
    slot s whose event has been handled, so it equals the true slots once
    the queue is empty.
    """

    def __init__(self, h: UniformHypergraph, middles=None):
        if h.r != 3:
            raise ValueError("middle assignments are defined for 3-uniform hypergraphs")
        self.hypergraph = h
        self.n = h.n
        self.state = bytearray(3 * comb(h.n, 3))
        self.contradiction = False
        # events not yet propagated: s for a slot set true, ~s for one set false
        self._queue: list[int] = []
        self._true = 0
        for t_rank in range(comb(h.n, 3)):
            if not h.edges >> t_rank & 1:
                base = 3 * t_rank
                self.state[base : base + 3] = _ALL_FALSE
        if middles:
            for triple, m in sorted(middles.items()):
                self.choose(triple, m)

    def clone(self) -> "MiddleAssignment":
        twin = object.__new__(MiddleAssignment)
        twin.hypergraph = self.hypergraph
        twin.n = self.n
        twin.state = bytearray(self.state)
        twin.contradiction = self.contradiction
        twin._queue = list(self._queue)
        twin._true = self._true
        return twin

    def choose(self, triple, m) -> None:
        """Record that m is the middle of the given edge (queued for propagation)."""
        t = tuple(sorted(triple))
        if m not in t:
            raise ValueError(f"{m} is not a member of {t}")
        t_rank = rank(t, self.n)
        if len(t) != 3 or not self.hypergraph.edges >> t_rank & 1:
            raise ValueError(f"{t} is not a hyperedge")
        if not _set_true(self.state, self._queue, 3 * t_rank + t.index(m)):
            self.contradiction = True

    def chosen_middles(self) -> dict[tuple[int, ...], int]:
        """Edges whose middle is currently forced true."""
        out = {}
        for edge in self.hypergraph.edge_list():
            base = 3 * rank(edge, self.n)
            for pos in range(3):
                if self.state[base + pos] == TRUE:
                    out[edge] = edge[pos]
        return out


def propagate(a: MiddleAssignment) -> bool:
    """Close the assignment by unit propagation; True iff still consistent.

    The clauses hold in every metric, because a false placement is a strict
    inequality there: each 4-point rule instance (x, y) concluding c reads
    "not x, or not y, or c", a triple has at most one middle, and an edge
    has at least one.  With `_, rules, premises = _tables(n)`, pops queued
    events until none is left:
    - s, set true: s joins `a._true`; for each instance in `rules[s]`,
      a true partner forces both conclusions true, and an open partner
      beside a false conclusion is set false.
    - ~s, set false: `_UNIT` reads off whether its edge has one open
      placement left and none true, which is forced true, or none left, a
      contradiction; each premise slot in `premises[s]` that is in
      `a._true` sets its partners false.
    A true slot whose event is still queued is not yet in `a._true`, so a
    false event skips its clauses; its own event reaches each of them
    later from the other premise, where the false conclusion sets an open
    partner false and makes a true partner a contradiction, as the skipped
    visit would have.  Conclusions are forced through `_set_true`, whose
    siblings set false are no events.  Setting a false slot true or a true
    slot false is a contradiction, which stops the closure at once and is
    remembered, so a contradicted assignment stays False.  Without a
    contradiction the closure is a monotone fixpoint, so the order events
    are taken in does not matter.
    """
    if a.contradiction:
        return False
    state, queue, true_bits = a.state, a._queue, a._true
    _, rules, premises = _tables(a.n)
    a.contradiction = True  # until the closure is reached
    while queue:
        s = queue.pop()
        if s >= 0:
            true_bits |= 1 << s
            for partner, c1, c2 in rules[s]:
                p = state[partner]
                if p == TRUE:
                    if not (_set_true(state, queue, c1) and _set_true(state, queue, c2)):
                        return False
                elif p == OPEN and (state[c1] == FALSE or state[c2] == FALSE):
                    state[partner] = FALSE
                    queue.append(~partner)
            continue
        s = ~s
        base = s - s % 3
        unit = _UNIT[9 * state[base] + 3 * state[base + 1] + state[base + 2]]
        if unit is not None:
            if unit < 0:
                return False
            state[base + unit] = TRUE  # its siblings are false already
            queue.append(base + unit)
        mask, groups = premises[s]
        fired = true_bits & mask
        while fired:
            low = fired & -fired
            fired ^= low
            for y in groups[(mask & (low - 1)).bit_count()]:
                cur = state[y]
                if cur == OPEN:
                    state[y] = FALSE
                    queue.append(~y)
                elif cur == TRUE:
                    return False
    a.contradiction = False
    a._true = true_bits
    return True


class RealizabilityVerdict(Record):
    __slots__ = ("status", "witness", "explored")
    status: str  # "metric" | "non-metric"
    witness: DistanceMatrix | None
    explored: int


def lp_max_slack(a: MiddleAssignment) -> DistanceMatrix | None:
    """Maximize the uniform slack over metrics realizing a total assignment.

    Equalities pin each edge's middle; every placement of every non-edge,
    and every distance, must clear the slack; the distances sum to at most
    one, which is harmless because the degeneracy pattern is
    scale-invariant, and which bounds the slack, since every distance must
    clear it.  A positive optimum is reached with the sum at exactly one,
    or scaling the distances up would raise it.  Returns an exact witness
    when the optimum slack is positive, None otherwise: at once, without
    the simplex, when the equalities zero out a strict row.  The witness's
    distances are summed as integers over the common denominator of the
    nullspace coordinates.  Rows are read off `_tables(n)`'s placements by
    slot: each edge's true slot, then each non-edge's three slots in slot
    order.
    """
    h, state = a.hypergraph, a.state
    n = h.n
    if a.contradiction or state.count(TRUE) != h.edge_count:
        raise ValueError("assignment must be total and propagation-consistent")
    place = _tables(n)[0]
    nvars = comb(n, 2)
    eq_rows, strict = [], []
    for t in range(comb(n, 3)):
        if h.edges >> t & 1:
            row = [0] * nvars
            lo_m, m_hi, lo_hi = place[state.index(TRUE, 3 * t, 3 * t + 3)]
            row[lo_m] = row[m_hi] = 1
            row[lo_hi] = -1
            eq_rows.append(row)
        else:
            strict += place[3 * t : 3 * t + 3]
    nullspace = solve_linear_system(eq_rows, nvars)
    # Substitute d = N y, N's columns being integer vectors, and maximize t
    # subject to a.N y >= t over y >= 0 and sum(N y) <= 1.  Asking y >= 0
    # changes no optimal slack: exactly one vector of N is nonzero in each
    # free column, and positive, so each free distance is a positive
    # multiple of one y_i, and its row d >= t makes that y_i positive
    # whenever t is.
    cols = [[vec[p] for vec in nullspace] for p in range(nvars)]
    ge_rows = [
        [x + y - z for x, y, z in zip(cols[lo_m], cols[m_hi], cols[lo_hi])]
        for lo_m, m_hi, lo_hi in strict
    ] + cols
    # a strict row the equalities zero out reads 0 >= t
    if not all(map(any, ge_rows)):
        return None
    ge_rows = [row + [-1] for row in ge_rows]
    ge_rows.append([-sum(vec) for vec in nullspace] + [0])
    t, x = max_slack(ge_rows, [0] * (len(ge_rows) - 1) + [-1])
    if t <= 0:
        return None
    # the y's are ints over a common denominator, so sum their numerators
    den = lcm(*(yi.denominator for yi in x[:-1]))
    y = [yi.numerator * (den // yi.denominator) for yi in x[:-1]]
    rows = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), col in zip(combinations(range(n), 2), cols):
        rows[i][j] = rows[j][i] = Fraction(sum(c * yi for c, yi in zip(col, y)), den)
    witness = DistanceMatrix(n, tuple(tuple(row) for row in rows))
    validate_metric(witness)
    if degenerate_hypergraph(witness).edges != h.edges:
        raise InternalConsistencyError(
            "slack witness does not reproduce the requested degeneracy pattern"
        )
    return witness


def _edge_order(h: UniformHypergraph) -> list[int]:
    """Edge ranks by descending interaction with other edges, then rank.

    Two edges interact when they share a pair of vertices: that is exactly
    when the propagation rule can chain their middles, so high-interaction
    edges first makes pruning bite early.
    """
    place = _tables(h.n)[0]
    ranks = [t for t in range(comb(h.n, 3)) if h.edges >> t & 1]
    pair_count = [0] * comb(h.n, 2)
    for t in ranks:
        for p in place[3 * t]:  # any slot of triple t names its three pairs
            pair_count[p] += 1
    return sorted(ranks, key=lambda t: (-sum(pair_count[p] for p in place[3 * t]), t))


def is_metric_hypergraph(
    h: UniformHypergraph, ceiling: int = DEFAULT_CEILING
) -> RealizabilityVerdict:
    """Decide whether some metric has exactly h as its degenerate triangles.

    From n = 7 on, a 6-set holding exactly 19 of h's triples refutes h by
    restriction, with `explored` 0, resting on the audit root's n = 6
    search (the pass would be circular at n = 6); else `_search` decides.
    """
    if h.r != 3:
        raise ValueError("realizability is defined for 3-uniform hypergraphs")
    if h.n > ceiling:
        raise CeilingExceeded(h.n, ceiling)
    if h.n >= 7 and any((h.edges & km).bit_count() == 19 for km in _kmasks(h.n, 3, 6)):
        return RealizabilityVerdict("non-metric", None, 0)
    return _search(h)


def _search(h: UniformHypergraph) -> RealizabilityVerdict:
    """Depth-first search over middle assignments, propagating after every
    choice; the exact slack LP decides a surviving total assignment.
    `explored` counts the middle choices tried."""
    bases = [3 * t for t in _edge_order(h)]
    explored = 0

    def dfs(a, i):
        """Search below a; every edge before bases[i] has a true middle."""
        nonlocal explored
        state = a.state
        while i < len(bases) and TRUE in state[bases[i] : bases[i] + 3]:
            i += 1
        if i == len(bases):
            return lp_max_slack(a)
        base = bases[i]
        for s in range(base, base + 3):
            if state[s] == FALSE:
                continue
            branch = a.clone()
            explored += 1
            _set_true(branch.state, branch._queue, s)  # s is open
            if propagate(branch):
                witness = dfs(branch, i + 1)
                if witness is not None:
                    return witness
        return None

    root = MiddleAssignment(h)
    witness = dfs(root, 0) if propagate(root) else None
    status = "metric" if witness is not None else "non-metric"
    return RealizabilityVerdict(status, witness, explored)


class AuditEntry(Record):
    __slots__ = ("deleted_vertex", "edge_count", "verdict")
    deleted_vertex: int | None
    edge_count: int
    verdict: RealizabilityVerdict


class AuditReport(Record):
    """Realizability of the canonical 19-edge hypergraph and its deletions."""

    __slots__ = ("root", "deletions")
    root: AuditEntry
    deletions: tuple[AuditEntry, ...]

    def is_minimal_non_metric(self) -> bool:
        return self.root.verdict.status == "non-metric" and all(
            e.verdict.status == "metric" for e in self.deletions
        )


def nineteen_edge_hypergraph() -> UniformHypergraph:
    """The complete 3-uniform hypergraph on six vertices minus the colex-last
    triple: the canonical 19-edge instance."""
    full = full_edge_mask(6, 3)
    return UniformHypergraph(6, 3, full ^ (1 << (comb(6, 3) - 1)))


def minimal_nonmetric_audit() -> AuditReport:
    """Confirm the 19-edge hypergraph is non-metric yet every single-vertex
    deletion of it is metric, witnessed by explicit matrices."""
    root_h = nineteen_edge_hypergraph()
    root = AuditEntry(None, root_h.edge_count, is_metric_hypergraph(root_h))
    deletions = []
    for v in range(root_h.n):
        sub = delete_vertex(root_h, v)
        deletions.append(AuditEntry(v, sub.edge_count, is_metric_hypergraph(sub)))
    return AuditReport(root, tuple(deletions))
