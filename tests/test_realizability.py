import hashlib
import random
import re
import time
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

import pytest

from linesat import io, realizability
from linesat.errors import CeilingExceeded
from linesat.hypergraph import (
    UniformHypergraph,
    _kmasks,
    complete_hypergraph,
    delete_vertex,
    star_construction,
)
from linesat.metric import (
    DistanceMatrix,
    degenerate_hypergraph,
    graph_metric,
    middle_of,
    random_rational_metric,
    theta_graph,
    validate_metric,
)
from linesat.realizability import (
    MiddleAssignment,
    RealizabilityVerdict,
    _search,
    _tables,
    is_metric_hypergraph,
    lp_max_slack,
    minimal_nonmetric_audit,
    nineteen_edge_hypergraph,
    propagate,
)
from linesat.simplex import solve_linear_system


def brute_force_witness(h):
    """Independent oracle: try the slack program on every total assignment."""
    edges = h.edge_list()
    for choice in product(*edges):
        a = MiddleAssignment(h, dict(zip(edges, choice)))
        witness = lp_max_slack(a)
        if witness is not None:
            return witness
    return None


def relabel(h, perm):
    return UniformHypergraph.from_edges(
        h.n, h.r, [tuple(perm[v] for v in e) for e in h.edge_list()]
    )


# --- propagation ----------------------------------------------------------------


def test_collinear_assignment_is_consistent():
    h = complete_hypergraph(5, 3)
    middles = {t: t[1] for t in combinations(range(5), 3)}
    a = MiddleAssignment(h, middles)
    assert propagate(a)


def test_rule_forces_non_edge_degenerate():
    # [0 1 2] and [0 2 3] force [0 1 3]; that triple is not an edge
    h = UniformHypergraph.from_edges(4, 3, [(0, 1, 2), (0, 2, 3)])
    a = MiddleAssignment(h, {(0, 1, 2): 1, (0, 2, 3): 2})
    assert not propagate(a)


def test_empty_assignment_is_consistent():
    h = UniformHypergraph(4, 3, 0)
    assert propagate(MiddleAssignment(h))


def test_rule_chains_through_edges():
    # on the complete hypergraph, [0 1 2] and [0 2 3] force the middles of
    # both remaining triples, pinning the collinear order 0 1 2 3
    h = complete_hypergraph(4, 3)
    a = MiddleAssignment(h, {(0, 1, 2): 1, (0, 2, 3): 2})
    assert propagate(a)
    assert a.chosen_middles() == {
        (0, 1, 2): 1,
        (0, 1, 3): 1,
        (0, 2, 3): 2,
        (1, 2, 3): 2,
    }


def test_contradiction_when_forced_middle_is_contested():
    h = complete_hypergraph(4, 3)
    a = MiddleAssignment(h, {(0, 1, 2): 1, (0, 2, 3): 2})
    propagate(a)
    a.choose((0, 1, 3), 0)  # but 1 is already forced as the middle
    assert not propagate(a)


def test_contradicted_assignment_stays_contradicted():
    # two middles chosen for one edge, and a rule that forces a non-edge:
    # propagate reports both at once, and again when called a second time
    h = UniformHypergraph.from_edges(4, 3, [(0, 1, 2), (0, 2, 3)])
    twice = MiddleAssignment(h, {(0, 1, 2): 1})
    twice.choose((0, 1, 2), 0)
    forced = MiddleAssignment(h, {(0, 1, 2): 1, (0, 2, 3): 2})
    for a in (twice, forced):
        assert not propagate(a)
        assert not propagate(a)
        assert a.contradiction


@pytest.mark.parametrize(
    "triple, m, message",
    [
        ((0, 1), 0, "(0, 1) is not a hyperedge"),
        ((0, 1, 2, 3), 0, "(0, 1, 2, 3) is not a hyperedge"),
        ((3, 2, 1), 1, "(1, 2, 3) is not a hyperedge"),
        ((2, 1, 0), 5, "5 is not a member of (0, 1, 2)"),
    ],
)
def test_choose_refuses_a_middle_outside_the_edges(triple, m, message):
    # the slot is 3 * rank(t) + t.index(m), so only a member of an edge has one
    a = MiddleAssignment(UniformHypergraph.from_edges(4, 3, [(0, 1, 2), (0, 1, 3)]))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        a.choose(triple, m)
    assert a.state == MiddleAssignment(a.hypergraph).state and not a._queue


def test_chosen_middle_sets_the_slot_of_its_position():
    # slots run through the triples in colex order, three to a triple
    h = complete_hypergraph(5, 3)
    colex = sorted(combinations(range(5), 3), key=lambda t: t[::-1])
    for i, t in enumerate(colex):
        for pos, m in enumerate(t):
            a = MiddleAssignment(h, {t[::-1]: m})
            assert a._queue == [3 * i + pos] and a.state[3 * i + pos] == 1


def test_contradiction_dooms_every_completion():
    # once propagation reports contradiction, no completion is feasible
    h = UniformHypergraph.from_edges(4, 3, [(0, 1, 2), (0, 2, 3), (1, 2, 3)])
    partial = {(0, 1, 2): 1, (0, 2, 3): 2}
    a = MiddleAssignment(h, partial)
    assert not propagate(a)
    for third in (1, 2, 3):
        total = dict(partial)
        total[(1, 2, 3)] = third
        b = MiddleAssignment(h, total)
        assert lp_max_slack(b) is None


def test_contradiction_soundness_on_five_points():
    # [0 1 2] and [0 2 4] force [0 1 4], which is kept out of the edge set;
    # the slack program must reject every completion of the two choices
    h = UniformHypergraph.from_edges(
        5, 3, [(0, 1, 2), (0, 2, 4), (1, 2, 3), (2, 3, 4)]
    )
    partial = {(0, 1, 2): 1, (0, 2, 4): 2}
    a = MiddleAssignment(h, partial)
    assert not propagate(a)
    free_edges = [(1, 2, 3), (2, 3, 4)]
    for m1 in free_edges[0]:
        for m2 in free_edges[1]:
            total = dict(partial)
            total[free_edges[0]] = m1
            total[free_edges[1]] = m2
            b = MiddleAssignment(h, total)
            assert lp_max_slack(b) is None


def _naive_closure(n, edges, middles):
    """Oracle for `propagate`: rescan every clause to a fixpoint.

    Facts are (middle, frozenset of ends).  Returns (consistent, true facts,
    false facts).  Each rule instance, premises A and B and conclusions C,
    is the clause "not A, or not B, or C": two true premises make both
    conclusions true, and a true premise beside a false conclusion makes
    its partner false.
    """
    triples = list(combinations(range(n), 3))
    edges = set(edges)

    def placements(t):
        return [(m, frozenset(t) - {m}) for m in t]

    true = {(m, frozenset(t) - {m}) for t, m in middles.items()}
    false = {f for t in triples if t not in edges for f in placements(t)}
    while True:
        if true & false:
            return False, true, false
        new_true, new_false = set(), set()
        for m, ends in true:  # exclusivity
            new_false |= {(x, ends - {x} | {m}) for x in ends}
        for t in edges:  # an edge keeps one middle
            fs = placements(t)
            open_ = [f for f in fs if f not in false]
            if not open_:
                return False, true, false
            if len(open_) == 1:
                new_true.add(open_[0])
        for a, b, c, d in permutations(range(n), 4):
            # [a b c] and [a c d] force [a b d] and [b c d]
            prem_a, prem_b = (b, frozenset((a, c))), (c, frozenset((a, d)))
            concl = {(b, frozenset((a, d))), (c, frozenset((b, d)))}
            if prem_a in true and prem_b in true:
                new_true |= concl
            elif concl & false:
                if prem_a in true:
                    new_false.add(prem_b)
                if prem_b in true:
                    new_false.add(prem_a)
        if new_true <= true and new_false <= false:
            return True, true, false
        true |= new_true
        false |= new_false


def test_propagate_matches_naive_fixpoint():
    rng = random.Random(31)
    outcomes = []
    for trial in range(300):
        n = 4 + trial % 4
        triples = list(combinations(range(n), 3))
        density = rng.choice((0.3, 0.6, 0.9))
        edges = [t for t in triples if rng.random() < density]
        h = UniformHypergraph.from_edges(n, 3, edges)
        chosen = rng.sample(edges, min(len(edges), rng.randint(0, 6)))
        middles = {t: rng.choice(t) for t in chosen}
        a = MiddleAssignment(h, middles)
        consistent = propagate(a)
        expected, true, false = _naive_closure(n, edges, middles)
        assert consistent == expected, (n, edges, middles)
        outcomes.append(consistent)
        if consistent:
            # colex order of the triples, computed without the library
            state = bytearray()
            for t in sorted(triples, key=lambda t: t[::-1]):
                for m in t:
                    f = (m, frozenset(t) - {m})
                    state.append(1 if f in true else 2 if f in false else 0)
            assert a.state == state, (n, edges, middles)
    assert outcomes.count(True) >= 50 and outcomes.count(False) >= 50


@pytest.mark.parametrize("n", [4, 5])
def test_sibling_events_are_redundant(n):
    # `_set_true` queues no event for the siblings it sets false.  That is
    # safe because for every instance (A, B) concluding C and every sibling
    # C' of C, C' has an instance that reaches B from A's side: (i) partner
    # B concluding a sibling of A, or (ii) partner A concluding a sibling of
    # B.  Every instance spans 4 points, so n = 4 covers all shapes.
    rules = _tables(n)[1]

    def siblings(s):
        base = s - s % 3
        return [x for x in (base, base + 1, base + 2) if x != s]

    cases = 0
    for a, entries in enumerate(rules):
        for b, c1, c2 in entries:
            for c in (c1, c2):
                for c_sib in siblings(c):
                    cases += 1
                    assert any(
                        (partner == b and {k1, k2} & set(siblings(a)))
                        or (partner == a and {k1, k2} & set(siblings(b)))
                        for partner, k1, k2 in rules[c_sib]
                    ), (a, b, c, c_sib)
    assert cases == 3 * comb(n, 3) * 4 * (n - 3) * 2 * 2


def _true_bits(state):
    return sum(1 << s for s, v in enumerate(state) if v == 1)


def test_propagate_matches_naive_fixpoint_on_eight_points():
    # 168 slots at n = 8: the true and premise masks span more than the 105
    # slots of n = 7.  A consistent closure leaves `_true` equal to its
    # true slots.
    rng = random.Random(8)
    n, triples = 8, list(combinations(range(8), 3))
    outcomes = []
    for _ in range(40):
        density = rng.choice((0.3, 0.6, 0.9))
        edges = [t for t in triples if rng.random() < density]
        h = UniformHypergraph.from_edges(n, 3, edges)
        chosen = rng.sample(edges, min(len(edges), rng.randint(0, 6)))
        middles = {t: rng.choice(t) for t in chosen}
        a = MiddleAssignment(h, middles)
        consistent = propagate(a)
        expected, true, false = _naive_closure(n, edges, middles)
        assert consistent == expected, (edges, middles)
        outcomes.append(consistent)
        if consistent:
            state = bytearray(
                1 if (m, frozenset(t) - {m}) in true
                else 2 if (m, frozenset(t) - {m}) in false else 0
                for t in sorted(triples, key=lambda t: t[::-1])
                for m in t
            )
            assert a.state == state, (edges, middles)
            assert a._true == _true_bits(state)
    assert outcomes.count(True) >= 10 and outcomes.count(False) >= 10


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_premise_table_matches_the_rules(n):
    # Expanding each conclusion slot's groups gives the (premise, partner)
    # pairs of every rule instance concluding it, in both orders.
    expected = [[] for _ in range(3 * comb(n, 3))]
    for x, entries in enumerate(_tables(n)[1]):
        for y, c1, c2 in entries:
            expected[c1].append((x, y))
            expected[c2].append((x, y))
    table = _tables(n)[2]
    assert len(table) == len(expected)
    for c, (mask, groups) in enumerate(table):
        xs = [x for x in range(mask.bit_length()) if mask >> x & 1]
        assert len(xs) == len(groups) == 5 * (n - 3) and all(groups), c
        pairs = [(x, y) for x, ys in zip(xs, groups) for y in ys]
        assert sorted(pairs) == sorted(expected[c]), c
        assert len(pairs) == 8 * (n - 3)


def test_true_mask_tracks_the_true_slots(monkeypatch):
    # Inside the search, every consistent propagate and every clone leaves
    # `_true` equal to the true slots of the state.
    checks = []

    def checked_propagate(a):
        consistent = propagate(a)
        if consistent:
            assert a._true == _true_bits(a.state)
            checks.append(a)
        return consistent

    def checked_clone(a):
        twin = clone(a)
        assert twin._true == _true_bits(twin.state) == a._true
        checks.append(twin)
        return twin

    clone = MiddleAssignment.clone
    monkeypatch.setattr(realizability, "propagate", checked_propagate)
    monkeypatch.setattr(MiddleAssignment, "clone", checked_clone)
    minimal_nonmetric_audit()
    _search(star_construction(7))
    assert len(checks) > 1000


def test_propagation_is_sound_on_real_metrics():
    # Every clause holds in every metric, so starting from some of a
    # metric's own middles, propagation stays consistent, sets only that
    # metric's middles true and never sets one of them false.  Integer L1
    # points on a 5x5 grid have many degenerate triangles.
    rng = random.Random(41)
    grid = [(x, y) for x in range(5) for y in range(5)]
    inferred = 0
    for trial in range(400):
        n = 5 + trial % 3
        if trial % 2:
            d = random_rational_metric(n, trial)
        else:
            pts = rng.sample(grid, n)
            d = DistanceMatrix(n, tuple(
                tuple(Fraction(abs(p[0] - q[0]) + abs(p[1] - q[1])) for q in pts)
                for p in pts
            ))
        h = degenerate_hypergraph(d)
        edges = h.edge_list()
        chosen = rng.sample(edges, rng.randint(0, len(edges)))
        a = MiddleAssignment(h, {t: middle_of(d, t) for t in chosen})
        assert propagate(a), (trial, chosen)
        inferred += len(a.chosen_middles()) - len(chosen)
        slot = 0
        for t in sorted(combinations(range(n), 3), key=lambda t: t[::-1]):
            real = middle_of(d, t)
            for m in t:
                # 1 is true, 2 is false
                assert a.state[slot] != (2 if m == real else 1), (trial, t, m)
                slot += 1
    assert inferred > 400


# --- the slack program -------------------------------------------------------------


def test_collinear_assignment_yields_line_witness():
    h = complete_hypergraph(5, 3)
    a = MiddleAssignment(h, {t: t[1] for t in combinations(range(5), 3)})
    propagate(a)
    witness = lp_max_slack(a)
    assert witness is not None
    assert degenerate_hypergraph(witness).is_complete()


def test_theta_five_assignment_yields_witness():
    d = graph_metric(theta_graph(5))
    h = degenerate_hypergraph(d)
    middles = {e: middle_of(d, e) for e in h.edge_list()}
    a = MiddleAssignment(h, middles)
    assert propagate(a)
    witness = lp_max_slack(a)
    assert witness is not None
    assert degenerate_hypergraph(witness).edges == h.edges


def test_lp_rejects_partial_assignment():
    h = complete_hypergraph(5, 3)
    a = MiddleAssignment(h, {(0, 1, 2): 1})
    with pytest.raises(ValueError):
        lp_max_slack(a)


def test_an_assignment_is_the_one_source_of_its_hypergraph():
    # no second hypergraph rides beside the assignment, to agree with it or not
    h = complete_hypergraph(5, 3)
    a = MiddleAssignment(h)
    with pytest.raises(TypeError):
        propagate(a, h)
    with pytest.raises(TypeError):
        lp_max_slack(a, h)


# --- full decision ---------------------------------------------------------------------


def test_complete_five_is_metric():
    verdict = is_metric_hypergraph(complete_hypergraph(5, 3))
    assert verdict.status == "metric"
    validate_metric(verdict.witness)
    assert degenerate_hypergraph(verdict.witness).is_complete()


def test_empty_three_is_metric():
    verdict = is_metric_hypergraph(UniformHypergraph(3, 3, 0))
    assert verdict.status == "metric"
    assert degenerate_hypergraph(verdict.witness).edge_count == 0


def test_complete_four_is_metric():
    # all triangles degenerate on four points: realizable even though no
    # linear order exists
    verdict = is_metric_hypergraph(complete_hypergraph(4, 3))
    assert verdict.status == "metric"
    assert degenerate_hypergraph(verdict.witness).is_complete()


def test_nineteen_edge_hypergraph_is_non_metric():
    verdict = is_metric_hypergraph(nineteen_edge_hypergraph())
    assert verdict.status == "non-metric"
    assert verdict.witness is None
    assert verdict.explored > 0


def test_verdicts_invariant_under_relabeling():
    rng = random.Random(0)
    h19 = nineteen_edge_hypergraph()
    for _ in range(3):
        perm = list(range(6))
        rng.shuffle(perm)
        assert is_metric_hypergraph(relabel(h19, perm)).status == "non-metric"
    d = graph_metric(theta_graph(5))
    h9 = degenerate_hypergraph(d)
    for _ in range(3):
        perm = list(range(5))
        rng.shuffle(perm)
        assert is_metric_hypergraph(relabel(h9, perm)).status == "metric"


def test_search_tree_sizes_are_pinned():
    # Any change to what propagation prunes changes these branch counts.
    # The stars hold 19-triple 6-sets, so they go to the search directly.
    report = minimal_nonmetric_audit()
    assert report.root.verdict.explored == 289
    assert [e.verdict.explored for e in report.deletions] == [19, 19, 19, 8, 8, 8]
    star = _search(star_construction(7))
    assert (star.status, star.explored) == ("non-metric", 379)
    star = _search(star_construction(8))
    assert (star.status, star.explored) == ("non-metric", 469)


def test_verdict_bytes_are_pinned():
    # Statuses, branch counts and witness matrices of 60 seeded random
    # hypergraphs (30 metric, 30 non-metric), as the search behind
    # `linesat realize` finds them and `io.dumps_verdict` prints them.  A
    # change that should not alter the search must keep this.
    rng = random.Random(9)
    digest = hashlib.sha256()
    for _ in range(60):
        n = rng.choice((6, 7))
        p = rng.choice((0.2, 0.4, 0.6, 0.8))
        edges = [t for t in combinations(range(n), 3) if rng.random() < p]
        verdict = _search(UniformHypergraph.from_edges(n, 3, edges))
        digest.update(io.dumps_verdict(verdict).encode() + b"\n")
    assert digest.hexdigest() == (
        "f477dcdd1053bfea4cd3e10b3cf91f407ef7fa2f9291f937de76d604e5631347"
    )


def test_extension_verdict_bytes_are_pinned():
    # Non-metric 7-vertex extensions of the 19-edge family, the shape whose
    # search propagation dominates: the core relabeled at random, plus a
    # seeded 2 to 7 of the 15 triples through the seventh vertex.  Statuses
    # and branch counts of the search, as `io.dumps_verdict` prints them.
    rng = random.Random(5)
    core = [t for t in combinations(range(6), 3) if t != (3, 4, 5)]
    through6 = [t for t in combinations(range(7), 3) if 6 in t]
    digest = hashlib.sha256()
    for i in range(66):
        extra = rng.sample(through6, 2 + i % 6)
        perm = list(range(7))
        rng.shuffle(perm)
        edges = [tuple(perm[v] for v in t) for t in core + extra]
        verdict = _search(UniformHypergraph.from_edges(7, 3, edges))
        assert verdict.status == "non-metric"
        digest.update(io.dumps_verdict(verdict).encode() + b"\n")
    assert digest.hexdigest() == (
        "1bb6e624399c71453a0a1ef91da495f6e46d3c70442f084c58bccd24511dde72"
    )


def test_restriction_pass_agrees_with_the_search():
    # From n = 7 on, a 6-set holding 19 of h's triples refutes h with no
    # branch; every other input gets the search's verdict unchanged.
    rng = random.Random(31)
    refuted = 0
    for _ in range(400):
        n = rng.choice((7, 8))
        p = rng.choice((0.2, 0.4, 0.6, 0.8))
        edges = {t for t in combinations(range(n), 3) if rng.random() < p}
        h = UniformHypergraph.from_edges(n, 3, edges)
        verdict, searched = is_metric_hypergraph(h, 8), _search(h)
        assert verdict.status == searched.status
        if any(
            sum(t in edges for t in combinations(s, 3)) == 19
            for s in combinations(range(n), 6)
        ):
            assert verdict == RealizabilityVerdict("non-metric", None, 0)
            refuted += 1
        else:
            assert verdict == searched
    assert 0 < refuted < 400


@pytest.mark.parametrize("n", range(7, 17))
def test_complete_minus_one_is_refuted_without_a_branch(n):
    # Each answers from the restriction pass, its 6-subset table built cold.
    for missing in (0, comb(n, 3) - 1):
        _kmasks.cache_clear()
        h = UniformHypergraph(n, 3, complete_hypergraph(n, 3).edges ^ 1 << missing)
        start = time.perf_counter()
        verdict = is_metric_hypergraph(h, 16)
        assert time.perf_counter() - start < 0.1
        assert verdict == RealizabilityVerdict("non-metric", None, 0)


def test_zero_row_refutes_without_the_simplex(monkeypatch):
    # The one total assignment surviving propagation here has middles
    # whose equalities pin a strict row to 0, which reads 0 >= t: the
    # assignment is refuted before any simplex, and the verdict and branch
    # count are those the simplex gave.
    h = UniformHypergraph.from_edges(6, 3, [
        (0, 1, 3), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5), (1, 2, 3),
        (1, 2, 4), (1, 2, 5), (1, 4, 5), (2, 3, 4), (2, 3, 5), (3, 4, 5),
    ])
    lp_calls = []

    def counted(a):
        lp_calls.append(a)
        return lp_max_slack(a)

    def refuse(rows, rhs):
        raise AssertionError("the simplex ran on a zero-row program")

    monkeypatch.setattr(realizability, "lp_max_slack", counted)
    monkeypatch.setattr(realizability, "max_slack", refuse)
    verdict = is_metric_hypergraph(h)
    assert (verdict.status, verdict.explored) == ("non-metric", 3)
    assert len(lp_calls) == 1


def test_verdict_deterministic():
    h = degenerate_hypergraph(graph_metric(theta_graph(5)))
    a = is_metric_hypergraph(h)
    b = is_metric_hypergraph(h)
    assert a.explored == b.explored
    assert a.witness.d == b.witness.d


def test_witness_pattern_is_exact():
    # bit-for-bit agreement between requested and realized degeneracies
    for h in (
        degenerate_hypergraph(graph_metric(theta_graph(5))),
        complete_hypergraph(4, 3),
        UniformHypergraph.from_edges(4, 3, [(0, 1, 2)]),
    ):
        verdict = is_metric_hypergraph(h)
        assert verdict.status == "metric"
        assert degenerate_hypergraph(verdict.witness).edges == h.edges


def test_ceiling_guard():
    with pytest.raises(CeilingExceeded):
        is_metric_hypergraph(complete_hypergraph(7, 3))


def test_search_matches_brute_force_on_small_instances():
    rng = random.Random(12)
    cases = [
        UniformHypergraph(4, 3, 0),
        UniformHypergraph.from_edges(4, 3, [(0, 1, 2)]),
        UniformHypergraph.from_edges(4, 3, [(0, 1, 2), (0, 2, 3)]),
        complete_hypergraph(4, 3),
    ]
    for _ in range(4):
        mask = rng.randrange(1 << 10)
        cases.append(UniformHypergraph(5, 3, mask & ((1 << 10) - 1)))
    for h in cases:
        if h.edge_count > 6:
            continue
        fast = is_metric_hypergraph(h)
        slow = brute_force_witness(h)
        assert (fast.status == "metric") == (slow is not None)
        if slow is not None:
            assert degenerate_hypergraph(slow).edges == h.edges


def _degenerate_triples(dist):
    """Triples with one point between the other two, from a plain matrix."""
    out = []
    for t in combinations(range(len(dist)), 3):
        for m in t:
            a, b = (x for x in t if x != m)
            if dist[a][m] + dist[m][b] == dist[a][b]:
                out.append(t)
                break
    return out


def _random_graph_distances(rng, n):
    """Shortest-path distances of a seeded random connected graph."""
    adj = [set() for _ in range(n)]
    for v in range(1, n):  # a random spanning tree keeps it connected
        u = rng.randrange(v)
        adj[u].add(v)
        adj[v].add(u)
    for u, v in combinations(range(n), 2):
        if rng.random() < 0.3:
            adj[u].add(v)
            adj[v].add(u)
    dist = []
    for src in range(n):
        row = [None] * n
        row[src] = 0
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if row[w] is None:
                        row[w] = row[u] + 1
                        nxt.append(w)
            frontier = nxt
        dist.append(row)
    return dist


def _random_l1_distances(rng, n):
    """L1 distances of n distinct seeded integer points in the plane."""
    pts = []
    while len(pts) < n:
        p = (rng.randint(0, 5), rng.randint(0, 5))
        if p not in pts:
            pts.append(p)
    return [[abs(p[0] - q[0]) + abs(p[1] - q[1]) for q in pts] for p in pts]


def test_degenerate_sets_of_known_metrics_are_metric():
    # Each input is the degenerate set of a metric built here, so "metric"
    # is known without the slack program; the witness must match exactly.
    rng = random.Random(5)
    for trial in range(64):
        n = 3 + trial // 2 % 4
        build = _random_graph_distances if trial % 2 else _random_l1_distances
        h = UniformHypergraph.from_edges(n, 3, _degenerate_triples(build(rng, n)))
        verdict = is_metric_hypergraph(h)
        assert verdict.status == "metric"
        validate_metric(verdict.witness)
        assert degenerate_hypergraph(verdict.witness).edges == h.edges


def test_degenerate_sets_on_seven_to_ten_points_stay_metric():
    # The restriction pass never refutes a realizable input: the search
    # runs and its witness reproduces the input exactly.
    rng = random.Random(11)
    for n in range(7, 11):
        hs = [degenerate_hypergraph(random_rational_metric(n, seed)) for seed in range(3)]
        hs.append(degenerate_hypergraph(graph_metric(theta_graph(n))))
        hs += [
            UniformHypergraph.from_edges(n, 3, _degenerate_triples(_random_l1_distances(rng, n)))
            for _ in range(3)
        ]
        for h in hs:
            verdict = is_metric_hypergraph(h, n)
            assert verdict.status == "metric" and verdict.explored > 0
            validate_metric(verdict.witness)
            assert degenerate_hypergraph(verdict.witness).edges == h.edges


# random_rational_metric(7, 3) as first generated, frozen with its nine
# degenerate triangles: a sparse 7-point case whose one slack program is the
# largest the search meets (99 rows).
N7_MATRIX = (
    ("0", "26/3", "61/6", "80/3", "209/4", "199/12", "10/3"),
    ("26/3", "0", "31/6", "62/3", "185/4", "101/4", "20/3"),
    ("61/6", "31/6", "0", "33/2", "505/12", "241/12", "65/6"),
    ("80/3", "62/3", "33/2", "0", "119/4", "353/12", "82/3"),
    ("209/4", "185/4", "505/12", "119/4", "0", "55", "635/12"),
    ("199/12", "101/4", "241/12", "353/12", "55", "0", "239/12"),
    ("10/3", "20/3", "65/6", "82/3", "635/12", "239/12", "0"),
)
N7_EDGES = (
    (0, 2, 3), (0, 2, 4), (0, 1, 5), (1, 2, 5), (1, 3, 6),
    (2, 3, 6), (1, 4, 6), (2, 4, 6), (0, 5, 6),
)


def test_frozen_sparse_seven_point_case():
    dist = [[Fraction(x) for x in row] for row in N7_MATRIX]
    assert _degenerate_triples(dist) == sorted(N7_EDGES)
    h = UniformHypergraph.from_edges(7, 3, N7_EDGES)
    verdict = is_metric_hypergraph(h, ceiling=7)
    assert verdict.status == "metric"
    validate_metric(verdict.witness)
    assert degenerate_hypergraph(verdict.witness).edges == h.edges


# --- the minimality audit -------------------------------------------------------------


def test_audit_shape_and_witnesses():
    report = minimal_nonmetric_audit()
    assert report.root.edge_count == 19
    assert report.root.verdict.status == "non-metric"
    assert report.is_minimal_non_metric()
    root = nineteen_edge_hypergraph()
    sizes = []
    for entry in report.deletions:
        sizes.append(entry.edge_count)
        expected = delete_vertex(root, entry.deleted_vertex)
        assert entry.verdict.status == "metric"
        witness = entry.verdict.witness
        validate_metric(witness)
        assert degenerate_hypergraph(witness).edges == expected.edges
    # the missing triple {3,4,5}: deleting inside it leaves the complete
    # 10-edge hypergraph, deleting outside leaves 9 edges
    assert sizes == [9, 9, 9, 10, 10, 10]


def _cleared_slack(witness, h):
    """The least distance or non-edge placement excess of a witness whose
    distances sum to one: the slack that witness clears."""
    n, d = witness.n, witness.d
    pairs = list(combinations(range(n), 2))
    assert sum(d[i][j] for i, j in pairs) == 1
    gaps = [d[i][j] for i, j in pairs]
    for t in combinations(range(n), 3):
        if not h.has_edge(t):
            for m in t:
                a, b = (x for x in t if x != m)
                gaps.append(d[a][m] + d[m][b] - d[a][b])
    return min(gaps)


def test_witnesses_reach_the_optimal_slack():
    # The slack program's exact optima on the frozen n=7 case and on the
    # audit deletions, as the earlier two-phase simplex found them.
    h7 = UniformHypergraph.from_edges(7, 3, N7_EDGES)
    verdict = is_metric_hypergraph(h7, ceiling=7)
    assert _cleared_slack(verdict.witness, h7) == Fraction(1, 46)
    root = nineteen_edge_hypergraph()
    slacks = [
        _cleared_slack(e.verdict.witness, delete_vertex(root, e.deleted_vertex))
        for e in minimal_nonmetric_audit().deletions
    ]
    assert slacks == [Fraction(1, k) for k in (18, 18, 18, 20, 20, 20)]


def _surviving_total_assignments(h):
    """Every total middle assignment of h that survives propagation."""
    edges = h.edge_list()
    out = []

    def walk(a, i):
        if i == len(edges):
            out.append(a)
            return
        for m in edges[i]:
            b = a.clone()
            b.choose(edges[i], m)
            if propagate(b):
                walk(b, i + 1)

    root = MiddleAssignment(h)
    if propagate(root):
        walk(root, 0)
    return out


def _float_max_slack(linprog, h, middles):
    """The slack program with sum(d) = 1, over the C(n, 2) distances in
    floats: edge equalities, distances summing to exactly one, and every
    non-edge placement and every distance at least t.  None when the
    equalities admit no such distances."""
    pairs = list(combinations(range(h.n), 2))
    nvars = len(pairs)

    def row(triple, m):
        lo, hi = (x for x in triple if x != m)
        out = [0.0] * (nvars + 1)
        out[pairs.index(tuple(sorted((lo, m))))] += 1
        out[pairs.index(tuple(sorted((m, hi))))] += 1
        out[pairs.index((lo, hi))] -= 1
        return out

    eq = [row(e, m) for e, m in middles.items()] + [[1.0] * nvars + [0.0]]
    ge = [row(t, m) for t in combinations(range(h.n), 3) if not h.has_edge(t) for m in t]
    ge += [[float(j == p) for j in range(nvars)] + [0.0] for p in range(nvars)]
    for r in ge:
        r[-1] = -1.0  # a.d - t >= 0
    res = linprog(
        [0.0] * nvars + [-1.0],
        A_ub=[[-v for v in r] for r in ge],
        b_ub=[0.0] * len(ge),
        A_eq=eq,
        b_eq=[0.0] * len(middles) + [1.0],
        bounds=(None, None),
        method="highs",
    )
    if res.status == 2:
        return None
    assert res.status == 0
    return -res.fun


def test_slack_program_matches_floating_oracle():
    # lp_max_slack bounds sum(d) by one instead of fixing it; a witness
    # must exist exactly when the fixed-sum program has a positive optimum,
    # and clear that optimum.  Five points are not enough: on every
    # 5-point hypergraph each total assignment surviving propagation is
    # realizable, so the refuted kind needs six.
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = random.Random(3)
    kinds = {True: 0, False: 0}
    for _ in range(28):
        edges = [t for t in combinations(range(6), 3) if rng.random() < 0.7]
        h = UniformHypergraph.from_edges(6, 3, edges)
        for a in _surviving_total_assignments(h):
            witness = lp_max_slack(a)
            opt = _float_max_slack(linprog, h, a.chosen_middles())
            assert (witness is not None) == (opt is not None and opt > 1e-9)
            if witness is not None:
                assert abs(float(_cleared_slack(witness, h)) - opt) < 1e-7
            kinds[witness is not None] += 1
    assert min(kinds.values()) >= 30


def _slack_program_by_definition(h, middles):
    """The (rows, rhs) lp_max_slack should hand the simplex, built from
    the definition: the pairs in lexicographic order are the distances,
    the edge equalities give the nullspace N, and the strict rows are each
    non-edge in colex order with its middles in sorted order, then the
    distances, each over N with -1 for the slack; the last row bounds
    sum(d) by one.  None when a strict row is 0 over N."""
    pairs = list(combinations(range(h.n), 2))

    def defect(triple, m):
        lo, hi = (v for v in triple if v != m)
        terms = {tuple(sorted((lo, m))): 1, tuple(sorted((m, hi))): 1, (lo, hi): -1}
        return [terms.get(p, 0) for p in pairs]

    nullspace = solve_linear_system(
        [defect(e, m) for e, m in sorted(middles.items())], len(pairs)
    )
    triples = sorted(combinations(range(h.n), 3), key=lambda t: t[::-1])
    strict = [defect(t, m) for t in triples if t not in middles for m in t]
    strict += [[int(p == q) for p in pairs] for q in pairs]
    rows = [[sum(c * v for c, v in zip(row, vec)) for vec in nullspace] for row in strict]
    if not all(any(row) for row in rows):
        return None
    rows = [row + [-1] for row in rows] + [[-sum(vec) for vec in nullspace] + [0]]
    return rows, [0] * len(strict) + [-1]


def test_slack_program_matches_its_definition(monkeypatch):
    # Seeded total assignments on 3 to 7 points, collinear middles on a
    # complete hypergraph (no strict placement rows), and the frozen n=7
    # case with its metric's middles.
    real = realizability.max_slack
    programs = []

    def recording(rows, rhs):
        programs.append(([list(row) for row in rows], list(rhs)))
        return real(rows, rhs)

    monkeypatch.setattr(realizability, "max_slack", recording)
    rng = random.Random(16)
    cases = []
    for n in range(3, 8):
        for _ in range(12):
            p = rng.random()
            edges = [t for t in combinations(range(n), 3) if rng.random() < p]
            cases.append((n, {e: rng.choice(e) for e in edges}))
    cases.append((5, {t: t[1] for t in combinations(range(5), 3)}))
    n7 = DistanceMatrix(7, tuple(tuple(Fraction(x) for x in row) for row in N7_MATRIX))
    cases.append((7, {e: middle_of(n7, e) for e in N7_EDGES}))
    solved = 0
    for n, middles in cases:
        h = UniformHypergraph.from_edges(n, 3, middles)
        programs.clear()
        lp_max_slack(MiddleAssignment(h, middles))
        expected = _slack_program_by_definition(h, middles)
        assert programs == ([] if expected is None else [expected]), (n, middles)
        solved += expected is not None
    assert solved >= 30
