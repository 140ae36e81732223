import hashlib
import random
import time
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linesat.errors import BudgetExceeded, InternalConsistencyError, InvalidK, OutOfRange
from linesat.hypergraph import (
    DEFAULT_BUDGET,
    UniformHypergraph,
    check_budget,
    complement,
    complete_hypergraph,
    full_edge_mask,
    rank,
    star_construction,
    unrank,
)
from linesat.io import dumps_certificate
from linesat.metric import degenerate_hypergraph, graph_metric, theta_graph
from linesat.saturation import (
    ClosureCertificate,
    _kmasks,
    _replays_to_complete,
    _star_certificate,
    exhaustive_size_check,
    is_weakly_saturated,
    min_saturation_search,
    verify_certificate,
    weak_saturation_closure,
)
from scan_oracle import _classes, _close_mask, _containing, _scan_all, _scan_tops


def nineteen(missing_rank=19):
    return UniformHypergraph(6, 3, full_edge_mask(6, 3) ^ (1 << missing_rank))


def random_hypergraph(n, r, count, rng):
    ranks = rng.sample(range(comb(n, r)), count)
    mask = 0
    for t in ranks:
        mask |= 1 << t
    return UniformHypergraph(n, r, mask)


def relabel(h, perm):
    return UniformHypergraph.from_edges(
        h.n, h.r, (tuple(perm[v] for v in e) for e in h.edge_list())
    )


def rescan_closure(h, k):
    """Edge set of the closure by rescanning every k-subset to a fixpoint."""
    edges = set(h.edge_list())
    changed = True
    while changed:
        changed = False
        for s in combinations(range(h.n), k):
            missing = [t for t in combinations(s, h.r) if t not in edges]
            if len(missing) == 1:
                edges.add(missing[0])
                changed = True
    return edges


# --- closure tables ---------------------------------------------------------


def rank_tables(n, r, k):
    """The closure tables built the direct way, by ranking every subset."""
    check_budget(n, r, k)
    ksubsets = [None] * comb(n, k)
    for s in combinations(range(n), k):
        ksubsets[rank(s, n)] = s
    kmasks = []
    for s in ksubsets:
        m = 0
        for t in combinations(s, r):
            m |= 1 << rank(t, n)
        kmasks.append(m)
    containing = [[] for _ in range(comb(n, r))]
    for j, m in enumerate(kmasks):
        while m:
            low = m & -m
            containing[low.bit_length() - 1].append(j)
            m ^= low
    return tuple(ksubsets), tuple(kmasks), tuple(tuple(c) for c in containing)


@pytest.mark.parametrize(
    "n, r, k",
    [
        (7, 3, 6),
        (8, 3, 6),
        (6, 2, 4),
        (9, 4, 6),
        (16, 3, 6),
        (10, 1, 4),  # r = 1
        (8, 3, 3),  # r = k
        (7, 3, 7),  # k = n
        (5, 3, 6),  # k > n: no k-subsets
        (6, 0, 0),
        (6, 0, 2),
        (9, 7, 8),  # r > n / 2: the builder drops i-subset masks too small to grow into r
        (10, 8, 10),
        (12, 11, 12),
    ],
)
def test_tables_match_rank_oracle(n, r, k):
    ksubsets, kmasks, containing = rank_tables(n, r, k)
    assert _kmasks.__wrapped__(n, r, k) == kmasks
    assert _containing.__wrapped__(n, r, k) == containing
    # certificates decode witnesses by unranking the k-subset index
    assert tuple(unrank(j, n, k) for j in range(comb(n, k))) == ksubsets


def test_tables_match_rank_oracle_on_every_small_shape():
    # the builder stores no i-subset masks above a subset's size and reads
    # the missing ones as zeros: every 0 <= r <= k <= n + 1, n <= 8
    for n in range(9):
        for k in range(n + 2):
            for r in range(k + 1):
                assert _kmasks.__wrapped__(n, r, k) == rank_tables(n, r, k)[1], (n, r, k)


def test_closed_input_never_builds_the_reverse_index():
    # the closure passes over the k-subset masks alone: a closed input
    # takes no step, and the star takes steps from the same tables
    theta = degenerate_hypergraph(graph_metric(theta_graph(16)))
    assert weak_saturation_closure(theta, 6).certificate.steps == ()
    assert not is_weakly_saturated(theta, 6)
    assert weak_saturation_closure(star_construction(16), 6).certificate.steps


def test_deep_tables_need_no_recursion():
    # one 1500-subset: a walk one call deeper per vertex would overflow
    result = weak_saturation_closure(UniformHypergraph(1500, 1, 0), 1500)
    assert result.certificate.steps == ()


@pytest.mark.parametrize(
    "h, steps, digest",
    [
        (
            degenerate_hypergraph(graph_metric(theta_graph(16))),
            0,
            "6c6780af2914af7a672be988676e1d2ebd1596bf88d61f5c15cd0a21937d72b7",
        ),
        (
            star_construction(16),
            286,
            "e6683aa9be41f66a877f66424718335e8fba9335958e6640235302f0cf83213c",
        ),
    ],
    ids=["theta16", "star16"],
)
def test_certificates_are_pinned(h, steps, digest):
    # The steps come in the closure's colex passes over the k-subsets,
    # so these bytes pin the tables' order and the pass order both.
    cert = weak_saturation_closure(h, 6).certificate
    assert len(cert.steps) == steps
    assert hashlib.sha256(dumps_certificate(cert).encode()).hexdigest() == digest


# --- closure ------------------------------------------------------------------


def test_any_19_edge_set_closes_to_complete():
    for missing in range(20):
        result = weak_saturation_closure(nineteen(missing), 6)
        assert result.closure.is_complete()
        assert len(result.certificate.steps) == 1


def test_empty_closure_is_empty():
    result = weak_saturation_closure(UniformHypergraph(6, 3, 0), 6)
    assert result.closure.edge_count == 0
    assert result.certificate.steps == ()


def test_theta_degenerate_set_is_a_fixed_point():
    h = degenerate_hypergraph(graph_metric(theta_graph(6)))
    result = weak_saturation_closure(h, 6)
    assert result.closure.edges == h.edges
    assert result.certificate.steps == ()


def test_star_seven_closure():
    result = weak_saturation_closure(star_construction(7), 6)
    assert result.closure.is_complete()
    assert len(result.certificate.steps) == comb(7, 3) - 31 == 4


def test_closure_rejects_small_k():
    with pytest.raises(InvalidK):
        weak_saturation_closure(star_construction(6), 2)


def test_closure_with_k_above_n_is_identity():
    h = star_construction(5)
    result = weak_saturation_closure(UniformHypergraph(5, 3, h.edges >> 1 << 1), 6)
    assert result.closure.edges == h.edges >> 1 << 1
    assert result.certificate.steps == ()


@pytest.mark.parametrize("n", [8, 16])
def test_a_closure_stops_once_complete(monkeypatch, n):
    # The star family completes in its first pass over the 6-subsets, and
    # no second pass confirms that nothing is missing.  A fixed point short
    # of complete still takes the pass that adds nothing.
    from linesat import saturation

    passes = []

    class Counted(tuple):
        def __iter__(self):
            passes.append(1)
            return super().__iter__()

    kmasks = saturation._kmasks
    monkeypatch.setattr(saturation, "_kmasks", lambda *shape: Counted(kmasks(*shape)))
    assert weak_saturation_closure(star_construction(n), 6).closure.is_complete()
    assert is_weakly_saturated(star_construction(n), 6)
    assert len(passes) == 2
    assert not is_weakly_saturated(degenerate_hypergraph(graph_metric(theta_graph(n))), 6)
    assert len(passes) == 3


# --- certificates ---------------------------------------------------------------


def test_emitted_certificates_replay():
    for h in (nineteen(), star_construction(7), star_construction(8)):
        cert = weak_saturation_closure(h, 6).certificate
        assert verify_certificate(cert)


def test_empty_certificate_is_valid():
    cert = ClosureCertificate(UniformHypergraph(6, 3, 123), 6, ())
    assert verify_certificate(cert)


def test_dependent_steps_replay_deterministically():
    # Complete on 7 minus three triples.  Every 6-subset holding {4,5,6}
    # misses another of them, so it cannot be added first; {0,1,3,4,5,6}
    # makes it addable after (3,4,6) alone, {0,1,2,4,5,6} after (2,4,5).
    h = complement(
        UniformHypergraph.from_edges(7, 3, [(2, 4, 5), (3, 4, 6), (4, 5, 6)])
    )
    cert = weak_saturation_closure(h, 6).certificate
    assert {step[0] for step in cert.steps} == {(2, 4, 5), (3, 4, 6), (4, 5, 6)}
    assert cert.steps[0][0] != (4, 5, 6)
    assert weak_saturation_closure(h, 6).certificate.steps == cert.steps
    assert verify_certificate(cert)


def test_swapping_dependent_steps_invalidates():
    h = complement(
        UniformHypergraph.from_edges(7, 3, [(2, 4, 5), (3, 4, 6), (4, 5, 6)])
    )
    cert = weak_saturation_closure(h, 6).certificate
    steps = list(cert.steps)
    steps[0], steps[2] = steps[2], steps[0]
    assert not verify_certificate(ClosureCertificate(cert.base, cert.k, tuple(steps)))


def test_step_with_present_triple_invalidates():
    cert = weak_saturation_closure(nineteen(), 6).certificate
    t, s = cert.steps[0]
    bad = ClosureCertificate(cert.base, cert.k, (((0, 1, 2), s),))
    assert not verify_certificate(bad)


def test_wrong_witness_set_invalidates():
    cert = weak_saturation_closure(star_construction(7), 6).certificate
    steps = list(cert.steps)
    t, _ = steps[0]
    steps[0] = (t, (0, 1, 2, 3, 4))  # not a 6-subset
    assert not verify_certificate(ClosureCertificate(cert.base, cert.k, tuple(steps)))


@pytest.mark.parametrize(
    "witness, valid", [((-1, 0, 1), False), ((2, 3, 5), False), ((0, 1, 4), True), ((0, 2, 4), True)]
)
def test_witness_outside_the_vertices_invalidates(witness, valid):
    # At k = r the witness is its own missing r-subset, so only the range
    # test, on the sorted witness's two ends, refuses a vertex outside 0..4
    cert = ClosureCertificate(UniformHypergraph(5, 3, 0), 3, ((witness, witness),))
    assert verify_certificate(cert) is valid


# --- saturation predicate -------------------------------------------------------


def test_star_family_is_weakly_saturated():
    for n in range(5, 10):
        assert is_weakly_saturated(star_construction(n), 6)


def test_theta_degenerate_set_is_not_saturated():
    h = degenerate_hypergraph(graph_metric(theta_graph(6)))
    assert not is_weakly_saturated(h, 6)


def test_complete_is_saturated():
    assert is_weakly_saturated(complete_hypergraph(7, 3), 6)
    assert is_weakly_saturated(complete_hypergraph(5, 3), 6)  # k > n


# --- order independence and algebraic properties ---------------------------------


def test_closure_independent_of_processing_order():
    # Relabeling the vertices changes the order in which the loop meets
    # the k-subsets, so closure(pi h) == pi closure(h) tests order-freedom.
    rng = random.Random(7)
    perm = list(range(8))
    for trial in range(100):
        h = random_hypergraph(8, 3, rng.randint(30, 50), rng)
        rng.shuffle(perm)
        closure = weak_saturation_closure(h, 6).closure
        relabeled = weak_saturation_closure(relabel(h, perm), 6).closure
        assert relabeled.edges == relabel(closure, perm).edges


def test_relabeled_certificates_still_replay():
    rng = random.Random(11)
    perm = list(range(7))
    for _ in range(20):
        h = random_hypergraph(7, 3, rng.randint(25, 33), rng)
        rng.shuffle(perm)
        result = weak_saturation_closure(relabel(h, perm), 6)
        assert verify_certificate(result.certificate)
        closure = weak_saturation_closure(h, 6).closure
        assert result.closure.edges == relabel(closure, perm).edges


def adding_passes(cert):
    """How many closure passes added r-sets: a pass takes its steps in
    ascending order of their witness k-sets' ranks, so each later pass
    starts where that rank falls."""
    ranks = [rank(s, cert.base.n) for _, s in cert.steps]
    return len(ranks) and 1 + sum(b < a for a, b in zip(ranks, ranks[1:]))


def test_closure_matches_rescan_oracle():
    # against a rescan to a fixpoint and the scan oracle's carried-count
    # closure: the same closure, one step per added r-set, and a replay.
    # r = 1, r = 0, k = r, k > n and (3, 6) up to n = 12; then a relabeled
    # 20-vertex path, which the passes close only in three that add.
    rng = random.Random(5)
    shapes = [(7, 3, 6), (8, 3, 6), (7, 3, 5), (7, 2, 4), (8, 1, 3), (6, 1, 1), (6, 0, 2)]
    shapes += [(6, 0, 0), (7, 2, 2), (6, 3, 3), (5, 3, 6), (4, 2, 6), *((n, 3, 6) for n in range(6, 13))]

    def check(h, k):
        result = weak_saturation_closure(h, k)
        assert set(result.closure.edge_list()) == rescan_closure(h, k)
        added = result.closure.edge_count - h.edge_count
        assert len(result.certificate.steps) == added
        assert verify_certificate(result.certificate)
        n, r, oracle_steps = h.n, h.r, []
        kmasks, containing = _kmasks(n, r, k), _containing(n, r, k)
        closed = _close_mask(h.edges, kmasks, containing, comb(k, r) - 1, oracle_steps)
        assert closed == result.closure.edges and len(oracle_steps) == added
        return result

    for n, r, k in shapes:
        for _ in range(10):
            size = comb(n, r)
            check(random_hypergraph(n, r, rng.randint(size // 2, size - 1), rng), k)
    perm = list(range(20))
    random.Random(0).shuffle(perm)
    path = UniformHypergraph.from_edges(20, 2, ((perm[v], perm[v + 1]) for v in range(19)))
    result = check(path, 3)
    assert result.closure.is_complete()
    assert adding_passes(result.certificate) == 3


@given(st.integers(0, 2**35 - 1), st.integers(0, 2**35 - 1))
@settings(max_examples=40)
def test_closure_monotone(bits_a, bits_b):
    a = UniformHypergraph(7, 3, bits_a)
    b = UniformHypergraph(7, 3, bits_a | bits_b)
    ca = weak_saturation_closure(a, 6).closure.edges
    cb = weak_saturation_closure(b, 6).closure.edges
    assert ca & cb == ca


@given(st.integers(0, 2**35 - 1))
@settings(max_examples=40)
def test_closure_idempotent(bits):
    h = UniformHypergraph(7, 3, bits)
    once = weak_saturation_closure(h, 6).closure
    twice = weak_saturation_closure(once, 6).closure
    assert twice.edges == once.edges


@given(st.integers(0, 2**35 - 1))
@settings(max_examples=40)
def test_closure_is_a_fixed_point(bits):
    # no 6-subset of the closure holds exactly all-but-one of its triples
    closure = weak_saturation_closure(UniformHypergraph(7, 3, bits), 6).closure
    for six in combinations(range(7), 6):
        present = sum(closure.has_edge(t) for t in combinations(six, 3))
        assert present != comb(6, 3) - 1


@given(st.integers(0, 2**35 - 1), st.integers(0, 34))
@settings(max_examples=40)
def test_saturation_survives_adding_edges(bits, extra_edge):
    h = UniformHypergraph(7, 3, bits)
    if not is_weakly_saturated(h, 6):
        return
    grown = UniformHypergraph(7, 3, bits | 1 << extra_edge)
    assert is_weakly_saturated(grown, 6)


# --- exhaustive enumeration --------------------------------------------------------


def test_all_19_edge_sets_on_six_saturate():
    assert exhaustive_size_check(6, 3, 6, 19) is None


def test_some_18_edge_set_on_six_fails():
    found = exhaustive_size_check(6, 3, 6, 18)
    assert found is not None
    assert found.edge_count == 18
    assert not is_weakly_saturated(found, 6)


def test_all_33_edge_sets_on_seven_saturate():
    assert exhaustive_size_check(7, 3, 6, 33) is None


def test_some_32_edge_set_on_seven_fails():
    found = exhaustive_size_check(7, 3, 6, 32)
    assert found is not None
    assert not is_weakly_saturated(found, 6)


def test_all_53_edge_sets_on_eight_saturate():
    # the paper's bound C(n,3) - n + 5 at n = 8, and one fewer fails
    assert exhaustive_size_check(8, 3, 6, comb(8, 3) - 8 + 5) is None
    found = exhaustive_size_check(8, 3, 6, 52)
    assert found.edge_count == 52 and not is_weakly_saturated(found, 6)


def test_all_80_edge_sets_on_nine_saturate():
    # C(9,3) - 9 + 5 = 80: all C(84, 4) = 1,929,501 families of 4 non-edges
    assert exhaustive_size_check(9, 3, 6, 80, budget=2_000_000) is None


def test_all_115_edge_sets_on_ten_saturate():
    # C(10,3) - 10 + 5 = 115: all C(120, 5) = 190,578,024 families of 5 non-edges
    assert exhaustive_size_check(10, 3, 6, 115, budget=2 * 10**8) is None


def test_some_114_edge_set_on_ten_fails():
    # the sunflower's complement, the colex-first of the C(120, 6) families
    # of 6 non-edges that fails
    found = exhaustive_size_check(10, 3, 6, 114, budget=4 * 10**9)
    non_edges = [t for t in range(120) if not found.edges >> t & 1]
    assert rank(non_edges, 120) == 1_638_878
    assert found.edge_count == 114 and not is_weakly_saturated(found, 6)


def test_found_counterexample_is_deterministic():
    a = exhaustive_size_check(6, 3, 6, 18)
    b = exhaustive_size_check(6, 3, 6, 18)
    assert a.edges == b.edges


def test_pair_bound_r2_k4():
    # pair version of the size bound: C(6,2) - 6 + 3 = 12
    assert exhaustive_size_check(6, 2, 4, 12) is None
    assert exhaustive_size_check(6, 2, 4, 11) is not None


def test_budget_exceeded_reports_requirement():
    # the sunflower check looks up |S| * C(n-3, 3) 6-sets: 50 * C(51, 3) at n = 54
    bound = comb(54, 3) - 54 + 5
    with pytest.raises(BudgetExceeded) as err:
        exhaustive_size_check(54, 3, 6, bound - 1)
    assert err.value.required == 1_041_250
    assert "closed-complement lookups" in str(err.value)
    assert exhaustive_size_check(54, 3, 6, bound) is None  # the induction looks nothing up
    with pytest.raises(BudgetExceeded) as err:
        exhaustive_size_check(8, 3, 6, 28, budget=10)
    assert err.value.required == 4 * comb(5, 3)


def test_parallel_scan_matches_sequential():
    seq = exhaustive_size_check(6, 3, 6, 18, jobs=1)
    par = exhaustive_size_check(6, 3, 6, 18, jobs=2)
    assert seq.edges == par.edges


def test_parallel_scan_takes_the_least_hit_over_chunks():
    # At 16 of the 20 triples the first unsaturated family removes rank 10,
    # past the 70 candidates whose removed ranks are all at most 7; the
    # class pass, which fixes ranks 0 and 1 first, returns the colex walk's
    # hit.
    hit = _scan_all(6, 3, 4, 16, DEFAULT_BUDGET, False)
    assert (full_edge_mask(6, 3) ^ hit).bit_length() - 1 == 10
    assert hit == _scan_tops(6, 3, 4, 4, True, range(3, 20), False, ())


@pytest.mark.parametrize("n, size", [(8, 52), (7, 32)])
def test_jobs_two_finds_the_counterexample_of_jobs_one(n, size):
    seq = exhaustive_size_check(n, 3, 6, size, jobs=1)
    assert exhaustive_size_check(n, 3, 6, size, jobs=2).edges == seq.edges


def test_parallel_scan_without_a_hit():
    # with no counterexample the relabeling classes decide, in process
    assert exhaustive_size_check(6, 2, 4, 12, jobs=2) is None
    assert exhaustive_size_check(8, 3, 6, 53, jobs=2) is None


def enumerated(n, r, k, size):
    """Every size-edge family as (largest chosen rank, mask, saturated),
    closed with fresh counts, in colex order of the chosen ranks (the
    complement's, when that is smaller)."""
    kmasks, containing = _kmasks(n, r, k), _containing(n, r, k)
    n_ranks, full = comb(n, r), full_edge_mask(n, r)
    by_complement = n_ranks - size < size
    chosen = combinations(range(n_ranks), n_ranks - size if by_complement else size)
    for ranks in sorted(chosen, key=lambda s: s[::-1]):
        mask = sum(1 << t for t in ranks) ^ (full if by_complement else 0)
        saturated = _close_mask(mask, kmasks, containing, comb(k, r) - 1) == full
        yield ranks[-1] if ranks else None, mask, saturated


def enumeration_oracle(n, r, k, size):
    """The first mask of each saturation verdict, keyed by it."""
    first = {}
    for _, mask, saturated in enumerated(n, r, k, size):
        first.setdefault(saturated, mask)
        if len(first) == 2:
            break
    return first


@pytest.mark.parametrize(
    "limit", [pytest.param(20000, id="small"), pytest.param(None, id="all", marks=pytest.mark.slow)]
)
@pytest.mark.parametrize(
    "n, r, k", [(4, 2, 3), (5, 2, 3), (6, 2, 4), (6, 3, 5), (6, 3, 4), (7, 2, 5), (6, 3, 6), (7, 3, 6)]
)
def test_scan_matches_enumeration_oracle(n, r, k, limit):
    # a hit exactly when the oracle has one, of the size and the verdict
    # wanted, for every size whose scan has at most `limit` candidates (the
    # default budget, for all), both verdicts
    n_ranks = comb(n, r)
    for size in range(n_ranks + 1):
        if comb(n_ranks, min(size, n_ranks - size)) > (limit or DEFAULT_BUDGET):
            continue
        first = enumeration_oracle(n, r, k, size)
        for want in (False, True):
            hit = _scan_all(n, r, k, size, DEFAULT_BUDGET, want)
            assert (hit is None) == (want not in first), (n, r, k, size, want)
            if hit is not None:
                h = UniformHypergraph(n, r, hit)
                assert h.edge_count == size and is_weakly_saturated(h, k) == want


@pytest.mark.parametrize(
    "n, r, k", [(4, 2, 3), (5, 2, 3), (6, 2, 4), (6, 3, 5), (6, 3, 4), (7, 2, 5), (6, 3, 6), (7, 3, 6)]
)
def test_size_check_matches_enumeration_oracle(n, r, k):
    # an unsaturated family of the size exactly when the enumeration has
    # one, for every size with at most 20,000 candidates, and one edge
    # below the bound the scan's family wherever the default budget admits
    n_ranks = comb(n, r)
    below = n_ranks - n + k - 2
    for size in range(n_ranks + 1):
        if comb(n_ranks, min(size, n_ranks - size)) > 20000:
            continue
        expected = enumeration_oracle(n, r, k, size).get(False)
        found = exhaustive_size_check(n, r, k, size)
        assert (found is None) == (expected is None), (n, r, k, size)
        if found is not None:
            assert found.edge_count == size and not is_weakly_saturated(found, k), (n, r, k, size)
    if comb(n_ranks, min(below, n_ranks - below)) <= DEFAULT_BUDGET:
        scanned = _scan_all(n, r, k, below, DEFAULT_BUDGET, False)
        assert exhaustive_size_check(n, r, k, below).edges == scanned, (n, r, k)


@pytest.mark.parametrize(
    "n_max, limit, sizes",
    [pytest.param(8, 20000, 223, id="small"), pytest.param(9, 300000, 400, id="all", marks=pytest.mark.slow)],
)
def test_size_check_agrees_with_the_colex_walk(n_max, limit, sizes):
    # The size check finds an unsaturated family exactly when the colex
    # walk does, on every shape 4 <= n <= n_max, r in (2, 3), r < k <= n
    # and every size with at most `limit` candidates; `sizes` of them have
    # one.  One edge below the bound it is the colex-first.
    hits = 0
    for n in range(4, n_max + 1):
        for r in (2, 3):
            n_ranks = comb(n, r)
            for k in range(r + 1, n + 1):
                for size in range(n_ranks + 1):
                    by_complement = n_ranks - size < size
                    c = n_ranks - size if by_complement else size
                    if comb(n_ranks, c) > limit:
                        continue
                    found = exhaustive_size_check(n, r, k, size, budget=limit)
                    colex = _scan_tops(n, r, k, c, by_complement, range(c - 1, n_ranks), False, ())
                    assert (found is None) == (colex is None), (n, r, k, size)
                    if found is not None:
                        assert found.edge_count == size and not is_weakly_saturated(found, k)
                        if size == n_ranks - n + k - 2:
                            assert found.edges == colex, (n, r, k, size)
                    hits += colex is not None
    assert hits == sizes


def test_size_check_gives_the_scans_family_at_both_theorem2_sizes():
    # At the bound and one edge below, on every shape n <= 9 whose bound
    # lies in 1..C(n, r) and whose scans the default budget admits, the
    # answer is the class scan's: None, then the same family.
    shapes = 0
    for n in range(10):
        for r in range(n + 1):
            n_ranks = comb(n, r)
            for k in range(r, n + 3):
                bound = n_ranks - n + k - 1
                if not 1 <= bound <= n_ranks:
                    continue
                if comb(n_ranks, min(bound - 1, n_ranks - bound + 1)) > DEFAULT_BUDGET:
                    continue
                for size in (bound, bound - 1):
                    found = exhaustive_size_check(n, r, k, size)
                    scanned = _scan_all(n, r, k, size, DEFAULT_BUDGET, False)
                    assert (None if found is None else found.edges) == scanned, (n, r, k, size)
                shapes += 1
    assert shapes == 176


def test_scan_of_each_top_matches_enumeration_oracle():
    # A scan of one top rank x must give the first hit among the families
    # whose largest chosen rank is x, so a leaf skipped or a prefix given
    # up wrongly shows even where an earlier top hits first.  Every shape
    # r < k <= n <= 8 (at k = r every family saturates in one round), every
    # size with at most 6,000 candidates.
    for n in range(2, 9):
        for r in range(1, n):
            n_ranks = comb(n, r)
            for k in range(r + 1, n + 1):
                for size in range(1, n_ranks):
                    c = min(size, n_ranks - size)
                    if comb(n_ranks, c) > 6000:
                        continue
                    first = {}
                    for top, mask, saturated in enumerated(n, r, k, size):
                        first.setdefault((top, saturated), mask)
                    by_complement = n_ranks - size < size
                    for top in range(c - 1, n_ranks):
                        for want in (False, True):
                            args = (n, r, k, c, by_complement, [top], want, ())
                            assert _scan_tops(*args) == first.get((top, want)), (n, r, k, size, top, want)


def counting_closures(monkeypatch, module, name="_close_mask"):
    """The list that each call of `module`'s closure `name` appends to."""
    calls, closure = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return closure(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_closure_bound_scan_skips_leaves_that_close_like_their_prefix(monkeypatch):
    # Every 53-edge family on 8 points saturates.  Closing each of the
    # 27,720 candidates took 27,720 closures; deciding a leaf whose
    # removed triple comes straight back from its prefix family's
    # closure leaves 1,485 in the colex walk over every family.
    import scan_oracle

    calls = counting_closures(monkeypatch, scan_oracle)
    assert _scan_tops(8, 3, 6, 3, True, range(2, 56), False, ()) is None
    assert len(calls) <= 2000


def test_size_bound_closes_only_the_relabeling_classes(monkeypatch):
    # The size check answers from the induction and the sunflower check and
    # closes nothing.  The class scan closes few: the full scans ran 1,485
    # and 91,881 closures.
    import scan_oracle
    from linesat import saturation

    closed = counting_closures(monkeypatch, saturation, "_close")
    scanned = counting_closures(monkeypatch, scan_oracle)
    for size in (53, 52):
        exhaustive_size_check(8, 3, 6, size)
    exhaustive_size_check(9, 3, 6, 80, budget=2_000_000)
    assert closed == []
    assert _scan_all(8, 3, 6, 53, DEFAULT_BUDGET, False) is None
    assert len(scanned) <= 10
    scanned.clear()
    assert _scan_all(9, 3, 6, 80, 2_000_000, False) is None
    assert len(scanned) <= 300


def test_every_rank_set_relabels_into_a_scanned_class():
    # The claim behind the min-sat scan, checked without closures: every
    # c-set of r-subsets has an image under S_n inside one of the classes,
    # i.e. its least ranks are a class's fixed ranks.  Orbits are walked
    # with the generators (0 1) and (0 1 ... n-1) of S_n.
    for n in range(2, 7):
        for r in range(n + 1):
            n_ranks = comb(n, r)
            subsets = [unrank(t, n, r) for t in range(n_ranks)]
            gens = [
                [rank([p[v] for v in s], n) for s in subsets]
                for p in ((1, 0, *range(2, n)), (*range(1, n), 0))
            ]
            for c in range(n_ranks + 1):
                if comb(n_ranks, c) > 20000:
                    continue
                heads = {fixed for fixed, _ in _classes(n, r, c)}
                unseen = {sum(1 << t for t in chosen) for chosen in combinations(range(n_ranks), c)}
                while unseen:
                    stack, hit = [unseen.pop()], False
                    while stack:
                        mask = stack.pop()
                        ranks = [t for t in range(n_ranks) if mask >> t & 1]
                        hit = hit or any(tuple(ranks[: len(h)]) == h for h in heads)
                        for g in gens:
                            image = sum(1 << g[t] for t in ranks)
                            if image in unseen:
                                unseen.discard(image)
                                stack.append(image)
                    assert hit, (n, r, c, ranks)


@pytest.mark.parametrize(
    "limit", [pytest.param(20000, id="small"), pytest.param(None, id="all", marks=pytest.mark.slow)]
)
def test_scan_up_to_relabeling_matches_full_scan(limit):
    # existence of a saturated family (and of an unsaturated one, which
    # relabeling keeps too) against the colex walk over every family, every
    # shape r < k <= n <= 7 and every size with at most `limit` candidates
    # (the default budget, for all)
    for n in range(2, 8):
        for r in range(1, n):
            n_ranks = comb(n, r)
            for k in range(r + 1, n + 1):
                for size in range(n_ranks + 1):
                    by_complement = n_ranks - size < size
                    c = n_ranks - size if by_complement else size
                    if comb(n_ranks, c) > (limit or DEFAULT_BUDGET):
                        continue
                    for want in (True, False):
                        full = _scan_tops(n, r, k, c, by_complement, range(c - 1, n_ranks), want, ())
                        reduced = _scan_all(n, r, k, size, DEFAULT_BUDGET, want)
                        assert (reduced is None) == (full is None), (n, r, k, size, want)
                        if reduced is not None:
                            h = UniformHypergraph(n, r, reduced)
                            assert h.edge_count == size and is_weakly_saturated(h, k) == want


def test_scan_of_each_class_top_matches_enumeration_oracle():
    # Under a class's fixed ranks the walk must visit exactly the class:
    # a scan of one of its tops gives the first hit among the families
    # whose least chosen ranks are the fixed ones and whose largest is
    # that top.  Every shape r < k <= n <= 7, every size with at most
    # 6,000 candidates.
    for n in range(2, 8):
        for r in range(1, n):
            n_ranks, full = comb(n, r), full_edge_mask(n, r)
            for k in range(r + 1, n + 1):
                for size in range(n_ranks + 1):
                    c = min(size, n_ranks - size)
                    if comb(n_ranks, c) > 6000:
                        continue
                    by_complement = n_ranks - size < size
                    families = list(enumerated(n, r, k, size))
                    for fixed, w in _classes(n, r, c):
                        first = {}
                        for top, mask, saturated in families:
                            chosen = mask ^ (full if by_complement else 0)
                            least = [t for t in range(n_ranks) if chosen >> t & 1][: len(fixed)]
                            if least == list(fixed):
                                first.setdefault((top if w else None, saturated), mask)
                        low = fixed[-1] + 1 if fixed else 0
                        for top in range(low + w - 1, n_ranks) if w else [None]:
                            for want in (False, True):
                                args = (n, r, k, w, by_complement, [top], want, fixed)
                                assert _scan_tops(*args) == first.get((top, want)), (n, r, k, size, fixed, top)


@pytest.mark.parametrize(
    "n, r, k, size, want, jobs2", [(7, 3, 6, 30, True, True), (8, 3, 6, 53, False, False)]
)
def test_fruitless_parallel_scan_takes_each_top_once(monkeypatch, n, r, k, size, want, jobs2):
    # With nothing to find, the oracle scans each class's tops once: no
    # 30-edge family saturates at (7,3,6), a size min-sat settles by its
    # rank certificate, and no 53-edge family at (8,3,6) fails, a size the
    # size check settles by its induction, with no closure at jobs=1 or 2.
    # Only the scans of `size` itself, whose candidates hold c ranks, are
    # compared.
    import scan_oracle
    from linesat import saturation

    scanned = []

    def spied(*args):
        scanned.append(args)
        return _scan_tops(*args)

    monkeypatch.setattr(scan_oracle, "_scan_tops", spied)
    assert _scan_all(n, r, k, size, DEFAULT_BUDGET, want) is None
    if not want:
        closed = counting_closures(monkeypatch, saturation, "_close")
        assert exhaustive_size_check(n, r, k, size, jobs=2 if jobs2 else 1) is None
        assert closed == []
    n_ranks = comb(n, r)
    c = min(size, n_ranks - size)
    tops = [(args[7], args[3], list(args[5])) for args in scanned if len(args[7]) + args[3] == c]
    assert tops == [(fixed, w, list(range(fixed[-1] + w, n_ranks))) for fixed, w in _classes(n, r, c)]


def test_min_saturation_at_seven_scans_one_class_per_overlap(monkeypatch):
    # both sides are certified, so no size is scanned and no closure runs
    from linesat import saturation

    calls = counting_closures(monkeypatch, saturation, "_close")
    assert min_saturation_search(7, 3, 6) == 31
    assert len(calls) == 0


def test_min_saturation_budget_counts_every_candidate():
    # the budget counts the replay's subset lookups, C(n-3, 3) * C(6, 3):
    # 958,100 at n = 70 are admitted, 1,002,320 at n = 71 are not
    assert min_saturation_search(70, 3, 6) == 3 * comb(68, 2) + 1
    with pytest.raises(BudgetExceeded) as err:
        min_saturation_search(71, 3, 6)
    assert err.value.required == 1_002_320


@pytest.mark.parametrize("n, r, k", [(7, 3, 6), (6, 2, 4), (6, 3, 5)])
def test_min_saturation_at_jobs_two_scans_each_size_once(n, r, k):
    # `jobs` is accepted and changes nothing
    assert min_saturation_search(n, r, k, jobs=2) == min_saturation_search(n, r, k, jobs=1)


def test_star_certificate_replays_from_the_star_family():
    for n in range(5, 27):
        cert = _star_certificate(n, 3, 6)
        assert cert.base == star_construction(n)
        assert _replays_to_complete(cert)


def _wrong_witness(cert):
    # the first step's 6-set swaps one vertex of K for one outside K + T
    (t, s), *rest = cert.steps
    outside = next(v for v in range(cert.base.n) if v not in s)
    return ClosureCertificate(cert.base, cert.k, ((t, (*s[1:], outside)), *rest))


def _missing_edge(cert):
    h = cert.base
    return ClosureCertificate(UniformHypergraph(h.n, h.r, h.edges & ~1), cert.k, cert.steps)


def _missing_step(cert):
    # replays, but leaves the last triple avoiding K out
    return ClosureCertificate(cert.base, cert.k, cert.steps[:-1])


@pytest.mark.parametrize(
    "mutate", [_wrong_witness, _missing_edge, _missing_step],
    ids=["wrong-witness", "missing-edge", "missing-step"],
)
def test_mutant_star_certificates_make_min_sat_raise(monkeypatch, capsys, mutate):
    from linesat import saturation
    from linesat.cli import main

    mutant = mutate(_star_certificate(8, 3, 6))
    assert verify_certificate(mutant) == (mutate is _missing_step)
    assert not _replays_to_complete(mutant)
    monkeypatch.setattr(saturation, "_star_certificate", lambda n, r, k: mutant)
    with pytest.raises(InternalConsistencyError):
        min_saturation_search(8, 3, 6)
    assert main(["sweep", "min-sat", "--n", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the star certificate at n=8 r=3 k=6 does not replay\n"


@pytest.mark.parametrize("n, r, k", [(7, 3, 6), (8, 3, 6), (7, 2, 4), (6, 3, 4)])
def test_close_mask_with_given_counts(n, r, k):
    kmasks, containing = _kmasks(n, r, k), _containing(n, r, k)
    threshold = comb(k, r) - 1
    rng = random.Random(13)
    for _ in range(30):
        mask = random_hypergraph(n, r, rng.randint(0, comb(n, r)), rng).edges
        counts = [(mask & km).bit_count() for km in kmasks]
        fresh, given = [], []
        closed = _close_mask(mask, kmasks, containing, threshold, fresh)
        assert _close_mask(mask, kmasks, containing, threshold, given, counts) == closed
        assert given == fresh
        assert counts == [(closed & km).bit_count() for km in kmasks]


def test_close_mask_returns_at_once_below_the_threshold():
    kmasks, containing = _kmasks(7, 3, 6), _containing(7, 3, 6)
    mask = star_construction(7).edges & ~1  # 30 triples, none of them (0,1,2)
    counts = [(mask & km).bit_count() for km in kmasks]
    assert 19 not in counts
    steps, before = [], list(counts)
    assert _close_mask(mask, kmasks, containing, 19, steps, counts) == mask
    assert steps == [] and counts == before


# --- minimum saturated size ----------------------------------------------------------


def test_min_saturation_at_six_is_19():
    assert min_saturation_search(6, 3, 6) == 19


@pytest.mark.parametrize("n", [6, 7, 9])
def test_min_saturation_is_zero_where_the_empty_family_saturates(n):
    # at k = r each r-set is a k-set missing only itself; the walk down from
    # C(n, r) ran over the budget at mid sizes for n = 7
    assert min_saturation_search(n, 3, 3) == 0


def test_min_saturation_at_five_is_complete():
    # k = 6 exceeds n = 5, so no closure step ever fires and only the
    # complete hypergraph is saturated
    assert min_saturation_search(5, 3, 6) == 10


def test_min_saturation_at_seven_is_31():
    assert min_saturation_search(7, 3, 6) == 31


def test_min_saturation_is_the_paper_bound_up_to_forty():
    # 3 * C(n-2, 2) + 1 suitably placed degenerate triangles
    for n in range(8, 41):
        assert min_saturation_search(n, 3, 6) == 3 * comb(n - 2, 2) + 1


@pytest.mark.parametrize("n, r, k, m", [(53, 2, 53, 1377), (40, 39, 40, 39)])
def test_min_saturation_answers_past_the_scans(n, r, k, m):
    assert min_saturation_search(n, r, k) == m == comb(n, r) - comb(n - k + r, r)


@pytest.mark.parametrize(
    "n, r, k",
    [(5, 3, 6), (6, 3, 6), (6, 2, 4), (5, 2, 3), (6, 2, 3), (5, 3, 4), (6, 3, 5),
     (5, 1, 2), (6, 4, 5), (6, 2, 5)],
)
def test_min_saturation_matches_closed_form(n, r, k):
    # wsat(n, K_k^r) = C(n, r) - C(n - k + r, r) (Frankl 1982; Kalai 1985);
    # (7, 3, 6) is the test above
    assert min_saturation_search(n, r, k) == comb(n, r) - comb(n - k + r, r)


# --- performance contract --------------------------------------------------------------


def test_closure_on_twelve_vertices_under_a_second():
    rng = random.Random(3)
    h = random_hypergraph(12, 3, 200, rng)
    start = time.perf_counter()
    weak_saturation_closure(h, 6)
    assert time.perf_counter() - start < 1.0


def test_jobs_beyond_the_cpus_are_refused(capsys):
    from linesat.cli import main

    with pytest.raises(OutOfRange):
        exhaustive_size_check(8, 3, 6, 52, jobs=10**9)
    with pytest.raises(OutOfRange):
        exhaustive_size_check(8, 3, 6, 53, jobs=10**9)  # at the bound, with nothing to find
    with pytest.raises(OutOfRange):
        min_saturation_search(7, 3, 6, jobs=10**9)
    with pytest.raises(SystemExit) as exit_:  # `sweep` has no --jobs
        main(["sweep", "theorem2", "--n", "8", "--jobs", "5000"])
    assert exit_.value.code == 2 and capsys.readouterr().out == ""


def test_negative_shapes_are_refused_before_any_binomial():
    # math.comb raised a bare ValueError naming neither n nor r
    with pytest.raises(OutOfRange, match="n=-1 and r=3 must be non-negative"):
        min_saturation_search(-1, 3, 3)
    with pytest.raises(OutOfRange, match="n=6 and r=-1 must be non-negative"):
        exhaustive_size_check(6, -1, 3, 4)
    assert min_saturation_search(2, 3, 6) == 0  # n < r is no error


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_are_refused(jobs):
    with pytest.raises(OutOfRange):
        exhaustive_size_check(6, 3, 6, 18, jobs=jobs)
    with pytest.raises(OutOfRange):
        exhaustive_size_check(6, 2, 4, 12, jobs=jobs)
    with pytest.raises(OutOfRange):
        min_saturation_search(5, 3, 6, jobs=jobs)
