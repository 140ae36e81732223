import os
import pickle
import random
import subprocess
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import linesat
from linesat.errors import OutOfRange, TooFewVertices
from linesat.hypergraph import (
    UniformHypergraph,
    _meeting_mask,
    colex_combinations,
    complement,
    complete_hypergraph,
    delete_vertex,
    rank,
    star_construction,
    unrank,
)
from linesat.metric import DistanceMatrix, Graph, degenerate_hypergraph, graph_metric, theta_graph
from linesat.realizability import RealizabilityVerdict, is_metric_hypergraph
from linesat.saturation import weak_saturation_closure


# --- colex ranking ------------------------------------------------------------


def test_rank_minimum():
    for n in range(3, 10):
        assert rank((0, 1, 2), n) == 0


def test_rank_maximum():
    for n in range(3, 10):
        assert rank((n - 3, n - 2, n - 1), n) == comb(n, 3) - 1


def test_roundtrip_all_triples_of_eight():
    for k in range(comb(8, 3)):
        assert rank(unrank(k, 8, 3), 8) == k


def test_roundtrip_exhaustive_small():
    # bijection for every n <= 16 at r in {2, 3}
    for n in range(2, 17):
        for r in (2, 3):
            if r > n:
                continue
            seen = set()
            for subset in combinations(range(n), r):
                k = rank(subset, n)
                assert 0 <= k < comb(n, r)
                assert unrank(k, n, r) == subset
                seen.add(k)
            assert len(seen) == comb(n, r)


def test_colex_combinations_order_matches_rank():
    # (9, 8) and (9, 9) carry up to the top entry; r = 0 gives (), r > n nothing
    for n, r in ((6, 3), (7, 2), (5, 4), (9, 8), (9, 9), (9, 0), (3, 5)):
        listed = list(colex_combinations(n, r))
        assert listed == [unrank(k, n, r) for k in range(comb(n, r))]


@pytest.mark.parametrize("n, r", [(3, -1), (-2, -3), (-2, 0), (2, 3)])
def test_shapes_outside_zero_to_n_are_out_of_range(n, r):
    # math.comb raised a bare ValueError for the negative ones
    with pytest.raises(OutOfRange):
        UniformHypergraph(n, r, 0)


def test_rank_rejects_bad_subsets():
    with pytest.raises(OutOfRange):
        rank((0, 0, 1), 6)
    with pytest.raises(OutOfRange):
        rank((0, 1, 6), 6)
    with pytest.raises(OutOfRange):
        unrank(comb(6, 3), 6, 3)


@given(st.integers(3, 16), st.data())
def test_rank_unrank_random(n, data):
    r = data.draw(st.sampled_from([2, 3]))
    k = data.draw(st.integers(0, comb(n, r) - 1))
    assert rank(unrank(k, n, r), n) == k


# --- hypergraph container -------------------------------------------------------


def test_from_edges_and_membership():
    h = UniformHypergraph.from_edges(5, 3, [(0, 1, 2), (2, 3, 4)])
    assert h.edge_count == 2
    assert h.has_edge((2, 3, 4))
    assert not h.has_edge((0, 1, 3))
    assert h.edge_list() == [(0, 1, 2), (2, 3, 4)]


def unrank_edges(h):
    return [unrank(t, h.n, h.r) for t in range(comb(h.n, h.r)) if h.edges >> t & 1]


def test_edge_list_matches_unrank_on_random_masks():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(0, 12)
        r = rng.randint(0, n)
        h = UniformHypergraph(n, r, rng.getrandbits(comb(n, r)) & rng.getrandbits(comb(n, r)))
        assert h.edge_list() == unrank_edges(h)


def test_edge_list_matches_unrank_at_eighty_vertices():
    rng = random.Random(6)
    width = comb(80, 3)
    sparse = sum(1 << t for t in rng.sample(range(width), 50)) | (1 << (width - 1))
    dense = ((1 << width) - 1) ^ sum(1 << t for t in rng.sample(range(width), 50))
    for mask in (0, 1, sparse, dense):
        h = UniformHypergraph(80, 3, mask)
        assert h.edge_list() == unrank_edges(h)


def test_edges_decoded_in_colex_order():
    h = star_construction(6)
    ranks = [rank(e, 6) for e in h.edge_list()]
    assert ranks == sorted(ranks)


def test_complement_of_complete_is_empty():
    assert complement(complete_hypergraph(6, 3)).edge_count == 0


def test_complement_of_star_six():
    c = complement(star_construction(6))
    assert c.edge_list() == [(3, 4, 5)]


@given(st.integers(5, 9), st.integers(0, 2**40))
def test_complement_counts(n, bits):
    h = UniformHypergraph(n, 3, bits % (1 << comb(n, 3)))
    assert h.edge_count + complement(h).edge_count == comb(n, 3)


@st.composite
def _rank_sets(draw):
    """n, and ranks of C(n, 3) with the empty set, rank 0, the top rank
    and repeats all likely."""
    n = draw(st.integers(3, 12))
    top = comb(n, 3) - 1
    rank_ = st.sampled_from([0, top]) | st.integers(0, top)
    return n, draw(st.lists(rank_, max_size=3 * n))


@given(_rank_sets(), st.randoms(use_true_random=False))
@example((3, []), random.Random(0))
@example((9, [0, 83, 0, 83, 5]), random.Random(1))
def test_from_edges_matches_or_ing_one_bit_at_a_time(case, rng):
    n, ranks = case
    mask = 0
    for t in ranks:
        mask |= 1 << t
    edges = [rng.sample(unrank(t, n, 3), 3) for t in ranks]  # vertices shuffled
    h = UniformHypergraph.from_edges(n, 3, edges)
    assert h.edges == mask and h.edge_count == len(set(ranks))


def test_delete_vertex_relabels():
    h = UniformHypergraph.from_edges(5, 3, [(0, 1, 4), (1, 2, 3), (2, 3, 4)])
    assert delete_vertex(h, 1).edge_list() == [(1, 2, 3)]
    assert delete_vertex(h, 0).edge_list() == [(0, 1, 2), (1, 2, 3)]


# --- value records ------------------------------------------------------------------


def test_records_equal_only_records_of_their_type():
    h = UniformHypergraph(5, 3, 7)
    assert h == UniformHypergraph(5, 3, 7) and h != UniformHypergraph(5, 3, 6)
    assert h != (5, 3, 7) and h.__eq__((5, 3, 7)) is NotImplemented
    assert Graph(3, frozenset()) != (3, frozenset())
    # same field count and values, different record types
    assert Graph(3, ()) != DistanceMatrix(3, ())


def test_equal_records_hash_equal():
    d = graph_metric(theta_graph(6))
    assert hash(star_construction(7)) == hash(star_construction(7))
    assert hash(d) == hash(graph_metric(theta_graph(6)))
    assert len({star_construction(7), star_construction(7), complement(star_construction(7))}) == 2


def test_record_fields_cannot_be_assigned():
    h = star_construction(6)
    with pytest.raises(AttributeError):
        h.n = 7
    with pytest.raises(AttributeError):
        del h.edges
    with pytest.raises(AttributeError):
        h.label = "star"
    assert h == star_construction(6)


def test_wrong_field_count_is_a_type_error():
    with pytest.raises(TypeError):
        UniformHypergraph(5, 3)
    with pytest.raises(TypeError):
        Graph()
    with pytest.raises(TypeError):
        Graph(3, frozenset(), 0)
    with pytest.raises(TypeError):
        RealizabilityVerdict("metric", None)


@pytest.mark.parametrize("n, r, edges", [(2, 3, 0), (4, 3, 1 << 4), (4, 3, -1)])
def test_hypergraph_rejects_bad_shape_or_mask(n, r, edges):
    with pytest.raises(OutOfRange):
        UniformHypergraph(n, r, edges)


def test_record_repr_is_pinned():
    assert repr(star_construction(6)) == "UniformHypergraph(n=6, r=3, edges=524287)"


def test_records_pickle_round_trip():
    result = weak_saturation_closure(star_construction(7), 6)
    h = degenerate_hypergraph(graph_metric(theta_graph(6)))
    verdict = is_metric_hypergraph(h)
    assert verdict.status == "metric" and verdict.witness is not None
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        for record in (result, verdict):
            back = pickle.loads(pickle.dumps(record, protocol))
            assert back == record and type(back) is type(record)


# --- star construction ------------------------------------------------------------


def test_star_sizes_match_closed_form():
    for n in range(5, 13):
        star = star_construction(n)
        assert star.edge_count == 3 * comb(n - 2, 2) + 1
        assert star.edge_count == comb(n, 3) - comb(n - 3, 3)


def test_star_six_has_19_edges():
    assert star_construction(6).edge_count == 19


def test_star_five_is_complete():
    assert star_construction(5).is_complete()


def test_star_eight_has_46_edges():
    assert star_construction(8).edge_count == 46


def test_star_edges_all_meet_core():
    core = {0, 1, 2}
    for e in star_construction(7).edge_list():
        assert core.intersection(e)


def test_star_needs_five_vertices():
    with pytest.raises(TooFewVertices):
        star_construction(4)


def _meeting_by_listing(n, r, d):
    """F_K for K = {0..d-1} from every r-set listed and ranked."""
    return UniformHypergraph.from_edges(n, r, (t for t in combinations(range(n), r) if t[0] < d)).edges


def test_star_edges_match_the_listed_triples():
    for n in range(5, 61):
        assert star_construction(n).edges == _meeting_by_listing(n, 3, 3), n


# --- the F_K builder ----------------------------------------------------------------


def test_meeting_mask_matches_the_listed_r_sets():
    shapes = [(n, r, k) for n in range(1, 11) for k in range(1, n + 1) for r in range(1, k + 1)]
    assert len(shapes) == 220
    for n, r, k in shapes:
        assert _meeting_mask(n, r, k - r) == _meeting_by_listing(n, r, k - r), (n, r, k)


@pytest.mark.parametrize("n, r, k", [(40, 39, 40), (53, 2, 53), (60, 58, 59), (1000, 999, 1000)])
def test_meeting_mask_keeps_only_the_levels_that_reach_r(n, r, k):
    # A builder carrying every level up to r would hold masks of C(40, 20)
    # bits at (40, 39, 40); in a child capped at 512 MiB it fails instead
    # of filling the memory, and with the bound each shape takes about 1 ms
    import resource

    cap = 512 << 20
    code = (
        "import time\nfrom linesat.hypergraph import _meeting_mask\n"
        f"start = time.perf_counter()\nmask = _meeting_mask({n}, {r}, {k - r})\n"
        "print(time.perf_counter() - start, hex(mask))"
    )
    src = str(Path(linesat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert done.returncode == 0, done.stderr
    seconds, mask = done.stdout.split()
    assert float(seconds) < 0.05
    assert int(mask, 16) == _meeting_by_listing(n, r, k - r)


# --- theta family -------------------------------------------------------------------


def test_theta_five():
    g = theta_graph(5)
    assert len(g.edges) == 5
    h = degenerate_hypergraph(graph_metric(g))
    assert h.edge_count == 9


def test_theta_six_nondegenerate_pairs():
    h = degenerate_hypergraph(graph_metric(theta_graph(6)))
    assert complement(h).edge_list() == [(0, 1, 4), (0, 1, 5)]


def test_theta_nondegenerate_family():
    # exactly n-4 nondegenerate triples, all {0, 1, i} with i >= 4
    for n in range(5, 11):
        h = degenerate_hypergraph(graph_metric(theta_graph(n)))
        nondeg = complement(h).edge_list()
        assert nondeg == [(0, 1, i) for i in range(4, n)]


def test_theta_nine_count():
    h = degenerate_hypergraph(graph_metric(theta_graph(9)))
    assert comb(9, 3) - h.edge_count == 5


def test_theta_needs_five_vertices():
    with pytest.raises(TooFewVertices):
        theta_graph(4)
