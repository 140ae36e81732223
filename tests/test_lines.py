import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linesat.errors import (
    InternalConsistencyError,
    NotAPermutation,
    SizeMismatch,
    TooFewVertices,
)
from linesat.hypergraph import (
    UniformHypergraph,
    complete_hypergraph,
    star_construction,
)
from linesat.lines import (
    anchor_via_closure,
    check_order,
    reconstruct_line,
    verify_non_anchor_witness,
)
from linesat.metric import (
    DistanceMatrix,
    betweenness,
    degenerate_hypergraph,
    four_cycle_metric,
    graph_metric,
    line_metric,
    middle_of,
    random_rational_metric,
    theta_graph,
    validate_metric,
)


def random_collinear_metric(rng, n):
    coords = rng.sample(range(-50 * n, 50 * n), n)
    denom = rng.randint(1, 7)
    return line_metric([Fraction(c, denom) for c in coords])


def restrict(d, keep):
    rows = tuple(tuple(d.d[i][j] for j in keep) for i in keep)
    return DistanceMatrix(len(keep), rows)


# --- check_order -----------------------------------------------------------------


def test_coordinate_order_passes():
    d = line_metric([0, 1, 3, 7, 12])
    assert check_order(d, (0, 1, 2, 3, 4))


def test_reversed_order_passes():
    d = line_metric([0, 1, 3, 7, 12])
    assert check_order(d, (4, 3, 2, 1, 0))


def test_shuffled_order_fails():
    d = line_metric([0, 1, 3, 7, 12])
    assert not check_order(d, (1, 0, 2, 3, 4))


def test_four_cycle_has_no_valid_order():
    d = four_cycle_metric()
    for perm in permutations(range(4)):
        assert not check_order(d, perm)


def test_check_order_rejects_non_permutation():
    d = line_metric([0, 1, 3])
    with pytest.raises(NotAPermutation):
        check_order(d, (0, 1, 1))


@given(st.integers(3, 7), st.integers(0, 10**6))
@settings(max_examples=50)
def test_check_order_reversal_invariant(n, seed):
    rng = random.Random(seed)
    d = random_collinear_metric(rng, n)
    perm = list(range(n))
    rng.shuffle(perm)
    assert check_order(d, perm) == check_order(d, perm[::-1])


def random_square_matrix(rng, n):
    """A line metric, a small-integer or small-rational matrix (mostly
    asymmetric, with nonzero diagonals), or one whose entries above the
    diagonal in some order are d(p, y) - d(p, x), p first, and the rest
    random: no metric, yet every triple in that order adds up."""
    kind = rng.randrange(4)
    if kind == 0:
        return random_collinear_metric(rng, n)
    rows = [[Fraction(rng.randint(0, 4), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
    if kind == 1:
        rows = [[x.numerator for x in row] for row in rows]
    if kind == 3:
        p, *rest = rng.sample(range(n), n)
        for i, x in enumerate(rest):
            for y in rest[i + 1 :]:
                rows[x][y] = rows[p][y] - rows[p][x]
    return DistanceMatrix.from_rows(rows)


@pytest.mark.parametrize("seed", range(3))
def test_check_order_matches_the_triple_loop(seed):
    # the definition: every position-ordered triple satisfies betweenness
    rng = random.Random(seed)
    verdicts = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        d = random_square_matrix(rng, n)
        found = reconstruct_line(d)
        orders = [rng.sample(range(n), n) for _ in range(4)]
        for order in orders + ([] if found is None else [list(found)]):
            expected = all(betweenness(d, *t) for t in combinations(order, 3))
            assert check_order(d, order) == expected, (d.d, order)
            verdicts.add((expected, n))
    assert {(True, 6), (False, 6)} <= verdicts


# --- reconstruction -----------------------------------------------------------------


def test_reconstructs_collinear_points():
    order = reconstruct_line(line_metric([0, 1, 3, 7, 12]))
    assert order is not None
    assert order in ((0, 1, 2, 3, 4), (4, 3, 2, 1, 0))


def test_four_cycle_not_reconstructible():
    assert reconstruct_line(four_cycle_metric()) is None


def test_theta_metrics_not_reconstructible():
    for n in range(5, 9):
        assert reconstruct_line(graph_metric(theta_graph(n))) is None


def test_tiny_spaces_are_trivially_linear():
    assert reconstruct_line(line_metric([5])) == (0,)
    assert reconstruct_line(line_metric([3, 8])) == (0, 1)


def test_random_collinear_spaces_reconstruct():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(5, 9)
        d = random_collinear_metric(rng, n)
        order = reconstruct_line(d)
        assert order is not None
        assert check_order(d, order)


def test_reconstruction_survives_relabeling():
    rng = random.Random(5)
    base = random_collinear_metric(rng, 7)
    perm = list(range(7))
    rng.shuffle(perm)
    rows = tuple(
        tuple(base.d[perm[i]][perm[j]] for j in range(7)) for i in range(7)
    )
    shuffled = type(base)(7, rows)
    order = reconstruct_line(shuffled)
    assert order is not None and check_order(shuffled, order)


def test_ties_only_disqualify_the_first_point():
    # point 0 sees points 1 and 2 at the same distance, but an order exists
    d = line_metric([0, -1, 1, 2])
    order = reconstruct_line(d)
    assert order is not None
    assert check_order(d, order)


def _first_valid_permutation(d):
    for perm in permutations(range(d.n)):
        if all(betweenness(d, *t) for t in combinations(perm, 3)):
            return perm
    return None


def _order_cases(rng):
    """Shuffled lines, lines whose point 0 is the midpoint of the ends,
    relabeled theta metrics and L1 metrics of grid points, n = 1..6, then
    the four-cycle."""
    for n in range(1, 7):
        for _ in range(15):
            labels = rng.sample(range(n), n)
            yield restrict(random_collinear_metric(rng, n), labels)
            if n >= 3:  # the two ends tie as farthest from point 0
                a = rng.randint(3, 20)
                inner = rng.sample([c for c in range(1 - a, a) if c], n - 3)
                yield line_metric([0, *rng.sample([-a, a, *inner], n - 1)])
            if n >= 5:
                yield restrict(graph_metric(theta_graph(n)), labels)
            grid = rng.sample([(x, y) for x in range(4) for y in range(4)], n)
            yield DistanceMatrix.from_rows(
                [[abs(x - u) + abs(y - v) for u, v in grid] for x, y in grid]
            )
    yield four_cycle_metric()


def test_reconstruction_returns_the_first_valid_permutation():
    # of a line's two orders, the one starting at its lower-index end
    verdicts = set()
    for d in _order_cases(random.Random(11)):
        validate_metric(d)
        order = reconstruct_line(d)
        expected = _first_valid_permutation(d)
        assert order == expected, d.d
        verdicts.add(expected is None)
    assert verdicts == {True, False}


def test_theta_without_a_branch_vertex_reconstructs():
    # dropping one of the two degree-3 vertices removes every nondegenerate
    # triangle, so the remaining space must be a line
    for n in range(6, 10):
        d = graph_metric(theta_graph(n))
        sub = restrict(d, [v for v in range(n) if v != 0])
        assert degenerate_hypergraph(sub).is_complete()
        order = reconstruct_line(sub)
        assert order is not None and check_order(sub, order)


# --- anchors ---------------------------------------------------------------------------


def test_star_family_certifies_as_anchor():
    for n in range(5, 10):
        assert anchor_via_closure(star_construction(n))


def test_any_19_edge_family_on_six_is_an_anchor():
    from linesat.hypergraph import full_edge_mask

    for missing in range(20):
        h = UniformHypergraph(6, 3, full_edge_mask(6, 3) ^ 1 << missing)
        assert anchor_via_closure(h)


def test_theta_degenerate_set_not_certified():
    h = degenerate_hypergraph(graph_metric(theta_graph(6)))
    assert not anchor_via_closure(h)


def test_anchor_needs_five_vertices():
    with pytest.raises(TooFewVertices):
        anchor_via_closure(complete_hypergraph(4, 3))


def test_anchor_edges_inside_line_metric_force_reconstruction():
    # soundness of the certificate on a constructible family: all star
    # edges are degenerate in any collinear metric, and indeed the full
    # space reconstructs
    for n in range(5, 9):
        d = line_metric(range(n))
        star = star_construction(n)
        assert all(
            degenerate_hypergraph(d).has_edge(e) for e in star.edge_list()
        )
        assert reconstruct_line(d) is not None


# --- non-anchor witnesses ------------------------------------------------------------------


def test_theta_witness_accepted():
    for n in range(6, 10):
        d = graph_metric(theta_graph(n))
        h = degenerate_hypergraph(d)
        assert verify_non_anchor_witness(h, d)


def test_four_cycle_witness_accepted():
    d = four_cycle_metric()
    assert verify_non_anchor_witness(complete_hypergraph(4, 3), d)


def test_line_metric_is_not_a_witness():
    d = line_metric([0, 1, 2, 3, 4])
    assert not verify_non_anchor_witness(complete_hypergraph(5, 3), d)


def test_witness_with_nondegenerate_edge_rejected():
    d = graph_metric(theta_graph(6))
    assert not verify_non_anchor_witness(complete_hypergraph(6, 3), d)


def test_witness_size_mismatch():
    with pytest.raises(SizeMismatch):
        verify_non_anchor_witness(complete_hypergraph(5, 3), four_cycle_metric())


@pytest.mark.parametrize("seed", range(12))
def test_witness_check_agrees_with_middle_of(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 9)
    d = rng.choice(
        [
            random_rational_metric(n, seed),
            random_collinear_metric(rng, n),
            graph_metric(theta_graph(max(n, 5))),
        ]
    )
    triples = degenerate_hypergraph(d).edge_list()
    if rng.random() < 0.5:  # maybe one nondegenerate triple among the edges
        triples.append(tuple(sorted(rng.sample(range(d.n), 3))))
    h = UniformHypergraph.from_edges(d.n, 3, rng.sample(triples, rng.randint(0, len(triples))))
    expected = all(middle_of(d, e) is not None for e in h.edge_list())
    assert verify_non_anchor_witness(h, d) == (expected and reconstruct_line(d) is None)


def test_witness_check_raises_only_on_an_edge_with_two_middles():
    # points 0 and 1 coincide, so {0, 1, 2} and {0, 1, 3} each have two middles
    d = DistanceMatrix.from_rows([[0, 0, 1, 2], [0, 0, 1, 2], [1, 1, 0, 1], [2, 2, 1, 0]])
    assert not verify_non_anchor_witness(UniformHypergraph.from_edges(4, 3, [(0, 2, 3)]), d)
    with pytest.raises(InternalConsistencyError, match=r"triple \[0, 1, 2\] has 2 middles"):
        verify_non_anchor_witness(UniformHypergraph.from_edges(4, 3, [(0, 1, 2), (1, 2, 3)]), d)


def test_witness_check_refuses_edges_that_are_not_triples():
    h = UniformHypergraph.from_edges(5, 4, [(0, 1, 2, 3)])
    with pytest.raises(ValueError, match="anchors are defined for 3-uniform hypergraphs"):
        verify_non_anchor_witness(h, line_metric(range(5)))
