import random
from collections import deque
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linesat.errors import (
    AsymmetryError,
    DisconnectedGraph,
    DuplicateCoordinate,
    IndexOutOfRange,
    InternalConsistencyError,
    NonpositiveDistance,
    NonzeroDiagonal,
    TooFewPoints,
    TriangleViolation,
)
from linesat.io import dumps_matrix
from linesat.metric import (
    DistanceMatrix,
    Graph,
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


def bfs_distances(n, edges, src):
    """Independent shortest-path oracle: plain BFS over an adjacency dict."""
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


# --- validate_metric ---------------------------------------------------------


def test_four_cycle_is_valid():
    validate_metric(four_cycle_metric())


def test_single_point_is_valid():
    validate_metric(DistanceMatrix.from_rows([[0]]))


def test_triangle_violation_witness():
    d = DistanceMatrix.from_rows([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    with pytest.raises(TriangleViolation) as err:
        validate_metric(d)
    assert (err.value.i, err.value.j, err.value.k) == (0, 2, 1)


def test_asymmetry_witness():
    d = DistanceMatrix.from_rows([[0, 1], [2, 0]])
    with pytest.raises(AsymmetryError) as err:
        validate_metric(d)
    assert (err.value.i, err.value.j) == (0, 1)


def test_nonzero_diagonal_witness():
    d = DistanceMatrix.from_rows([[1]])
    with pytest.raises(NonzeroDiagonal):
        validate_metric(d)


def test_nonpositive_distance_witness():
    d = DistanceMatrix.from_rows([[0, 0], [0, 0]])
    with pytest.raises(NonpositiveDistance):
        validate_metric(d)


def fraction_violation(d):
    """The first axiom violation, by the documented scan on the `Fraction`s."""
    m = d.d
    for i in range(d.n):
        if m[i][i] != 0:
            return NonzeroDiagonal, (i,)
    for i in range(d.n):
        for j in range(i + 1, d.n):
            if m[i][j] != m[j][i]:
                return AsymmetryError, (i, j)
            if m[i][j] <= 0:
                return NonpositiveDistance, (i, j)
            for k in range(d.n):
                if k not in (i, j) and m[i][j] > m[i][k] + m[k][j]:
                    return TriangleViolation, (i, j, k)
    return None


def planted(n, seed, faults, base=random_rational_metric):
    """A random rational metric, `base(n, seed)`, with `faults` random entries
    overwritten, each by a kind of value that breaks one axiom."""
    rng = random.Random(seed)
    rows = [list(row) for row in base(n, seed).d]
    for _ in range(faults):
        i, j = rng.sample(range(n), 2)
        kind = rng.choice(["diagonal", "asymmetry", "nonpositive", "triangle"])
        x = Fraction(rng.randint(1, 50), rng.randint(1, 7))
        if kind == "diagonal":
            rows[i][i] = x
        elif kind == "asymmetry":  # one side only, so a triangle may see it first
            rows[i][j] = x
        elif kind == "nonpositive":
            rows[i][j] = rows[j][i] = -x if rng.random() < 0.5 else Fraction(0)
        else:
            rows[i][j] = rows[j][i] = sum(rows[i]) + x
    return DistanceMatrix(n, tuple(tuple(row) for row in rows))


def test_validate_metric_matches_fraction_oracle():
    kinds = set()
    for seed in range(400):
        d = planted(seed % 7 + 2, seed, seed % 3)
        want = fraction_violation(d)
        if want is None:
            validate_metric(d)
            continue
        cls, where = want
        kinds.add(cls)
        with pytest.raises(cls) as err:
            validate_metric(d)
        names = ("i", "j", "k")[: len(where)]
        assert tuple(getattr(err.value, a) for a in names) == where
    assert kinds == {NonzeroDiagonal, AsymmetryError, NonpositiveDistance, TriangleViolation}


def prime_metric(n, seed):
    """1 + 1/p in each entry, a distinct prime p per pair in a seeded order:
    a metric, as every distance lies in (1, 3/2], with C(n, 2) denominators."""
    primes = [p for p in range(2, 400) if all(p % q for q in range(2, p))]
    random.Random(seed).shuffle(primes)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), p in zip(combinations(range(n), 2), primes):
        rows[i][j] = rows[j][i] = 1 + Fraction(1, p)
    return DistanceMatrix(n, tuple(map(tuple, rows)))


def oracle_class(d):
    """The class of what `validate_metric` raises on d, None if nothing,
    after checking that the oracle finds the same class at the same indices."""
    want = fraction_violation(d)
    if want is None:
        validate_metric(d)
        return None
    cls, where = want
    with pytest.raises(cls) as err:
        validate_metric(d)
    assert tuple(getattr(err.value, a) for a in ("i", "j", "k")[: len(where)]) == where
    return cls


def test_validate_metric_matches_the_oracle_on_many_denominators():
    kinds = {
        oracle_class(planted(seed % 5 + 8, seed, seed % 3, prime_metric)) for seed in range(200)
    }
    assert kinds == {None, NonzeroDiagonal, AsymmetryError, NonpositiveDistance, TriangleViolation}


def test_validate_metric_matches_the_oracle_at_the_triangle_boundary():
    # d(i,j) = d(i,k) + d(k,j) + e with e in {-1/q, 0, 1/q}, q a prime far
    # above the entries' own: a margin of 1/q among C(n, 2) denominators
    kinds = set()
    for seed in range(200):
        rng = random.Random(seed)
        n = seed % 5 + 8
        rows = [list(row) for row in prime_metric(n, seed).d]
        i, j, k = rng.sample(range(n), 3)
        e = Fraction(rng.choice([-1, 0, 1]), rng.choice([10007, 65537, 999983]))
        rows[i][j] = rows[j][i] = rows[i][k] + rows[k][j] + e
        kinds.add(oracle_class(DistanceMatrix(n, tuple(map(tuple, rows)))))
    assert kinds == {None, TriangleViolation}


# --- betweenness and middles -------------------------------------------------


def test_betweenness_on_four_cycle():
    d = four_cycle_metric()
    assert betweenness(d, 0, 1, 2)  # 1 + 1 == 2
    assert not betweenness(d, 1, 0, 2)


def test_betweenness_rejects_repeats():
    d = four_cycle_metric()
    assert not betweenness(d, 0, 0, 2)
    assert not betweenness(d, 0, 2, 2)


def test_betweenness_on_line_coordinates():
    d = line_metric([0, 1, 3])
    assert betweenness(d, 0, 1, 2)
    assert not betweenness(d, 1, 0, 2)


def test_betweenness_index_out_of_range():
    d = four_cycle_metric()
    with pytest.raises(IndexOutOfRange):
        betweenness(d, 0, 1, 4)


@given(st.integers(3, 7), st.integers(0, 10**6))
def test_betweenness_symmetric_in_endpoints(n, seed):
    d = random_rational_metric(n, seed)
    for r, s, t in permutations(range(n), 3):
        assert betweenness(d, r, s, t) == betweenness(d, t, s, r)


def test_middle_of_theta6():
    d = graph_metric(theta_graph(6))
    # frozen from the BFS oracle: d(2,0)=1, d(0,5)=3, d(2,5)=4
    assert middle_of(d, (2, 0, 5)) == 0


def test_middle_of_four_cycle():
    assert middle_of(four_cycle_metric(), (0, 1, 2)) == 1


def test_middle_of_equilateral_is_none():
    d = DistanceMatrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert middle_of(d, (0, 1, 2)) is None


def test_middle_of_line_coordinates():
    d = line_metric([0, 2, 5])
    assert middle_of(d, (0, 1, 2)) == 1


def test_middle_uniqueness_assertion():
    # Distances violating positivity can fake two middles; middle_of must
    # refuse rather than pick one.
    d = DistanceMatrix.from_rows([[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]])
    with pytest.raises(InternalConsistencyError):
        middle_of(d, (0, 1, 2))


@given(st.integers(3, 7), st.integers(0, 10**6))
def test_at_most_one_middle_per_triple(n, seed):
    d = random_rational_metric(n, seed)
    for triple in combinations(range(n), 3):
        middle_of(d, triple)  # raises if exclusivity ever fails


# --- degenerate hypergraph extraction ----------------------------------------


def test_four_cycle_all_triangles_degenerate():
    h = degenerate_hypergraph(four_cycle_metric())
    assert h.edge_count == 4


def test_theta6_has_18_degenerate_triples():
    h = degenerate_hypergraph(graph_metric(theta_graph(6)))
    assert h.edge_count == 18
    missing = {(0, 1, 4), (0, 1, 5)}
    all_triples = set(combinations(range(6), 3))
    assert {t for t in all_triples if not h.has_edge(t)} == missing


def test_equilateral_three_points_no_degenerate():
    d = DistanceMatrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert degenerate_hypergraph(d).edge_count == 0


def test_degenerate_hypergraph_matches_middle_of():
    # The extraction cross-multiplies integer numerators and denominators;
    # middle_of, on Fraction sums, is the reference on every triple.
    cases = [random_rational_metric(n, seed) for n in (3, 5, 7) for seed in range(6)]
    cases.append(line_metric([Fraction(1, 3), Fraction(5, 7), Fraction(-2, 9), 4]))
    # unvalidated: only d(1,0) + d(0,2) == d(1,2) holds, so 0 is the middle
    cases.append(DistanceMatrix.from_rows([[0, 5, 1], [1, 0, 2], [1, 3, 0]]))
    for d in cases:
        h = degenerate_hypergraph(d)
        for t in combinations(range(d.n), 3):
            assert h.has_edge(t) == (middle_of(d, t) is not None), (d, t)
    two_middles = DistanceMatrix.from_rows(
        [[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]]
    )
    with pytest.raises(InternalConsistencyError):
        degenerate_hypergraph(two_middles)


def test_degenerate_needs_three_points():
    with pytest.raises(TooFewPoints):
        degenerate_hypergraph(DistanceMatrix.from_rows([[0, 1], [1, 0]]))


# --- graph metric -------------------------------------------------------------


def test_path_graph_distances():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    d = graph_metric(g)
    assert d.dist(0, 2) == 2


def test_theta_distances_match_bfs_oracle():
    for n in (5, 6, 9):
        g = theta_graph(n)
        d = graph_metric(g)
        for src in range(n):
            oracle = bfs_distances(n, g.edges, src)
            assert [d.dist(src, v) for v in range(n)] == [oracle[v] for v in range(n)]


def test_theta6_specific_distance():
    d = graph_metric(theta_graph(6))
    assert d.dist(2, 5) == 4


def test_single_vertex_graph():
    d = graph_metric(Graph.from_edges(1, []))
    assert d.d == ((Fraction(0),),)


def test_disconnected_graph_witness():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraph) as err:
        graph_metric(g)
    assert err.value.component == frozenset({0, 1})


def test_path_graph_equals_line_metric():
    for n in range(2, 7):
        g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        assert graph_metric(g).d == line_metric(range(n)).d


# --- line metric ---------------------------------------------------------------


def test_line_metric_all_triples_degenerate():
    d = line_metric([0, 1, 3, 7, 12])
    assert degenerate_hypergraph(d).edge_count == 10


def test_line_metric_two_points():
    d = line_metric([0, 1])
    assert d.n == 2
    validate_metric(d)


def test_line_metric_duplicate_coordinate():
    with pytest.raises(DuplicateCoordinate) as err:
        line_metric([0, 1, 1])
    assert (err.value.i, err.value.j) == (1, 2)


def test_line_metric_rational_coordinates():
    d = line_metric([Fraction(1, 2), Fraction(7, 3), Fraction(-1, 6)])
    validate_metric(d)
    assert d.dist(0, 2) == Fraction(2, 3)


# --- generators ------------------------------------------------------------------


def test_random_metric_deterministic():
    assert random_rational_metric(5, 1).d == random_rational_metric(5, 1).d


def test_random_metric_single_point():
    assert random_rational_metric(1, 99).d == ((Fraction(0),),)


def fraction_random_metric(n, seed):
    """The generator with Fraction coordinates and sums, for reference."""
    rng = random.Random(seed * 1_000_003 + n)
    pts = []
    while len(pts) < n:
        p = (
            Fraction(rng.randint(0, 8 * n), rng.randint(1, 4)),
            Fraction(rng.randint(0, 8 * n), rng.randint(1, 4)),
        )
        if p not in pts:
            pts.append(p)
    return tuple(tuple(abs(p[0] - q[0]) + abs(p[1] - q[1]) for q in pts) for p in pts)


# (4, 145) draws one point twice, the second time with other numerators
@pytest.mark.parametrize("n, seed", [(1, 0), (2, 5), (4, 145), (7, 3), (12, 1), (40, 2), (90, 77)])
def test_random_metric_matches_fraction_oracle(n, seed):
    d = random_rational_metric(n, seed)
    expected = fraction_random_metric(n, seed)
    assert d.d == expected
    assert dumps_matrix(d) == dumps_matrix(DistanceMatrix(n, expected))


def test_random_metrics_are_valid():
    for seed in range(1000):
        validate_metric(random_rational_metric(8, seed))
