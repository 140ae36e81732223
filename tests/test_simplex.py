import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from linesat import realizability, simplex
from linesat.errors import InternalConsistencyError
from linesat.hypergraph import UniformHypergraph
from linesat.metric import (
    DistanceMatrix,
    degenerate_hypergraph,
    graph_metric,
    middle_of,
    theta_graph,
)
from linesat.simplex import max_slack, solve_linear_system


def scipy_max_slack(linprog, rows, rhs):
    """Floating-point oracle for max x[-1], rows.x >= rhs, x >= 0."""
    cost = [0.0] * (len(rows[0]) - 1) + [-1.0]
    res = linprog(
        cost,
        A_ub=[[-float(v) for v in row] for row in rows],
        b_ub=[-float(b) for b in rhs],
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0
    return -res.fun


def fraction_rank(rows):
    """Rank of an integer matrix by plain Gaussian elimination over Fractions."""
    a = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        pr = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if pr is None:
            continue
        a[rank], a[pr] = a[pr], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][col] / a[rank][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def recorded_pivots(monkeypatch):
    """Patch the dictionary pivot to log each (entering, leaving) variable."""
    real_exchange = simplex._exchange
    calls = []

    def recording(cols, z, nonbasic, d, q, leave, prow):
        # every stored column has one entry per structural variable and
        # none per constraint
        assert len(cols) == len(z) and all(len(col) == len(z) - 1 for col in cols)
        calls.append((nonbasic[q], leave))
        return real_exchange(cols, z, nonbasic, d, q, leave, prow)

    monkeypatch.setattr(simplex, "_exchange", recording)
    return calls


def full_tableau_max_slack(rows, rhs):
    """The dense simplex that the compact dictionary replaced, kept as the
    reference for its pivot path: the tableau [-A | I | -b] over one
    denominator, Bland's rule by column.  Returns (t, x) and the
    (entering, leaving) variable of each pivot."""
    nvars, m = len(rows[0]), len(rows)
    tab = [[-v for v in row] + [int(i == k) for k in range(m)] + [-b]
           for i, (row, b) in enumerate(zip(rows, rhs))]
    basis = [nvars + i for i in range(m)]
    z = [0] * (nvars + m + 1)
    z[nvars - 1] = -1
    d, path = 1, []
    while True:
        enter = next((j for j in range(len(z) - 1) if z[j] < 0), None)
        if enter is None:
            break
        ratios = [(Fraction(row[-1], row[enter]), basis[i], i)
                  for i, row in enumerate(tab) if row[enter] > 0]
        assert ratios, "unbounded"
        r = min(ratios)[2]
        path.append((enter, basis[r]))
        prow, p = tab[r], tab[r][enter]
        for row in tab[:r] + tab[r + 1:] + [z]:
            f = row[enter]
            row[:] = [(x * p - f * y) // d for x, y in zip(row, prow)]
        d, basis[r] = p, enter
    x = [Fraction(0)] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            x[b] = Fraction(tab[i][-1], d)
    return (x[-1], tuple(x)), path


# --- hand-solved slack programs ---------------------------------------------
# Each row reads a.y - c*t >= b with b <= 0, stored as [a..., -c] with
# t = x[-1].


def test_box_maximum():
    # t <= 3
    assert max_slack([[-1]], [-3]) == (3, (3,))
    # 2t <= 3
    assert max_slack([[-2]], [-3]) == (Fraction(3, 2), (Fraction(3, 2),))
    # t <= 0: the origin is already optimal
    assert max_slack([[-1]], [0]) == (0, (0,))


def test_two_variable_vertex():
    # t <= y1, t <= 2*y2 and y1 + y2 <= 1, the shape of the realizability
    # program: all three bind at t = 2/3, y = (2/3, 1/3)
    rows = [[1, 0, -1], [0, 2, -1], [-1, -1, 0]]
    q = Fraction
    assert max_slack(rows, [0, 0, -1]) == (q(2, 3), (q(2, 3), q(1, 3), q(2, 3)))


def test_equality_constraint():
    # y1 - y2 = 0 written as two rows, each clearing the slack: the two
    # sides cannot both exceed t unless t <= 0
    t, x = max_slack([[1, -1, -1], [-1, 1, -1], [-1, -1, 0]], [0, 0, -1])
    assert t == 0
    assert x[0] == x[1]


def test_unbounded_direction():
    # t <= y with y free to grow: the ratio test finds no row
    with pytest.raises(InternalConsistencyError):
        max_slack([[1, -1]], [0])


def test_positive_rhs_is_rejected():
    # x = 0 must be feasible: there is no phase 1
    with pytest.raises(ValueError):
        max_slack([[1, -1], [-1, 0]], [1, -1])
    with pytest.raises(ValueError):
        max_slack([[-1]], [2])


def test_no_positive_rhs_starts_without_a_pivot(monkeypatch):
    # the origin is feasible, so the first pivot is Bland's: t (variable 2)
    # is the only improving variable
    calls = recorded_pivots(monkeypatch)
    rows = [[1, 0, -1], [0, 2, -1], [-1, -1, 0]]
    assert max_slack(rows, [0, 0, -1])[0] == Fraction(2, 3)
    assert calls[0][0] == 2


def test_degenerate_ties_terminate():
    # five distinct rows, some repeated, all through the optimum
    # (y, t) = (1/2, 1/2); Bland's rule must not cycle
    rows = [
        [-2, -2],  # 2t <= 2 - 2y
        [2, -2],  # 2t <= 2y
        [0, -2],  # 2t <= 1
        [2, -4],  # 4t <= 2y + 1
        [-4, -2],  # 2t <= 3 - 4y
    ]
    rhs = [-2, 0, -1, -1, -3]
    half = Fraction(1, 2)
    assert max_slack(rows * 3, rhs * 3) == (half, (half, half))


def test_ratio_tie_between_structural_rows_keeps_the_least_index(monkeypatch):
    # 2*y1 + y2 >= 2t - 1, y1 + t <= 1, y0 + y1 + y2 >= t.  At the fourth
    # pivot y2 enters and the basic y0 and y1 reach 0 together; Bland's rule
    # takes out y0, the lesser index, as the dense tableau does.  Keeping
    # the later of the tied rows would take out y1 and end one pivot sooner.
    rows, rhs = [[0, 2, 1, -2], [0, -1, 0, -1], [1, 1, 1, -1]], [-1, -1, 0]
    calls = recorded_pivots(monkeypatch)
    assert max_slack(rows, rhs) == (1, (0, 0, 1, 1))
    assert calls == [(3, 6), (0, 4), (1, 5), (2, 0), (6, 1)]
    assert full_tableau_max_slack(rows, rhs) == ((1, (0, 0, 1, 1)), calls)


def test_tableau_holds_only_ints(monkeypatch):
    real_exchange = simplex._exchange
    calls = []

    def checked(cols, z, nonbasic, d, q, leave, prow):
        assert type(d) is int and d > 0
        assert all(type(v) is int for col in cols + [z, prow] for v in col)
        calls.append(d)
        return real_exchange(cols, z, nonbasic, d, q, leave, prow)

    monkeypatch.setattr(simplex, "_exchange", checked)
    rows = [[3, -7, -2], [-5, 11, -2], [-1, -1, -2]]
    t, x = max_slack(rows, [-1, -2, -10**6])
    assert t == Fraction(11, 16) and len(calls) > 1


# --- randomized cross-check against scipy ------------------------------------------


def random_problems():
    """90 seeded slack programs, (rows, rhs), with small and large entries."""
    rng = random.Random(2024)
    for trial in range(90):
        big = trial % 3 == 1  # entries up to 10**6
        top = 10**6 if big else 3
        k = rng.randint(1, 4)
        rows = [
            [rng.randint(-top, top) for _ in range(k)] + [-rng.randint(1, top)]
            for _ in range(rng.randint(1, 5))
        ]
        # half the right sides are 0, which makes the origin degenerate
        rhs = [-rng.randint(0, top) * rng.randint(0, 1) for _ in rows]
        # bound t: directly by c*t <= B, by sum(y) + c*t <= B, or, as the
        # realizability program does, by sum(y) <= B alone
        kind = trial % 3
        c = 0 if kind == 2 else rng.randint(1, top)
        rows.append([0 if kind == 0 else -1] * k + [-c])
        rhs.append(-rng.randint(1, top))
        yield rows, rhs


def test_random_problems_match_floating_oracle():
    linprog = pytest.importorskip("scipy.optimize").linprog
    optima = {True: 0, False: 0}
    for rows, rhs in random_problems():
        t, x = max_slack(rows, rhs)
        assert abs(float(t) - scipy_max_slack(linprog, rows, rhs)) < 1e-7
        # the exact solution must satisfy every constraint exactly
        assert t == x[-1]
        for row, b in zip(rows, rhs):
            assert sum(a * v for a, v in zip(row, x)) >= b
        assert all(v >= 0 for v in x)
        optima[t > 0] += 1
    assert min(optima.values()) >= 20  # zero and positive optima well covered


# --- the compact dictionary follows the full tableau ---------------------------------

# The sparse 7-point case of the realizability tests: the degenerate set of
# a frozen random rational metric, whose one slack program has 99 rows.
N7_EDGES = (
    (0, 2, 3), (0, 2, 4), (0, 1, 5), (1, 2, 5), (1, 3, 6),
    (2, 3, 6), (1, 4, 6), (2, 4, 6), (0, 5, 6),
)


def l1_degenerate_sets(rng, count):
    """Degenerate sets with 17 edges of 6 distinct seeded points in the
    L1 plane [0, 4]^2."""
    out = []
    while len(out) < count:
        pts = []
        while len(pts) < 6:
            p = (rng.randint(0, 4), rng.randint(0, 4))
            if p not in pts:
                pts.append(p)
        d = [[abs(p[0] - q[0]) + abs(p[1] - q[1]) for q in pts] for p in pts]
        h = degenerate_hypergraph(DistanceMatrix.from_rows(d))
        if h.edge_count == 17:
            out.append(h)
    return out


def recorded_programs(monkeypatch, hypergraphs, name="max_slack"):
    """The (rows, rhs) of every slack program deciding the hypergraphs, or
    with name "solve_linear_system" the (rows, ncols) of every equality
    system."""
    real = getattr(realizability, name)
    programs = []

    def recording(rows, arg):
        programs.append(([list(row) for row in rows], arg))
        return real(rows, arg)

    monkeypatch.setattr(realizability, name, recording)
    for h in hypergraphs:
        realizability.is_metric_hypergraph(h, 7)
    monkeypatch.undo()
    return programs


def assert_same_paths(monkeypatch, problems):
    for rows, rhs in problems:
        expected, path = full_tableau_max_slack(rows, rhs)
        with monkeypatch.context() as patch:
            calls = recorded_pivots(patch)
            assert max_slack(rows, rhs) == expected
        assert calls == path


def test_compact_dictionary_follows_the_full_tableau_path(monkeypatch):
    # Same (t, x) and the same (entering, leaving) variable at every pivot
    # as the dense tableau, on the seeded problems and on every program
    # the search solves for a seeded set of 6-point L1 degenerate sets.
    assert_same_paths(monkeypatch, random_problems())
    hypergraphs = [UniformHypergraph.from_edges(7, 3, N7_EDGES)]
    hypergraphs += l1_degenerate_sets(random.Random(1), 60)
    programs = recorded_programs(monkeypatch, hypergraphs)
    assert len(programs) == 61
    assert_same_paths(monkeypatch, programs)


@pytest.mark.slow
def test_compact_dictionary_follows_the_full_tableau_path_widely(monkeypatch):
    # Three more L1 seeds and 150 random hypergraphs on 5 to 7 points,
    # which bring refuted programs too.
    hypergraphs = []
    for seed in (2, 3, 77):
        hypergraphs += l1_degenerate_sets(random.Random(seed), 60)
    rng = random.Random(9)
    for _ in range(150):
        n = rng.choice((5, 6, 7))
        p = rng.random()
        edges = [t for t in combinations(range(n), 3) if rng.random() < p]
        hypergraphs.append(UniformHypergraph.from_edges(n, 3, edges))
    programs = recorded_programs(monkeypatch, hypergraphs)
    assert any(max_slack(rows, rhs)[0] == 0 for rows, rhs in programs)
    assert_same_paths(monkeypatch, programs)


# --- exact nullspaces ---------------------------------------------------------------


def test_solve_consistent_system():
    assert solve_linear_system([[1, 1], [1, -1]], 2) == []


def test_solve_underdetermined_system():
    basis = solve_linear_system([[1, 1, 1]], 3)
    assert basis == [[-1, 1, 0], [-1, 0, 1]]
    assert solve_linear_system([], 2) == [[1, 0], [0, 1]]


def test_solve_random_systems():
    rng = random.Random(7)
    for _ in range(100):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        basis = solve_linear_system(a, n)
        assert len(basis) == n - fraction_rank(a)
        for row in a:
            for vec in basis:
                assert sum(r * v for r, v in zip(row, vec)) == 0
        for vec in basis:
            # primitive integer vectors; the last nonzero entry is the free
            # column's, and it is positive
            assert all(type(v) is int for v in vec) and gcd(*vec) == 1
            fc = max(j for j, v in enumerate(vec) if v)
            assert vec[fc] > 0
            # lp_max_slack's y >= 0 rests on this: no other basis vector is
            # nonzero in a free column
            assert all(other[fc] == 0 for other in basis if other is not vec)


def row_major_pivot(rows, d, r, c):
    """Pivot rows on entry (r, c) over denominator d, negating the pivot
    row first when the pivot is negative; returns the new denominator."""
    prow = rows[r]
    p = prow[c]
    if p < 0:
        p = -p
        prow = rows[r] = [-y for y in prow]
    for i, row in enumerate(rows):
        f = row[c]
        if i == r or f == 0 and p == d:
            continue
        rows[i] = [(x * p - f * y) // d for x, y in zip(row, prow)]
    return p


def row_major_nullspace(rows, ncols):
    """The row-major fraction-free Gauss-Jordan elimination that the
    column-major one replaced, kept as its reference: rows swap into
    place, and the basis is read off the reduced rows."""
    a = [list(row) for row in rows]
    d, pivot_of_col, prow = 1, {}, 0
    for col in range(ncols):
        pr = next((i for i in range(prow, len(a)) if a[i][col]), None)
        if pr is None:
            continue
        a[prow], a[pr] = a[pr], a[prow]
        d = row_major_pivot(a, d, prow, col)
        pivot_of_col[col] = prow
        prow += 1
        if prow == len(a):
            break
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_of_col):
        v = [0] * ncols
        v[fc] = d
        for col, row in pivot_of_col.items():
            v[col] = -a[row][fc]
        g = gcd(*v)
        basis.append([x // g for x in v])
    return basis


def theta_equalities(n):
    """The equality system of theta(n)'s total assignment: one row per
    degenerate triangle, d(lo, m) + d(m, hi) - d(lo, hi) over the pairs in
    lexicographic order, m being the metric's middle."""
    d = graph_metric(theta_graph(n))
    col = {p: j for j, p in enumerate(combinations(range(n), 2))}
    rows = []
    for e in degenerate_hypergraph(d).edge_list():
        m = middle_of(d, e)
        lo, hi = (v for v in e if v != m)
        row = [0] * len(col)
        row[col[min(lo, m), max(lo, m)]] = row[col[min(m, hi), max(m, hi)]] = 1
        row[col[lo, hi]] = -1
        rows.append(row)
    return rows, len(col)


def sparse_dependent_systems(rng, count):
    """Seeded systems with 1 to 3 entries of +-1 per row and more rows
    than columns, so more rows than their rank."""
    for _ in range(count):
        n = rng.randint(1, 12)
        rows = []
        for _ in range(rng.randint(n + 1, 3 * n + 2)):
            row = [0] * n
            for j in rng.sample(range(n), rng.randint(1, min(3, n))):
                row[j] = rng.choice((1, -1))
            rows.append(row)
        yield rows, n


def test_column_elimination_matches_the_row_major_one(monkeypatch):
    # The same basis as the row-major reference on every equality system
    # the search asks for the seeded 6-point L1 sets and the frozen n=7
    # case, on theta(n)'s total assignment for n = 8..16, and on seeded
    # sparse systems whose rows are dependent.
    hypergraphs = [UniformHypergraph.from_edges(7, 3, N7_EDGES)]
    hypergraphs += l1_degenerate_sets(random.Random(1), 60)
    systems = recorded_programs(monkeypatch, hypergraphs, "solve_linear_system")
    assert len(systems) == 61
    systems += [theta_equalities(n) for n in range(8, 17)]
    sparse = list(sparse_dependent_systems(random.Random(39), 300))
    assert all(fraction_rank(rows) < len(rows) for rows, _ in sparse)
    for rows, ncols in systems + sparse:
        assert solve_linear_system(rows, ncols) == row_major_nullspace(rows, ncols)


@pytest.mark.slow
def test_column_elimination_matches_the_row_major_one_on_theta24():
    # 2,004 equalities over 276 distances, of rank 254
    rows, ncols = theta_equalities(24)
    assert (len(rows), ncols) == (2004, 276)
    basis = solve_linear_system(rows, ncols)
    assert len(basis) == 276 - 254
    assert basis == row_major_nullspace(rows, ncols)
