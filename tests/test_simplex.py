import random
from fractions import Fraction
from math import gcd

import pytest

from linesat import simplex
from linesat.errors import InternalConsistencyError
from linesat.simplex import max_slack, solve_linear_system

scipy_linprog = pytest.importorskip("scipy.optimize").linprog


def scipy_max_slack(rows, rhs):
    """Floating-point oracle for max x[-2] - x[-1], rows.x >= rhs, x >= 0."""
    cost = [0.0] * (len(rows[0]) - 2) + [-1.0, 1.0]
    res = scipy_linprog(
        cost,
        A_ub=[[-float(v) for v in row] for row in rows],
        b_ub=[-float(b) for b in rhs],
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0
    return -res.fun


def recorded_pivots(monkeypatch):
    """Patch the pivot to log each (row, column) it is called with."""
    real_pivot = simplex._pivot
    calls = []

    def recording(rows, d, r, c, z=None):
        calls.append((r, c))
        return real_pivot(rows, d, r, c, z)

    monkeypatch.setattr(simplex, "_pivot", recording)
    return calls


# --- hand-solved slack programs ---------------------------------------------
# Each row reads a.y - c*t >= b, stored as [a..., -c, c] with t = x[-2] - x[-1].


def test_box_maximum():
    # t <= 3
    assert max_slack([[-1, 1]], [-3]) == (3, (3, 0))
    # t <= -2: the optimum slack may be negative
    assert max_slack([[-1, 1]], [2]) == (-2, (0, 2))


def test_two_variable_vertex():
    # t <= y1, t <= y2 / 2 and t <= 1 - y1 - y2, the shape of the
    # realizability program: all three bind at t = 2/5, y = (2/5, 1/5)
    rows = [[1, 0, -1, 1], [0, 2, -1, 1], [-1, -1, -1, 1]]
    q = Fraction
    assert max_slack(rows, [0, 0, -1]) == (q(2, 5), (q(2, 5), q(1, 5), q(2, 5), 0))


def test_equality_constraint():
    # y1 + y2 = 1 written as two rows, each clearing the slack: the two
    # sides cannot both exceed t unless t <= 0
    t, x = max_slack([[1, 1, -1, 1], [-1, -1, -1, 1]], [1, -1])
    assert t == 0
    assert x[0] + x[1] == 1


def test_unbounded_direction():
    # t <= y with y free to grow: the ratio test finds no row
    with pytest.raises(InternalConsistencyError):
        max_slack([[1, -1, 1]], [0])


def test_rows_must_share_the_slack_coefficient():
    with pytest.raises(ValueError):
        max_slack([[1, -1, 1], [1, -2, 2]], [0, 0])
    with pytest.raises(ValueError):
        max_slack([[1, 1, -1]], [0])


def test_no_positive_rhs_starts_without_a_pivot(monkeypatch):
    # y = 0, t = 0 is feasible, so the first pivot is Bland's: t's positive
    # part (column 2) enters
    calls = recorded_pivots(monkeypatch)
    rows = [[1, 0, -1, 1], [0, 2, -1, 1], [-1, -1, -1, 1]]
    assert max_slack(rows, [0, 0, -1])[0] == Fraction(2, 5)
    assert calls[0][1] == 2


def test_initial_pivot_tie_goes_to_lowest_row(monkeypatch):
    # t <= 4 - y, t <= y - 2, t <= 2y - 2, t <= 3y - 1: rows 1 and 2 tie
    # for the largest right side, so t's negative part (column 2) enters
    # row 1; the optimum is t = 1 at y = 3
    calls = recorded_pivots(monkeypatch)
    rows = [[-1, -1, 1], [1, -1, 1], [2, -1, 1], [3, -1, 1]]
    assert max_slack(rows, [-4, 2, 2, 1]) == (1, (3, 1, 0))
    assert calls[0] == (1, 2)


def test_degenerate_ties_terminate():
    # five distinct rows, some repeated, all through the optimum
    # (y, t) = (1/2, 1/2); Bland's rule must not cycle
    rows = [
        [-2, -2, 2],  # 2t <= 2 - 2y
        [2, -2, 2],  # 2t <= 2y
        [0, -2, 2],  # 2t <= 1
        [4, -2, 2],  # 2t <= 4y - 1
        [-4, -2, 2],  # 2t <= 3 - 4y
    ]
    rhs = [-2, 0, -1, 1, -3]
    half = Fraction(1, 2)
    assert max_slack(rows * 3, rhs * 3) == (half, (half, half, 0))


def test_tableau_holds_only_ints(monkeypatch):
    real_pivot = simplex._pivot
    calls = []

    def checked(rows, d, r, c, z=None):
        assert type(d) is int and d > 0
        assert all(type(v) is int for row in rows + [z or []] for v in row)
        calls.append(d)
        return real_pivot(rows, d, r, c, z)

    monkeypatch.setattr(simplex, "_pivot", checked)
    rows = [[3, -7, -2, 2], [-5, 11, -2, 2], [-1, -1, -2, 2]]
    t, x = max_slack(rows, [1, 2, -10**6])
    assert t == Fraction(-25, 36) and len(calls) > 1


# --- randomized cross-check against scipy ------------------------------------------


def test_random_problems_match_floating_oracle():
    rng = random.Random(2024)
    starts = {True: 0, False: 0}
    for trial in range(90):
        free = trial % 2  # y free, split into +/- pairs
        big = trial % 3 == 1  # entries up to 10**6
        top = 10**6 if big else 3
        k = rng.randint(1, 4)
        c = rng.randint(1, top)
        a_rows = [
            [rng.randint(-top, top) for _ in range(k)] for _ in range(rng.randint(0, 5))
        ]
        rhs = [rng.randint(-top, top) for _ in a_rows]
        # bound t: directly by t <= B / c, or by sum(y) + c*t <= B when y >= 0
        a_rows.append([0 if free or trial % 4 == 0 else -1] * k)
        rhs.append(-rng.randint(1, top))
        if free:
            a_rows = [[v for a in row for v in (a, -a)] for row in a_rows]
        rows = [row + [-c, c] for row in a_rows]
        starts[max(rhs) > 0] += 1
        t, x = max_slack(rows, rhs)
        assert abs(float(t) - scipy_max_slack(rows, rhs)) < 1e-7
        # the exact solution must satisfy every constraint exactly
        assert t == x[-2] - x[-1]
        for row, b in zip(rows, rhs):
            assert sum(a * v for a, v in zip(row, x)) >= b
        assert all(v >= 0 for v in x)
    assert min(starts.values()) >= 20  # both starts well covered


# --- exact linear solving ---------------------------------------------------------


def test_solve_consistent_system():
    x0, basis = solve_linear_system([[1, 1], [1, -1]], [4, 0])
    assert x0 == [2, 2]
    assert basis == []


def test_solve_underdetermined_system():
    x0, basis = solve_linear_system([[1, 1, 1]], [1])
    assert sum(x0) == 1
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0


def test_solve_inconsistent_system():
    assert solve_linear_system([[1, 1], [2, 2]], [1, 3]) is None


def test_solve_random_systems():
    rng = random.Random(7)
    for _ in range(100):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        x_true = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        b = [sum(row[j] * x_true[j] for j in range(n)) for row in a]
        solved = solve_linear_system(a, b)
        assert solved is not None
        x0, basis = solved
        for row, bi in zip(a, b):
            assert sum(r * v for r, v in zip(row, x0)) == bi
            for vec in basis:
                assert sum(r * v for r, v in zip(row, vec)) == 0
        for vec in basis:
            # primitive integer vectors; the last nonzero entry is the free
            # column's, and it is positive
            assert all(type(v) is int for v in vec) and gcd(*vec) == 1
            fc = max(j for j, v in enumerate(vec) if v)
            assert vec[fc] > 0
            # lp_max_slack's y >= 0 rests on these two: x0 is 0 in each free
            # column, and no other basis vector is nonzero there
            assert x0[fc] == 0
            assert all(other[fc] == 0 for other in basis if other is not vec)
