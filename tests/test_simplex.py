import random
from fractions import Fraction
from math import gcd

import pytest

from linesat import simplex
from linesat.simplex import LPResult, linprog_max, solve_linear_system

scipy_linprog = pytest.importorskip("scipy.optimize").linprog


def scipy_max(c, ge_rows, ge_rhs):
    """Floating-point oracle for max c.x, A x >= b, x >= 0."""
    kwargs = {}
    if ge_rows:
        kwargs["A_ub"] = [[-float(v) for v in row] for row in ge_rows]
        kwargs["b_ub"] = [-float(b) for b in ge_rhs]
    res = scipy_linprog(
        [-float(v) for v in c], bounds=(0, None), method="highs", **kwargs
    )
    if res.status == 2:
        return "infeasible", None
    if res.status == 3:
        return "unbounded", None
    assert res.status == 0
    return "optimal", -res.fun


# --- frozen micro cases --------------------------------------------------------


def test_box_maximum():
    # max x subject to x <= 3
    res = linprog_max([1], ge_rows=[[-1]], ge_rhs=[-3])
    assert res == LPResult("optimal", Fraction(3), (Fraction(3),))


def test_two_variable_vertex():
    # max x + y with x + 2y <= 4, 3x + y <= 6: optimum at (8/5, 6/5)
    res = linprog_max([1, 1], ge_rows=[[-1, -2], [-3, -1]], ge_rhs=[-4, -6])
    assert res.status == "optimal"
    assert res.objective == Fraction(14, 5)
    assert res.solution == (Fraction(8, 5), Fraction(6, 5))


def test_equality_constraint():
    # max x with x + y = 1, written as x + y >= 1 and -x - y >= -1
    res = linprog_max([1, 0], ge_rows=[[1, 1], [-1, -1]], ge_rhs=[1, -1])
    assert res.objective == 1
    assert res.solution == (1, 0)


def test_infeasible_system():
    # x = 1 and x = 2, each equality as a pair of >= rows
    res = linprog_max([1], ge_rows=[[1], [-1], [1], [-1]], ge_rhs=[1, -1, 2, -2])
    assert res.status == "infeasible"


def test_infeasible_by_signs():
    # x >= 1 and x <= 0 cannot hold together
    res = linprog_max([0], ge_rows=[[1], [-1]], ge_rhs=[1, 0])
    assert res.status == "infeasible"


def test_unbounded_direction():
    res = linprog_max([1])
    assert res.status == "unbounded"


def test_degenerate_ties_terminate():
    # many redundant constraints through the optimum; Bland must not cycle
    rows = [[-1, -1], [-1, -1], [-2, -2], [-1, 0], [0, -1]]
    rhs = [-1, -1, -2, -1, -1]
    res = linprog_max([1, 1], ge_rows=rows, ge_rhs=rhs)
    assert res.objective == 1


def test_fractional_data_stays_exact():
    res = linprog_max(
        [Fraction(1, 3)],
        ge_rows=[[Fraction(-2, 7)]],
        ge_rhs=[Fraction(-1, 5)],
    )
    assert res.objective == Fraction(1, 3) * Fraction(7, 10)


def test_beale_cycling_example():
    # Beale (1955): the textbook rule cycles here; Bland's rule must not.
    # max 3/4 x1 - 20 x2 + 1/2 x3 - 6 x4 subject to
    # 1/4 x1 - 8 x2 - x3 + 9 x4 <= 0, 1/2 x1 - 12 x2 - 1/2 x3 + 3 x4 <= 0,
    # x3 <= 1.
    q = Fraction
    res = linprog_max(
        [q(3, 4), -20, q(1, 2), -6],
        ge_rows=[
            [q(-1, 4), 8, 1, -9],
            [q(-1, 2), 12, q(1, 2), -3],
            [0, 0, -1, 0],
        ],
        ge_rhs=[0, 0, -1],
    )
    assert res == LPResult("optimal", q(5, 4), (1, 0, 1, 0))


def test_tableau_holds_only_ints(monkeypatch):
    real_pivot = simplex._pivot
    calls = []

    def checked(rows, d, *args, **kwargs):
        assert type(d) is int and d > 0
        assert all(type(v) is int for row in rows for v in row)
        calls.append(d)
        return real_pivot(rows, d, *args, **kwargs)

    monkeypatch.setattr(simplex, "_pivot", checked)
    res = linprog_max(
        [Fraction(1, 3), 1],
        ge_rows=[[Fraction(-2, 7), -1], [-1, Fraction(-5, 11)]],
        ge_rhs=[Fraction(-1, 5), -2],
    )
    assert res.status == "optimal" and calls


# --- randomized cross-check against scipy ------------------------------------------


def _random_entry(rng, big):
    if big:
        return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
    return rng.randint(-3, 3)


def test_random_problems_match_floating_oracle():
    rng = random.Random(2024)
    agree = 0
    for trial in range(90):
        big = trial % 3 == 1  # Fraction data with large denominators
        free = trial % 3 == 2  # free variables split into +/- pairs
        nvars = rng.randint(1, 4)
        c = [_random_entry(rng, big) for _ in range(nvars)]
        ge_rows = [
            [_random_entry(rng, big) for _ in range(nvars)]
            for _ in range(rng.randint(0, 5))
        ]
        ge_rhs = [_random_entry(rng, big) for _ in ge_rows]
        if trial % 2:
            # box half the instances so a good share comes out bounded
            for i in range(nvars):
                for sign in (-1, 1) if free else (-1,):
                    row = [0] * nvars
                    row[i] = sign
                    ge_rows.append(row)
                    ge_rhs.append(-rng.randint(1, 5))
        if free:
            c = [v for ci in c for v in (ci, -ci)]
            ge_rows = [[v for a in row for v in (a, -a)] for row in ge_rows]
        exact = linprog_max(c, ge_rows, ge_rhs)
        oracle_status, oracle_value = scipy_max(c, ge_rows, ge_rhs)
        assert exact.status == oracle_status
        if exact.status == "optimal":
            assert abs(float(exact.objective) - oracle_value) < 1e-7
            # the exact solution must satisfy every constraint exactly
            x = exact.solution
            assert exact.objective == sum(Fraction(a) * v for a, v in zip(c, x))
            for row, b in zip(ge_rows, ge_rhs):
                assert sum(Fraction(a) * v for a, v in zip(row, x)) >= b
            assert all(v >= 0 for v in x)
            agree += 1
    assert agree >= 30  # enough optimal instances to be meaningful


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
            assert [v for v in vec if v][-1] > 0
