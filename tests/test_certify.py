import os
import random
import subprocess
import sys
from itertools import combinations, permutations
from math import comb
from pathlib import Path

import pytest

import linesat
from linesat import certify, saturation
from linesat.hypergraph import DEFAULT_BUDGET, UniformHypergraph
from linesat.saturation import _scan_all, is_weakly_saturated, min_saturation_search


def shapes(n_max):
    return [(n, r, k) for n in range(2, n_max + 1) for k in range(2, n + 1) for r in range(1, k)]


SHAPES = shapes(7)


def wsat(n, r, k):
    # Frankl 1982; Kalai 1985
    return comb(n, r) - comb(n - k + r, r)


@pytest.mark.parametrize("n, r, k", shapes(9))
def test_certified_bound_is_the_closed_form(n, r, k):
    assert certify.lower_bound(n, r, k) == wsat(n, r, k)


def test_scan_agrees_with_the_certified_bound_wherever_the_budget_admits():
    # the scan stays the oracle: a saturated family at the bound, none below
    scanned = 0
    for n, r, k in SHAPES:
        bound, n_ranks = certify.lower_bound(n, r, k), comb(n, r)
        if comb(n_ranks, min(bound - 1, n_ranks - bound + 1)) > DEFAULT_BUDGET:
            continue
        assert _scan_all(n, r, k, bound - 1, DEFAULT_BUDGET, True) is None, (n, r, k)
        hit = _scan_all(n, r, k, bound, DEFAULT_BUDGET, True)
        assert is_weakly_saturated(UniformHypergraph(n, r, hit), k), (n, r, k)
        scanned += 1
    assert scanned == len(SHAPES) - 4  # (7, 3, 4), (7, 3, 5), (7, 4, 5), (7, 4, 6) are over it


def _random_points(n, d, seed, size=10**12):
    # entries beyond P, negative ones too: the checker reads them mod P
    rng = random.Random(seed)
    return tuple(tuple(rng.randint(-size, size) for _ in range(d)) for _ in range(n))


@pytest.mark.parametrize("n, r, k", shapes(7))
def test_random_points_prove_the_closed_form(n, r, k):
    assert certify.check(_random_points(n, k - r, seed=100 * n + 10 * r + k), n, r, k) == wsat(n, r, k)


def _det(rows):
    # Leibniz's formula: the test's own determinant, not the checker's elimination
    total = 0
    for perm in permutations(range(len(rows))):
        term = (-1) ** sum(a > b for a, b in combinations(perm, 2))
        for row, j in zip(rows, perm):
            term *= row[j]
        total += term
    return total


def _relations_vanish(points, n, r, k, rows):
    """Whether in every k-set S the vectors satisfy the sum over r-subsets T
    of (-1)^(sum of T's positions in S) det(x_(S-T)) v_T = 0 mod P, the
    relation whose nonzero coefficients make the rank a bound."""
    vectors = dict(zip(combinations(range(n), r), rows))
    det = {u: _det([points[i] for i in u]) for u in combinations(range(n), k - r)}
    for s in combinations(range(n), k):
        total = [0] * len(rows[0])
        for q in combinations(range(k), r):
            t = tuple(s[j] for j in q)
            c = (-1) ** sum(q) * det[tuple(i for i in s if i not in t)]
            total = [a + c * b for a, b in zip(total, vectors[t])]
        if any(a % certify.P for a in total):
            return False
    return True


@pytest.mark.parametrize("kind", ["moment-curve", "random"])
@pytest.mark.parametrize("n", range(2, 9))
def test_every_relation_vanishes_identically(n, kind):
    # the checker does not sum the relations, so the vectors it ranks must
    # satisfy them for any points: a sign slip in `_rows` shows here
    for k in range(2, n + 1):
        for r in range(1, k):
            if kind == "moment-curve":
                points = certify.moment_curve(n, k - r)
            else:
                points = _random_points(n, k - r, seed=1000 + 100 * n + 10 * r + k)
            assert _relations_vanish(points, n, r, k, certify._rows(points, n, r)), (n, r, k)


def test_relation_check_sees_one_negated_vector():
    points = certify.moment_curve(6, 2)
    rows = certify._rows(points, 6, 2)
    assert _relations_vanish(points, 6, 2, 4, rows)
    rows[5] = [-a for a in rows[5]]
    assert not _relations_vanish(points, 6, 2, 4, rows)


def _equal_points(points):
    return (points[0], points[0], *points[2:])


def _zero_point(points):
    return (points[0], (0,) * len(points[0]), *points[2:])


def _sum_point(points):
    # x_2 = x_0 + x_1 puts x_0, x_1, x_2 in a plane: the 3-set {0, 1, 2} is singular
    return (*points[:2], tuple((a + b) % certify.P for a, b in zip(*points[:2])), *points[3:])


MUTANTS = {"equal-points": _equal_points, "zero-point": _zero_point, "sum-point": _sum_point}


@pytest.mark.parametrize("mutate", MUTANTS.values(), ids=MUTANTS)
def test_mutant_certificates_are_refused_and_min_sat_scans(monkeypatch, mutate):
    mutant = mutate(certify.moment_curve(7, 3))
    assert certify.check(mutant, 7, 3, 6) is None
    sizes = []

    def counted_scan(*args, **kwargs):
        sizes.append(args[3])
        return _scan_all(*args, **kwargs)

    monkeypatch.setattr(certify, "moment_curve", lambda n, d: mutant)
    monkeypatch.setattr(saturation, "_scan_all", counted_scan)
    assert min_saturation_search(7, 3, 6) == 31
    assert sizes == [34, 33, 32, 31, 30]


def test_checker_refuses_malformed_shapes():
    points = certify.moment_curve(6, 2)
    assert certify.check(points, 6, 2, 4) == wsat(6, 2, 4)
    assert certify.check(points, 7, 2, 4) is None  # one point short
    assert certify.check(points, 6, 2, 5) is None  # points of the wrong dimension
    assert certify.check(points, 6, 2, 2) is None  # k = r


def test_min_saturation_asks_for_the_certificate_only_where_it_pays(monkeypatch):
    # once at (7, 3, 6) and (7, 2, 4); never where the fruitless scan is a
    # few candidates, as at (6, 3, 6), or the checker would take
    # C(30, 27) determinants of order 27, as at (30, 1, 28)
    asked = []
    bound = certify.lower_bound

    def counted(*args):
        asked.append(args)
        return bound(*args)

    monkeypatch.setattr(certify, "lower_bound", counted)
    for shape in [(7, 3, 6), (7, 2, 4), (6, 3, 6), (30, 1, 28)]:
        assert min_saturation_search(*shape) == wsat(*shape)
    assert asked == [(7, 3, 6), (7, 2, 4)]


def test_certify_loads_with_the_engines_blocked():
    engines = ["saturation", "realizability", "simplex", "lines"]
    code = (
        "import sys\n"
        f"for name in {engines!r}:\n"
        "    sys.modules['linesat.' + name] = None\n"
        "from linesat.certify import lower_bound\n"
        "print(lower_bound(7, 3, 6), sorted(m for m, v in sys.modules.items() if v and m.startswith('linesat.')))"
    )
    src = str(Path(linesat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "31 ['linesat.certify']\n"
