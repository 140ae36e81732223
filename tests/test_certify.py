import os
import random
import subprocess
import sys
import time
from itertools import combinations, permutations
from math import comb
from pathlib import Path

import pytest

import linesat
from linesat import certify
from linesat.cli import main
from linesat.errors import InternalConsistencyError
from linesat.hypergraph import DEFAULT_BUDGET, UniformHypergraph, complement, rank
from linesat.metric import degenerate_hypergraph, graph_metric, theta_graph
from linesat.saturation import (
    exhaustive_size_check,
    is_weakly_saturated,
    min_saturation_search,
    weak_saturation_closure,
)
from scan_oracle import _scan_all

P = certify.P


def shapes(n_max):
    return [(n, r, k) for n in range(2, n_max + 1) for k in range(2, n + 1) for r in range(1, k)]


SHAPES = shapes(7)


def wsat(n, r, k):
    # Frankl 1982; Kalai 1985
    return comb(n, r) - comb(n - k + r, r)


# --- the oracle: the rank of the full matrix ----------------------------------------


def _rank(rows):
    """The rank mod P of integer rows, row-reduced in place."""
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % P), None)
        if pivot is None:
            continue
        top = rows[pivot]
        rows[pivot], rows[rank] = rows[rank], top
        inv = pow(top[col], -1, P)
        top = [a * inv % P for a in top]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] % P
            if f:
                rows[i] = [(a - f * b) % P for a, b in zip(rows[i], top)]
        rank += 1
    return rank


def _rows(points, n, r):
    """Each r-set T's vector v_T, in `combinations` order: column j * d + e
    is coordinate e of the block of the j-th (r-1)-subset."""
    d = len(points[0]) if points else 0
    block = {u: j * d for j, u in enumerate(combinations(range(n), r - 1))}
    rows = []
    for t in combinations(range(n), r):
        row = [0] * (d * len(block))
        for q, i in enumerate(t):
            j = block[t[:q] + t[q + 1:]]
            row[j:j + d] = [-a for a in points[i]] if q % 2 else points[i]
        rows.append(row)
    return rows


def _curve(nodes, d):
    """The points x_i = (1, a_i, ..., a_i^(d-1)) mod P of the nodes."""
    return tuple(tuple(pow(a, e, P) for e in range(d)) for a in nodes)


def _random_nodes(n, seed, size=10**12):
    # entries beyond P, negative ones too: the checker reads them mod P
    rng = random.Random(seed)
    nodes = {}
    while len(nodes) < n:
        a = rng.randint(-size, size)
        nodes.setdefault(a % P, a)
    return tuple(nodes.values())


def _random_points(n, d, seed, size=10**12):
    rng = random.Random(seed)
    return tuple(tuple(rng.randint(-size, size) for _ in range(d)) for _ in range(n))


@pytest.mark.parametrize("n, r, k", shapes(9))
def test_certified_bound_is_the_closed_form(n, r, k):
    assert certify.lower_bound(n, r, k) == wsat(n, r, k)


@pytest.mark.parametrize("kind", ["moment-curve", "random"])
@pytest.mark.parametrize("n, r, k", shapes(9))
def test_full_rank_is_the_checked_bound(n, r, k, kind):
    # the docstring's proof, against elimination: F_K's rows are
    # independent, and no row adds to their rank, on all 120 shapes n <= 9
    nodes = range(1, n + 1) if kind == "moment-curve" else _random_nodes(n, 7 * n + 3 * r + k)
    rows = _rows(_curve(nodes, k - r), n, r)
    meeting = [row for t, row in zip(combinations(range(n), r), rows) if t[0] < k - r]
    assert len(meeting) == certify.check(tuple(nodes), n, r, k) == wsat(n, r, k)
    assert _rank(meeting) == _rank(rows) == len(meeting)


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


@pytest.mark.parametrize("n, r, k", shapes(7))
def test_random_points_prove_the_closed_form(n, r, k):
    nodes = _random_nodes(n, seed=100 * n + 10 * r + k)
    assert certify.check(nodes, n, r, k) == wsat(n, r, k)


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
        if any(a % P for a in total):
            return False
    return True


@pytest.mark.parametrize("kind", ["moment-curve", "random"])
@pytest.mark.parametrize("n", range(2, 9))
def test_every_relation_vanishes_identically(n, kind):
    # the checker sums no relation, so the vectors the proof ranks must
    # satisfy them for any points: a sign slip in `_rows` shows here
    for k in range(2, n + 1):
        for r in range(1, k):
            if kind == "moment-curve":
                points = _curve(range(1, n + 1), k - r)
            else:
                points = _random_points(n, k - r, seed=1000 + 100 * n + 10 * r + k)
            assert _relations_vanish(points, n, r, k, _rows(points, n, r)), (n, r, k)


def test_relation_check_sees_one_negated_vector():
    points = _curve(range(1, 7), 2)
    rows = _rows(points, 6, 2)
    assert _relations_vanish(points, 6, 2, 4, rows)
    rows[5] = [-a for a in rows[5]]
    assert not _relations_vanish(points, 6, 2, 4, rows)


MUTANTS = {
    "repeated-node": lambda nodes: (nodes[0], *nodes[:-1]),
    "node-plus-P": lambda nodes: (nodes[0], nodes[0] + P, *nodes[2:]),
    "one-node-short": lambda nodes: nodes[:-1],
}


@pytest.mark.parametrize("mutate", MUTANTS.values(), ids=MUTANTS)
def test_mutant_nodes_are_refused_and_min_sat_raises(monkeypatch, capsys, mutate):
    mutant = mutate(tuple(range(1, 8)))
    assert certify.check(mutant, 7, 3, 6) is None
    monkeypatch.setattr(certify, "lower_bound", lambda n, r, k: certify.check(mutant, n, r, k))
    with pytest.raises(InternalConsistencyError):
        min_saturation_search(7, 3, 6)
    assert main(["sweep", "min-sat", "--n", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the rank certificate at n=7 r=3 k=6 does not give 31\n"


def test_checker_refuses_malformed_shapes():
    nodes = tuple(range(1, 7))
    assert certify.check(nodes, 6, 2, 4) == wsat(6, 2, 4)
    assert certify.check(nodes, 7, 2, 4) is None  # one node short
    assert certify.check(nodes, 6, 2, 2) is None  # k = r
    assert certify.check(nodes, 6, 0, 2) is None  # r = 0
    assert certify.check(nodes, 6, 2, 7) is None  # k > n: no k-set


def test_min_saturation_asks_for_the_certificate_only_where_it_pays(monkeypatch):
    # no scan is left to weigh it against: it is asked once on every shape
    # with 1 <= r < k <= n, and never at k > n or k = r
    asked = []
    bound = certify.lower_bound

    def counted(*args):
        asked.append(args)
        return bound(*args)

    monkeypatch.setattr(certify, "lower_bound", counted)
    shapes = [(7, 3, 6), (7, 2, 4), (6, 3, 6), (30, 1, 28)]
    for shape in shapes:
        assert min_saturation_search(*shape) == wsat(*shape)
    assert min_saturation_search(5, 3, 6) == 10 and min_saturation_search(7, 3, 3) == 0
    assert asked == shapes


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


# --- closed complements ----------------------------------------------------------------


def sunflower(n, r, k, mirrored=False):
    """The petals {0..r-2} + {x}, x outside the core and the top k-r-1
    points, each vertex v taken to n-1-v when mirrored."""
    petals = [(*range(r - 1), x) for x in range(r - 1, n - k + r + 1)]
    return [tuple(n - 1 - v for v in t) if mirrored else t for t in petals]


@pytest.mark.parametrize("mirrored", [False, True], ids=["core-low", "core-high"])
@pytest.mark.parametrize("n, r, k", shapes(9))
def test_sunflower_is_a_closed_complement(n, r, k, mirrored):
    petals = sunflower(n, r, k, mirrored)
    assert len(petals) == n - k + 2
    assert certify.closed_complement(n, r, k, petals)
    assert not is_weakly_saturated(complement(UniformHypergraph.from_edges(n, r, petals)), k)


def _petal_into_d(n, r, k):
    # its point joins the left-out set, which then fills a k-set with the core
    return sunflower(n, r, k)[:-1]


def _extra_alone(n, r, k):
    # the top r points avoid the core, so a k-set of them and petal points
    # without the core meets this member alone
    return [*sunflower(n, r, k), tuple(range(n - r, n))]


def _duplicate(n, r, k):
    petals = sunflower(n, r, k)
    return [*petals, petals[0]]


def _out_of_range(n, r, k):
    return [*sunflower(n, r, k)[:-1], (*range(r - 1), n)]


def _empty(n, r, k):
    return []


SUNFLOWER_MUTANTS = {
    "petal-into-D": _petal_into_d,
    "extra-member-met-alone": _extra_alone,
    "duplicate-member": _duplicate,
    "out-of-range-vertex": _out_of_range,
    "empty": _empty,
}


@pytest.mark.parametrize("mutate", SUNFLOWER_MUTANTS.values(), ids=SUNFLOWER_MUTANTS)
@pytest.mark.parametrize("n, r, k", [(9, 3, 6), (8, 2, 4), (7, 3, 5), (10, 4, 6)])
def test_mutant_sunflowers_are_rejected(n, r, k, mutate):
    assert not certify.closed_complement(n, r, k, mutate(n, r, k))


def _seeded_stuck_families(count=40):
    """(n, family) of seeded (3, 6) families on 6..12 points that do not saturate."""
    rng = random.Random(29)
    found = []
    while len(found) < count:
        n = rng.randint(6, 12)
        ranks = rng.sample(range(comb(n, 3)), rng.randint(comb(n, 3) // 2, comb(n, 3) - 1))
        h = UniformHypergraph(n, 3, sum(1 << t for t in ranks))
        if not is_weakly_saturated(h, 6):
            found.append((n, h))
    return found


def test_closure_complements_are_closed_complements():
    for n, h in _seeded_stuck_families():
        rest = complement(weak_saturation_closure(h, 6).closure).edge_list()
        assert certify.closed_complement(n, 3, 6, rest), (n, h.edges)


def all_members_loop(n, r, k, members):
    """The closed-complement check tested member by member: every k-set
    around each member against every other member in turn."""
    masks = [sum(1 << v for v in t) for t in members]
    for u in masks:
        others = [v for v in masks if v != u]
        outside = [1 << x for x in range(n) if not u >> x & 1]
        for extra in combinations(outside, k - r):
            s = u | sum(extra)
            if not any(v & s == v for v in others):
                return False
    return True


def test_closed_complement_matches_the_all_members_loop():
    # Seeded member sets at n <= 9 and r = 1..3: closure complements, which
    # are closed, and random sets, mostly not.  The sets must include ones
    # where two members leave the same one vertex outside a third, ones
    # where a member leaves more than one, ones where a member has fewer
    # than k - r free vertices (outside it and every one-vertex remainder),
    # so no k-set around it is tried, and ones where a member's k-sets of
    # free vertices are tested against a larger remainder.
    rng = random.Random(41)
    seen = set()
    for i in range(400):
        n = rng.randint(3, 9)
        r = rng.randint(1, min(3, n - 1))
        k = rng.randint(r + 1, n)
        everything = list(combinations(range(n), r))
        if i % 2:
            h = UniformHypergraph.from_edges(n, r, rng.sample(everything, rng.randint(0, len(everything))))
            members = complement(weak_saturation_closure(h, k).closure).edge_list()
            if not members:
                continue
        else:
            members = rng.sample(everything, rng.randint(1, min(len(everything), 2 * n)))
        verdict = certify.closed_complement(n, r, k, members)
        assert verdict == all_members_loop(n, r, k, members), (n, r, k, members)
        seen.add(verdict)
        for u in map(set, members):
            rests = [frozenset(v) - u for v in members if set(v) != u]
            if any(len(rest) > 1 for rest in rests):
                seen.add("larger remainder")
            if any(rests.count(rest) > 1 for rest in rests if len(rest) == 1):
                seen.add("repeated remainder")
            free = n - r - len({v for rest in rests if len(rest) == 1 for v in rest})
            if free < k - r:
                seen.add("too few free vertices")
            elif any(len(rest) > 1 for rest in rests):
                seen.add("free vertices beside a larger remainder")
    assert seen == {
        True, False, "larger remainder", "repeated remainder",
        "too few free vertices", "free vertices beside a larger remainder",
    }


@pytest.mark.parametrize("n", [8, 10, 12])
def test_closed_complement_with_a_member_dropped_is_rejected(n):
    # theta(n)'s n-4 nondegenerate triangles {0, 1, i}, i >= 4, are its
    # closure's complement, a sunflower leaving out 2 and 3; without
    # {0, 1, 4}, the 6-set {0..5} meets the rest in {0, 1, 5} alone
    h = degenerate_hypergraph(graph_metric(theta_graph(n)))
    rest = complement(weak_saturation_closure(h, 6).closure).edge_list()
    assert certify.closed_complement(n, 3, 6, rest)
    assert not certify.closed_complement(n, 3, 6, rest[1:])


def test_size_check_at_53_points_tries_no_k_set_around_a_petal():
    # Each petal's other petals leave one vertex apiece, so its free
    # vertices are the k - r - 1 left-out points and no 6-set is tried:
    # 49 * 49 remainders, not 49 * C(50, 3) = 960,400 6-sets.  The family is
    # the sunflower's complement with its highest ranks dropped to the size.
    n, size = 53, comb(53, 3) - 53 + 5 - 1
    start = time.perf_counter()
    h = exhaustive_size_check(n, 3, 6, size)
    assert time.perf_counter() - start < 0.05
    petals = {rank(t, n) for t in sunflower(n, 3, 6)}
    kept = [t for t in range(comb(n, 3)) if t not in petals][:size]
    assert h.edges == sum(1 << t for t in kept)


def test_failed_sunflower_check_makes_the_size_check_raise(monkeypatch, capsys):
    monkeypatch.setattr(certify, "closed_complement", lambda n, r, k, members: False)
    with pytest.raises(InternalConsistencyError):
        exhaustive_size_check(8, 3, 6, 52)
    assert exhaustive_size_check(8, 3, 6, 53) is None  # the induction checks nothing
    assert main(["sweep", "theorem2", "--n", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the sunflower at n=8 r=3 k=6 is not a closed complement\n"
