"""Acceptance runs for the full artifact, one test per criterion.

Each test prints a single pass/fail line with its runtime against the
stated limit; run `pytest tests/test_acceptance.py -v -s` to stream them.
The long n=7 minimum-size scan is gated behind `--slow`.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest

from linesat.hypergraph import (
    UniformHypergraph,
    complement,
    delete_vertex,
    full_edge_mask,
    star_construction,
)
from linesat.lines import check_order, reconstruct_line, verify_non_anchor_witness
from linesat.metric import (
    degenerate_hypergraph,
    four_cycle_metric,
    graph_metric,
    line_metric,
    middle_of,
    random_rational_metric,
    theta_graph,
    validate_metric,
)
from linesat.realizability import _tables, minimal_nonmetric_audit, nineteen_edge_hypergraph
from linesat.saturation import (
    ClosureCertificate,
    exhaustive_size_check,
    is_weakly_saturated,
    min_saturation_search,
    verify_certificate,
    weak_saturation_closure,
)

collected_certificates = []


def report(num, desc, ok, elapsed, limit):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"acceptance {num:02d} [{status}] {desc} ({elapsed:.2f}s, limit {limit:g}s)")
    assert ok, f"criterion {num} assertions failed"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def relabel(h, perm):
    return UniformHypergraph.from_edges(
        h.n, h.r, (tuple(perm[v] for v in e) for e in h.edge_list())
    )


def test_01_nineteen_edge_closures_reach_complete():
    start = time.perf_counter()
    ok = True
    full = full_edge_mask(6, 3)
    for missing in range(comb(6, 3)):
        h = UniformHypergraph(6, 3, full ^ 1 << missing)
        result = weak_saturation_closure(h, 6)
        collected_certificates.append(result.certificate)
        ok = ok and result.closure.is_complete()
    report(1, "all twenty 19-edge families close to complete", ok, time.perf_counter() - start, 1)


def test_02_exhaustive_size_bound():
    start = time.perf_counter()
    ok = exhaustive_size_check(6, 3, 6, 19) is None
    ok = ok and exhaustive_size_check(7, 3, 6, 33) is None
    counterexample = exhaustive_size_check(7, 3, 6, 32)
    ok = ok and counterexample is not None
    # sample certificates from this regime for the replay criterion
    result = weak_saturation_closure(counterexample, 6)
    collected_certificates.append(result.certificate)
    ok = ok and not result.closure.is_complete()
    full33 = UniformHypergraph(7, 3, full_edge_mask(7, 3) ^ 0b11)
    result = weak_saturation_closure(full33, 6)
    collected_certificates.append(result.certificate)
    ok = ok and result.closure.is_complete()
    report(2, "size bound exact at n=6 and n=7", ok, time.perf_counter() - start, 10)


def test_03_theta_family_tightness():
    start = time.perf_counter()
    ok = True
    for n in range(6, 10):
        d = graph_metric(theta_graph(n))
        h = degenerate_hypergraph(d)
        nondeg = complement(h).edge_list()
        ok = ok and nondeg == [(0, 1, i) for i in range(4, n)]
        ok = ok and len(nondeg) == n - 4
        ok = ok and verify_non_anchor_witness(h, d)
    report(3, "theta metrics witness tightness for n=6..9", ok, time.perf_counter() - start, 1)


def test_04_star_construction_saturates():
    start = time.perf_counter()
    ok = True
    for n in range(5, 11):
        star = star_construction(n)
        ok = ok and star.edge_count == 3 * comb(n - 2, 2) + 1
        ok = ok and is_weakly_saturated(star, 6)
        collected_certificates.append(weak_saturation_closure(star, 6).certificate)
    report(4, "star families have the closed-form size and saturate, n=5..10", ok, time.perf_counter() - start, 5)


def test_05_minimum_saturated_size_at_six():
    start = time.perf_counter()
    ok = min_saturation_search(6, 3, 6) == 19
    collected_certificates.append(
        weak_saturation_closure(star_construction(6), 6).certificate
    )
    report(5, "minimum weakly saturated size at n=6 is 19", ok, time.perf_counter() - start, 300)


@pytest.mark.slow
def test_05b_minimum_saturated_size_at_seven():
    start = time.perf_counter()
    ok = min_saturation_search(7, 3, 6) == 31
    collected_certificates.append(
        weak_saturation_closure(star_construction(7), 6).certificate
    )
    report(5, "minimum weakly saturated size at n=7 is 31 (324632 closures)", ok, time.perf_counter() - start, 300)


def test_06_line_reconstruction_at_desk_scale():
    start = time.perf_counter()
    rng = random.Random(2023)
    ok = True
    for _ in range(500):
        n = rng.randint(5, 9)
        coords = rng.sample(range(-40 * n, 40 * n), n)
        denom = rng.randint(1, 9)
        d = line_metric([Fraction(c, denom) for c in coords])
        order = reconstruct_line(d)
        ok = ok and order is not None and check_order(d, order)
    cyc = four_cycle_metric()
    ok = ok and reconstruct_line(cyc) is None
    ok = ok and all(not check_order(cyc, p) for p in permutations(range(4)))
    report(6, "500 collinear metrics reconstruct; the 4-cycle never does", ok, time.perf_counter() - start, 5)


def test_07_betweenness_propagation_rule_holds():
    # realize propagates over the 4-point rule and exclusivity, proved in
    # the realizability docstring.  On 1000 random metrics, a line and a
    # theta graph: `middle_of` raises on a triple with two middles, every
    # 4-point instance of the rule holds, and so does every rule clause of
    # `_tables(n)`, whose slot is 3 * colex rank + the middle's position.
    start = time.perf_counter()
    rng = random.Random(99)
    metrics = [random_rational_metric(rng.randint(4, 8), rng.randrange(2**32)) for _ in range(1000)]
    metrics += [line_metric([3, 0, 6, 1, 7, 4, 2, 5]), graph_metric(theta_graph(8))]
    ok, fired = True, 0  # 4,766 instances fire
    for d in metrics:
        triples = sorted(combinations(range(d.n), 3), key=lambda t: t[::-1])
        middle = {t: middle_of(d, t) for t in triples}

        def between(x, y, z):
            return middle[tuple(sorted((x, y, z)))] == y

        for a, b, c, e in permutations(range(d.n), 4):
            if between(a, b, c) and between(a, c, e):
                fired += 1
                ok = ok and between(a, b, e) and between(b, c, e)
        true = {3 * i + t.index(middle[t]) for i, t in enumerate(triples) if middle[t] is not None}
        rules = _tables(d.n)[1]
        for s in true:
            for partner, c1, c2 in rules[s]:
                ok = ok and (partner not in true or {c1, c2} <= true)
    ok = ok and fired > 4000
    report(7, "propagation rule holds on 1002 metrics", ok, time.perf_counter() - start, 30)


def test_08_minimal_nonmetric_audit():
    start = time.perf_counter()
    report_obj = minimal_nonmetric_audit()
    ok = report_obj.root.verdict.status == "non-metric"
    root = nineteen_edge_hypergraph()
    for entry in report_obj.deletions:
        ok = ok and entry.verdict.status == "metric"
        witness = entry.verdict.witness
        ok = ok and witness is not None
        if witness is not None:
            validate_metric(witness)
            expected = delete_vertex(root, entry.deleted_vertex)
            ok = ok and degenerate_hypergraph(witness).edges == expected.edges
    report(8, "19-edge family non-metric; every deletion metric with exact witness", ok, time.perf_counter() - start, 120)


def test_09_generalized_bound_for_pairs():
    start = time.perf_counter()
    ok = exhaustive_size_check(6, 2, 4, 12) is None
    ok = ok and exhaustive_size_check(6, 2, 4, 11) is not None
    report(9, "pair bound: all 455 twelve-edge graphs saturate, some 11-edge fails", ok, time.perf_counter() - start, 10)


def test_10_closure_determinism_and_idempotence():
    start = time.perf_counter()
    rng = random.Random(41)
    ok = True
    perm = list(range(8))
    for _ in range(100):
        mask = 0
        for t in rng.sample(range(comb(8, 3)), rng.randint(20, 45)):
            mask |= 1 << t
        h = UniformHypergraph(8, 3, mask)
        closure = weak_saturation_closure(h, 6).closure
        # A vertex relabeling changes the processing order; the closure
        # must move with the labels: closure(pi h) == pi closure(h).
        rng.shuffle(perm)
        relabeled = weak_saturation_closure(relabel(h, perm), 6).closure
        ok = ok and relabeled.edges == relabel(closure, perm).edges
        again = weak_saturation_closure(closure, 6).closure
        ok = ok and again.edges == closure.edges
    report(10, "closure commutes with 100 random relabelings and is idempotent", ok, time.perf_counter() - start, 10)


def test_11_certificates_replay():
    start = time.perf_counter()
    ok = len(collected_certificates) >= 28
    for cert in collected_certificates:
        ok = ok and verify_certificate(cert)
    sample = next(c for c in collected_certificates if c.steps)
    _, s = sample.steps[0]
    mutated = ClosureCertificate(
        sample.base, sample.k, ((sample.base.edge_list()[0], s),) + sample.steps[1:]
    )
    ok = ok and not verify_certificate(mutated)
    report(11, "all emitted certificates replay; a mutated one fails", ok, time.perf_counter() - start, 1)
