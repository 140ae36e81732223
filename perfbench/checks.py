"""Independent answer checks.

None of this imports linesat: every check recomputes what it needs with
plain `Fraction` arithmetic and sets, so a bug in the code under test
cannot also hide in its check.  A check returns None when the answer is
right and a one-line reason when it is wrong.  `self_test` plants one wrong
answer per check and fails unless every check rejects its plant.
"""

import json
from fractions import Fraction
from itertools import combinations
from math import comb


def degenerate_edges(d) -> list[tuple[int, int, int]]:
    """Triples with a point between the other two, in lexicographic order."""
    out = []
    for a, b, c in combinations(range(len(d)), 3):
        if (
            d[a][b] + d[b][c] == d[a][c]
            or d[b][a] + d[a][c] == d[b][c]
            or d[a][c] + d[c][b] == d[a][b]
        ):
            out.append((a, b, c))
    return out


def metric_violation(d) -> str | None:
    n = len(d)
    if any(len(row) != n for row in d):
        return "witness is not square"
    for i in range(n):
        if d[i][i] != 0:
            return f"d[{i}][{i}] != 0"
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                return f"d[{i}][{j}] is not symmetric"
            if d[i][j] <= 0:
                return f"d[{i}][{j}] is not positive"
            for k in range(n):
                if k not in (i, j) and d[i][j] > d[i][k] + d[k][j]:
                    return f"triangle inequality fails at {i},{j},{k}"
    return None


def check_metric_verdict(status, witness, n: int, edges) -> str | None:
    """A "metric" verdict whose witness is a metric with exactly `edges`
    as its degenerate triangles."""
    if status != "metric":
        return f"expected metric, got {status}"
    if witness is None or len(witness) != n:
        return "missing or wrongly sized witness"
    bad = metric_violation(witness)
    if bad:
        return bad
    if degenerate_edges(witness) != sorted(tuple(sorted(e)) for e in edges):
        return "witness has a different degenerate set"
    return None


def restricts_to(edges, core, family) -> bool:
    """True iff `edges` restricted to the vertices in `core`, with core[i]
    renamed i, is exactly `family`."""
    index = {v: i for i, v in enumerate(core)}
    inside = sorted(
        tuple(sorted(index[v] for v in e)) for e in edges if all(v in index for v in e)
    )
    return inside == sorted(family)


def check_nonmetric_by_restriction(status, edges, core, family) -> str | None:
    """A "non-metric" verdict on a hypergraph containing a relabeled copy of
    a known non-metric family as an induced subfamily.

    A metric realizing `edges` restricts to a metric on `core` realizing
    the induced subfamily, so containing `family` forces "non-metric".
    """
    if not restricts_to(edges, core, family):
        return "input does not contain the non-metric family on its core"
    if status != "non-metric":
        return f"expected non-metric, got {status}"
    return None


def wsat(n: int, r: int, k: int) -> int:
    """Weak saturation number of K^r_k: C(n, r) - C(n - k + r, r)."""
    return comb(n, r) - comb(n - k + r, r)


def size_bound(n: int, r: int, k: int) -> int:
    """C(n, r) - n + k - 1: every hypergraph this large weakly saturates."""
    return comb(n, r) - n + k - 1


def closure(n: int, r: int, k: int, edges) -> set:
    """Weak K^r_k closure by repeated full scans, the slow obvious way."""
    current = {tuple(sorted(e)) for e in edges}
    changed = True
    while changed:
        changed = False
        for s in combinations(range(n), k):
            missing = [t for t in combinations(s, r) if t not in current]
            if len(missing) == 1:
                current.add(missing[0])
                changed = True
    return current


def check_min_sat(value, n: int, r: int, k: int) -> str | None:
    want = wsat(n, r, k)
    return None if value == want else f"min-sat {value}, closed form {want}"


def check_all_saturate(result) -> str | None:
    return None if result is None else "found a counterexample at the size bound"


def check_counterexample(n: int, r: int, k: int, size: int, edges) -> str | None:
    """A hypergraph of `size` edges whose closure is not complete."""
    if edges is None:
        return f"no counterexample below the size bound at size {size}"
    edges = [tuple(sorted(e)) for e in edges]
    if len(set(edges)) != size or any(
        len(e) != r or len(set(e)) != r or not all(0 <= v < n for v in e)
        for e in edges
    ):
        return f"counterexample is not {size} distinct {r}-subsets of 0..{n - 1}"
    if len(closure(n, r, k, edges)) == comb(n, r):
        return "counterexample saturates"
    return None


def replay_certificate(cert) -> set | None:
    """The edge set a certificate ends at, or None if a step is illegal."""
    n, r, k = cert["n"], cert["r"], cert["k"]
    current = {tuple(sorted(e)) for e in cert["base"]}
    for step in cert["steps"]:
        t, s = tuple(sorted(step["T"])), tuple(sorted(step["S"]))
        if len(s) != k or len(set(s)) != k or not all(0 <= v < n for v in s):
            return None
        missing = [u for u in combinations(s, r) if u not in current]
        if missing != [t]:
            return None
        current.add(t)
    return current


def check_certificate(cert, closure_edges=None) -> str | None:
    """A certificate whose steps are legal and end at a closed set, equal
    to `closure_edges` when that is given."""
    final = replay_certificate(cert)
    if final is None:
        return "certificate step is illegal"
    n, r, k = cert["n"], cert["r"], cert["k"]
    for s in combinations(range(n), k):
        if sum(1 for t in combinations(s, r) if t not in final) == 1:
            return "certificate stops before the closure is reached"
    if closure_edges is not None and final != {tuple(e) for e in closure_edges}:
        return "closure output differs from the certificate's end set"
    return None


def check_order(coords, order) -> str | None:
    """A line order equal to coordinate order or its reverse."""
    if order is None:
        return "no order for a line metric"
    forward = sorted(range(len(coords)), key=lambda i: coords[i])
    if list(order) not in (forward, forward[::-1]):
        return "order is not coordinate order or its reverse"
    return None


def check_theta_edges(n: int, edges) -> str | None:
    """Theta-graph metric: the non-edges are exactly {0, 1, i} for i >= 4."""
    have = {tuple(e) for e in edges}
    missing = set(combinations(range(n), 3)) - have
    if missing != {(0, 1, i) for i in range(4, n)} or len(have) != len(edges):
        return "theta degenerate set is not all triples but {0,1,i}, i >= 4"
    return None


def parse_matrix(obj) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in obj["dist"]]


def check_audit(report, family) -> str | None:
    """The 19-edge family is non-metric and each single-vertex deletion is
    metric, with a witness that checks out."""
    if report["root"]["status"] != "non-metric":
        return "19-edge family judged metric"
    if len(report["deletions"]) != 6 or report["minimal_non_metric"] is not True:
        return "audit does not report six deletions and minimality"
    for entry in report["deletions"]:
        v = entry["deleted_vertex"]
        kept = [
            tuple(x - (x > v) for x in e) for e in family if v not in e
        ]
        witness = entry["witness"]
        bad = check_metric_verdict(
            entry["status"], witness and parse_matrix(witness), 5, kept
        )
        if bad:
            return f"deletion of {v}: {bad}"
    return None


def self_test() -> list[str]:
    """Names of checks that accepted a planted wrong answer, or missed a
    right one.  Empty when every check works."""
    bad = []

    def expect(name, right, wrong):
        if right is not None:
            bad.append(f"{name}: rejected a right answer ({right})")
        if wrong is None:
            bad.append(f"{name}: accepted a planted wrong answer")

    line = [[Fraction(abs(a - b)) for b in (0, 1, 3, 7, 8)] for a in (0, 1, 3, 7, 8)]
    line_edges = degenerate_edges(line)
    perturbed = [row[:] for row in line]
    perturbed[0][4] = perturbed[4][0] = Fraction(17, 2)
    expect(
        "metric witness, one distance perturbed",
        check_metric_verdict("metric", line, 5, line_edges),
        check_metric_verdict("metric", perturbed, 5, line_edges),
    )
    expect(
        "metric witness, flipped verdict",
        check_metric_verdict("metric", line, 5, line_edges),
        check_metric_verdict("non-metric", None, 5, line_edges),
    )
    family = [t for t in combinations(range(6), 3) if t != (3, 4, 5)]
    star = [t for t in combinations(range(7), 3) if min(t) <= 2]
    expect(
        "non-metric by restriction, flipped verdict",
        check_nonmetric_by_restriction("non-metric", star, tuple(range(6)), family),
        check_nonmetric_by_restriction("metric", star, tuple(range(6)), family),
    )
    expect(
        "non-metric by restriction, family missing",
        check_nonmetric_by_restriction("non-metric", family, tuple(range(6)), family),
        check_nonmetric_by_restriction("non-metric", family[1:], tuple(range(6)), family),
    )
    expect("min-sat off by one", check_min_sat(31, 7, 3, 6), check_min_sat(30, 7, 3, 6))
    expect("size bound", check_all_saturate(None), check_all_saturate(object()))
    full = list(combinations(range(5), 2))
    expect(
        "counterexample that saturates",
        check_counterexample(5, 2, 4, 6, full[:3] + full[7:]),
        check_counterexample(5, 2, 4, 7, full[:7]),
    )
    coords = [Fraction(5), Fraction(-1), Fraction(2)]
    expect("swapped order", check_order(coords, [1, 2, 0]), check_order(coords, [2, 1, 0]))
    theta = [t for t in combinations(range(7), 3) if t not in ((0, 1, 4), (0, 1, 5), (0, 1, 6))]
    expect(
        "theta non-edges",
        check_theta_edges(7, theta),
        check_theta_edges(7, theta + [(0, 1, 5)]),
    )
    cert = {
        "n": 6, "r": 3, "k": 6,
        "base": family,
        "steps": [{"T": [3, 4, 5], "S": [0, 1, 2, 3, 4, 5]}],
    }
    mutated = json.loads(json.dumps(cert))
    mutated["steps"][0]["T"] = [2, 4, 5]  # present already, so not the missing one
    expect("mutated certificate step", check_certificate(cert), check_certificate(mutated))
    truncated = dict(cert, steps=[])
    expect("certificate stopped early", check_certificate(cert), check_certificate(truncated))
    flipped = {"root": {"status": "metric"}, "deletions": [], "minimal_non_metric": True}
    if check_audit(flipped, family) is None:
        bad.append("audit, flipped root verdict: accepted a planted wrong answer")
    return bad
