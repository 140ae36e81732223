"""Seeded workload inputs, built with this benchmark's own code.

Nothing here imports linesat: a change to the library's generators
(`random_rational_metric`, `star_construction`, ...) cannot shift a
workload.  Every builder takes a `random.Random` seeded from the workload
name and the run's `--seed`, so one seed always gives the same inputs.
"""

import random
from fractions import Fraction
from itertools import combinations

import checks

# The sparse n=7 worst case: random_rational_metric(7, 3) at the library's
# initial import, frozen here with its 9 degenerate triangles.  One LP call
# decides it and takes nearly all of its time.
N7_MATRIX = (
    ("0", "26/3", "61/6", "80/3", "209/4", "199/12", "10/3"),
    ("26/3", "0", "31/6", "62/3", "185/4", "101/4", "20/3"),
    ("61/6", "31/6", "0", "33/2", "505/12", "241/12", "65/6"),
    ("80/3", "62/3", "33/2", "0", "119/4", "353/12", "82/3"),
    ("209/4", "185/4", "505/12", "119/4", "0", "55", "635/12"),
    ("199/12", "101/4", "241/12", "353/12", "55", "0", "239/12"),
    ("10/3", "20/3", "65/6", "82/3", "635/12", "239/12", "0"),
)
N7_EDGES = (
    (0, 2, 3), (0, 2, 4), (0, 1, 5), (1, 2, 5), (1, 3, 6),
    (2, 3, 6), (1, 4, 6), (2, 4, 6), (0, 5, 6),
)

# Degenerate-set sizes of the 6-point L1 instances, and how many of each a
# run decides.  Cost falls with the edge count (fewer non-edges, a smaller
# LP) and varies several-fold between instances of one count; at 17 edges
# it varies least (CV 0.25, mean 0.16 s).  Many such instances keep one
# seed's pass, median and tail close to another's; the n=7 case carries
# the large LP.
LP_STRATA = {17: 60}
L1_GRID = 4

# Sizes of the seeded subsets of triples through vertex 6 that extend the
# 19-edge family; eleven extensions of each size.  Sizes 2 to 7 cost about
# the same (0.21-0.25 s mean); from 8 up some extensions cost several times
# more branches, and a few of them would set a seed's tail.
EXTENSION_SIZES = tuple(range(2, 8)) * 11


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def n7_matrix() -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in N7_MATRIX]


def l1_points(rng: random.Random, n: int, grid: int) -> list[tuple[int, int]]:
    """n distinct integer points of the square [0, grid]^2."""
    pts: list[tuple[int, int]] = []
    while len(pts) < n:
        p = (rng.randint(0, grid), rng.randint(0, grid))
        if p not in pts:
            pts.append(p)
    return pts


def l1_matrix(pts) -> list[list[int]]:
    return [[abs(p[0] - q[0]) + abs(p[1] - q[1]) for q in pts] for p in pts]


def realize_lp_instances(rng: random.Random):
    """(label, matrix, degenerate edges) for the 6-point L1 instances, in
    the order drawn, stratified by edge count as LP_STRATA says."""
    need = dict(LP_STRATA)
    out = []
    while any(need.values()):
        d = l1_matrix(l1_points(rng, 6, L1_GRID))
        edges = checks.degenerate_edges(d)
        if need.get(len(edges), 0) > 0:
            need[len(edges)] -= 1
            out.append((f"l1-6/e{len(edges)}#{len(out)}", d, edges))
    return out


def nineteen_edge_family() -> list[tuple[int, int, int]]:
    """All triples on {0..5} except the colex-last one, {3, 4, 5}."""
    return [t for t in combinations(range(6), 3) if t != (3, 4, 5)]


def star_triples(n: int) -> list[tuple[int, int, int]]:
    """All triples on {0..n-1} meeting {0, 1, 2}."""
    return [t for t in combinations(range(n), 3) if min(t) <= 2]


def relabel(edges, perm) -> list[tuple[int, ...]]:
    return sorted(tuple(sorted(perm[x] for x in e)) for e in edges)


def nineteen_edge_extensions(rng: random.Random):
    """(label, edges, core) for 7-vertex extensions of the 19-edge family.

    Each adds a seeded subset of the 15 triples through vertex 6 and then
    relabels all 7 vertices at random; `core` lists the images of 0..5, in
    order, so the extension restricted to it is the 19-edge family.
    """
    base = nineteen_edge_family()
    through6 = [t for t in combinations(range(7), 3) if 6 in t]
    out = []
    for i, size in enumerate(EXTENSION_SIZES):
        extra = rng.sample(through6, size)
        perm = list(range(7))
        rng.shuffle(perm)
        core = tuple(perm[v] for v in range(6))
        out.append((f"ext/+{size}#{i}", relabel(base + extra, perm), core))
    return out


def line_coordinates(rng: random.Random, n: int) -> list[Fraction]:
    """n distinct sixths in [-60, 61)."""
    out: list[Fraction] = []
    while len(out) < n:
        c = Fraction(rng.randint(-360, 365), 6)
        if c not in out:
            out.append(c)
    return out


def matrix_json(d) -> str:
    """A distance matrix of ints or Fractions in the CLI's matrix schema."""
    def emit(x):
        x = Fraction(x)
        return str(x.numerator) if x.denominator == 1 else f'"{x}"'

    rows =",".join("[" + ",".join(emit(x) for x in row) + "]" for row in d)
    return '{"n":%d,"dist":[%s]}' % (len(d), rows)


def hypergraph_json(n: int, edges) -> str:
    """A 3-uniform hypergraph in the CLI's schema, edges in colex order."""
    ordered = sorted(edges, key=lambda e: tuple(reversed(e)))
    body = ",".join("[" + ",".join(map(str, e)) + "]" for e in ordered)
    return '{"n":%d,"r":3,"edges":[%s]}' % (n, body)
