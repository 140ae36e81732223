"""The four workloads: seeded inputs, the ops that run them, and the
independent check each op's answer must pass.

`build(name, seed, workdir)` writes the inputs under `workdir` and returns a
Plan.  It imports linesat, so timing it covers what `setup_s` promises:
`import linesat` plus building and writing the seeded inputs.
"""

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Any, Callable

import checks
import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150


@dataclass
class Op:
    label: str
    group: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    # False for ops that run their own processes (CLI children, pool
    # workers): the speed probe's timer would then measure contention with
    # them, not the host's speed.
    probe_inside: bool = True


@dataclass
class Plan:
    ops: list[Op]
    # Nominal seconds of one pass on the seed code; a run makes
    # seconds // pass_seconds passes, so every run of a workload has the
    # same sample count and the same tail percentile.
    pass_seconds: float
    extra: dict = field(default_factory=dict)


def build(name: str, seed: int, workdir: Path) -> Plan:
    return BUILDERS[name](seed, workdir)


def _write(path: Path, text: str) -> None:
    path.write_text(text + "\n", encoding="utf-8")


# -- realize-lp -----------------------------------------------------------


def _realize_metric_op(label, n, edges):
    from linesat import UniformHypergraph, realizability

    h = UniformHypergraph.from_edges(n, 3, edges)

    def call():
        return realizability.is_metric_hypergraph(h, 7)

    def check(verdict):
        witness = None if verdict.witness is None else verdict.witness.d
        return checks.check_metric_verdict(verdict.status, witness, n, edges)

    return Op(label, "lp", call, check)


def build_realize_lp(seed: int, workdir: Path) -> Plan:
    rng = inputs.rng_for("realize-lp", seed)
    d7 = inputs.n7_matrix()
    if checks.degenerate_edges(d7) != sorted(inputs.N7_EDGES):
        raise RuntimeError("frozen n=7 matrix does not have its 9 stored edges")
    cases = [("n7-sparse/e9", d7, list(inputs.N7_EDGES))]
    cases += inputs.realize_lp_instances(rng)
    rng.shuffle(cases)
    _write(workdir / "instances.jsonl", "\n".join(
        '{"label":"%s","matrix":%s,"hypergraph":%s}'
        % (label, inputs.matrix_json(d), inputs.hypergraph_json(len(d), edges))
        for label, d, edges in cases
    ))
    ops = [_realize_metric_op(label, len(d), edges) for label, d, edges in cases]
    return Plan(ops, pass_seconds=20.0)


# -- realize-search -------------------------------------------------------


def _audit_as_json(report):
    def entry(e):
        w = e.verdict.witness
        return {
            "deleted_vertex": e.deleted_vertex,
            "status": e.verdict.status,
            "witness": None if w is None else {"dist": [[str(x) for x in row] for row in w.d]},
        }

    return {
        "root": entry(report.root),
        "deletions": [entry(e) for e in report.deletions],
        "minimal_non_metric": report.is_minimal_non_metric(),
    }


def build_realize_search(seed: int, workdir: Path) -> Plan:
    from linesat import UniformHypergraph, realizability

    rng = inputs.rng_for("realize-search", seed)
    family = inputs.nineteen_edge_family()
    cases = inputs.nineteen_edge_extensions(rng)
    cases.append(("star7", inputs.star_triples(7), tuple(range(6))))
    _write(workdir / "instances.jsonl", "\n".join(
        '{"label":"%s","hypergraph":%s}' % (label, inputs.hypergraph_json(7, edges))
        for label, edges, _ in cases
    ))
    ops = []
    for label, edges, core in cases:
        h = UniformHypergraph.from_edges(7, 3, edges)

        def call(h=h):
            return realizability.is_metric_hypergraph(h, 7)

        def check(verdict, edges=edges, core=core):
            return checks.check_nonmetric_by_restriction(verdict.status, edges, core, family)

        ops.append(Op(label, "ext" if label.startswith("ext") else "star", call, check))

    def audit():
        return realizability.minimal_nonmetric_audit()

    ops.append(Op("audit", "audit", audit, lambda r: checks.check_audit(_audit_as_json(r), family)))
    rng.shuffle(ops)
    return Plan(ops, pass_seconds=18.0)


# -- scan -----------------------------------------------------------------

# (label, function, (n, r, k[, size]), closures when the sweep runs to the
# end, known beforehand from binomials; None for sweeps that stop at the
# first counterexample).
SWEEPS = (
    ("min-sat(7,3,6)", "min_saturation_search", (7, 3, 6), 1 + comb(35, 5)),
    ("size(8,3,6,53)", "exhaustive_size_check", (8, 3, 6, 53), comb(56, 3)),
    ("size(8,3,6,52)", "exhaustive_size_check", (8, 3, 6, 52), None),
    ("size(6,2,4,12)", "exhaustive_size_check", (6, 2, 4, 12), comb(15, 3)),
    ("size(6,2,4,11)", "exhaustive_size_check", (6, 2, 4, 11), None),
)
# (r-subsets, subsets chosen) of the candidate stream of each full sweep:
# min-sat(7,3,6) ends on all 30-edge families, the complements of 5 of the
# 35 triples; the size sweeps take complements of 3 of 56 and of 15.
FULL_SWEEP_STREAMS = ((35, 5), (56, 3), (15, 3))


def _sweep_check(fn_name, args):
    if fn_name == "min_saturation_search":
        return lambda value: checks.check_min_sat(value, *args)
    n, r, k, size = args
    if size == checks.size_bound(n, r, k):
        return checks.check_all_saturate
    if size == checks.size_bound(n, r, k) - 1:
        return lambda h: checks.check_counterexample(
            n, r, k, size, None if h is None else h.edge_list()
        )
    raise ValueError(f"no closed form for {fn_name}{args}")


def _sweep_ops(jobs: int) -> list[Op]:
    from linesat import saturation

    ops = []
    for label, fn_name, args, _ in SWEEPS:

        def call(fn_name=fn_name, args=args):
            return getattr(saturation, fn_name)(*args, jobs=jobs)

        ops.append(Op(f"{label} jobs={jobs}", f"jobs{jobs}", call,
                      _sweep_check(fn_name, args), probe_inside=jobs == 1))
    return ops


def build_scan(seed: int, workdir: Path) -> Plan:
    """The sweeps at jobs=1; the same sweeps at jobs=2 go in
    extra["jobs2_ops"] and run only in traced runs.

    On a shared 2-core host, two pool workers finish when the slower one
    does: min-sat(7,3,6) at jobs=2 took 1.3 s to 3.2 s across runs, against
    1.6 s to 1.8 s at jobs=1.  No bound could gate that, so jobs=2 is
    reported (closures_per_s.jobs2) but not part of wall_s or the op
    latencies.
    """
    rng = inputs.rng_for("scan", seed)
    ops = _sweep_ops(1)
    # The sweeps are fixed exhaustive problems; the seed orders them, which
    # decides which sweep builds each closure table first.
    rng.shuffle(ops)
    _write(workdir / "sweeps.json", json.dumps([{"op": label, "closures": c} for label, _, _, c in SWEEPS]))
    full = {label: c for label, _, _, c in SWEEPS if c}
    return Plan(ops, pass_seconds=2.2, extra={"full_sweep_closures": full, "jobs2_ops": _sweep_ops(2)})


# -- pipeline -------------------------------------------------------------


@dataclass
class Invocation:
    label: str
    argv: list[str]  # "{d}" stands for the directory the run works in
    code: int
    check: Callable[[Path], str | None] | None = None

    def args(self, d: Path) -> list[str]:
        return [a.replace("{d}", str(d)) for a in self.argv]


def _json(d: Path, name: str):
    return json.loads((d / name).read_text(encoding="utf-8"))


def _expect(name, value):
    key = next(iter(value))

    def check(d):
        got = _json(d, name)
        return None if got == value else f"{name}: {got} where {key} should be {value[key]}"

    return check


def _theta_chain(tag: str, n: int, full: bool) -> list[Invocation]:
    """gen, degenerate, close, verify-cert and reconstruct on a theta-graph
    metric; `full` adds saturated, anchor, witness-check, saturated on the
    closure, and a repeated close that must write the same bytes."""
    m, h, c, cl = f"{tag}.json", f"{tag}-h.json", f"{tag}-cert.json", f"{tag}-closure.json"
    chain = [
        Invocation(f"gen theta {n}", ["gen", "theta", str(n), "-o", "{d}/" + m], 0,
                   lambda d: checks.metric_violation(checks.parse_matrix(_json(d, m)))),
        Invocation(f"degenerate theta {n}", ["degenerate", "{d}/" + m, "-o", "{d}/" + h], 0,
                   lambda d: checks.check_theta_edges(n, _json(d, h)["edges"])),
        Invocation(f"close theta {n}", ["close", "{d}/" + h, "-o", "{d}/" + c, "--closure-out", "{d}/" + cl], 0,
                   lambda d: checks.check_certificate(_json(d, c), _json(d, cl)["edges"])),
        Invocation(f"verify-cert theta {n}", ["verify-cert", "{d}/" + c, "-o", "{d}/" + tag + "-v.json"], 0,
                   _expect(tag + "-v.json", {"valid": True})),
        Invocation(f"reconstruct theta {n}", ["reconstruct", "{d}/" + m, "-o", "{d}/" + tag + "-r.json"], 1,
                   _expect(tag + "-r.json", {"order": None})),
    ]
    if not full:
        return chain

    def same(d):
        for a, b in ((c, f"{tag}-cert2.json"), (cl, f"{tag}-closure2.json")):
            if (d / a).read_bytes() != (d / b).read_bytes():
                return f"repeated close wrote different bytes to {b}"
        return None

    return chain + [
        Invocation(f"saturated theta {n}", ["saturated", "{d}/" + h, "-o", "{d}/" + tag + "-s.json"], 1,
                   _expect(tag + "-s.json", {"weakly_saturated": False})),
        Invocation(f"anchor theta {n}", ["anchor", "{d}/" + h, "-o", "{d}/" + tag + "-a.json"], 1,
                   _expect(tag + "-a.json", {"anchor_certified": False})),
        Invocation(f"witness-check theta {n}", ["witness-check", "{d}/" + h, "{d}/" + m, "-o", "{d}/" + tag + "-w.json"], 0,
                   _expect(tag + "-w.json", {"non_anchor_witness": True})),
        Invocation(f"saturated theta {n} closure", ["saturated", "{d}/" + cl, "-o", "{d}/" + tag + "-cs.json"], 1,
                   _expect(tag + "-cs.json", {"weakly_saturated": False})),
        Invocation(f"close theta {n} again",
                   ["close", "{d}/" + h, "-o", "{d}/" + tag + "-cert2.json", "--closure-out", "{d}/" + tag + "-closure2.json"],
                   0, same),
    ]


def _matrix_chain(tag: str, d_expected) -> list[Invocation]:
    """degenerate, close and verify-cert on a matrix file already in {d}."""
    want = checks.degenerate_edges(d_expected)
    m, h, c, cl = f"{tag}.json", f"{tag}-h.json", f"{tag}-cert.json", f"{tag}-closure.json"
    return [
        Invocation(f"degenerate {tag}", ["degenerate", "{d}/" + m, "-o", "{d}/" + h], 0,
                   lambda d: None if [tuple(e) for e in _json(d, h)["edges"]] == sorted(want, key=lambda e: e[::-1])
                   else f"{tag}: degenerate set differs from the recomputed one"),
        Invocation(f"close {tag}", ["close", "{d}/" + h, "-o", "{d}/" + c, "--closure-out", "{d}/" + cl], 0,
                   lambda d: checks.check_certificate(_json(d, c), _json(d, cl)["edges"])),
        Invocation(f"verify-cert {tag}", ["verify-cert", "{d}/" + c, "-o", "{d}/" + tag + "-v.json"], 0,
                   _expect(tag + "-v.json", {"valid": True})),
    ]


def build_pipeline(seed: int, workdir: Path) -> Plan:
    import linesat.cli  # noqa: F401  (setup covers the import the replay needs)

    rng = inputs.rng_for("pipeline", seed)
    theta_n = rng.randint(8, 12)
    line_n = rng.randint(10, 16)
    coords = inputs.line_coordinates(rng, line_n)
    random_n, random_seed = rng.randint(8, 14), rng.randrange(10**6)
    l1_pts = inputs.l1_points(rng, rng.randint(8, 12), 20)

    l1_d = inputs.l1_matrix(l1_pts)
    files = {
        "line.csv": "\n".join(
            [str(line_n)] + [",".join(str(abs(a - b)) for b in coords) for a in coords]
        ),
        "l1.json": inputs.matrix_json(l1_d),
    }

    def random_matrix_ok(d):
        dm = checks.parse_matrix(_json(d, "random.json"))
        return checks.metric_violation(dm) if len(dm) == random_n else "wrong size"

    def random_degenerate_ok(d):
        dm = checks.parse_matrix(_json(d, "random.json"))
        want = sorted(checks.degenerate_edges(dm), key=lambda e: e[::-1])
        got = [tuple(e) for e in _json(d, "random-h.json")["edges"]]
        return None if got == want else "random: degenerate set differs from the recomputed one"

    calls = _theta_chain("theta16", 16, full=True)
    calls += _theta_chain(f"theta{theta_n}", theta_n, full=False)
    calls += [
        Invocation("reconstruct line csv", ["reconstruct", "{d}/line.csv", "-o", "{d}/line-r.json"], 0,
                   lambda d: checks.check_order(coords, _json(d, "line-r.json")["order"])),
        Invocation("degenerate line csv", ["degenerate", "{d}/line.csv", "-o", "{d}/line-h.json"], 0,
                   lambda d: None if len(_json(d, "line-h.json")["edges"]) == comb(line_n, 3)
                   else "line: some triple is not degenerate"),
        Invocation("saturated line", ["saturated", "{d}/line-h.json", "-o", "{d}/line-s.json"], 0,
                   _expect("line-s.json", {"weakly_saturated": True})),
        Invocation("anchor line", ["anchor", "{d}/line-h.json", "-o", "{d}/line-a.json"], 0,
                   _expect("line-a.json", {"anchor_certified": True})),
        Invocation("gen cycle4", ["gen", "cycle4", "-o", "{d}/cycle4.json"], 0,
                   lambda d: checks.metric_violation(checks.parse_matrix(_json(d, "cycle4.json")))),
        Invocation("reconstruct cycle4", ["reconstruct", "{d}/cycle4.json", "-o", "{d}/cycle4-r.json"], 1,
                   _expect("cycle4-r.json", {"order": None})),
        Invocation("degenerate cycle4", ["degenerate", "{d}/cycle4.json", "-o", "{d}/cycle4-h.json"], 0,
                   lambda d: None if len(_json(d, "cycle4-h.json")["edges"]) == 4 else "cycle4: not all triangles degenerate"),
        # All four triangles are degenerate, so the family is complete and
        # (vacuously, with no 6-subset) weakly saturated.
        Invocation("saturated cycle4", ["saturated", "{d}/cycle4-h.json", "-o", "{d}/cycle4-s.json"], 0,
                   _expect("cycle4-s.json", {"weakly_saturated": True})),
        Invocation(f"gen random {random_n}", ["gen", "random", str(random_n), str(random_seed), "-o", "{d}/random.json"], 0,
                   random_matrix_ok),
        Invocation("degenerate random", ["degenerate", "{d}/random.json", "-o", "{d}/random-h.json"], 0,
                   random_degenerate_ok),
        Invocation("close random", ["close", "{d}/random-h.json", "-o", "{d}/random-cert.json", "--closure-out", "{d}/random-closure.json"], 0,
                   lambda d: checks.check_certificate(_json(d, "random-cert.json"), _json(d, "random-closure.json")["edges"])),
        Invocation("verify-cert random", ["verify-cert", "{d}/random-cert.json", "-o", "{d}/random-v.json"], 0,
                   _expect("random-v.json", {"valid": True})),
    ]
    calls += _matrix_chain("l1", l1_d)
    family = inputs.nineteen_edge_family()
    calls.append(
        Invocation("sweep audit", ["sweep", "audit", "-o", "{d}/audit.json"], 0,
                   lambda d: checks.check_audit(_json(d, "audit.json"), family))
    )
    for sub in ("sub", "replay"):
        (workdir / sub).mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            _write(workdir / sub / name, text)
    _write(workdir / "argv.json", json.dumps([c.argv for c in calls]))
    sub = workdir / "sub"
    ops = [_subprocess_op(c, sub) for c in calls]
    return Plan(ops, pass_seconds=6.6, extra={"calls": calls, "workdir": workdir})


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str]) -> int:
    """Run a child to completion and return its exit code."""
    return subprocess.run(
        argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, env=child_env(), cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    ).returncode


def _exit_then_outputs(inv: Invocation, d: Path):
    def check(code):
        if code != inv.code:
            return f"{inv.label}: exit {code}, expected {inv.code}"
        return inv.check(d) if inv.check else None

    return check


def _subprocess_op(inv: Invocation, d: Path) -> Op:
    argv = [sys.executable, "-m", "linesat.cli", *inv.args(d)]
    return Op(inv.label, "cli", lambda: run_child(argv), _exit_then_outputs(inv, d),
              probe_inside=False)


def replay_op(inv: Invocation, d: Path) -> Op:
    """The same invocation through linesat.cli.main in this process."""
    import contextlib
    import io

    from linesat import cli

    args = inv.args(d)

    def call():
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                return cli.main(args)
            except SystemExit as exc:
                return exc.code

    return Op(inv.label, "replay", call, _exit_then_outputs(inv, d))


BUILDERS = {
    "realize-lp": build_realize_lp,
    "realize-search": build_realize_search,
    "scan": build_scan,
    "pipeline": build_pipeline,
}
