"""Exact-verdict benchmark for linesat.

    python3 perfbench/run.py --workload realize-lp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --table --seed 1          # every workload, one row each
    python3 perfbench/run.py --self-test               # planted wrong answers

Run from the root of a source checkout; the library is imported from
`src/`.  A run builds its seeded inputs, makes seconds // pass_seconds
closed-loop passes over the workload's fixed op list in this one process
(one op = one library call, or one CLI child on `pipeline`), checks every
answer with the independent code in `checks.py`, and prints one JSON line:
the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  Op times are seconds at a reference speed (`speed.py`).  A
traced run adds one pass with spans around calls into each linesat module
(`spans.py`) after the untraced passes, which give the base for
`trace.overhead`.  Results, with an environment record, go to
`.perfbench/results/`; spans go to `.perfbench/spans/`.  PREDICTIONS.md
says why each workload exists and which layer metric should move which
end-to-end metric.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("realize-lp", "realize-search", "scan", "pipeline")
LAYERS = ("metric", "hypergraph", "saturation", "lines", "simplex", "realizability", "io", "cli")
SETUP_REPEATS = 9
IMPORT_REPEATS = 5
TAIL_BEYOND = 10

sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_linesat():
    if not (SRC / "linesat" / "__init__.py").is_file():
        fail(f"no linesat sources under {SRC}; run from a source checkout")
    import linesat

    if not Path(linesat.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"imported linesat from {linesat.__file__}, not from {SRC}")
    return linesat


def fresh_workdir(workload: str, seed: int) -> Path:
    d = OUT / "work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    return d


# -- measuring --------------------------------------------------------------


def run_pass(ops, tracer=None, op_layer="bench"):
    """Run each op once, closed loop.

    Returns (raw latencies, latencies at reference speed, failure reasons).
    Traced passes probe the speed only before and after each op, so no
    probe time lands inside a library span.
    """
    gc.collect()
    probe = speed.Probe()
    raw, scaled, failures = [], [], []
    for op in ops:
        rec = tracer.open(op.label, op_layer) if tracer else None
        result, error, elapsed, at_ref = probe.timed(op.call, op.probe_inside and tracer is None)
        if tracer:
            tracer.close(rec)
            rec[spans.INFO] = {"group": op.group}
        raw.append(elapsed)
        scaled.append(at_ref)
        if error is not None:
            err = f"{op.label}: {type(error).__name__}: {error}"
        else:
            try:
                err = op.check(result)
            except Exception as exc:
                err = f"{op.label}: check raised {type(exc).__name__}: {exc}"
        if err:
            failures.append(err)
    return raw, scaled, failures


def tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples above it."""
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def child_seconds(argv, repeats):
    """Median over repeats of the float a child prints as its last line,
    at reference speed."""
    def once():
        out = subprocess.run(
            argv, capture_output=True, text=True, env=workloads.child_env(),
            cwd=ROOT, timeout=workloads.CHILD_TIMEOUT_S,
        )
        if out.returncode != 0:
            raise RuntimeError(f"{argv[1:]} exited {out.returncode}: {out.stderr.strip()[-400:]}")
        return float(out.stdout.strip().splitlines()[-1])

    return statistics.median(speed.scaled_child_seconds(once) for _ in range(repeats))


def spawn_seconds(code: str) -> float:
    """Median wall time of a fresh interpreter running `code`."""
    values = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], env=workloads.child_env(), cwd=ROOT,
            check=True, timeout=workloads.CHILD_TIMEOUT_S,
        )
        values.append(time.perf_counter() - start)
    return statistics.median(values)


def setup_seconds(workload: str, seed: int) -> float:
    argv = [sys.executable, str(HERE / "run.py"), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    return child_seconds(argv, SETUP_REPEATS)


# -- per-layer metrics from spans ---------------------------------------------


def layer_metrics(tr, traced_wall, overhead, extra):
    recs = tr.spans
    own = tr.self_times()
    by_name = {}
    for rec, o in zip(recs, own):
        by_name.setdefault(rec[spans.NAME], []).append((rec, o))

    def dur(rec):
        return rec[spans.END] - rec[spans.START]

    def total(name):
        return sum(dur(r) for r, _ in by_name.get(name, ()))

    def info_values(name, key):
        return [r[spans.INFO][key] for r, _ in by_name.get(name, ()) if r[spans.INFO] and key in r[spans.INFO]]

    def under_group(rec, group):
        return any((up[spans.INFO] or {}).get("group") == group for up in tr.ancestors(rec))

    lp = by_name.get("linprog_max", [])
    decisions = by_name.get("is_metric_hypergraph", [])
    props = by_name.get("propagate", [])
    rows, cols = info_values("linprog_max", "rows"), info_values("linprog_max", "cols")
    lp_s = total("linprog_max")
    pruned = sum(1 for v in info_values("propagate", "pruned") if v)
    closes16 = [r for r, _ in by_name.get("weak_saturation_closure", ()) if (r[spans.INFO] or {}).get("n") == 16]
    io_self = {"loads": 0.0, "dumps": 0.0}
    io_bytes = 0
    for rec, o in zip(recs, own):
        if rec[spans.LAYER] == "io":
            for prefix in io_self:
                if rec[spans.NAME].startswith(prefix):
                    io_self[prefix] += o
            io_bytes += (rec[spans.INFO] or {}).get("bytes", 0)
    closure_calls = len(by_name.get("weak_saturation_closure", ())) + sum(
        1 for r, _ in by_name.get("is_weakly_saturated", ())
        if not any(up[spans.NAME] in ("is_weakly_saturated", "anchor_via_closure") for up in tr.ancestors(r))
    )

    def mean(xs):
        return statistics.fmean(xs) if xs else 0.0

    m = {
        "simplex.lp_calls": (len(lp), "count"),
        "simplex.lp_calls.extensions": (sum(1 for r, _ in lp if under_group(r, "ext")), "count"),
        "simplex.lp_s": (lp_s, "s"),
        "simplex.lp_share": (lp_s / traced_wall if traced_wall else 0.0, "ratio"),
        "simplex.solve_s": (total("solve_linear_system"), "s"),
        "simplex.lp_rows": (mean(rows), "count"),
        "simplex.lp_cols": (mean(cols), "count"),
        "realizability.branches": (sum(info_values("is_metric_hypergraph", "explored")), "count"),
        "realizability.propagate_calls": (len(props), "count"),
        "realizability.propagate_s": (total("propagate"), "s"),
        "realizability.prune_ratio": (pruned / len(props) if props else 0.0, "ratio"),
        "realizability.search_self_s": (sum(o for _, o in decisions), "s"),
        "realizability.lp_build_s": (sum(o for _, o in by_name.get("lp_max_slack", ())), "s"),
        "realizability.lp_calls_per_decision": (len(lp) / len(decisions) if decisions else 0.0, "ratio"),
        "hypergraph.rank_calls": (tr.counts.get("linesat.realizability.rank", 0), "count"),
        "hypergraph.enum_s": (extra.get("enum_s", 0.0), "s"),
        "hypergraph.enum_share": (extra.get("enum_share", 0.0), "ratio"),
        "saturation.closures": (extra.get("closures", closure_calls), "count"),
        "saturation.closure_s": (extra.get("closure_s", 0.0), "s"),
        "saturation.closures_per_s": (extra.get("closures_per_s", 0.0), "1/s"),
        "saturation.closures_per_s.jobs2": (extra.get("closures_per_s.jobs2", 0.0), "1/s"),
        "saturation.close_cold_s": (dur(closes16[0]) if closes16 else 0.0, "s"),
        "saturation.close_warm_s": (dur(closes16[1]) if len(closes16) > 1 else 0.0, "s"),
        "saturation.verify_s": (total("verify_certificate"), "s"),
        "saturation.cert_steps": (sum(info_values("verify_certificate", "steps")), "count"),
        "metric.degenerate_s": (total("degenerate_hypergraph"), "s"),
        "metric.validate_s": (total("validate_metric"), "s"),
        "lines.reconstruct_s": (total("reconstruct_line"), "s"),
        "io.parse_s": (io_self["loads"], "s"),
        "io.emit_s": (io_self["dumps"], "s"),
        "io.bytes": (io_bytes, "bytes"),
        "cli.startup_s": (extra.get("startup_s", 0.0), "s"),
        "cli.import_s": (extra.get("import_s", 0.0), "s"),
        "trace.overhead": (overhead, "ratio"),
    }
    for layer in LAYERS:
        m[f"{layer}.spans"] = (sum(1 for r in recs if r[spans.LAYER] == layer), "count")
    return m


def scan_extra(plan, per_op):
    """Closure throughput of the full sweeps at jobs=1, and the share of
    it spent enumerating their candidates."""
    from linesat import hypergraph

    full = plan.extra["full_sweep_closures"]
    sweep_s = sum(per_op[f"{label} jobs=1"] for label in full)
    out = {"closures": sum(full.values()), "closures_per_s": sum(full.values()) / sweep_s}

    def enumerate_streams():
        for n_ranks, c in workloads.FULL_SWEEP_STREAMS:
            ones = (1 << n_ranks) - 1
            for chosen in hypergraph.colex_combinations(n_ranks, c):
                mask = 0
                for t in chosen:
                    mask |= 1 << t
                ones ^ mask

    # At reference speed, like the sweep times it is a share of.
    out["enum_s"] = speed.Probe().timed(enumerate_streams)[3]
    out["enum_share"] = out["enum_s"] / sweep_s
    out["closure_s"] = sweep_s - out["enum_s"]
    return out


def scan_jobs2(plan, passes=2):
    """closures_per_s.jobs2 from untraced passes over the jobs=2 sweeps;
    returns (value, attempted, failures)."""
    full = plan.extra["full_sweep_closures"]
    ops = plan.extra["jobs2_ops"]
    times = {label: [] for label in full}
    attempted, failures = 0, []
    for _ in range(passes):
        _, lat, bad = run_pass(ops)
        attempted += len(ops)
        failures += bad
        for op, t in zip(ops, lat):
            label = op.label.removesuffix(" jobs=2")
            if label in times:
                times[label].append(t)
    sweep_s = sum(statistics.median(ts) for ts in times.values())
    return sum(full.values()) / sweep_s, attempted, failures


# -- one run ----------------------------------------------------------------


def environment(seed, load):
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "seed": seed,
        "loadavg_at_start": load,
    }


def measure(workload, seed, seconds, trace):
    load = os.getloadavg()
    planted = checks.self_test()
    if planted:
        fail("checker self-test failed: " + "; ".join(planted), 1)
    import_linesat()
    workdir = fresh_workdir(workload, seed)
    try:
        return _measure(workload, seed, seconds, trace, load, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(workload, seed, seconds, trace, load, workdir):
    plan = workloads.build(workload, seed, workdir)
    passes = max(1, int(seconds // plan.pass_seconds))
    walls, raw_walls, pooled, failures, attempted = [], [], [], [], 0
    per_label = {op.label: [] for op in plan.ops}
    per_label_raw = {op.label: [] for op in plan.ops}
    for _ in range(passes):
        raw, lat, bad = run_pass(plan.ops)
        raw_walls.append(sum(raw))
        walls.append(sum(lat))
        pooled += lat
        failures += bad
        attempted += len(lat)
        for op, t, r in zip(plan.ops, lat, raw):
            per_label[op.label].append(t)
            per_label_raw[op.label].append(r)
    per_op = {label: statistics.median(ts) for label, ts in per_label.items()}
    # One pass at every op's median latency: steadier than the median pass
    # when the ops' noise is independent, and equal to it with one pass.
    wall = sum(per_op.values())
    rss_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    tail_value, tail_pct = tail(pooled)
    extra = scan_extra(plan, per_op) if workload == "scan" else {}
    result = {
        "workload": workload,
        "trace": trace,
        "environment": environment(seed, load),
        "passes": passes,
        "samples": len(pooled),
        "op_s.tail_percentile": tail_pct,
        "pass_walls_s": walls,
        "pass_walls_raw_s": raw_walls,
        "per_op_median_s": per_op,
        "per_op_median_raw_s": {label: statistics.median(ts) for label, ts in per_label_raw.items()},
        **{k: v for k, v in extra.items() if k == "closures_per_s"},
    }
    if trace:
        metrics, t_attempted, t_failures, spans_path = traced(workload, seed, plan, wall, per_op, extra)
        attempted += t_attempted
        failures += t_failures
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": (setup_seconds(workload, seed), "s"),
            "wall_s": (wall, "s"),
            "op_s.p50": (statistics.median(pooled), "s"),
            "op_s.tail": (tail_value, "s"),
            "peak_rss_mb": (rss_kib / 1024, "MB"),
        }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result["attempted"], result["failed"] = attempted, len(failures)
    result["fail_rate"] = len(failures) / attempted
    result["failures"] = failures[:50]
    return result


def traced(workload, seed, plan, untraced_wall, per_op, extra):
    """Per-layer metrics from one traced pass (an in-process CLI replay on
    `pipeline`); returns (metrics, attempted, failures, spans path).
    `trace.overhead` compares seconds at reference speed.
    """
    tr = spans.Tracer()
    if workload == "pipeline":
        replay_dir = plan.extra["workdir"] / "replay"
        replay = [workloads.replay_op(c, replay_dir) for c in plan.extra["calls"]]
        # Cold first: the replay's first close at n=16 builds the closure
        # tables this process has not built yet; the repeat finds them.
        tr.install()
        try:
            raw, _, failures = run_pass(replay, tr, op_layer="cli")
        finally:
            tr.uninstall()
        _, plain, bad = run_pass(replay)
        failures += bad
        warm = spans.Tracer()
        warm.install()
        try:
            _, lat_warm, bad = run_pass(replay, warm, op_layer="cli")
        finally:
            warm.uninstall()
        failures += bad
        attempted = 3 * len(replay)
        overhead = sum(lat_warm) / sum(plain) - 1
        extra = dict(extra)
        extra["startup_s"] = statistics.median(
            per_op[op.label] - t for op, t in zip(plan.ops, plain)
        )
        extra["import_s"] = spawn_seconds("import linesat.cli") - spawn_seconds("pass")
    else:
        tr.install()
        try:
            raw, lat, failures = run_pass(plan.ops, tr)
        finally:
            tr.uninstall()
        attempted = len(raw)
        overhead = sum(lat) / untraced_wall - 1
        if workload == "scan":
            extra = dict(extra)
            extra["closures_per_s.jobs2"], more, bad = scan_jobs2(plan)
            attempted += more
            failures += bad
    # Span durations are raw seconds, so shares take the raw pass as base.
    traced_wall = sum(raw)
    metrics = layer_metrics(tr, traced_wall, overhead, extra)
    path = OUT / "spans" / f"{workload}-seed{seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    tr.write(path, {
        "workload": workload, "seed": seed, "fields": ["id", "parent", "name", "layer", "start", "end", "info"],
        "absent": tr.absent, "counts": dict(tr.counts), "traced_wall_s": traced_wall,
    })
    return metrics, attempted, failures, path


# -- entry points -------------------------------------------------------------


def setup_only(workload, seed):
    start = time.perf_counter()
    import_linesat()
    workdir = fresh_workdir(workload, seed)
    try:
        workloads.build(workload, seed, workdir)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(elapsed))


def table(seed, seconds, trace):
    """Run every workload in a child and print its metrics: one row per
    workload for the end-to-end metrics, one row per metric when traced."""
    results = []
    for w in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        if out.returncode != 0:
            fail(f"{w} exited {out.returncode}: {out.stderr.strip()[-400:]}")
        results.append(json.loads((OUT / "results" / f"{w}-seed{seed}-trace{trace}.json").read_text()))

    def cell(value):
        return "-" if value is None else f"{value:.6g}"

    if trace:
        print("metric".ljust(38) + "unit".ljust(7) + "".join(r["workload"].rjust(15) for r in results))
        for name, m in results[0]["metrics"].items():
            print(name.ljust(38) + m["unit"].ljust(7)
                  + "".join(cell(r["metrics"][name]["value"]).rjust(15) for r in results))
        return
    units = {k: m["unit"] for k, m in results[0]["metrics"].items()}
    units.update({"closures_per_s": "1/s", "fail_rate": "ratio"})
    print("workload".ljust(16) + "".join(f"{k} [{u}]".rjust(22) for k, u in units.items()) + "  op_s.tail is")
    for r in results:
        values = [r["metrics"][k]["value"] if k in r["metrics"] else r.get(k) for k in units]
        print(r["workload"].ljust(16) + "".join(cell(v).rjust(22) for v in values)
              + f"  p{r['op_s.tail_percentile']:.1f} of {r['samples']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--table", action="store_true", help="run every workload, print one row each")
    ap.add_argument("--self-test", action="store_true", help="check that every checker rejects a planted wrong answer")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.self_test:
        planted = checks.self_test()
        print("\n".join(planted) if planted else "checker self-test: every planted wrong answer rejected")
        sys.exit(1 if planted else 0)
    if args.table:
        table(args.seed, args.seconds, args.trace)
        return
    if args.workload is None:
        fail("--workload is required")
    if args.setup_only:
        setup_only(args.workload, args.seed)
        return
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if result["fail_rate"]:
        for reason in result["failures"][:5]:
            print(f"perfbench: failed: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))


if __name__ == "__main__":
    main()
