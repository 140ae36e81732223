import io as stdio
import json
import os
import subprocess
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import linesat
from linesat.cli import _GEN_USAGE, _build_parser, main
from linesat.hypergraph import star_construction
from linesat.io import dumps_certificate, dumps_hypergraph
from linesat.saturation import weak_saturation_closure


def run_cli(capsys, monkeypatch, argv, stdin_text=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", stdio.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_theta_degenerate_pipe(capsys, monkeypatch):
    code, matrix, _ = run_cli(capsys, monkeypatch, ["gen", "theta", "6"])
    assert code == 0
    code, hyper, _ = run_cli(capsys, monkeypatch, ["degenerate"], stdin_text=matrix)
    assert code == 0
    assert len(json.loads(hyper)["edges"]) == 18


def test_gen_star_close_pipe(capsys, monkeypatch):
    code, star, _ = run_cli(capsys, monkeypatch, ["gen", "star", "7"])
    assert code == 0
    code, cert, _ = run_cli(capsys, monkeypatch, ["close"], stdin_text=star)
    assert code == 0
    obj = json.loads(cert)
    assert len(obj["steps"]) == 4
    code, verdict, _ = run_cli(capsys, monkeypatch, ["verify-cert"], stdin_text=cert)
    assert code == 0
    assert json.loads(verdict) == {"valid": True}


def test_close_writes_closure_file(tmp_path, capsys, monkeypatch):
    code, star, _ = run_cli(capsys, monkeypatch, ["gen", "star", "7"])
    out = tmp_path / "closure.json"
    code, _, _ = run_cli(
        capsys, monkeypatch, ["close", "--closure-out", str(out)], stdin_text=star
    )
    assert code == 0
    closure = json.loads(out.read_text())
    assert len(closure["edges"]) == 35


def test_saturated_exit_codes(capsys, monkeypatch):
    _, star, _ = run_cli(capsys, monkeypatch, ["gen", "star", "6"])
    code, out, _ = run_cli(capsys, monkeypatch, ["saturated"], stdin_text=star)
    assert code == 0 and json.loads(out)["weakly_saturated"]
    _, theta, _ = run_cli(capsys, monkeypatch, ["gen", "theta", "6"])
    _, hyper, _ = run_cli(capsys, monkeypatch, ["degenerate"], stdin_text=theta)
    code, out, _ = run_cli(capsys, monkeypatch, ["saturated"], stdin_text=hyper)
    assert code == 1 and not json.loads(out)["weakly_saturated"]


def test_anchor_subcommand(capsys, monkeypatch):
    _, star, _ = run_cli(capsys, monkeypatch, ["gen", "star", "8"])
    code, out, _ = run_cli(capsys, monkeypatch, ["anchor"], stdin_text=star)
    assert code == 0 and json.loads(out)["anchor_certified"]


def test_reconstruct_line_and_cycle(capsys, monkeypatch):
    _, line, _ = run_cli(capsys, monkeypatch, ["gen", "line", "0", "1", "3", "7", "12"])
    code, out, err = run_cli(capsys, monkeypatch, ["reconstruct"], stdin_text=line)
    assert code == 0
    assert json.loads(out)["order"] in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0])
    assert "reversal" in err
    _, cyc, _ = run_cli(capsys, monkeypatch, ["gen", "cycle4"])
    code, out, _ = run_cli(capsys, monkeypatch, ["reconstruct"], stdin_text=cyc)
    assert code == 1
    assert json.loads(out)["order"] is None


def test_witness_check_files(tmp_path, capsys, monkeypatch):
    _, theta, _ = run_cli(capsys, monkeypatch, ["gen", "theta", "6"])
    _, hyper, _ = run_cli(capsys, monkeypatch, ["degenerate"], stdin_text=theta)
    hpath = tmp_path / "h.json"
    mpath = tmp_path / "m.json"
    hpath.write_text(hyper)
    mpath.write_text(theta)
    code, out, _ = run_cli(
        capsys, monkeypatch, ["witness-check", str(hpath), str(mpath)]
    )
    assert code == 0 and json.loads(out)["non_anchor_witness"]


def test_realize_exit_codes(capsys, monkeypatch):
    _, theta5, _ = run_cli(capsys, monkeypatch, ["gen", "theta", "5"])
    _, hyper, _ = run_cli(capsys, monkeypatch, ["degenerate"], stdin_text=theta5)
    code, out, _ = run_cli(capsys, monkeypatch, ["realize"], stdin_text=hyper)
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "metric" and obj["witness"]["n"] == 5


def test_realize_edge_with_a_repeated_vertex_exits_2(capsys, monkeypatch):
    code, out, err = run_cli(
        capsys, monkeypatch, ["realize"], stdin_text='{"n":4,"r":3,"edges":[[0,1,1]]}'
    )
    assert (code, out, err) == (2, "", "error: (0, 1, 1) is not a 3-subset\n")


def test_gen_random_csv_format(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch, ["gen", "random", "5", "11", "--format", "csv"]
    )
    assert code == 0
    assert out.splitlines()[0] == "5"
    code2, again, _ = run_cli(
        capsys, monkeypatch, ["gen", "random", "5", "11", "--format", "csv"]
    )
    assert again == out  # byte-identical reruns


def test_csv_matrix_accepted_back(capsys, monkeypatch):
    _, csv_text, _ = run_cli(
        capsys, monkeypatch, ["gen", "random", "6", "4", "--format", "csv"]
    )
    code, out, _ = run_cli(capsys, monkeypatch, ["degenerate"], stdin_text=csv_text)
    assert code == 0
    assert json.loads(out)["n"] == 6


def test_csv_header_outside_the_grammar_exits_2(capsys, monkeypatch):
    code, out, err = run_cli(capsys, monkeypatch, ["degenerate"], stdin_text="0_2\n0,1\n1,0\n")
    assert code == 2 and out == ""
    assert err.startswith("error: CSV header must be the point count")


def test_invalid_metric_is_rejected_without_flag(capsys, monkeypatch):
    bad = '{"n":3,"dist":[[0,1,3],[1,0,1],[3,1,0]]}'
    code, _, err = run_cli(capsys, monkeypatch, ["degenerate"], stdin_text=bad)
    assert code == 2
    assert "d[0][2]" in err


@pytest.mark.parametrize(
    "words, flags",
    [
        (["degenerate"], ["--no-validate"]),
        (["reconstruct"], ["--no-validate"]),
        (["witness-check", "h.json", "m.json"], ["--no-validate"]),
        (["sweep", "theorem3"], ["--k", "6"]),
    ],
    ids=lambda words: " ".join(words),
)
def test_no_option_skips_or_contradicts_a_check(capsys, words, flags):
    code, out, err = _refused(capsys, [*words, *flags])
    assert (code, out) == (2, "")
    assert err.endswith(f"linesat: error: unrecognized arguments: {' '.join(flags)}\n")


_K5 = json.dumps({"n": 5, "r": 3, "edges": [list(t) for t in combinations(range(5), 3)]})
# asymmetric (d[0][3] = 2, d[3][0] = 1), with a zero distance d[1][2]
_ASYMMETRIC = json.dumps(
    {"n": 5, "dist": [[0, 1, 1, 2, 3], [1, 0, 0, 1, 2], [1, 1, 0, 1, 2], [1, 1, 1, 0, 1],
                      [1, 1, 1, 1, 0]]}
)


@pytest.mark.parametrize("flags", [[], ["--no-validate"]], ids=["plain", "no-validate"])
def test_witness_check_never_disproves_an_anchor(tmp_path, capsys, monkeypatch, flags):
    # Every triangle of K5^3 degenerate forces a line (Richmond & Richmond),
    # so no input may pass as a metric that disproves its anchorhood.
    h, m = tmp_path / "k5.json", tmp_path / "bad.json"
    h.write_text(_K5)
    m.write_text(_ASYMMETRIC)
    anchor = run_cli(capsys, monkeypatch, ["anchor", str(h)])
    assert anchor == (0, '{"anchor_certified":true}\n', "")
    argv = ["witness-check", str(h), str(m), *flags]
    code, out, err = _refused(capsys, argv) if flags else run_cli(capsys, monkeypatch, argv)
    assert code == 2 and out == ""
    assert flags or err == "error: d[0][3] != d[3][0]\n"


def test_sweep_theorem2(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["sweep", "theorem2", "--n", "6"])
    assert code == 0
    assert "size 19: all saturated" in out
    assert "size 18: counterexample found" in out


def test_sweep_theorem2_pair_version(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        monkeypatch,
        ["sweep", "theorem2", "--n", "6", "--r", "2", "--k", "4"],
    )
    assert code == 0
    assert "bound=12" in out


def test_sweep_theorem3(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch, ["sweep", "theorem3", "--n-max", "8"]
    )
    assert code == 0
    assert "n=8: edges=46 expected=46 saturated=True" in out


def test_sweep_theorem3_replays_up_to_the_budget(capsys, monkeypatch):
    # no closure runs: each n replays the star family's certificate
    def no_closure(*_):
        raise AssertionError("a closure ran")

    monkeypatch.setattr("linesat.saturation.is_weakly_saturated", no_closure)
    code, out, _ = run_cli(capsys, monkeypatch, ["sweep", "theorem3", "--n-max", "36"])
    assert code == 0 and len(out.splitlines()) == 32
    assert out.endswith("n=36: edges=1684 expected=1684 saturated=True\n")


def test_sweep_min_sat(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["sweep", "min-sat", "--n", "6"])
    assert code == 0
    assert out.strip().endswith("19")


def test_sweep_min_sat_pairs_at_seven(capsys, monkeypatch):
    # the certificates need no scan
    code, out, _ = run_cli(capsys, monkeypatch, ["sweep", "min-sat", "--n", "7", "--r", "2", "--k", "4"])
    assert code == 0 and out == "minimum weakly saturated size at n=7 r=2 k=4: 11\n"


def _refused(capsys, argv):
    """(exit code, stdout, stderr) of `main` refusing argv in its parser."""
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    captured = capsys.readouterr()
    return exit_.value.code, captured.out, captured.err


def test_sweep_min_sat_refuses_jobs_beyond_the_cpus(capsys):
    # the scans run in process, so `sweep` has no --jobs option
    code, out, err = _refused(capsys, ["sweep", "min-sat", "--n", "7", "--jobs", "5000"])
    assert code == 2 and out == "" and "unrecognized arguments: --jobs 5000" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_min_sat_refuses_jobs_below_one(capsys, jobs):
    code, out, err = _refused(capsys, ["sweep", "min-sat", "--n", "5", "--jobs", jobs])
    assert code == 2 and out == "" and f"unrecognized arguments: --jobs {jobs}" in err


def test_sweep_min_sat_where_the_empty_family_saturates(capsys, monkeypatch):
    # at k = r every family saturates; the walk down from the top overran the budget
    code, out, _ = run_cli(capsys, monkeypatch, ["sweep", "min-sat", "--n", "7", "--k", "3"])
    assert code == 0 and out == "minimum weakly saturated size at n=7 r=3 k=3: 0\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["theorem3", "--n-min", "11"], "--n-max must be at least --n-min (11), got 10"),
    ],
)
def test_sweep_with_nothing_to_do_exits_2(capsys, monkeypatch, argv, message):
    code, out, err = run_cli(capsys, monkeypatch, ["sweep", *argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["min-sat", "--n", "71"],
         "enumeration needs 1002320 replay lookups, over the budget of 1000000"),
        (["theorem2", "--n", "54"],
         "enumeration needs 1041250 closed-complement lookups, over the budget of 1000000"),
        (["theorem2", "--n", "100000"],
         "enumeration needs 16664000158329200040 closed-complement lookups,"
         " over the budget of 1000000"),
        (["theorem2", "--n", "6", "--r", "-1"], "n=6 and r=-1 must be non-negative"),
        (["min-sat", "--n", "-1"], "n=-1 and r=3 must be non-negative"),
        (["theorem3", "--n-min", "3"], "--n-min must be at least 5, got 3"),
    ],
)
def test_sweep_refuses_oversized_or_negative_shapes_at_once(capsys, monkeypatch, argv, message):
    # min-sat's replay and theorem2's closed-complement lookups stay within
    # the default budget, a negative n or r is refused before C(n, r) is
    # taken, and a star family below 5 vertices by its flag
    code, out, err = run_cli(capsys, monkeypatch, ["sweep", *argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n-max", "37"],
         "enumeration needs 1047200 replay lookups up to n=37, over the budget of 1000000"),
        (["--n-max", "200"],
         "enumeration needs 1047200 replay lookups up to n=37, over the budget of 1000000"),
        (["--n-min", "180", "--n-max", "182"],
         "enumeration needs 18172000 replay lookups up to n=180, over the budget of 1000000"),
    ],
)
def test_sweep_theorem3_refuses_before_any_closure(capsys, monkeypatch, argv, message):
    # each replay step looks up the C(6, 3) triples of its 6-set, one step
    # per triple avoiding {0, 1, 2}: at most the default budget in all,
    # 5..36 sums to 927,520 and 5..37 to 1,047,200
    def no_replay(*_):
        raise AssertionError("a certificate was replayed")

    monkeypatch.setattr("linesat.saturation.verify_certificate", no_replay)
    code, out, err = run_cli(capsys, monkeypatch, ["sweep", "theorem3", *argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "3"],
         "--n 3 --r 3 --k 6: the bound C(n,r)-n+k-1 = 3 falls outside 1..C(n,r) = 1..1"),
        (["--n", "6", "--k", "100"],
         "--n 6 --r 3 --k 100: the bound C(n,r)-n+k-1 = 113 falls outside 1..C(n,r) = 1..20"),
        (["--n", "1", "--r", "0", "--k", "0"],
         "--n 1 --r 0 --k 0: the bound C(n,r)-n+k-1 = -1 falls outside 1..C(n,r) = 1..1"),
    ],
)
def test_sweep_theorem2_names_the_flags_of_an_unreachable_bound(
    capsys, monkeypatch, argv, message
):
    code, out, err = run_cli(capsys, monkeypatch, ["sweep", "theorem2", *argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_sweep_audit(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["sweep", "audit"])
    assert code == 0
    obj = json.loads(out)
    assert obj["minimal_non_metric"]
    assert obj["root"]["status"] == "non-metric"
    assert [d["status"] for d in obj["deletions"]] == ["metric"] * 6


def test_output_file_option(tmp_path, capsys, monkeypatch):
    out = tmp_path / "star.json"
    code, stdout, _ = run_cli(capsys, monkeypatch, ["gen", "star", "6", "-o", str(out)])
    assert code == 0 and stdout == ""
    assert len(json.loads(out.read_text())["edges"]) == 19


def test_gen_line_takes_integers_and_fractions(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["gen", "line", "0", "1/2", "3"])
    assert code == 0
    assert json.loads(out)["dist"][0] == [0, "1/2", 3]


def test_gen_line_takes_a_negative_fraction_after_a_double_dash(capsys, monkeypatch):
    # argparse reads -1/2 as a flag, not as a negative number as it does -1
    code, out, err = _refused(capsys, ["gen", "line", "0", "-1/2", "3"])
    assert code == 2 and out == ""
    assert err.endswith("linesat: error: unrecognized arguments: -1/2 3\n")
    line = '{"n":3,"dist":[[0,"1/2",3],["1/2",0,"7/2"],[3,"7/2",0]]}\n'
    for argv in (["gen", "--", "line", "0", "-1/2", "3"], ["gen", "line", "--", "0", "-1/2", "3"]):
        assert run_cli(capsys, monkeypatch, argv) == (0, line, "")
    csv = run_cli(capsys, monkeypatch, ["gen", "--format", "csv", "--", "line", "0", "-1/2", "3"])
    assert csv == (0, "3\n0,1/2,3\n1/2,0,7/2\n3,7/2,0\n", "")


@pytest.mark.parametrize("coord", ["1e9", "1.5", "0x10", "\uff11"])
def test_gen_line_coordinate_outside_the_grammar_exits_2(capsys, monkeypatch, coord):
    code, out, err = run_cli(capsys, monkeypatch, ["gen", "line", "0", coord])
    assert code == 2 and out == ""
    assert err.startswith("error: cannot parse rational")


@pytest.mark.parametrize(
    "params, usage",
    [
        (["star", "\uff17"], "star N"),
        (["star", "1_0"], "star N"),
        (["theta", "+6"], "theta N"),
        (["star", "5", "9"], "star N"),
        (["cycle4", "3"], "cycle4"),
        (["line"], "line C1 C2 ..."),
        (["theta"], "theta N"),
        (["random", "5"], "random N SEED"),
        (["random", "5", "-1"], "random N SEED"),
    ],
)
def test_gen_arguments_outside_the_usage_exit_2(capsys, monkeypatch, params, usage):
    code, out, err = run_cli(capsys, monkeypatch, ["gen", *params])
    assert code == 2 and out == ""
    assert err.startswith(f"error: usage: gen {usage}")


def test_gen_star_refuses_the_csv_format(capsys, monkeypatch):
    # a hypergraph has no CSV layout, so the option is refused, not ignored
    code, out, err = run_cli(capsys, monkeypatch, ["gen", "star", "6", "--format", "csv"])
    assert code == 2 and out == ""
    assert err.startswith("error: --format csv")


def test_unknown_generator_errors(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["gen", "pentagon"])
    assert code == 2
    assert "pentagon" in err


def test_malformed_certificate_steps_exit_2(capsys, monkeypatch):
    bad = '{"n":7,"r":3,"k":6,"base":[],"steps":5}'
    code, out, err = run_cli(capsys, monkeypatch, ["verify-cert"], stdin_text=bad)
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [["sweep", "foo"], ["sweep", "theorem2", "extra"]])
def test_sweep_rejects_bad_arguments(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


_CHOICES = (
    "{degenerate,close,verify-cert,saturated,anchor,reconstruct,witness-check,realize,gen,sweep}"
)
_USAGE = f"usage: linesat [-h]\n               {_CHOICES}\n               ...\n"


def _ended_by_argparse(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


# positionals each subcommand requires, so that a stray option is left to the top parser
_REQUIRED = {"witness-check": ["h.json", "m.json"], "gen": ["star", "6"], "sweep": ["audit"]}


# each sweep and the flags it reads; `sweep` took all ten for every sweep
_SWEEP_FLAGS = {
    "audit": ["-o"],
    "min-sat": ["-o", "--n", "--r", "--k", "--budget"],
    "theorem2": ["-o", "--n", "--r", "--k", "--budget"],
    "theorem3": ["-o", "--n-min", "--n-max"],
}
_RUNS = [[command] for command in _CHOICES[1:-1].split(",")]
_RUNS += [["sweep", name] for name in _SWEEP_FLAGS]


@pytest.mark.parametrize("words", _RUNS, ids=" ".join)
def test_one_subparser_prints_what_the_whole_parser_prints(capsys, monkeypatch, words):
    monkeypatch.setenv("COLUMNS", "80")
    whole = _build_parser().parse_args
    helped = _ended_by_argparse(capsys, main, [*words, "--help"])
    assert helped == _ended_by_argparse(capsys, whole, [*words, "--help"])
    assert helped[0] == 0 and helped[1].startswith(f"usage: linesat {' '.join(words)} ")
    stray = [*words, *_REQUIRED.get(" ".join(words), []), "--no-such-option"]
    refused = _ended_by_argparse(capsys, main, stray)
    assert refused == _ended_by_argparse(capsys, whole, stray)
    assert refused[0] == 2 and refused[2].startswith(_USAGE + "linesat: error: unrecognized")


def test_a_named_subcommand_builds_only_its_subparser(capsys):
    with pytest.raises(SystemExit):
        _build_parser(["close"]).parse_args(["gen", "star", "6"])
    assert "(choose from 'close')" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        _build_parser(["sweep", "audit"]).parse_args(["sweep", "theorem3"])
    assert "(choose from 'audit')" in capsys.readouterr().err


def test_each_sweep_takes_only_the_flags_it_reads(capsys):
    parse = _build_parser().parse_args
    every = {flag for flags in _SWEEP_FLAGS.values() for flag in flags} | {"--ceiling"}
    for name, flags in _SWEEP_FLAGS.items():
        for flag in sorted(every):
            argv = ["sweep", name, flag, "7"]
            if flag in flags:
                assert parse(argv).handler.__name__ == "_sweep_" + name.replace("-", "_")
            else:
                code, out, err = _ended_by_argparse(capsys, parse, argv)
                assert (code, out) == (2, "")
                assert err.endswith(f"linesat: error: unrecognized arguments: {flag} 7\n")


def test_sweep_defaults_live_in_the_parser():
    parse = _build_parser().parse_args
    assert parse(["sweep", "theorem3"]).n_max == 10
    assert vars(parse(["sweep", "min-sat"])).items() >= {"n": 6, "r": 3, "k": 6}.items()


def test_sweep_help_lists_each_sweep_with_one_line(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = _ended_by_argparse(capsys, main, ["sweep", "--help"])
    listed = [line.split()[0] for line in out.splitlines() if line.startswith("    ")]
    assert code == 0 and listed == list(_SWEEP_FLAGS)
    usage = "usage: linesat sweep [-h] {audit,min-sat,theorem2,theorem3} ...\n"
    assert out.startswith(usage)


def test_top_level_help_and_unknown_command_are_unchanged(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    listing = "".join(
        f"    {name:<20}{text}\n"
        for name, text in [
            ("degenerate", "degenerate-triangle hypergraph of a metric"),
            ("close", "weak saturation closure with certificate"),
            ("verify-cert", "replay and check a closure certificate"),
            ("saturated", "test weak saturation"),
            ("anchor", "certify an anchor via closure (sufficient only)"),
            ("reconstruct", "reconstruct a linear order from a metric"),
            ("witness-check", "verify a metric disproving anchorhood of a hypergraph"),
            ("realize", "decide metric realizability of a hypergraph"),
            ("gen", "generate example inputs"),
            ("sweep", "bulk verification runs"),
        ]
    )
    assert _ended_by_argparse(capsys, main, ["--help"]) == (
        0,
        _USAGE + "\nexact tools for metric betweenness, degenerate triangles, weak hypergraph\n"
        "saturation, line reconstruction, and realizability\n\npositional arguments:\n"
        f"  {_CHOICES}\n{listing}\n"
        "options:\n  -h, --help            show this help message and exit\n",
        "",
    )
    code, out, err = _ended_by_argparse(capsys, main, ["pentagon"])
    assert code == 2 and out == ""
    assert err.startswith(_USAGE + "linesat: error: argument command: invalid choice: 'pentagon'")


def test_memory_error_exits_2(capsys, monkeypatch):
    def exhausted(h, k):
        raise MemoryError("out of memory")

    monkeypatch.setattr("linesat.saturation.is_weakly_saturated", exhausted)
    code, out, err = run_cli(
        capsys, monkeypatch, ["saturated"], stdin_text='{"n":7,"r":3,"edges":[]}'
    )
    assert code == 2 and out == ""
    assert err.startswith("error:")


_FUZZ_FILES = {  # name -> text, written beside the fuzzed runs
    "theta.json": '{"n":6,"dist":[[0,2,1,1,2,3],[2,0,1,1,2,3],[1,1,0,2,3,4],'
    '[1,1,2,0,1,2],[2,2,3,1,0,1],[3,3,4,2,1,0]]}',
    "cycle4.csv": "4\n0,1,2,1\n1,0,1,2\n2,1,0,1\n1,2,1,0\n",
    "bad.json": '{"n":3,"dist":[[0,1,5],[1,0,1],[5,1,0]]}',
    "star.json": '{"n":6,"r":3,"edges":[[0,1,2],[0,1,3],[0,2,3],[1,2,3],[0,1,4]]}',
    "theta_h.json": '{"n":6,"r":3,"edges":[[0,1,2],[0,1,3],[0,2,3],[1,2,3],[0,2,4],[1,2,4],'
    '[0,3,4],[1,3,4],[2,3,4],[0,2,5],[1,2,5],[0,3,5],[1,3,5],[2,3,5],[0,4,5],[1,4,5],'
    '[2,4,5],[3,4,5]]}',
    "empty.json": '{"n":5,"r":3,"edges":[]}',
    "cert.json": '{"n":6,"r":3,"k":6,"base":[],"steps":[{"T":[0,1,2],"S":[0,1,2,3,4,5]}]}',
    "broken.json": '{"n":',
}
_INT = st.integers(-2, 6).map(str)
_PATH = st.sampled_from([*_FUZZ_FILES, "missing.json", ".", "-"]).map(lambda path: [path])
_FUZZ_RUNS = {  # words -> the positionals after them, and their flags with values
    "degenerate": (_PATH, {}),
    "close": (_PATH, {"--k": _INT, "--closure-out": st.just("closure.json")}),
    "verify-cert": (_PATH, {}),
    "saturated": (_PATH, {"--k": _INT}),
    "anchor": (_PATH, {}),
    "reconstruct": (_PATH, {}),
    "witness-check": (st.tuples(_PATH, _PATH).map(lambda pair: pair[0] + pair[1]), {}),
    "realize": (_PATH, {"--ceiling": _INT}),
    "gen": (
        st.tuples(
            st.sampled_from([*_GEN_USAGE, "pentagon"]),
            st.lists(_INT | st.sampled_from(["1/2", "-1/2", "1.5"]), max_size=4),
        ).map(lambda params: [params[0], *params[1]]),
        {"--format": st.sampled_from(["json", "csv", "xml"])},
    ),
    **{f"sweep {name}": (st.just([]), dict.fromkeys(flags[1:], _INT))
       for name, flags in _SWEEP_FLAGS.items()},
}
# a stray word, so that usage errors are drawn too
_STRAY = st.sampled_from(["--help", "--", "-", "--k", "--n", "sweep", "gen", "audit", "extra"])
_STDIN = st.sampled_from(list(_FUZZ_FILES.values()))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_main_on_drawn_argv_exits_0_1_or_2_without_a_traceback(
    tmp_path, capsys, monkeypatch, data
):
    # every value is small, so each run takes milliseconds
    monkeypatch.chdir(tmp_path)
    for name, text in _FUZZ_FILES.items():
        Path(name).write_text(text)
    words = data.draw(st.sampled_from(sorted(_FUZZ_RUNS)))
    positionals, flags = _FUZZ_RUNS[words]
    argv = [*words.split(), *data.draw(positionals)]
    names = data.draw(st.lists(st.sampled_from(sorted(flags)), max_size=3)) if flags else []
    for flag in names:
        argv += [flag, data.draw(flags[flag])]
    argv += data.draw(st.lists(_STRAY, max_size=1))
    monkeypatch.setattr(sys, "stdin", stdio.StringIO(data.draw(_STDIN)))
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: usage errors and --help
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 1:  # a negative verdict, never an error
        assert out and "error" not in err


def _fresh_env():
    src = str(Path(linesat.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _fresh_python(code, *argv, stdin_text=""):
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        input=stdin_text,
        capture_output=True,
        text=True,
        env=_fresh_env(),
        timeout=30,
    )


def test_cli_import_leaves_out_multiprocessing():
    # no run starts a process pool, whatever `jobs` says, so none imports it
    code = (
        "import os, sys\nfrom linesat.cli import main\n"
        "from linesat.saturation import min_saturation_search\n"
        "seen = ['multiprocessing' in sys.modules]\n"
        "for n, name in ((7, 'min-sat'), (8, 'theorem2')):\n"
        "    main(['sweep', name, '--n', str(n), '-o', os.devnull])\n"
        "    seen.append('multiprocessing' in sys.modules)\n"
        "min_saturation_search(7, 3, 6, jobs=min(2, os.cpu_count() or 1))\n"
        "print(seen + ['multiprocessing' in sys.modules])"
    )
    done = _fresh_python(code)
    assert done.returncode == 0 and done.stdout == "[False, False, False, False]\n"


def test_cli_import_loads_no_engine():
    # each handler imports the modules it calls, and the package loads none
    done = _fresh_python(
        "import sys, linesat.cli; print(sorted(m for m in sys.modules if 'linesat' in m))"
    )
    assert done.returncode == 0
    assert done.stdout == "['linesat', 'linesat.cli', 'linesat.errors']\n"


def _new_modules(code):
    """Modules a fresh child loads by running `code`, beyond a bare child's."""
    listing = "import sys; print(*sorted(sys.modules))"
    bare = _fresh_python(listing)
    done = _fresh_python(f"{code}; {listing}")
    assert bare.returncode == 0 and done.returncode == 0
    return set(done.stdout.split()) - set(bare.stdout.split())


def test_no_module_imports_dataclasses():
    # each record is a plain `Record` subclass; the decorator would load
    # inspect, ast and dis into every CLI run
    new = _new_modules(
        "import linesat.cli, linesat.io, linesat.metric, linesat.saturation, "
        "linesat.lines, linesat.realizability, linesat.simplex"
    )
    assert "linesat.simplex" in new and "dataclasses" not in new


def test_hypergraph_only_modules_leave_out_fractions():
    # `close`, `saturated` and `verify-cert` parse no rational entry
    new = _new_modules("import linesat.io, linesat.saturation")
    assert "linesat.saturation" in new and "fractions" not in new


# what `close` writes for star7, the input of the `verify-cert` row below
_STAR7_CERT = dumps_certificate(weak_saturation_closure(star_construction(7), 6).certificate)
_NO_METRIC = {"certify", "fractions", "lines", "metric", "realizability", "simplex"}


@pytest.mark.parametrize(
    "argv, stdin_text, unused",
    [
        (["close"], '{"n":7,"r":3,"edges":[[0,1,2]]}', _NO_METRIC),
        (["saturated"], '{"n":7,"r":3,"edges":[]}', _NO_METRIC),
        (["verify-cert"], _STAR7_CERT, _NO_METRIC),
        (["anchor"], '{"n":7,"r":3,"edges":[[0,1,2]]}', {"fractions", "metric", "realizability"}),
        (["gen", "theta", "8"], "", {"lines", "realizability", "simplex", "saturation"}),
    ],
    ids=["close", "saturated", "verify-cert", "anchor", "gen"],
)
def test_subcommand_loads_only_its_modules(argv, stdin_text, unused):
    code = (
        "import sys\nfrom linesat.cli import main\nmain(sys.argv[1:])\n"
        "print(*(m for m in sys.modules if m.startswith('linesat.') or m == 'fractions'),"
        " file=sys.stderr)"
    )
    done = _fresh_python(code, *argv, stdin_text=stdin_text)
    assert done.returncode in (0, 1) and done.stdout
    loaded = {m.removeprefix("linesat.") for m in done.stderr.split()}
    assert "cli" in loaded and not loaded & unused


def test_star_import_binds_every_public_name():
    code = (
        "import sys, linesat\nfrom linesat import *\nns = globals()\n"
        "print(len(linesat.__all__), all(ns[name] is getattr(sys.modules[ns[name].__module__], name)"
        " and ns[name].__module__.startswith('linesat.') for name in linesat.__all__))"
    )
    done = _fresh_python(code)
    assert done.returncode == 0 and done.stdout == "37 True\n"


def _cli_child(*argv, stdin_text="", timeout=30, **options):
    """`python -m linesat.cli` in a fresh interpreter: a program run, which
    leaves through the fast exit."""
    options = {"capture_output": True, "env": _fresh_env(), **options}
    return subprocess.run(
        [sys.executable, "-m", "linesat.cli", *argv],
        input=stdin_text,
        text=True,
        timeout=timeout,
        **options,
    )


def test_children_pipe_gen_to_verify_cert():
    text = _cli_child("gen", "theta", "8").stdout
    for command in ("degenerate", "close", "verify-cert"):
        done = _cli_child(command, stdin_text=text)
        assert done.returncode == 0 and done.stderr == ""
        text = done.stdout
    assert text == '{"valid":true}\n'


def test_child_close_writes_what_main_writes(tmp_path, capsys):
    star = tmp_path / "star.json"
    assert main(["gen", "star", "7", "-o", str(star)]) == 0
    child, here = tmp_path / "child.json", tmp_path / "here.json"
    done = _cli_child("close", str(star), "--closure-out", str(child))
    assert main(["close", str(star), "--closure-out", str(here)]) == 0
    assert done.returncode == 0 and done.stdout == capsys.readouterr().out
    assert child.read_bytes() == here.read_bytes()


def test_child_exit_codes():
    theta = _cli_child("gen", "theta", "6").stdout
    done = _cli_child("saturated", stdin_text=_cli_child("degenerate", stdin_text=theta).stdout)
    assert done.returncode == 1 and done.stdout == '{"weakly_saturated":false}\n'
    done = _cli_child("close", stdin_text='{"n":7,"r":3}')
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr


@pytest.mark.parametrize("argv", [["theorem2", "--n", "6"], ["min-sat", "--n", "7"]])
def test_child_sweep_with_jobs_prints_what_main_prints(capsys, monkeypatch, argv):
    # a child sweeps as `main` does, and refuses --jobs as an unknown
    # argument with the same usage error
    monkeypatch.setenv("COLUMNS", "80")
    done = _cli_child("sweep", *argv)
    assert main(["sweep", *argv]) == 0
    assert done.returncode == 0 and done.stdout == capsys.readouterr().out
    argv = ["sweep", *argv, "--jobs", "2"]
    done = _cli_child(*argv)
    code, out, err = _refused(capsys, argv)
    assert done.returncode == code == 2 and done.stdout == out == ""
    assert done.stderr == err and "unrecognized arguments: --jobs 2" in err


def test_program_run_skips_interpreter_teardown():
    # exit handlers run in teardown, which a program run leaves out
    code = (
        "import atexit\nfrom linesat.cli import main\n"
        "atexit.register(print, 'teardown ran')\nmain()"
    )
    done = _fresh_python(code, "gen", "cycle4")
    assert done.returncode == 0 and done.stdout.startswith('{"n":4,')
    assert "teardown ran" not in done.stdout


def test_closed_stdout_pipe_exits_2_with_one_error_line():
    # buffered stdout, so the write fails only in the final flush
    env = {k: v for k, v in _fresh_env().items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        pipe = {"capture_output": False, "stdout": write_end, "stderr": subprocess.PIPE}
        done = _cli_child("gen", "theta", "8", env=env, **pipe)
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "Broken pipe" in done.stderr


def test_closed_stdout_exits_2_with_one_error_line(tmp_path):
    # fd 1 closed at start, so Python sets sys.stdout to None
    def close_stdout():
        os.close(1)

    done = _cli_child("gen", "star", "6", capture_output=False, stderr=subprocess.PIPE,
                      preexec_fn=close_stdout)
    assert done.returncode == 2
    assert done.stderr == "error: standard output is closed\n"
    out = tmp_path / "star.json"
    done = _cli_child("gen", "star", "6", "-o", str(out), capture_output=False,
                      stderr=subprocess.PIPE, preexec_fn=close_stdout)
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(out.read_text())["n"] == 6


def _assert_refused_promptly(argv, stdin_text, subsets):
    # A fresh interpreter, so a runaway build would hit the timeout instead
    # of stalling the suite.
    done = _cli_child(*argv, stdin_text=stdin_text or "")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: enumeration needs")
    assert subsets in done.stderr and "budget of 1000000" in done.stderr


@pytest.mark.parametrize(
    "argv, stdin_text, subsets",
    [
        (["gen", "star", "3000"], None, "3-subsets of 3000 vertices"),
        (["close"], '{"n":40,"r":3,"edges":[[0,1,2]]}', "6-subsets of 40 vertices"),
        (["saturated"], '{"n":1000000,"r":3,"edges":[]}', "3-subsets of 1000000 vertices"),
        (["saturated"], '{"n":10000000000,"r":5000000000,"edges":[]}', "at least 2**5000000000"),
    ],
)
def test_oversized_inputs_exit_2_promptly(argv, stdin_text, subsets):
    _assert_refused_promptly(argv, stdin_text, subsets)


def test_realize_over_the_six_subset_budget_exits_2_promptly():
    # C(33, 6) 6-subsets are over the budget, so the restriction pass
    # refuses the input before any search table is built; the ceiling
    # warning comes first.
    done = _cli_child("realize", "--ceiling", "40", stdin_text='{"n":33,"r":3,"edges":[]}')
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.splitlines()[1:] == [
        "error: enumeration needs 1107568 6-subsets of 33 vertices, over the budget of 1000000"
    ]


def _one_edge(n, r=3):
    return json.dumps({"n": n, "r": r, "edges": [list(range(r))]})


@pytest.mark.parametrize(
    "argv, stdin_text, table",
    [
        (["saturated", "--k", "3"], _one_edge(140), "bits for 3-subsets of 140 vertices"),
        (["saturated", "--k", "3"], _one_edge(75), "bits for 3-subsets of 75 vertices"),
        (["close", "--k", "4"], _one_edge(50), "bits for 4-subsets of 50 vertices"),
        (["saturated", "--k", "2"], _one_edge(363, 2), "bits for 2-subsets of 363 vertices"),
        (["close", "--k", "9"], _one_edge(21), "entries for 9-subsets of 21 vertices"),
        (["saturated", "--k", "12"], _one_edge(19, 8), "entries for 12-subsets of 19 vertices"),
        (["sweep", "min-sat", "--n", "140", "--k", "3"], "", None),
        (["realize", "--ceiling", "40"], '{"n":32,"r":3,"edges":[]}',
         "bits for 6-subsets of 32 vertices"),
    ],
    ids=["k3-n140", "k3-n75", "k4-n50", "r2-k2-n363", "k9-n21", "r8-k12-n19", "min-sat-n140", "realize-n32"],
)
def test_oversized_closure_tables_exit_2_promptly(argv, stdin_text, table):
    # Each count is under the budget, but the k-subset masks or their
    # C(n,k)*C(k,r) entries would not be: the entries bound caps the mask
    # builder's intermediate masks, which at r=8, k=12, n=19 would not fit
    # under the child's 512 MiB address space although the final masks'
    # bits are under their bound.  A table built anyway fails with a bare
    # MemoryError line naming no table budget.  min-sat at k = r builds no
    # table: the empty family saturates, and it answers 0.
    import resource

    cap = 512 << 20
    done = _cli_child(
        *argv,
        stdin_text=stdin_text,
        timeout=10,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    if table is None:
        assert (done.returncode, done.stderr) == (0, "") and done.stdout.endswith(": 0\n")
        return
    errors = [line for line in done.stderr.splitlines() if line.startswith("error: ")]
    assert done.returncode == 2 and done.stdout == "" and len(errors) == 1
    budget = 2**32 if "bits" in table else 2 * 10**7
    assert f"closure-table {table}" in errors[0] and errors[0].endswith(f"budget of {budget}")


def test_min_sat_with_r_above_half_n_builds_small_tables():
    # min-sat builds no table; `saturated` does: the final table is one
    # 40-bit mask, but a builder carrying every i-subset up to r would hold
    # masks of C(40, 20) bits and, under the 512 MiB cap, fail with a bare
    # MemoryError line
    import resource

    cap = 512 << 20

    def capped(*argv, stdin_text=""):
        return _cli_child(
            *argv, stdin_text=stdin_text, timeout=10,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )

    done = capped("sweep", "min-sat", "--n", "40", "--r", "39", "--k", "40")
    assert done.returncode == 0, done.stderr
    assert done.stdout.rstrip("\n").endswith(": 39")
    done = capped("saturated", "--k", "40", stdin_text='{"n":40,"r":39,"edges":[]}')
    assert (done.returncode, done.stdout, done.stderr) == (1, '{"weakly_saturated":false}\n', "")


def test_verify_cert_walks_1000_vertex_subsets_without_recursion(capsys, monkeypatch):
    # a colex walk one call deeper per entry would raise RecursionError
    cert = '{"n":1000,"r":999,"k":1000,"base":[],"steps":[]}'
    assert run_cli(capsys, monkeypatch, ["verify-cert"], stdin_text=cert) == (0, '{"valid":true}\n', "")


@pytest.mark.parametrize("r", [2, 4])
def test_witness_check_refuses_families_that_are_not_triples(tmp_path, capsys, r):
    # an edgeless family has no edge to fail a per-edge check
    (tmp_path / "h.json").write_text(json.dumps({"n": 5, "r": r, "edges": []}))
    _, metric, _ = run_cli(capsys, None, ["gen", "theta", "5"])
    (tmp_path / "d.json").write_text(metric)
    argv = ["witness-check", str(tmp_path / "h.json"), str(tmp_path / "d.json")]
    code, out, err = run_cli(capsys, None, argv)
    assert (code, out) == (2, "")
    assert err == "error: anchors are defined for 3-uniform hypergraphs\n"


@pytest.mark.parametrize(
    "argv, subsets",
    [
        (["degenerate"], "3-subsets of 200 vertices"),
        (["degenerate", "-"], "3-subsets of 200 vertices"),
        (["reconstruct"], "3-subsets of 200 vertices"),
        (["gen", "theta", "2000"], "2-subsets of 2000 vertices"),
        (["gen", "random", "2000", "1"], "2-subsets of 2000 vertices"),
        (["gen", "line", *map(str, range(2000))], "2-subsets of 2000 vertices"),
    ],
)
def test_oversized_matrices_exit_2_promptly(argv, subsets):
    # a valid 200-point line metric, about 100 KB of JSON; gen ignores it
    line = json.dumps({"n": 200, "dist": [[abs(i - j) for j in range(200)] for i in range(200)]})
    _assert_refused_promptly(argv, line, subsets)


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (["saturated", "--k", "1000000000"], '{"weakly_saturated":false}\n'),
        (["close", "--k", "1000000000000"], '"steps":[]}\n'),
        (["sweep", "min-sat", "--n", "6", "--k", "1000000000000"], ": 20\n"),
    ],
    ids=["saturated", "close", "min-sat"],
)
def test_k_above_n_answers_promptly(argv, stdout):
    # no k-subsets at all, so nothing closes: no work may grow with k
    done = _cli_child(*argv, stdin_text=dumps_hypergraph(star_construction(6)), timeout=10)
    assert done.stderr == "" and done.stdout.endswith(stdout)


@pytest.mark.parametrize(
    "stdin_text",
    [
        '{"n":3,"dist":[[0,"1e5000000","1e5000000"],["1e5000000",0,"1e5000000"],'
        '["1e5000000","1e5000000",0]]}',
        "3\n0,1e5000000,1\n1e5000000,0,1\n1,1,0\n",
    ],
    ids=["json", "csv"],
)
def test_exponent_entries_exit_2_promptly(stdin_text):
    # Fraction alone would build 10**5000000 for each entry: tens of seconds
    done = _cli_child("degenerate", stdin_text=stdin_text, timeout=10)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: cannot parse rational '1e5000000'")


@pytest.mark.slow
@pytest.mark.parametrize("command", ["degenerate", "reconstruct"])
def test_largest_admitted_line_finishes_within_a_minute(tmp_path, command):
    # C(182, 3) = 988,260 triangles, just inside the default budget
    n = 182
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"n": n, "dist": [[abs(i * i - j * j) for j in range(n)] for i in range(n)]}))
    done = subprocess.run(
        [sys.executable, "-m", "linesat.cli", command, str(path)],
        capture_output=True,
        text=True,
        env=_fresh_env(),
        timeout=60,
    )
    assert done.returncode == 0
    if command == "degenerate":
        assert len(json.loads(done.stdout)["edges"]) == comb(n, 3)
    else:
        assert json.loads(done.stdout) == {"order": list(range(n))}


@pytest.mark.slow
def test_many_denominators_finish_within_seconds(tmp_path):
    # 1 + 1/p in each entry, a distinct prime p for each of the C(182, 2)
    # pairs: each triangle inequality meets three new denominators
    n = 182
    sieve = bytearray([1]) * 200_000
    for q in range(2, 448):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, len(sieve), q)))
    primes = iter([p for p in range(2, len(sieve)) if sieve[p]])
    rows = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        p = next(primes)
        rows[i][j] = rows[j][i] = f"{p + 1}/{p}"
    path = tmp_path / "primes.json"
    path.write_text(json.dumps({"n": n, "dist": rows}))
    done = _cli_child("degenerate", str(path), timeout=60)
    assert done.returncode == 0 and done.stdout == '{"n":182,"r":3,"edges":[]}\n'
