"""Command-line front end.

Subcommands read one JSON object from a file or stdin and write one JSON
object to a file or stdout, so runs compose through pipes:

    linesat gen theta 6 | linesat degenerate | linesat saturated

Exit codes: 0 for affirmative or clean results, 1 for negative verdicts,
2 for errors (parse failures and domain errors, reported on stderr with
their witness data).

Each handler imports the modules it calls, so a run loads only what its
subcommand needs: `close` never loads the realizability search or its LP.
One table gives each subcommand, and each sweep, its handler, help line
and arguments; a run builds only the subparsers its words name, and help
and error texts read the same.  Run as a program, `main` flushes stdout
and stderr and leaves through `os._exit`, skipping interpreter teardown;
`main(argv)` returns the exit code instead.
"""

import argparse
import sys
from math import comb

from .errors import BudgetExceeded, FormatError, LinesatError, OutOfRange

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def __getattr__(name: str):
    # `linesat.cli.formats` names the io module, as the handlers import it;
    # perfbench's tracer wraps the io functions through it.
    if name == "formats":
        from . import io

        return io
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(args: argparse.Namespace, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.output is None or args.output == "-":
        if sys.stdout is None:  # fd 1 was closed when the run started
            raise OSError("standard output is closed")
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _answer(args: argparse.Namespace, key: str, ok: bool) -> int:
    """Write a one-key yes/no object; a no is a negative verdict."""
    _write(args, '{"%s":%s}' % (key, "true" if ok else "false"))
    return EXIT_OK if ok else EXIT_NEGATIVE


def _load_matrix(path: str):
    from . import io as formats

    text = _read(path)
    json_text = text.lstrip().startswith("{")
    loads = formats.loads_matrix if json_text else formats.loads_matrix_csv
    return loads(text)


def _cmd_degenerate(args: argparse.Namespace) -> int:
    from . import io as formats
    from .metric import degenerate_hypergraph

    d = _load_matrix(args.input)
    _write(args, formats.dumps_hypergraph(degenerate_hypergraph(d)))
    return EXIT_OK


def _cmd_close(args: argparse.Namespace) -> int:
    from . import io as formats
    from .saturation import weak_saturation_closure

    h = formats.loads_hypergraph(_read(args.input))
    result = weak_saturation_closure(h, args.k)
    _write(args, formats.dumps_certificate(result.certificate))
    if args.closure_out:
        with open(args.closure_out, "w", encoding="utf-8") as fh:
            fh.write(formats.dumps_hypergraph(result.closure) + "\n")
    return EXIT_OK


def _cmd_verify_cert(args: argparse.Namespace) -> int:
    from . import io as formats
    from .saturation import verify_certificate

    cert = formats.loads_certificate(_read(args.input))
    return _answer(args, "valid", verify_certificate(cert))


def _cmd_saturated(args: argparse.Namespace) -> int:
    from . import io as formats
    from .saturation import is_weakly_saturated

    h = formats.loads_hypergraph(_read(args.input))
    return _answer(args, "weakly_saturated", is_weakly_saturated(h, args.k))


def _cmd_anchor(args: argparse.Namespace) -> int:
    from . import io as formats
    from .lines import anchor_via_closure

    h = formats.loads_hypergraph(_read(args.input))
    return _answer(args, "anchor_certified", anchor_via_closure(h))


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    from . import io as formats
    from .lines import reconstruct_line

    d = _load_matrix(args.input)
    order = reconstruct_line(d)
    if order is None:
        _write(args, '{"order":null}')
        return EXIT_NEGATIVE
    _write(args, formats.dumps_order(order))
    print("reversal is an equally valid order", file=sys.stderr)
    return EXIT_OK


def _cmd_witness_check(args: argparse.Namespace) -> int:
    from . import io as formats
    from .lines import verify_non_anchor_witness

    h = formats.loads_hypergraph(_read(args.hypergraph))
    d = _load_matrix(args.metric)
    return _answer(args, "non_anchor_witness", verify_non_anchor_witness(h, d))


def _cmd_realize(args: argparse.Namespace) -> int:
    from . import io as formats
    from .hypergraph import DEFAULT_CEILING
    from .realizability import is_metric_hypergraph

    h = formats.loads_hypergraph(_read(args.input))
    if args.ceiling > DEFAULT_CEILING:
        print(
            f"warning: ceiling {args.ceiling} accepts worst-case branching of "
            "3^edges middle assignments",
            file=sys.stderr,
        )
    verdict = is_metric_hypergraph(h, args.ceiling)
    _write(args, formats.dumps_verdict(verdict))
    return EXIT_OK if verdict.status == "metric" else EXIT_NEGATIVE


_GEN_USAGE = {
    "star": "star N",
    "theta": "theta N",
    "cycle4": "cycle4",
    "line": "line C1 C2 ...",
    "random": "random N SEED",
}


def _cmd_gen(args: argparse.Namespace) -> int:
    from . import io as formats
    from .hypergraph import check_budget, star_construction
    from .metric import (
        four_cycle_metric,
        graph_metric,
        line_metric,
        random_rational_metric,
        theta_graph,
    )

    kind, *params = args.params
    usage = _GEN_USAGE.get(kind)
    if usage is None:
        raise FormatError(f"unknown generator {kind!r}")
    if kind == "line":
        bad = not params
    else:  # one count in ASCII digits per space in the usage
        bad = len(params) != usage.count(" ") or not all(map(formats._COUNT.fullmatch, params))
    if bad:
        raise FormatError(f"usage: gen {usage}")
    if kind == "star":
        if args.fmt == "csv":
            raise FormatError("--format csv applies to matrix kinds only, not gen star")
        _write(args, formats.dumps_hypergraph(star_construction(int(params[0]))))
        return EXIT_OK
    if kind != "cycle4":  # the matrix holds C(N, 2) distances
        check_budget(len(params) if kind == "line" else int(params[0]), 2)
    if kind == "theta":
        d = graph_metric(theta_graph(int(params[0])))
    elif kind == "cycle4":
        d = four_cycle_metric()
    elif kind == "line":
        d = line_metric(formats._parse_rationals(params))
    else:
        d = random_rational_metric(int(params[0]), int(params[1]))
    dumps = formats.dumps_matrix_csv if args.fmt == "csv" else formats.dumps_matrix
    _write(args, dumps(d))
    return EXIT_OK


def _sweep_theorem2(args: argparse.Namespace) -> int:
    """At the size bound C(n,r)-n+k-1 every hypergraph saturates; one edge
    below, some hypergraph must fail."""
    from .saturation import _check_scan, exhaustive_size_check

    n, r, k = args.n, args.r, args.k
    _check_scan(n, r, k, 1)  # before C(n, r) is taken
    bound = comb(n, r) - n + k - 1
    if not 1 <= bound <= comb(n, r):
        raise OutOfRange(
            f"--n {n} --r {r} --k {k}: the bound C(n,r)-n+k-1 = {bound}"
            f" falls outside 1..C(n,r) = 1..{comb(n, r)}"
        )
    at_bound = exhaustive_size_check(n, r, k, bound, args.budget)
    below = exhaustive_size_check(n, r, k, bound - 1, args.budget)
    lines = [f"n={n} r={r} k={k} bound={bound}"]
    for size, hit in ((bound, at_bound), (bound - 1, below)):
        found = "all saturated" if hit is None else "counterexample found"
        lines.append(f"size {size}: {found}")
    if below is not None:
        lines.append(f"counterexample edges: {[list(e) for e in below.edge_list()]}")
    _write(args, "\n".join(lines))
    return EXIT_OK if at_bound is None and below is not None else EXIT_NEGATIVE


def _sweep_theorem3(args: argparse.Namespace) -> int:
    """The star family hits the size 3*C(n-2,2)+1 and K6^3-saturates for each
    n: its certificate, one step per triple avoiding {0,1,2}, replays to all
    C(n, 3) triples."""
    from .hypergraph import DEFAULT_BUDGET
    from .saturation import _replays_to_complete, _star_certificate

    if args.n_min < 5:
        raise OutOfRange(f"--n-min must be at least 5, got {args.n_min}")
    if args.n_max < args.n_min:
        raise OutOfRange(f"--n-max must be at least --n-min ({args.n_min}), got {args.n_max}")
    # each step looks up the C(6, 3) triples of its 6-set: sum them first
    lookups = 0
    for n in range(args.n_min, args.n_max + 1):
        lookups += 20 * comb(n - 3, 3)
        if lookups > DEFAULT_BUDGET:
            raise BudgetExceeded(lookups, DEFAULT_BUDGET, f"replay lookups up to n={n}")
    ok = True
    lines = []
    for n in range(args.n_min, args.n_max + 1):
        cert = _star_certificate(n, 3, 6)
        edges = cert.base.edge_count
        expected = 3 * comb(n - 2, 2) + 1
        saturated = _replays_to_complete(cert)
        ok = ok and edges == expected and saturated
        lines.append(f"n={n}: edges={edges} expected={expected} saturated={saturated}")
    _write(args, "\n".join(lines))
    return EXIT_OK if ok else EXIT_NEGATIVE


def _sweep_min_sat(args: argparse.Namespace) -> int:
    from .saturation import min_saturation_search

    m = min_saturation_search(args.n, args.r, args.k, args.budget)
    _write(args, f"minimum weakly saturated size at n={args.n} r={args.r} k={args.k}: {m}")
    return EXIT_OK


def _sweep_audit(args: argparse.Namespace) -> int:
    from . import io as formats
    from .realizability import minimal_nonmetric_audit

    report = minimal_nonmetric_audit()
    _write(args, formats.dumps_audit(report))
    return EXIT_OK if report.is_minimal_non_metric() else EXIT_NEGATIVE


def run(args: argparse.Namespace) -> int:
    """Run the parsed subcommand's handler; returns the process exit code."""
    try:
        return args.handler(args)
    except (LinesatError, OSError, ValueError, IndexError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _build_parser(words=()) -> argparse.ArgumentParser:
    """The parser of the run `words`: only the subcommand and sweep they name, if any."""
    from .hypergraph import DEFAULT_BUDGET, DEFAULT_CEILING

    def opt(*flags, **kwargs):
        return flags, kwargs

    def ints(*defaults):  # integer options with no help line
        return [opt(flag, type=int, default=value) for flag, value in defaults]

    out = opt("-o", "--output", default=None, help="output file (default: stdout)")
    io_args = (opt("input", nargs="?", default="-", help="input file (default: stdin)"), out)
    clique = opt("--k", type=int, default=6, help="clique size (default 6)")
    size_args = (out, *ints(("--n", 6), ("--r", 3)), clique, *ints(("--budget", DEFAULT_BUDGET)))
    branching = "max vertex count; raising it accepts exponential branching"
    kinds = " | ".join(_GEN_USAGE.values()) + "; write -- before KIND if a coordinate is -p/q"
    sweeps = {  # sweep -> its handler, help line and arguments, in listing order
        "audit": (_sweep_audit, "minimality audit of the 19-edge non-metric family", out),
        "min-sat": (_sweep_min_sat, "minimum weakly saturated size", *size_args),
        "theorem2": (_sweep_theorem2, "proved and checked size bound C(n,r)-n+k-1", *size_args),
        "theorem3": (_sweep_theorem3, "size 3*C(n-2,2)+1 and saturation of the star family",
                     out, *ints(("--n-min", 5), ("--n-max", 10))),
    }
    table = {  # subcommand -> its handler, help line and arguments, in listing order
        "degenerate": (_cmd_degenerate, "degenerate-triangle hypergraph of a metric", *io_args),
        "close": (_cmd_close, "weak saturation closure with certificate", *io_args, clique,
                  opt("--closure-out", default=None, help="also write the closure hypergraph")),
        "verify-cert": (_cmd_verify_cert, "replay and check a closure certificate", *io_args),
        "saturated": (_cmd_saturated, "test weak saturation", *io_args, clique),
        "anchor": (_cmd_anchor, "certify an anchor via closure (sufficient only)", *io_args),
        "reconstruct": (_cmd_reconstruct, "reconstruct a linear order from a metric", *io_args),
        "witness-check": (_cmd_witness_check,
                          "verify a metric disproving anchorhood of a hypergraph",
                          opt("hypergraph"), opt("metric"), out),
        "realize": (_cmd_realize, "decide metric realizability of a hypergraph", *io_args,
                    opt("--ceiling", type=int, default=DEFAULT_CEILING, help=branching)),
        "gen": (_cmd_gen, "generate example inputs",
                opt("params", nargs="+", metavar="KIND [ARG...]", help=kinds),
                out, opt("--format", dest="fmt", choices=("json", "csv"), default="json")),
        "sweep": (sweeps, "bulk verification runs"),  # a table of its own
    }
    parser = argparse.ArgumentParser(
        prog="linesat",
        description=(
            "exact tools for metric betweenness, degenerate triangles, weak "
            "hypergraph saturation, line reconstruction, and realizability"
        ),
    )
    _add_subparsers(parser, "command", table, list(words))
    return parser


def _add_subparsers(parser, dest: str, table: dict, words: list, **options) -> None:
    """Add `table`'s subparsers to `parser`, or only the one `words` starts with."""
    named = bool(words) and words[0] in table
    names, rest = (words[:1], words[1:]) if named else (list(table), [])
    # A lone subparser takes the usage line of the whole set; the whole set
    # keeps no metavar, as its errors name the action by its dest.
    choices = "{%s}" % ",".join(table) if named else None
    sub = parser.add_subparsers(dest=dest, required=True, metavar=choices)
    for name in names:
        handler, help_text, *arguments = table[name]
        p = sub.add_parser(name, help=help_text, **options)
        if isinstance(handler, dict):  # no abbreviations, or theorem3 would read --n-ma as --n-max
            _add_subparsers(p, "name", handler, rest, allow_abbrev=False)
            continue
        p.set_defaults(handler=handler)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)


def main(argv=None) -> int:
    words = sys.argv[1:] if argv is None else argv
    code = run(_build_parser(words).parse_args(words))
    if argv is not None:
        return code
    # A program run leaves without interpreter teardown, which costs more
    # than most commands' work; only the standard streams need flushing.
    import os

    try:
        if sys.stdout:
            sys.stdout.flush()
    except OSError as exc:  # say, a pipe whose reader has closed
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_ERROR
    if sys.stderr:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
