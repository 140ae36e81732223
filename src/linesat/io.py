"""JSON and CSV schemas for matrices, hypergraphs, certificates, orders,
and verdicts.

Writers are deterministic (fixed key order, edges in colex order), so
identical inputs produce byte-identical files.  Parsers are strict: rational
entries must be integers or "p/q" strings, and matrices are rejected unless
they satisfy the metric axioms.

Writers take their objects ready-made, so only the matrix loaders and the
certificate parser import the modules that define their objects, and only
when called: parsing a hypergraph or a certificate never loads `metric`,
nor `fractions`, which only the rational parser imports.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING

from .errors import FormatError
from .hypergraph import UniformHypergraph, check_budget

if TYPE_CHECKING:
    from fractions import Fraction

    from .metric import DistanceMatrix
    from .realizability import AuditReport, RealizabilityVerdict
    from .saturation import ClosureCertificate


def _load_object(text: str, keys, what: str) -> dict:
    """Decode a JSON object that has exactly the given keys."""
    try:
        obj = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or set(obj) != set(keys):
        names = ", ".join(f'"{key}"' for key in keys)
        raise FormatError(f"{what} object must have exactly the keys {names}")
    return obj


def _is_ints(value, length: int | None = None) -> bool:
    """Whether `value` is a JSON list of integers (booleans are not integers
    here), and of `length` integers if that is given."""
    ok = isinstance(value, list) and all(type(x) is int for x in value)
    return ok and length in (None, len(value))


def _ints(value, message: str) -> tuple[int, ...]:
    if not _is_ints(value):
        raise FormatError(message)
    return tuple(value)


# What the writers emit: an integer, or an integer "/" a natural number.
# `Fraction` alone would also take exponents, and "1e5000000" costs it
# time without bound.
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")
_COUNT = re.compile(r"[0-9]+")


def _parse_rationals(values) -> tuple[Fraction, ...]:
    """Entries that are integers or "p/q" strings, as exact rationals."""
    from fractions import Fraction  # here, so hypergraph-only commands skip it

    out = []
    for value in values:
        if isinstance(value, bool):
            raise FormatError(f"boolean {value!r} is not a rational entry")
        if isinstance(value, int):
            out.append(Fraction(value))
        elif isinstance(value, str):
            if not _RATIONAL.fullmatch(value):
                raise FormatError(
                    f"cannot parse rational {value!r}: expected an integer or 'p/q'"
                )
            try:
                out.append(Fraction(value))
            except (ValueError, ZeroDivisionError) as exc:
                raise FormatError(f"cannot parse rational {value!r}") from exc
        else:
            raise FormatError(
                f"entry {value!r} must be an integer or a 'p/q' string (floats are rejected)"
            )
    return tuple(out)


def _emit_rational(value: Fraction):
    return value.numerator if value.denominator == 1 else str(value)


def _matrix_object(d: DistanceMatrix | None) -> dict | None:
    if d is None:
        return None
    return {"n": d.n, "dist": [[_emit_rational(x) for x in row] for row in d.d]}


def _matrix(n: int, rows) -> DistanceMatrix:
    from .metric import DistanceMatrix, validate_metric

    d = DistanceMatrix(n, tuple(rows))
    validate_metric(d)
    return d


def dumps_matrix(d: DistanceMatrix) -> str:
    return json.dumps(_matrix_object(d), separators=(",", ":"))


def loads_matrix(text: str) -> DistanceMatrix:
    obj = _load_object(text, ("n", "dist"), "matrix")
    (n,) = _ints([obj["n"]], '"n" must be an int')
    rows = obj["dist"]
    if not isinstance(rows, list) or len(rows) != n:
        raise FormatError('"dist" must be an n-row matrix')
    if any(not isinstance(row, list) or len(row) != n for row in rows):
        raise FormatError('"dist" must be square')
    return _matrix(n, (_parse_rationals(row) for row in rows))


def dumps_matrix_csv(d: DistanceMatrix) -> str:
    lines = [str(d.n)]
    lines.extend(",".join(str(x) for x in row) for row in d.d)
    return "\n".join(lines) + "\n"


def loads_matrix_csv(text: str) -> DistanceMatrix:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise FormatError("empty CSV matrix")
    if not _COUNT.fullmatch(lines[0]):
        raise FormatError(f"CSV header must be the point count, got {lines[0]!r}")
    try:
        n = int(lines[0])
    except ValueError as exc:  # more digits than int() converts
        raise FormatError(f"CSV header: {exc}") from exc
    if len(lines) != n + 1:
        raise FormatError(f"expected {n} rows after the header, got {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != n:
            raise FormatError(f"row {line!r} does not have {n} entries")
        rows.append(_parse_rationals(cells))
    return _matrix(n, rows)


def dumps_hypergraph(h: UniformHypergraph) -> str:
    obj = {"n": h.n, "r": h.r, "edges": [list(e) for e in h.edge_list()]}
    return json.dumps(obj, separators=(",", ":"))


def _hypergraph(n, r, edges) -> UniformHypergraph:
    n, r = _ints([n, r], '"n" and "r" must be ints')
    if not isinstance(edges, list):
        raise FormatError("edges must be a list")
    check_budget(n, r)
    for e in edges:  # every edge's shape before any vertex, the message only on failure
        if not _is_ints(e, r):
            raise FormatError(f"edge {e!r} must be a list of {r} vertex indices")
    h = UniformHypergraph.from_edges(n, r, edges)  # sorts and checks each edge
    if h.edge_count != len(edges):
        raise FormatError("duplicate edges")
    return h


def loads_hypergraph(text: str) -> UniformHypergraph:
    obj = _load_object(text, ("n", "r", "edges"), "hypergraph")
    return _hypergraph(obj["n"], obj["r"], obj["edges"])


def dumps_certificate(cert: ClosureCertificate) -> str:
    h = cert.base
    obj = {
        "n": h.n,
        "r": h.r,
        "k": cert.k,
        "base": [list(e) for e in h.edge_list()],
        "steps": [{"T": list(t), "S": list(s)} for t, s in cert.steps],
    }
    return json.dumps(obj, separators=(",", ":"))


def loads_certificate(text: str) -> ClosureCertificate:
    from .saturation import ClosureCertificate

    obj = _load_object(text, ("n", "r", "k", "base", "steps"), "certificate")
    (k,) = _ints([obj["k"]], '"k" must be an int')
    base = _hypergraph(obj["n"], obj["r"], obj["base"])
    if not isinstance(obj["steps"], list):
        raise FormatError('"steps" must be a list')
    steps = []
    for step in obj["steps"]:
        if not isinstance(step, dict) or set(step) != {"T", "S"}:
            raise FormatError('each step must have exactly the keys "T" and "S"')
        if not (_is_ints(step["T"]) and _is_ints(step["S"])):
            raise FormatError(f"step {step!r} must hold lists of vertex indices")
        steps.append((tuple(step["T"]), tuple(step["S"])))
    return ClosureCertificate(base, k, tuple(steps))


def dumps_order(order: tuple[int, ...]) -> str:
    return json.dumps({"order": list(order)}, separators=(",", ":"))


def dumps_verdict(v: RealizabilityVerdict) -> str:
    witness = _matrix_object(v.witness)
    obj = {"status": v.status, "witness": witness, "explored": v.explored}
    return json.dumps(obj, separators=(",", ":"))


def dumps_audit(report: AuditReport) -> str:
    def entry(e):
        return {
            "deleted_vertex": e.deleted_vertex,
            "edges": e.edge_count,
            "status": e.verdict.status,
            "explored": e.verdict.explored,
            "witness": _matrix_object(e.verdict.witness),
        }

    obj = {
        "root": entry(report.root),
        "deletions": [entry(e) for e in report.deletions],
        "minimal_non_metric": report.is_minimal_non_metric(),
    }
    return json.dumps(obj, separators=(",", ":"))
