import io as stdio
import json
import sys
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linesat import io as formats
from linesat.cli import main
from linesat.errors import (
    BudgetExceeded,
    FormatError,
    IndexOutOfRange,
    InvalidK,
    LinesatError,
    OutOfRange,
    TooFewPoints,
    TriangleViolation,
)
from linesat.hypergraph import (
    UniformHypergraph,
    check_budget,
    complete_hypergraph,
    delete_vertex,
    star_construction,
)
from linesat.lines import anchor_via_closure, verify_non_anchor_witness
from linesat.metric import (
    DistanceMatrix,
    Graph,
    four_cycle_metric,
    graph_metric,
    line_metric,
    middle_of,
    random_rational_metric,
    theta_graph,
)
from linesat.realizability import MiddleAssignment, is_metric_hypergraph, nineteen_edge_hypergraph
from linesat.saturation import (
    ClosureCertificate,
    exhaustive_size_check,
    is_weakly_saturated,
    min_saturation_search,
    verify_certificate,
    weak_saturation_closure,
)


def test_matrix_roundtrip():
    d = random_rational_metric(6, 3)
    text = formats.dumps_matrix(d)
    assert formats.loads_matrix(text).d == d.d


def test_matrix_fraction_entries_as_strings():
    d = formats.loads_matrix('{"n":2,"dist":[[0,"1/2"],["1/2",0]]}')
    assert d.dist(0, 1) == Fraction(1, 2)


def test_matrix_writer_is_deterministic():
    d = four_cycle_metric()
    assert formats.dumps_matrix(d) == formats.dumps_matrix(d)


@pytest.mark.parametrize(
    "entry",
    [0.5, "1e400", "1.5", "1/2 "],
    ids=["float", "exponent", "decimal", "trailing-space"],
)
@pytest.mark.parametrize(
    "loads, text",
    [
        (formats.loads_matrix, lambda x: json.dumps({"n": 2, "dist": [[0, x], [x, 0]]})),
        (formats.loads_matrix_csv, lambda x: f"2\n0,{x}\n{x},0\n"),
    ],
    ids=["json", "csv"],
)
def test_matrix_rejects_floats(loads, text, entry):
    # only integers and "p/q", as the writers emit them, are rational entries
    with pytest.raises(FormatError):
        loads(text(entry))


@pytest.mark.parametrize(
    "loads, text",
    [
        (formats.loads_matrix, '{"n":3,"dist":[[0,1,3],[1,0,1],[3,1,0]]}'),
        (formats.loads_matrix_csv, "3\n0,1,3\n1,0,1\n3,1,0"),
    ],
    ids=["json", "csv"],
)
def test_matrix_rejects_non_metric(loads, text):
    with pytest.raises(TriangleViolation):
        loads(text)
    with pytest.raises(TypeError):  # validation cannot be switched off
        loads(text, validate=False)


def test_matrix_rejects_asymmetric_shape():
    with pytest.raises(FormatError):
        formats.loads_matrix('{"n":2,"dist":[[0,1]]}')


@pytest.mark.parametrize(
    "header", ["\uff12", "0_2", "+2", " 2"], ids=["fullwidth", "underscore", "plus", "space"]
)
def test_matrix_csv_header_is_ascii_digits(header):
    # int() takes all four as 2; the writer emits only [0-9]+
    with pytest.raises(FormatError, match="CSV header"):
        formats.loads_matrix_csv(f"{header}\n0,1\n1,0\n")


def test_matrix_csv_roundtrip():
    d = random_rational_metric(5, 9)
    text = formats.dumps_matrix_csv(d)
    assert formats.loads_matrix_csv(text).d == d.d


def test_hypergraph_roundtrip_in_colex_order():
    h = star_construction(7)
    text = formats.dumps_hypergraph(h)
    again = formats.loads_hypergraph(text)
    assert again.edges == h.edges
    assert formats.dumps_hypergraph(again) == text


def test_hypergraph_rejects_wrong_arity():
    with pytest.raises(FormatError):
        formats.loads_hypergraph('{"n":5,"r":3,"edges":[[0,1]]}')


@pytest.mark.parametrize("edges", [[[0, 1, 2], [2, 1, 0]], [[3, 4, 0], [0, 1, 2], [4, 0, 3]]])
def test_hypergraph_rejects_an_edge_listed_twice_in_any_vertex_order(edges):
    with pytest.raises(FormatError, match="^duplicate edges$"):
        formats.loads_hypergraph(json.dumps({"n": 5, "r": 3, "edges": edges}))


def test_hypergraph_checks_every_edge_list_before_any_vertex():
    # a malformed edge is a format error even after an out-of-range one
    with pytest.raises(FormatError, match=r"edge \[0, 1\] must be a list of 3"):
        formats.loads_hypergraph('{"n":5,"r":3,"edges":[[0,1,9],[0,1]]}')


def test_certificate_roundtrip():
    cert = weak_saturation_closure(star_construction(7), 6).certificate
    text = formats.dumps_certificate(cert)
    again = formats.loads_certificate(text)
    assert again.base.edges == cert.base.edges
    assert again.k == cert.k
    assert again.steps == cert.steps
    assert formats.dumps_certificate(again) == text


def test_verdict_serialization():
    verdict = is_metric_hypergraph(nineteen_edge_hypergraph())
    text = formats.dumps_verdict(verdict)
    assert '"status":"non-metric"' in text
    assert '"witness":null' in text


@pytest.mark.parametrize(
    "text",
    [
        '{"n":7,"r":3,"k":6,"base":[],"steps":5}',
        '{"n":7,"r":3,"k":6,"base":[],"steps":[{"T":3,"S":[0,1,2,3,4,5]}]}',
        '{"n":7,"r":3,"k":6,"base":[],"steps":[{"T":[0,1,2],"S":6}]}',
    ],
)
def test_certificate_rejects_non_list_steps(text):
    with pytest.raises(FormatError):
        formats.loads_certificate(text)


@pytest.mark.parametrize(
    "loads, text",
    [
        (formats.loads_hypergraph, '{"n":5,"r":3,"edges":[[0,1,true]]}'),
        (
            formats.loads_certificate,
            '{"n":7,"r":3,"k":6,"base":[],"steps":[{"T":[0,1,true],"S":[0,1,2,3,4,5]}]}',
        ),
    ],
)
def test_booleans_are_not_vertex_indices(loads, text):
    with pytest.raises(FormatError):
        loads(text)


def _parsed(loads, text, command, error=FormatError):
    """A row of the table below: `loads` refuses `text`, and so does `command` on stdin."""
    return partial(loads, text), error, [command], text


_STAR6 = formats.dumps_hypergraph(star_construction(6))
_LONG = "9" * 5000  # past the digit limit of int(), so json.loads raises a plain ValueError
_PAIRS = UniformHypergraph(4, 2, 0)
_K6_PAIRS = formats.dumps_hypergraph(complete_hypergraph(6, 2))
_K_BELOW_R = '{"n":6,"r":3,"k":2,"base":[],"steps":[]}'


@pytest.mark.parametrize(
    "call, error, argv, stdin_text",
    [
        _parsed(formats.loads_hypergraph, '{"n":3,', "saturated"),
        _parsed(formats.loads_hypergraph, '{"n":3,"r":3}', "saturated"),
        _parsed(formats.loads_matrix, '{"n":2,"dist":[[0,1]],"extra":0}', "degenerate"),
        _parsed(formats.loads_matrix, '{"n":2,"dist":[[0,1],[1]]}', "degenerate"),
        _parsed(formats.loads_matrix_csv, "", "degenerate"),
        _parsed(formats.loads_matrix_csv, "3\n0,1,1\n1,0,1\n", "degenerate"),
        _parsed(formats.loads_matrix_csv, "2\n0,1,1\n1,0\n", "degenerate"),
        _parsed(formats.loads_matrix, '{"n":2,"dist":[[0,"1/0"],["1/0",0]]}', "degenerate"),
        _parsed(formats.loads_hypergraph, '{"n":3,"r":3,"edges":{}}', "saturated"),
        _parsed(formats.loads_hypergraph, '{"n":3,"r":3,"edges":[[0,1,2],[2,1,0]]}', "saturated"),
        _parsed(
            formats.loads_certificate,
            '{"n":6,"r":3,"k":6,"base":[],"steps":[{"T":[0,1,2],"S":[0,1,2,3,4,5],"U":[]}]}',
            "verify-cert",
        ),
        _parsed(formats.loads_hypergraph, '{"n":3,"r":-1,"edges":[]}', "saturated", OutOfRange),
        _parsed(formats.loads_hypergraph, '{"n":-2,"r":-3,"edges":[]}', "saturated", OutOfRange),
        (partial(exhaustive_size_check, 6, 3, 2, 10), InvalidK,
         ["sweep", "theorem2", "--n", "6", "--k", "2"], ""),
        (partial(min_saturation_search, 6, 3, 2), InvalidK,
         ["sweep", "min-sat", "--n", "6", "--k", "2"], ""),
        (partial(is_weakly_saturated, star_construction(6), 2), InvalidK,
         ["saturated", "--k", "2"], _STAR6),
        (partial(delete_vertex, star_construction(6), 6), OutOfRange, None, None),
        _parsed(formats.loads_matrix, '{"n":%s,"dist":[]}' % _LONG, "degenerate"),
        _parsed(formats.loads_hypergraph, '{"n":%s,"r":3,"edges":[]}' % _LONG, "saturated"),
        _parsed(
            formats.loads_certificate,
            '{"n":6,"r":3,"k":%s,"base":[],"steps":[]}' % _LONG,
            "verify-cert",
        ),
        _parsed(formats.loads_matrix_csv, "9" + _LONG + "\n", "degenerate"),
        _parsed(formats.loads_matrix, '{"n":1,"dist":[[true]]}', "degenerate"),
        (partial(is_metric_hypergraph, _PAIRS), ValueError, None, None),
        (partial(MiddleAssignment, _PAIRS), ValueError, None, None),
        (partial(DistanceMatrix.from_rows, [[0, 1]]), ValueError, None, None),
        (partial(DistanceMatrix.from_rows, []), ValueError, None, None),
        (partial(Graph.from_edges, 3, [(0, 3)]), IndexOutOfRange, None, None),
        (partial(Graph.from_edges, 3, [(1, 1)]), ValueError, None, None),
        (partial(middle_of, line_metric([0, 1, 3]), (0, 0, 1)), ValueError, None, None),
        (partial(graph_metric, Graph.from_edges(0, [])), TooFewPoints, None, None),
        (partial(random_rational_metric, 0, 1), TooFewPoints, None, None),
        (partial(exhaustive_size_check, 6, 3, 6, 21), OutOfRange, None, None),
        (partial(check_budget, 2000, 3), BudgetExceeded, None, None),
        (partial(anchor_via_closure, complete_hypergraph(6, 2)), ValueError,
         ["anchor"], _K6_PAIRS),
        (lambda: verify_certificate(formats.loads_certificate(_K_BELOW_R)), InvalidK,
         ["verify-cert"], _K_BELOW_R),
        (partial(is_metric_hypergraph, UniformHypergraph(33, 3, 0), 40), BudgetExceeded,
         None, None),
        (partial(verify_non_anchor_witness, UniformHypergraph(5, 2, 0),
                 graph_metric(theta_graph(5))), ValueError, None, None),
    ],
    ids=[
        "invalid-json", "wrong-keys", "matrix-extra-key", "non-square-dist", "empty-csv",
        "csv-row-count", "csv-row-width", "zero-denominator", "edges-not-a-list",
        "duplicate-edges", "step-extra-key", "negative-r", "negative-n-and-r",
        "size-check-k-below-r", "min-sat-k-below-r", "saturated-k-below-r",
        "delete-vertex-out-of-range", "matrix-long-int", "hypergraph-long-int",
        "certificate-long-int", "csv-long-header", "matrix-boolean-entry",
        "realize-2-uniform", "assignment-2-uniform", "non-square-rows", "no-rows",
        "graph-vertex-out-of-range", "graph-loop", "middle-of-repeated-point",
        "empty-graph-metric", "no-random-points", "size-above-c-n-r", "budget-2000-points",
        "anchor-2-uniform", "certificate-k-below-r", "realize-33-vertices",
        "witness-check-edgeless-pairs",
    ],
)
def test_rejected_inputs_raise_typed_errors_and_exit_2(
    capsys, monkeypatch, call, error, argv, stdin_text
):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    if argv is None:  # no subcommand takes this input
        return
    monkeypatch.setattr(sys, "stdin", stdio.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and captured.err.startswith("error: ")


def test_step_with_a_wrong_size_t_is_an_invalid_certificate(capsys, monkeypatch):
    # the schema leaves T's length to the verifier, whose "no" is a verdict
    cert = ClosureCertificate(star_construction(6), 6, (((0, 1), (0, 1, 2, 3, 4, 5)),))
    assert verify_certificate(cert) is False
    monkeypatch.setattr(sys, "stdin", stdio.StringIO(formats.dumps_certificate(cert)))
    assert main(["verify-cert"]) == 1
    assert capsys.readouterr().out == '{"valid":false}\n'


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_INT = st.integers(-3, 8)
_ENTRY = _INT | st.sampled_from(["1/2", "-1", "1/0", "0/0"]) | _JSON
_EDGES = st.lists(st.lists(_INT, max_size=4), max_size=3)
_DIST = st.lists(st.lists(_ENTRY, max_size=4), max_size=4)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        _JSON,
        st.fixed_dictionaries({"n": _INT, "r": _INT, "edges": _EDGES}),
        st.fixed_dictionaries({"n": _INT | _JSON, "r": _INT | _JSON, "edges": _JSON}),
        st.fixed_dictionaries({"n": _INT, "dist": _DIST}),
        st.fixed_dictionaries({"n": _INT | _JSON, "dist": _JSON}),
    )
)
def test_loaders_raise_only_typed_errors(value):
    text = json.dumps(value)
    for loads in (formats.loads_hypergraph, formats.loads_matrix):
        try:
            loads(text)
        except LinesatError:
            pass


_STEP = st.fixed_dictionaries({"T": st.lists(_INT, max_size=4), "S": st.lists(_INT, max_size=7)})


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        _JSON,
        st.fixed_dictionaries(
            {"n": _INT, "r": _INT, "k": _INT, "base": st.just([]) | _EDGES,
             "steps": st.lists(_STEP | _JSON, max_size=4)}
        ),
        st.fixed_dictionaries(
            {"n": _INT | _JSON, "r": _INT | _JSON, "k": _INT | _JSON, "base": _JSON,
             "steps": _JSON}
        ),
    )
)
def test_certificate_loader_and_verifier_raise_only_typed_errors(value):
    # whatever parses is replayed: a bad step is a False verdict, not a crash
    try:
        cert = formats.loads_certificate(json.dumps(value))
    except LinesatError:
        return
    try:
        assert verify_certificate(cert) in (True, False)
    except LinesatError:
        pass


_CSV_CHARS = "0123456789,/-+ex. \t\n\r\x0b\x0c"
_CELL = st.sampled_from(["0", "1", "2", "1/2", "-1"]) | st.text(_CSV_CHARS[:-5], max_size=5)
_SHAPED_CSV = st.integers(0, 4).flatmap(
    lambda n: st.lists(
        st.lists(_CELL, min_size=n, max_size=n).map(",".join), min_size=n, max_size=n
    ).map(lambda rows: "\n".join([str(n), *rows]))
)


@settings(max_examples=300, deadline=None)
@given(st.text(_CSV_CHARS, max_size=40) | _SHAPED_CSV)
def test_csv_loader_raises_only_typed_errors(text):
    try:
        formats.loads_matrix_csv(text)
    except LinesatError:
        pass
