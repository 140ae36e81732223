import json
from fractions import Fraction

import pytest

from linesat import io as formats
from linesat.errors import FormatError, TriangleViolation
from linesat.hypergraph import star_construction
from linesat.metric import four_cycle_metric, random_rational_metric
from linesat.realizability import is_metric_hypergraph, nineteen_edge_hypergraph
from linesat.saturation import weak_saturation_closure


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
        loads(text(entry), validate=False)


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
    d = loads(text, validate=False)
    assert d.dist(0, 2) == 3


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
