"""Round-trips and parse diagnostics for the .hg and JSON formats."""

import io
import random

import pytest

from erdosrogers import HgFormatError, Hypergraph, InvalidParameterError
from erdosrogers.hgio import (
    dump_hg_stream,
    format_hg,
    from_json_obj,
    load_hg,
    parse_hg,
    parse_hg_stream,
    save_hg,
    to_json_obj,
)
from conftest import random_hypergraph


def test_text_round_trip():
    rng = random.Random(2)
    for _ in range(20):
        h = random_hypergraph(rng, rng.randint(2, 4), rng.randint(4, 8), p=0.3)
        assert parse_hg(format_hg(h)) == h


def test_json_round_trip():
    rng = random.Random(4)
    for _ in range(20):
        h = random_hypergraph(rng, 3, 6, p=0.4)
        assert from_json_obj(to_json_obj(h)) == h


def test_comments_and_blank_lines():
    text = "3 4\n# a comment\n\n0 1 2\n\n0 1 3\n"
    assert parse_hg(text).edges == ((0, 1, 2), (0, 1, 3))


def test_edges_serialized_canonically():
    h = Hypergraph(3, 4, ((3, 1, 0), (2, 1, 0)))
    assert format_hg(h) == "3 4\n0 1 2\n0 1 3\n"


def test_parse_errors_name_line():
    with pytest.raises(HgFormatError) as exc:
        parse_hg("3 4\n0 1\n")
    assert exc.value.line == 2
    with pytest.raises(HgFormatError) as exc:
        parse_hg("3 4\n0 1 2\n0 1 x\n")
    assert exc.value.line == 3
    with pytest.raises(HgFormatError) as exc:
        parse_hg("bananas\n")
    assert exc.value.line == 1
    with pytest.raises(HgFormatError) as exc:
        parse_hg("3 4\n0 1 9\n")
    assert exc.value.line == 2
    # int() also takes underscores, signs and non-ASCII digits; the format
    # takes ASCII decimal digits only.
    for text, line in (
        ("3 1_1\n", 1),
        ("3 5\n0 1 2\n+2 3 4\n", 3),
        ("3 4\n\u0660 \u0661 \u0662\n", 2),
    ):
        with pytest.raises(HgFormatError) as exc:
            parse_hg(text)
        assert exc.value.line == line


def test_file_round_trip_both_suffixes(tmp_path):
    h = Hypergraph(3, 5, ((0, 1, 2), (2, 3, 4)))
    for name in ("a.hg", "a.json"):
        path = str(tmp_path / name)
        save_hg(h, path)
        assert load_hg(path) == h


def test_stream_round_trip():
    rng = random.Random(6)
    graphs = [random_hypergraph(rng, 3, 5, p=0.4) for _ in range(5)]
    buf = io.StringIO()
    assert dump_hg_stream(graphs, buf) == 5
    assert parse_hg_stream(buf.getvalue()) == graphs


def test_stream_error_reports_absolute_line():
    text = "3 4\n0 1 2\n\n3 4\n0 1\n"
    with pytest.raises(HgFormatError) as exc:
        parse_hg_stream(text)
    assert exc.value.line == 5


@pytest.mark.parametrize(
    "obj",
    [
        {"r": 3, "n": 4, "edges": [[0, 1, 2.5]]},
        {"r": 3, "n": 4, "edges": [[0, 1, 3.0]]},
        {"r": 3, "n": 4, "edges": [[0, 2, True]]},
        {"r": 3, "n": 4, "edges": [[0, 1, "2"]]},
        {"r": 3.7, "n": 4, "edges": []},
        {"r": 3, "n": "4", "edges": []},
        {"r": True, "n": 4, "edges": []},
        {"r": 3, "n": 4, "edges": [0, 1, 2]},
        {"r": 3, "n": 4},
    ],
)
def test_json_rejects_non_integers(obj):
    with pytest.raises(InvalidParameterError):
        from_json_obj(obj)
