"""Round-trips and parse diagnostics for the .hg and JSON formats."""

import io
import json
import math
import random

import pytest

from erdosrogers import HgFormatError, Hypergraph, InvalidParameterError
from erdosrogers.hgio import (
    _json_text,
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


# text -> (line, message) of the HgFormatError, or None when it parses.
# Recorded from the parser before its per-line checks were merged.
DIAGNOSTICS = [
    ("", (1, "missing 'r n' header")),
    ("   \n3 4\n", (1, "missing 'r n' header")),
    ("3\n0 1 2\n", (1, "expected 'r n' header, got '3'")),
    ("3 4 5\n", (1, "expected 'r n' header, got '3 4 5'")),
    ("+3 4\n", (1, "header fields must be ASCII decimal digits, got '+3 4'")),
    ("3 4\n", None),
    ("3 4\r\n0 1 2\r\n0 1\r\n", (3, "expected 3 vertex ids, got 2")),
    ("3 4\r\n0 1 2\r\n0 1 x\r\n",
     (3, "vertex ids must be ASCII decimal digits, got '0 1 x'")),
    ("3 4\n0\t1\t2\n0\t1\t9\n",
     (3, "edge (0, 1, 9) is not 3 distinct vertices in 0..3")),
    ("3 4\n0 1 2\n   # indented\n0 1 +3\n",
     (4, "vertex ids must be ASCII decimal digits, got '0 1 +3'")),
    ("3 4\n0 1 2\n \t \n0 1 1_0\n",
     (4, "vertex ids must be ASCII decimal digits, got '0 1 1_0'")),
    ("3 4\n  \n\t\n\u0660 1 2\n",
     (4, "vertex ids must be ASCII decimal digits, got '\u0660 1 2'")),
    ("3 4\n0 +1 2\n", (2, "vertex ids must be ASCII decimal digits, got '0 +1 2'")),
    ("3 4\n0 1 2 3\n", (2, "expected 3 vertex ids, got 4")),
    ("3 4\n0 1 1\n", (2, "edge (0, 1, 1) is not 3 distinct vertices in 0..3")),
    ("3 4\n0 1 4\n", (2, "edge (0, 1, 4) is not 3 distinct vertices in 0..3")),
]


@pytest.mark.parametrize("text, expected", DIAGNOSTICS)
def test_parse_diagnostics(text, expected):
    if expected is None:
        assert parse_hg(text) == Hypergraph(3, 4, ())
        return
    with pytest.raises(HgFormatError) as exc:
        parse_hg(text)
    line, message = expected
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


# Host -> (.hg bytes, .json bytes), as written before format_hg and save_hg
# stopped using str.join and json.dump.
SAVED_BYTES = [
    (Hypergraph(1, 3, ((2,), (0,))), b"1 3\n0\n2\n",
     b'{\n  "r": 1,\n  "n": 3,\n  "edges": [\n    [\n      0\n    ],\n'
     b'    [\n      2\n    ]\n  ]\n}\n'),
    (Hypergraph(2, 0, ()), b"2 0\n", b'{\n  "r": 2,\n  "n": 0,\n  "edges": []\n}\n'),
    (Hypergraph(3, 5, ()), b"3 5\n", b'{\n  "r": 3,\n  "n": 5,\n  "edges": []\n}\n'),
    (Hypergraph(3, 5, ((2, 3, 4), (0, 1, 2))), b"3 5\n0 1 2\n2 3 4\n",
     b'{\n  "r": 3,\n  "n": 5,\n  "edges": [\n    [\n      0,\n      1,\n'
     b'      2\n    ],\n    [\n      2,\n      3,\n      4\n    ]\n  ]\n}\n'),
]


@pytest.mark.parametrize("h, hg_bytes, json_bytes", SAVED_BYTES)
def test_saved_bytes(tmp_path, h, hg_bytes, json_bytes):
    assert format_hg(h).encode() == hg_bytes
    for name, expected in (("a.hg", hg_bytes), ("a.json", json_bytes)):
        path = tmp_path / name
        save_hg(h, str(path))
        assert path.read_bytes() == expected


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


JSON_LEAVES = [
    0, 1, -1, 2**64, -(2**70) + 3, 10**40, True, False, None,
    0.0, -0.0, 1.5, -2.25e-300, 1e300, math.inf, -math.inf, math.nan,
    "", "plain", 'quote " and \\ back', "tab\tnew\nline\x00\x1f", "caf\u00e9",
    "\u2603 \U0001f600", "\ud800",
]


def random_json(rng: random.Random, depth: int):
    """A nested value of lists, tuples, dicts and JSON_LEAVES, often holding
    flat int lists (with a bool or a float mixed in now and then)."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(JSON_LEAVES)
    size = rng.choice([0, 1, 2, 3, 5])
    if roll < 0.55:
        ints = [rng.randrange(-(2**66), 2**66) for _ in range(size)]
        if ints and rng.random() < 0.3:
            ints[rng.randrange(size)] = rng.choice([True, False, 1.0, -0.0])
        return ints if rng.random() < 0.8 else tuple(ints)
    if roll < 0.8:
        items = [random_json(rng, depth - 1) for _ in range(size)]
        return items if rng.random() < 0.8 else tuple(items)
    keys = [rng.choice(["k", "S", "\u00e9", "a\"b", ""]) + str(i) for i in range(size)]
    return {key: random_json(rng, depth - 1) for key in keys}


def random_rows(rng: random.Random):
    """A list of int lists of one length, or of records with the same keys
    holding int lists of one length per key (the shapes the writer fills from
    one template), with now and then one item broken: another length, an
    empty list, a bool or float entry, keys in another order, a key missing."""
    count = rng.choice([1, 2, 3, 5])
    ints = lambda k: [rng.randrange(-(2**66), 2**66) for _ in range(k)]
    if rng.random() < 0.5:
        size = rng.choice([0, 1, 2, 3])
        items = [ints(size) for _ in range(count)]
    else:
        keys = rng.sample(["S", "g_S", "f_S", "a%d", "\u00e9", 'q"'], rng.randint(1, 3))
        sizes = {k: rng.choice([0, 1, 2, 3]) for k in keys}
        items = [{k: ints(sizes[k]) for k in keys} for _ in range(count)]
    if rng.random() < 0.5:
        i = rng.randrange(count)
        row = items[i]
        fault = rng.randrange(5)
        if isinstance(row, dict):
            k = rng.choice(list(row))
            if fault == 0:
                items[i] = dict(reversed(row.items()))
            elif fault == 1:
                del row[k]
            elif fault == 2:
                row[k] = ints(len(row[k]) + 1)
            elif row[k]:
                row[k][0] = rng.choice([True, False, 1.0])
        elif fault == 0:
            items[i] = ints(len(row) + 1)
        elif row:
            row[0] = rng.choice([True, False, 1.0, -0.0])
    if rng.random() < 0.3:
        items = [tuple(x) if isinstance(x, list) else x for x in items]
    return items if rng.random() < 0.8 else tuple(items)


JSON_SHAPES = [
    [[1, 2], [3, 4]],
    [[], []],
    [(1, 2), [3, 4], (5, 6)],
    ((7,), (8,)),
    [[1, 2], [3]],
    [[1, 2], [3, True]],
    [[1, 2], [3, 4.0]],
    [{"S": [0, 1], "g_S": [2, 3], "f_S": [2, 3]}] * 3,
    [{"S": [0, 1], "g_S": [2]}, {"g_S": [3], "S": [4, 5]}],
    [{"S": [0, 1], "g_S": [2]}, {"S": [4, 5]}],
    [{"S": [0, 1], "g_S": [2]}, {"S": [4, 5], "g_S": [False]}],
    [{"S": [0, 1]}, {"S": [4, 5, 6]}],
    [{"S": []}, {"S": []}],
    [{"a%d %s %%": (1,)}, {"a%d %s %%": [2]}],
    [{}, {}],
    {"edges": [[0, 1, 2], [0, 1, 3]], "labels": [{"S": [0], "g_S": [1, 2]}]},
]


@pytest.mark.parametrize("obj", JSON_SHAPES)
def test_json_text_shapes(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2)


def test_json_text_matches_json_dumps():
    # Python 3.13 runs json.dumps(..., indent=2) in C, older versions in pure
    # Python; CI compares the writer with both.
    rng = random.Random(18)
    for _ in range(2000):
        obj = random_json(rng, 4)
        assert _json_text(obj) == json.dumps(obj, indent=2)
    for _ in range(2000):
        obj = random_rows(rng)
        assert _json_text(obj) == json.dumps(obj, indent=2)
        assert _json_text({"k": [obj]}) == json.dumps({"k": [obj]}, indent=2)


def test_json_text_rejects_non_str_keys():
    # json writes a bool, None, int or float key as its JSON text in quotes;
    # the writer, whose callers use str keys only, raises TypeError instead.
    for key in (True, None, 7, 2.5, (1, 2)):
        with pytest.raises(TypeError):
            _json_text({"a": [{key: 1}]})
    for value in ({1, 2}, b"k", object()):
        with pytest.raises(TypeError):
            _json_text([value])
