"""Hypergraph file formats: the .hg text format and a JSON object form.

Text format: line 1 is ``r n``; every subsequent non-empty line that does not
start with ``#`` is one edge given as r space-separated vertex ids.  Numbers
are ASCII decimal digits only.  The JSON form is
``{"r": .., "n": .., "edges": [[..], ..]}``.  Both round-trip losslessly;
edges are always serialized in canonical (sorted) order.
"""

from __future__ import annotations

import itertools
import json
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable, TextIO

from .errors import HgFormatError, InvalidParameterError
from .hypergraph import Hypergraph


def format_hg(h: Hypergraph) -> str:
    # One "%d" line template, repeated per edge and filled in one step.
    line = " ".join(["%d"] * h.r) + "\n"
    return f"{h.r} {h.n}\n" + (line * len(h.edges)) % tuple(
        itertools.chain.from_iterable(h.edges)
    )


def _json_text(obj, pad: str = "\n") -> str:
    """The text ``json.dumps`` writes with a 2-space ``indent``, for acyclic
    ``obj`` whose dict keys are all str (another key raises TypeError), with
    each list of exact ints joined in C.

    Before Python 3.13, ``indent`` selects the pure-Python encoder, which makes
    several calls per integer, and certificates are mostly integer lists.  A
    list whose items share one shape (see :func:`_item_template`) is written
    with one ``%`` template repeated per item, as :func:`format_hg` does.
    """
    inner = pad + "  "
    sep = "," + inner
    if isinstance(obj, (list, tuple)):
        if set(map(type, obj)) == {int}:
            return f"[{inner}{sep.join(map(str, obj))}{pad}]"
        if not obj:
            return "[]"
        shaped = _item_template(obj, inner)
        if shaped is not None:
            item, ints = shaped
            return f"[{inner}{sep.join([item] * len(obj))}{pad}]" % tuple(ints)
        return f"[{inner}{sep.join([_json_text(x, inner) for x in obj])}{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = obj.items()
        body = sep.join([f"{_json_str(k)}: {_json_text(v, inner)}" for k, v in items])
        return f"{{{inner}{body}{pad}}}"
    return json.dumps(obj)


def _item_template(items, pad: str):
    """The ``%d`` template of one item of a non-empty list, written at pad,
    and the ints that fill the templates of all items in turn; or None.

    The items must share one of two shapes: lists of one length, or dicts
    with the same str keys in the same order whose values are lists of one
    length per key.  Each such list is a list or tuple of at least one int of
    type exactly int (json writes a bool as true).
    """
    first = items[0]
    if type(first) is dict:
        keys = list(first)
        if not keys or not all(type(k) is str for k in keys):
            return None
        if not all(type(x) is dict and list(x) == keys for x in items):
            return None
        rows = [v for x in items for v in x.values()]
    else:
        keys, rows = [None], items
    if not set(map(type, rows)) <= {list, tuple}:
        return None
    sizes = list(map(len, rows[: len(keys)]))
    if 0 in sizes or list(map(len, rows)) != sizes * len(items):
        return None
    ints = list(itertools.chain.from_iterable(rows))
    if set(map(type, ints)) != {int}:
        return None
    if keys == [None]:
        return _slots(sizes[0], pad), ints
    inner = pad + "  "
    fields = [
        f"{_json_str(k).replace('%', '%%')}: {_slots(n, inner)}" for k, n in zip(keys, sizes)
    ]
    return f"{{{inner}{(',' + inner).join(fields)}{pad}}}", ints


def _slots(count: int, pad: str) -> str:
    """A list of count ``%d`` slots, written at pad."""
    inner = pad + "  "
    return f"[{inner}{(',' + inner).join(['%d'] * count)}{pad}]"


def _decimals(fields: list[str], line_no: int, what: str) -> tuple[int, ...]:
    """The fields as ints; only ASCII decimal digits are accepted, where int()
    would also take signs, underscores and non-ASCII digits."""
    if not all(f.isascii() and f.isdigit() for f in fields):
        raise HgFormatError(
            line_no, f"{what} must be ASCII decimal digits, got {' '.join(fields)!r}"
        )
    return tuple(map(int, fields))


def parse_hg(text: str, first_line: int = 1) -> Hypergraph:
    """Parse the .hg text format; errors carry the 1-based offending line number."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise HgFormatError(first_line, "missing 'r n' header")
    header = lines[0].split()
    if len(header) != 2:
        raise HgFormatError(first_line, f"expected 'r n' header, got {lines[0]!r}")
    r, n = _decimals(header, first_line, "header fields")
    edges = []
    for line_no, raw in enumerate(lines[1:], start=first_line + 1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != r:
            raise HgFormatError(line_no, f"expected {r} vertex ids, got {len(parts)}")
        digits = "".join(parts)
        if not (digits.isascii() and digits.isdigit()):
            _decimals(parts, line_no, "vertex ids")
        edge = tuple(map(int, parts))
        if len(set(edge)) != r or max(edge) >= n:
            raise HgFormatError(
                line_no, f"edge {edge} is not {r} distinct vertices in 0..{n - 1}"
            )
        edges.append(edge)
    try:
        return Hypergraph(r, n, tuple(edges))
    except InvalidParameterError as exc:
        raise HgFormatError(first_line, str(exc))


def to_json_obj(h: Hypergraph) -> dict:
    return {"r": h.r, "n": h.n, "edges": [list(e) for e in h.edges]}


def from_json_obj(obj: dict) -> Hypergraph:
    """Hypergraph from the JSON object form; r, n and vertex ids must be ints."""
    try:
        r, n, edges = obj["r"], obj["n"], tuple(tuple(e) for e in obj["edges"])
    except (KeyError, TypeError) as exc:
        raise InvalidParameterError(f"malformed hypergraph JSON: {exc}")
    return Hypergraph(r, n, edges)


def save_hg(h: Hypergraph, path: str) -> None:
    if path.endswith(".json"):
        text = _json_text(to_json_obj(h)) + "\n"
    else:
        text = format_hg(h)
    with open(path, "w") as f:
        f.write(text)


def load_hg(path: str) -> Hypergraph:
    """Read a .hg file (or .json by name); input that is not UTF-8 is malformed."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise HgFormatError(line, f"not UTF-8: {exc.reason}")
    if path.endswith(".json"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise HgFormatError(exc.lineno, f"invalid JSON: {exc.msg}")
        # Shape and id errors name line 1, as parse_hg's Hypergraph errors do.
        try:
            return from_json_obj(obj)
        except InvalidParameterError as exc:
            raise HgFormatError(1, str(exc))
    return parse_hg(text)


def dump_hg_stream(hypergraphs: Iterable[Hypergraph], out: TextIO) -> int:
    """Write hypergraphs in .hg format separated by blank lines; returns the count."""
    count = 0
    for h in hypergraphs:
        if count:
            out.write("\n")
        out.write(format_hg(h))
        count += 1
    return count


def parse_hg_stream(text: str) -> list[Hypergraph]:
    """Parse blank-line-separated .hg blocks, tracking absolute line numbers."""
    result = []
    block: list[str] = []
    block_start = 1
    for line_no, raw in enumerate(text.splitlines() + [""], start=1):
        if raw.strip():
            if not block:
                block_start = line_no
            block.append(raw)
        elif block:
            result.append(parse_hg("\n".join(block), first_line=block_start))
            block = []
    return result
