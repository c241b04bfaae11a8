"""r-uniform hypergraphs on contiguous integer vertices, with shadow and blowup operators.

The :class:`Hypergraph` value is the universal carrier for every structure in
this package: patterns, hosts, shadows and blowup iterates.  Vertices are the
integers ``0 .. n-1`` and edges are sorted ``r``-tuples kept in sorted
(lexicographic) order, so two equal hypergraphs always compare equal and
serialize identically.  The indices the searches read are cached on the
value, built on first use: ``edge_set``, ``degrees``, and in vertex bitmasks
``links`` and ``nbhd``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InvalidParameterError


@dataclass(frozen=True)
class Hypergraph:
    """An r-uniform hypergraph on vertices ``0 .. n-1``.

    Edges are normalized on construction: each edge is sorted, duplicates are
    dropped, and the edge list is stored in sorted order.  ``edges`` may be
    any iterable of vertex sequences, read once.  A hypergraph with zero
    edges is legal, as is ``n = 0``.
    """

    r: int
    n: int
    edges: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        # Read the edges once, so a one-shot iterable is not used up by the
        # type pass; tuple() of a tuple does not copy it.
        try:
            edges = tuple(map(tuple, self.edges))
        except TypeError as exc:
            raise InvalidParameterError(
                f"each edge must be a sequence of vertex ids: {exc}"
            ) from None
        # One pass over r, n and the vertex ids, made before sorting, which
        # raises TypeError on a mix of str and int.  bool is a subclass of int,
        # so the exact type is tested.
        vertex_types = map(type, itertools.chain.from_iterable(edges))
        if not {type(self.r), type(self.n), *vertex_types} <= {int}:
            ids = itertools.chain((self.r, self.n), *edges)
            bad = next(v for v in ids if type(v) is not int)
            raise InvalidParameterError(f"r, n and vertex ids must be int, got {bad!r}")
        if self.r < 1:
            raise InvalidParameterError(f"uniformity must be >= 1, got {self.r}")
        if self.n < 0:
            raise InvalidParameterError(f"vertex count must be >= 0, got {self.n}")
        normalized = sorted({tuple(sorted(e)) for e in edges})
        for e in normalized:
            if len(e) != self.r or len(set(e)) != self.r:
                raise InvalidParameterError(
                    f"edge {e} does not have exactly {self.r} distinct vertices"
                )
            if e[0] < 0 or e[-1] >= self.n:
                raise InvalidParameterError(
                    f"edge {e} has a vertex outside 0..{self.n - 1}"
                )
        object.__setattr__(self, "edges", tuple(normalized))

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for e in self.edges:
            for v in e:
                deg[v] += 1
        return tuple(deg)

    @cached_property
    def links(self) -> dict[int, int]:
        """The link index, in vertex bitmasks (bit v stands for vertex v).

        Each (r-1)-set inside an edge, keyed by its bitmask, maps to the
        bitmask of the vertices completing it to an edge.  A key is the sum of
        its vertices' bits, so an image of r-1 vertices is looked up unsorted,
        and a sum over a repeated vertex has fewer than r-1 bits and matches
        no key.  The edges are distinct, so each completing vertex's bit is
        added once.
        """
        links: dict[int, int] = {}
        for e in self.edges:
            bits = [1 << v for v in e]
            m = sum(bits)
            for b in bits:
                links[m - b] = links.get(m - b, 0) + b
        return links

    @cached_property
    def nbhd(self) -> tuple[int, ...]:
        """For each vertex, the bitmask of the other vertices sharing an edge with it."""
        nbhd = [0] * self.n
        for e in self.edges:
            m = sum(1 << v for v in e)
            for v in e:
                nbhd[v] |= m
        return tuple(m & ~(1 << v) for v, m in enumerate(nbhd))

    def __str__(self) -> str:
        return f"Hypergraph(r={self.r}, n={self.n}, e={len(self.edges)})"


def build_complete(r: int, s: int) -> Hypergraph:
    """The complete r-graph on s vertices: all C(s, r) r-subsets are edges."""
    if r < 1 or r > s:
        raise InvalidParameterError(f"need 1 <= r <= s, got r={r}, s={s}")
    return Hypergraph(r, s, tuple(itertools.combinations(range(s), r)))


def build_h(r: int, t: int) -> Hypergraph:
    """The r-graph on r+1 vertices with t edges (unique up to isomorphism).

    The fixed representative drops the top-t vertices one at a time: its edges
    are ``{0..r} - {i}`` for ``i = r, r-1, ..., r+1-t``.
    """
    if t < 1 or t > r + 1:
        raise InvalidParameterError(f"need 1 <= t <= r+1, got t={t}, r={r}")
    full = set(range(r + 1))
    edges = [tuple(sorted(full - {i})) for i in range(r, r - t, -1)]
    return Hypergraph(r, r + 1, tuple(edges))


def shadow(h: Hypergraph, k: int) -> Hypergraph:
    """The k-graph on the same vertex set whose edges are all k-subsets of edges of h."""
    if k < 1 or k > h.r:
        raise InvalidParameterError(f"shadow order must be in 1..{h.r}, got {k}")
    sub = {s for e in h.edges for s in itertools.combinations(e, k)}
    return Hypergraph(k, h.n, tuple(sub))


def induced(h: Hypergraph, vertices: Iterable[int]) -> Hypergraph:
    """The subgraph induced on a vertex subset, relabeled order-preservingly to 0..|W|-1."""
    w = sorted(set(vertices))
    if w and (w[0] < 0 or w[-1] >= h.n):
        raise InvalidParameterError(f"vertex subset {w} not within 0..{h.n - 1}")
    if math.comb(len(w), h.r) < len(h.edges):
        # Fewer r-subsets of W than edges: look each subset up instead.
        edges = [
            c
            for c in itertools.combinations(range(len(w)), h.r)
            if tuple(w[i] for i in c) in h.edge_set
        ]
        return Hypergraph(h.r, len(w), tuple(edges))
    relabel = {v: i for i, v in enumerate(w)}
    inside = set(w)
    edges = [
        tuple(relabel[v] for v in e) for e in h.edges if inside.issuperset(e)
    ]
    return Hypergraph(h.r, len(w), tuple(edges))


def blowup_t(h: Hypergraph, v: int, t: int) -> Hypergraph:
    """Add t-1 copies of vertex v, each inheriting v's edges.

    The copies receive the fresh ids ``n, n+1, ..., n+t-2``.  No edge contains
    two members of {v and its copies}; copy-copy edges arise only through the
    pattern placed by :func:`blowup_F`.
    """
    if v < 0 or v >= h.n:
        raise InvalidParameterError(f"vertex {v} not in 0..{h.n - 1}")
    if t < 1:
        raise InvalidParameterError(f"multiplicity must be >= 1, got {t}")
    edges = list(h.edges)
    for copy in range(h.n, h.n + t - 1):
        for e in h.edges:
            if v in e:
                edges.append(tuple(sorted(u for u in e if u != v) + [copy]))
    return Hypergraph(h.r, h.n + t - 1, tuple(edges))


def blowup_F(h: Hypergraph, v: int, f: Hypergraph) -> Hypergraph:
    """Blow v up into v(f) mutually non-adjacent copies and place a copy of f on them.

    v plays f's vertex 0; the fresh copies play f's vertices 1..v(f)-1 in index
    order.  The role assignment is fixed so the result is deterministic.
    """
    if f.r != h.r:
        raise InvalidParameterError(f"uniformity mismatch: {h.r} vs {f.r}")
    base = blowup_t(h, v, max(f.n, 1))
    role = {0: v}
    for i in range(1, f.n):
        role[i] = h.n + i - 1
    edges = list(base.edges)
    for e in f.edges:
        edges.append(tuple(sorted(role[u] for u in e)))
    return Hypergraph(h.r, base.n, tuple(edges))


def iterated_blowup(f: Hypergraph, steps: Sequence[int]) -> Hypergraph:
    """Replay a sequence of blowup_F steps starting from f itself."""
    current = f
    for v in steps:
        current = blowup_F(current, v, f)
    return current
