"""Ground-truth oracles at tiny scale.

Exact maximum pattern-free induced subsets (the complement of a minimum
hitting set of the pattern's copies, by branch and bound), isomorph-free
enumeration of probe-free hypergraphs by orderly generation, and the exact
two-pattern extremal value obtained by minimizing over the enumeration.

The enumeration admits only C(n, r) <= ENUMERATION_CAP, so every r-graph on
n vertices is a bitmask over the r-sets of range(n), and every copy of a
pattern in the complete r-graph K^r_n is one such mask, listed once by
:func:`_complete_copies`.  An r-graph on n vertices contains a pattern
exactly when one of these masks lies inside its own.  The enumeration
decides G-freeness and f_exact finds each host's F-copies by such mask
tests, without searching any host.  As every enumeration state is G-free
and a candidate adds one r-set after all of the state's, a copy of G in the
candidate must end with the new r-set, so only those copies are tested.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

from .errors import CapacityError, InvalidParameterError
from .hypergraph import Hypergraph, induced
from .isomorphism import (
    CANONICAL_CAP,
    _copy_masks,
    _iter_maps,
    contains_copy,
    is_canonical,
)

BRANCH_AND_BOUND_CAP = 24
ENUMERATION_CAP = 35  # limit on C(n, r)


@dataclass(frozen=True)
class FFreeResult:
    size: int
    witness: tuple[int, ...]


class FExactResult(NamedTuple):
    value: int
    extremal: Hypergraph


def max_f_free_subset(h: Hypergraph, f: Hypergraph) -> FFreeResult:
    """Largest vertex subset of h whose induced subgraph contains no copy of f.

    W contains f exactly when W contains a copy of f's core (f without its
    isolated vertices) and |W| >= v(f).  So any min(n, v(f)-1) vertices are
    f-free, and a larger W is f-free exactly when it contains none of the core
    copies, which :func:`_copy_masks` lists once as vertex bitmasks.  Branch and
    bound then decides the vertices in order, include first: vertex i may join
    unless it completes a copy.  The bound is the number of vertices still
    available minus a greedy count of vertex-disjoint copies among them.  The
    witness is the lexicographically least among the maximum ones.
    """
    if h.r != f.r:
        raise InvalidParameterError(f"uniformity mismatch: {h.r} vs {f.r}")
    if not f.edges:
        raise InvalidParameterError("pattern must have at least one edge")
    if h.n > BRANCH_AND_BOUND_CAP:
        raise CapacityError(
            f"exact search limited to n <= {BRANCH_AND_BOUND_CAP}, got {h.n}"
        )
    return _max_free(h.n, f.n, _copy_masks(f, h))


def _max_free(n: int, k: int, copies: set[int]) -> FFreeResult:
    """Largest W within range(n) holding no pattern on k vertices whose core
    copies have the vertex bitmasks `copies`; see :func:`max_f_free_subset`."""
    bit = [1 << v for v in range(n)]
    best_size = min(n, k - 1)
    best_mask = (1 << best_size) - 1

    def rec(i: int, cur: int, size: int, live: list[int]):
        # live: the copies inside cur | {i..n-1}, in increasing mask order.  As
        # cur holds no copy, none has its highest vertex below i, and those
        # that i would complete come first.
        nonlocal best_size, best_mask
        bound, used = size + n - i, 0
        for c in live:
            if not c & used:
                used, bound = used | c, bound - 1
                if bound <= best_size:
                    return
        if bound <= best_size:
            return
        if i == n:
            best_size, best_mask = size, cur
            return
        if not live or live[0] >> i > 1:
            rec(i + 1, cur | bit[i], size + 1, live)
        rec(i + 1, cur, size, [c for c in live if not c & bit[i]])

    rec(0, 0, 0, sorted(copies))
    return FFreeResult(best_size, tuple(v for v in range(n) if best_mask >> v & 1))


def _check_enumerable(n: int, r: int) -> None:
    """Refuse an n that the enumeration does not admit for r-graphs."""
    if n < 0:
        raise InvalidParameterError(f"vertex count must be >= 0, got {n}")
    if n > CANONICAL_CAP:
        raise CapacityError(f"enumeration limited to n <= {CANONICAL_CAP}, got {n}")
    if math.comb(n, r) > ENUMERATION_CAP:
        raise CapacityError(
            f"enumeration limited to C(n, r) <= {ENUMERATION_CAP}, got {math.comb(n, r)}"
        )


def _complete_copies(p: Hypergraph, n: int) -> list[tuple[int, int]]:
    """The copies of p in K^r_n, as distinct (edge mask, core-vertex mask) pairs.

    Bit i of an edge mask is the i-th r-subset of range(n) in lexicographic
    order; bit v of a core-vertex mask is vertex v.  The core is p without its
    isolated vertices, and a copy of p is a copy of the core once v(p) <= n,
    so the pairs come from the twin-broken embeddings of the core into K^r_n,
    and there are none when v(p) > n.  An r-graph on n vertices with edge
    mask M contains p exactly when some copy's edge mask lies inside M, and
    then that copy's core-vertex mask is a core copy in it.  The search lists
    n!/(n-k)! maps for a k-vertex core, divided by the order of the core's
    twin group.  Over the (n, r) that the enumeration admits this is at most
    8! = 40,320, for a twin-free 2-graph (or 6-graph) on 8 vertices.
    """
    if p.n > n:
        return []
    rsets = list(itertools.combinations(range(n), p.r))
    # Keyed by its vertex bitmask, an image edge needs no sorting.
    edge_bit = {sum(1 << v for v in e): 1 << i for i, e in enumerate(rsets)}
    core = induced(p, {v for e in p.edges for v in e})
    copies: dict[int, int] = {}
    for img in _iter_maps(core, Hypergraph(p.r, n, tuple(rsets)), True, break_twins=True):
        vbit = [1 << v for v in img]
        edges = sum([edge_bit[sum(map(vbit.__getitem__, e))] for e in core.edges])
        copies[edges] = sum(vbit)
    return list(copies.items())


def enumerate_g_free(n: int, r: int, g: Hypergraph) -> Iterator[Hypergraph]:
    """One representative per isomorphism class of g-free r-graphs on n vertices.

    Orderly generation: edges are added in lexicographic order and a state is
    kept only when its own edge list is canonical, so every class appears
    exactly once (prefixes of canonical lists are canonical).  Branches whose
    state already contains g are cut.  Deterministic yield order.  Refuses
    n above CANONICAL_CAP (the canonical check's bound) and C(n, r) above
    ENUMERATION_CAP.

    G-freeness is decided on edge masks against g's copies in K^r_n
    (:func:`_complete_copies`).  Each state is g-free and each candidate adds
    an r-set after all of the state's, so a copy inside the candidate must
    contain the new r-set as its last one: only the copies ending there are
    tested, and a Hypergraph is built only for the g-free candidates.
    """
    if g.r != r:
        raise InvalidParameterError(f"uniformity mismatch: {r} vs {g.r}")
    _check_enumerable(n, r)
    all_rsets = list(itertools.combinations(range(n), r))
    empty = Hypergraph(r, n, ())
    if contains_copy(empty, g) is not None:
        return
    yield empty
    # ending[i]: the edge masks of g's copies whose last r-set is all_rsets[i].
    ending: list[list[int]] = [[] for _ in all_rsets]
    for edges, _ in _complete_copies(g, n):
        ending[edges.bit_length() - 1].append(edges)

    def rec(state: Hypergraph, mask: int, last: int) -> Iterator[Hypergraph]:
        for idx in range(last + 1, len(all_rsets)):
            grown = mask | 1 << idx
            if any(c & grown == c for c in ending[idx]):
                continue
            cand = Hypergraph(r, n, state.edges + (all_rsets[idx],))
            if not is_canonical(cand):
                continue
            yield cand
            yield from rec(cand, grown, idx)

    yield from rec(empty, 0, -1)


def f_exact(f: Hypergraph, g: Hypergraph, n: int) -> FExactResult:
    """min over enumerated g-free hosts H of max_f_free_subset(H, f), exactly.

    The reported extremal hypergraph is the first minimizer in enumeration
    order.  Values at n < v(f) come out as n since nothing can contain f.

    f's copies in K^r_n are listed once (:func:`_complete_copies`); a host's
    core copies of f are those whose edge mask lies inside the host's, and
    they go to the branch and bound of :func:`max_f_free_subset` directly.
    """
    if f.r != g.r:
        raise InvalidParameterError(f"uniformity mismatch: {f.r} vs {g.r}")
    if not f.edges:
        raise InvalidParameterError("pattern must have at least one edge")
    if not g.edges and g.n <= n:
        raise InvalidParameterError(
            "probe with no edges on <= n vertices leaves nothing to enumerate"
        )
    _check_enumerable(n, f.r)
    edge_bit = {e: 1 << i for i, e in enumerate(itertools.combinations(range(n), f.r))}
    copies = _complete_copies(f, n)
    best: Optional[int] = None
    best_h: Optional[Hypergraph] = None
    for h in enumerate_g_free(n, f.r, g):
        mask = sum(map(edge_bit.__getitem__, h.edges))
        size = _max_free(n, f.n, {c for e, c in copies if e & mask == e}).size
        if best is None or size < best:
            best, best_h = size, h
    assert best is not None and best_h is not None  # empty host is always g-free here
    return FExactResult(value=best, extremal=best_h)
