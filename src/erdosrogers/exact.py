"""Ground-truth oracles at tiny scale.

Exact maximum pattern-free induced subsets (the complement of a minimum
hitting set of the pattern's copies, by branch and bound), isomorph-free
enumeration of probe-free hypergraphs by orderly generation, and the exact
two-pattern extremal value by branch and bound over the enumeration.

All of them read one copy table, :func:`~.isomorphism._copy_masks`, which
maps each copy of a pattern's core in a host to its vertex mask, keyed by its
edge mask.  Max-free reads the vertex masks of the copies in its host.  The
enumeration admits only C(n, r) <= ENUMERATION_CAP, so every r-graph on n
vertices is an edge mask over the r-sets of range(n), the host K^r_n; an
r-graph on n vertices contains a pattern exactly when the edge mask of one
of its copies in K^r_n lies inside its own.  The enumeration decides
G-freeness and f_exact finds each host's F-copies by such mask tests,
without searching any host.  As every enumeration state is G-free and a
candidate adds one r-set after all of the state's, a copy of G in the
candidate must end with the new r-set, so only those copies are tested.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional

from .errors import CapacityError, InvalidParameterError
from .hypergraph import Hypergraph
from .isomorphism import CANONICAL_CAP, _copy_masks, is_canonical

BRANCH_AND_BOUND_CAP = 24
# Limit on C(n, r).  Over the (n, r) it admits, _copy_masks lists a
# pattern's copies in K^r_n in at most 709,828 steps.  A component has at most
# 8! = 40,320 maps (a twin-free 2-graph or 6-graph on 8 vertices), the slowest
# listing at about 0.5 s.  The most pairs tried in a union are 840 * 840, for
# two disjoint 4-vertex paths in K^2_8, counted over every 2-graph on 8
# vertices with two to four components; r = 1 takes at most 49,296 steps,
# r = 3 at most 210 * 35 pairs, and r >= 4 admits no two disjoint edges.
ENUMERATION_CAP = 35


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
    copies: the distinct vertex masks of the copy table of :func:`_copy_masks`.
    Branch and bound then decides the vertices in order, include first: vertex
    i may join unless it completes a copy.  The bound is the number of
    vertices still available minus a greedy count of vertex-disjoint copies
    among them.  The witness is the lexicographically least among the maximum
    ones.
    """
    if h.r != f.r:
        raise InvalidParameterError(f"uniformity mismatch: {h.r} vs {f.r}")
    if not f.edges:
        raise InvalidParameterError("pattern must have at least one edge")
    if h.n > BRANCH_AND_BOUND_CAP:
        raise CapacityError(
            f"exact search limited to n <= {BRANCH_AND_BOUND_CAP}, got {h.n}"
        )
    return _max_free(h.n, f.n, set(_copy_masks(f, h).values()))


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


def enumerate_g_free(n: int, r: int, g: Hypergraph) -> Iterator[Hypergraph]:
    """One representative per isomorphism class of g-free r-graphs on n vertices.

    Orderly generation: edges are added in lexicographic order and a state is
    kept only when its own edge list is canonical, so every class appears
    exactly once (prefixes of canonical lists are canonical).  Branches whose
    state already contains g are cut.  Deterministic yield order.  Refuses
    n above CANONICAL_CAP (the canonical check's bound) and C(n, r) above
    ENUMERATION_CAP.
    """
    if g.r != r:
        raise InvalidParameterError(f"uniformity mismatch: {r} vs {g.r}")
    _check_enumerable(n, r)
    for h, _ in _orderly(n, r, g):
        yield h


def _orderly(
    n: int, r: int, g: Hypergraph, cut: Optional[Callable[[int], bool]] = None
) -> Iterator[tuple[Hypergraph, int]]:
    """The walk of :func:`enumerate_g_free`, yielding each class with its edge
    mask over the r-sets of range(n) (bit i is the i-th in lexicographic order).

    G-freeness is decided on edge masks against those of g's copies in K^r_n
    (:func:`_copy_masks`; none when v(g) > n).  Each state is g-free and each
    candidate adds an r-set after all of the state's, so a copy inside the
    candidate must contain the new r-set as its last one: only the copies
    ending there are tested, and a Hypergraph is built only for the g-free
    candidates.

    cut(upper) is asked for each g-free candidate, upper being its mask plus
    every later r-set, which holds every host of its subtree.  True skips the
    candidate and its later siblings, whose upper masks lie within; so cut
    must stay true on subsets.
    """
    complete = _complete(n, r)
    copies = _copy_masks(g, complete) if g.n <= n else {}
    if 0 in copies:  # an edgeless g on at most n vertices is in every host
        return
    empty = Hypergraph(r, n, ())
    yield empty, 0
    all_rsets, full = complete.edges, (1 << len(complete.edges)) - 1
    # ending[i]: the edge masks of g's copies whose last r-set is all_rsets[i].
    ending: list[list[int]] = [[] for _ in all_rsets]
    for edges in copies:
        ending[edges.bit_length() - 1].append(edges)

    def rec(state: Hypergraph, mask: int, last: int) -> Iterator[tuple[Hypergraph, int]]:
        for idx in range(last + 1, len(all_rsets)):
            grown = mask | 1 << idx
            if any(c & grown == c for c in ending[idx]):
                continue
            if cut is not None and cut(grown | full >> idx + 1 << idx + 1):
                break
            cand = Hypergraph(r, n, state.edges + (all_rsets[idx],))
            if not is_canonical(cand):
                continue
            yield cand, grown
            yield from rec(cand, grown, idx)

    yield from rec(empty, 0, -1)


def _complete(n: int, r: int) -> Hypergraph:
    """K^r_n, for any n >= 0 (no edges when n < r)."""
    return Hypergraph(r, n, tuple(itertools.combinations(range(n), r)))


def f_exact(f: Hypergraph, g: Hypergraph, n: int) -> FExactResult:
    """min over enumerated g-free hosts H of max_f_free_subset(H, f), exactly.

    The reported extremal hypergraph is the first minimizer in enumeration
    order.  Values at n < v(f) come out as n since nothing can contain f.

    f's copies in K^r_n are listed once (:func:`_copy_masks`; none when
    v(f) > n); a host's core copies of f are those whose edge mask lies
    inside the host's, and their vertex masks go to the branch and bound of
    :func:`max_f_free_subset` directly.

    Branch and bound: the walk is cut where upper (see :func:`_orderly`) has
    a free set of the best size so far.  Adding edges never enlarges a
    max-free set, so every host below lies inside upper and has a value at
    least the best: the value is unchanged, and so is the first minimizer, as
    a skipped class can only tie a value an earlier class holds.  The walk
    stops at the floor min(n, v(f) - 1).
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
    copies = _copy_masks(f, _complete(n, f.r)).items() if f.n <= n else ()

    def value(mask: int) -> int:
        return _max_free(n, f.n, {c for e, c in copies if e & mask == e}).size

    floor, best = min(n, f.n - 1), n + 1
    best_h: Optional[Hypergraph] = None
    for h, mask in _orderly(n, f.r, g, lambda upper: value(upper) >= best):
        size = value(mask)
        if size < best:
            best, best_h = size, h
            if best == floor:
                break
    assert best_h is not None  # empty host is always g-free here
    return FExactResult(value=best, extremal=best_h)
