"""Ground-truth oracles at tiny scale.

Exact maximum pattern-free induced subsets (the complement of a minimum
hitting set of the pattern's copies, by branch and bound), isomorph-free
enumeration of probe-free hypergraphs by orderly generation, and the exact
two-pattern extremal value obtained by minimizing over the enumeration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

from .errors import CapacityError, InvalidParameterError
from .hypergraph import Hypergraph
from .isomorphism import CANONICAL_CAP, _copy_masks, contains_copy, is_canonical

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
    n = h.n
    bit = [1 << v for v in range(n)]
    best_size = min(n, f.n - 1)
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

    rec(0, 0, 0, sorted(_copy_masks(f, h)))
    return FFreeResult(best_size, tuple(v for v in range(n) if best_mask >> v & 1))


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
    if n < 0:
        raise InvalidParameterError(f"vertex count must be >= 0, got {n}")
    if n > CANONICAL_CAP:
        raise CapacityError(f"enumeration limited to n <= {CANONICAL_CAP}, got {n}")
    if math.comb(n, r) > ENUMERATION_CAP:
        raise CapacityError(
            f"enumeration limited to C(n, r) <= {ENUMERATION_CAP}, got {math.comb(n, r)}"
        )
    all_rsets = list(itertools.combinations(range(n), r))
    empty = Hypergraph(r, n, ())
    if contains_copy(empty, g) is not None:
        return
    yield empty

    def rec(state: Hypergraph, last: int) -> Iterator[Hypergraph]:
        for idx in range(last + 1, len(all_rsets)):
            cand = Hypergraph(r, n, state.edges + (all_rsets[idx],))
            if contains_copy(cand, g) is not None:
                continue
            if not is_canonical(cand):
                continue
            yield cand
            yield from rec(cand, idx)

    yield from rec(empty, -1)


def f_exact(f: Hypergraph, g: Hypergraph, n: int) -> FExactResult:
    """min over enumerated g-free hosts H of max_f_free_subset(H, f), exactly.

    The reported extremal hypergraph is the first minimizer in enumeration
    order.  Values at n < v(f) come out as n since nothing can contain f.
    """
    if f.r != g.r:
        raise InvalidParameterError(f"uniformity mismatch: {f.r} vs {g.r}")
    if not f.edges:
        raise InvalidParameterError("pattern must have at least one edge")
    if not g.edges and g.n <= n:
        raise InvalidParameterError(
            "probe with no edges on <= n vertices leaves nothing to enumerate"
        )
    best: Optional[int] = None
    best_h: Optional[Hypergraph] = None
    for h in enumerate_g_free(n, f.r, g):
        res = max_f_free_subset(h, f)
        if best is None or res.size < best:
            best, best_h = res.size, h
    assert best is not None and best_h is not None  # empty host is always g-free here
    return FExactResult(value=best, extremal=best_h)
