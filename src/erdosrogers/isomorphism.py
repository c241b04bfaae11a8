"""Subgraph embedding search, exact embedding counts, and a minimal canonical form.

One deterministic backtracker, :func:`_iter_maps`, finds both embeddings
(injective) and homomorphisms (see :mod:`.morphisms`), and states the rules
both share: equal uniformity, a fixed search order, and the twin rule that
the copy searches (:func:`contains_copy`, :func:`count_embeddings`,
:func:`_copy_masks`) use without changing the first witness.
"""

from __future__ import annotations

import collections
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import CapacityError, InvalidParameterError
from .hypergraph import Hypergraph, induced

CANONICAL_CAP = 12


@dataclass(frozen=True)
class Embedding:
    """An injective edge-preserving vertex map; images[i] hosts pattern vertex i."""

    images: tuple[int, ...]


class EmbeddingCount(NamedTuple):
    embeddings: int
    copies: int


def is_embedding(pattern: Hypergraph, host: Hypergraph, emb: Embedding) -> bool:
    """Re-check an embedding independently of how it was found."""
    img = emb.images
    if len(img) != pattern.n:
        return False
    if len(set(img)) != len(img):
        return False
    if any(u < 0 or u >= host.n for u in img):
        return False
    return all(
        tuple(sorted(img[v] for v in e)) in host.edge_set for e in pattern.edges
    )


def _links(h: Hypergraph) -> dict[tuple[int, ...], set[int]]:
    """Each (r-1)-set inside an edge, mapped to the vertices completing it."""
    links: dict[tuple[int, ...], set[int]] = {}
    for e in h.edges:
        for i in range(h.r):
            links.setdefault(e[:i] + e[i + 1 :], set()).add(e[i])
    return links


def _twin_classes(h: Hypergraph) -> list[int]:
    """For each vertex, the least vertex of its twin class.

    u and v are twins when the transposition (u v) is an automorphism: the
    edges through u but not v, with u replaced by v, are exactly the edges
    through v but not u.  The relation is an equivalence ((u w) is (u v) (v w)
    (u v)).  Twins that share no edge have equal links, so they are grouped by
    link; twins that share an edge are tested pair by pair along the edges.
    """
    link: list[set[tuple[int, ...]]] = [set() for _ in range(h.n)]
    for e in h.edges:
        for i, u in enumerate(e):
            link[u].add(e[:i] + e[i + 1 :])
    first: dict[frozenset, int] = {}
    cls = [first.setdefault(frozenset(s), v) for v, s in enumerate(link)]
    for e in h.edges:
        for u, v in itertools.combinations(e, 2):
            if u < cls[v] and {s for s in link[u] if v not in s} == {
                s for s in link[v] if u not in s
            }:
                cls[v] = u
    return cls


def _orbits(h: Hypergraph) -> list[int]:
    """For each vertex, the least vertex of its orbit under Aut(h).

    The twin-broken self-maps of h are one automorphism per coset of the
    group T generated by the twin transpositions, so every automorphism is
    such a map after some element of T, and the orbit of w is the union of
    the twin classes of the vertices those maps send to w.
    """
    low0 = _twin_classes(h)
    low = list(low0)
    for img in _iter_maps(h, h, True, break_twins=True):
        for u, w in enumerate(img):
            low[w] = min(low[w], low0[u])
    return low


def _iter_maps(
    pattern: Hypergraph, host: Hypergraph, injective: bool, break_twins: bool = False
) -> Iterator[tuple[int, ...]]:
    """Every edge-preserving vertex map of pattern into host, in a fixed order.

    A map is a tuple whose entry v hosts pattern vertex v; every pattern edge
    lands on r distinct vertices that form a host edge.  With injective=True
    the maps are the embeddings, otherwise the homomorphisms.

    Pattern vertices are placed constraint-first: next comes the vertex that
    completes the most pattern edges against those already placed, then the
    one sharing edges with the most placed vertices, then high degree, then
    small id.  A vertex that completes edges takes its candidates from the
    host link index: the host vertices completing the images of each such
    edge's other vertices.  Host candidates are tried in increasing id, so
    the maps come in lexicographic order of their images read in placement
    order.  The search keeps an explicit stack, so pattern size is not
    bounded by the recursion limit.

    Twin rule.  With injective and break_twins, only the embeddings whose
    images increase within each twin class of the pattern (see
    :func:`_twin_classes`), read in placement order, are kept: a vertex's
    candidates start above the image of the last placed member of its class.
    Each class's symmetric group lies in Aut(pattern) and permutes the
    embeddings freely, so exactly one embedding per orbit of the product of
    these groups survives, and the count shrinks by the product of the class
    factorials.  The first embedding is unchanged: if the lexicographically
    first one mapped a twin v placed after its twin u below u, composing it
    with (u v) would give an embedding that agrees before u's position and is
    smaller there, a contradiction.  Homomorphisms are not affected.
    """
    if pattern.r != host.r:
        raise InvalidParameterError(f"uniformity mismatch: {pattern.r} vs {host.r}")
    n, r = pattern.n, pattern.r
    if injective and (n > host.n or len(pattern.edges) > len(host.edges)):
        return
    edges_at: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    adj: list[set[int]] = [set() for _ in range(n)]
    for e in pattern.edges:
        for u in e:
            edges_at[u].append(e)
            adj[u].update(w for w in e if w != u)
    pdeg, hdeg = pattern.degrees, host.degrees
    # The order keys only grow as vertices are placed, so a heap of
    # (-completes, -link, -degree, v) entries, skipping stale ones, pops the
    # maximum key each time.  With r = 1 every edge starts out complete.
    completes = list(pdeg) if r == 1 else [0] * n
    link = [0] * n
    missing = {e: r for e in pattern.edges}
    placed = [False] * n
    heap = [(-completes[v], 0, -pdeg[v], v) for v in range(n)]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        c, l, _, v = heapq.heappop(heap)
        if placed[v] or (-c, -l) != (completes[v], link[v]):
            continue
        placed[v] = True
        order.append(v)
        for e in edges_at[v]:
            missing[e] -= 1
            if missing[e] == 1:
                completes[next(u for u in e if not placed[u])] += 1
        for u in adj[v]:
            if not placed[u]:
                link[u] += 1
                heapq.heappush(heap, (-completes[u], -link[u], -pdeg[u], u))
    # An edge is checked at the depth where its last vertex is placed.
    pos = {v: i for i, v in enumerate(order)}
    checks: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for e in pattern.edges:
        last = max(e, key=pos.__getitem__)
        checks[pos[last]].append(tuple(u for u in e if u != last))
    # twin[d]: the vertex placed last before depth d in order[d]'s twin class.
    twin = [-1] * n
    if injective and break_twins:
        cls = _twin_classes(pattern)
        last_of: dict[int, int] = {}
        for d, v in enumerate(order):
            twin[d] = last_of.get(cls[v], -1)
            last_of[cls[v]] = v
    links = _links(host)
    images = [-1] * n
    used = [False] * host.n

    def candidates(depth: int) -> Iterable[int]:
        pools = []
        for others in checks[depth]:
            pool = links.get(tuple(sorted(images[u] for u in others)))
            if pool is None:
                return []
            pools.append(pool)
        cands = sorted(pools[0].intersection(*pools[1:])) if pools else range(host.n)
        if not injective:
            return cands
        low = images[twin[depth]] if twin[depth] >= 0 else -1
        need = pdeg[order[depth]]
        return [c for c in cands if c > low and not used[c] and hdeg[c] >= need]

    if n == 0:
        yield ()
        return
    stack = [iter(candidates(0))]
    while stack:
        depth = len(stack) - 1
        p = order[depth]
        if images[p] >= 0:
            used[images[p]] = False
        cand = next(stack[-1], None)
        if cand is None:
            images[p] = -1
            stack.pop()
            continue
        images[p] = cand
        used[cand] = injective
        if depth + 1 == n:
            yield tuple(images)
        else:
            stack.append(iter(candidates(depth + 1)))


def iter_embeddings(pattern: Hypergraph, host: Hypergraph) -> Iterator[Embedding]:
    """All injective edge-preserving maps of pattern into host, in a fixed order."""
    yield from map(Embedding, _iter_maps(pattern, host, injective=True))


def contains_copy(host: Hypergraph, pattern: Hypergraph) -> Optional[Embedding]:
    """First embedding of pattern into host, or None if host is pattern-free."""
    maps = _iter_maps(pattern, host, injective=True, break_twins=True)
    return next(map(Embedding, maps), None)


def count_embeddings(pattern: Hypergraph, host: Hypergraph) -> EmbeddingCount:
    """Exact count of embeddings, and of copies (embeddings / |Aut(pattern)|).

    Only the twin-broken maps are enumerated.  Each stands for the prod |C|!
    embeddings that permute it within the twin classes C.  Every copy in host
    is the image of as many twin-broken maps as pattern has into itself, so
    the copies are the maps into host over the maps into pattern.
    """
    def count(h: Hypergraph) -> int:
        return sum(1 for _ in _iter_maps(pattern, h, injective=True, break_twins=True))

    maps = count(host)
    if maps == 0:
        return EmbeddingCount(0, 0)
    sizes = collections.Counter(_twin_classes(pattern)).values()
    return EmbeddingCount(
        maps * math.prod(map(math.factorial, sizes)), maps // count(pattern)
    )


def _copy_masks(
    f: Hypergraph, h: Hypergraph, limit: float = math.inf
) -> Optional[set[int]]:
    """The vertex sets of the copies of f's core in h, as bitmasks.

    The core is f without its isolated vertices, so a vertex set W of h holds
    a copy of f exactly when |W| >= v(f) and some mask lies inside W.  A core
    copy is a union of vertex-disjoint copies of the core's components, each
    listed by the twin-broken search; an edgeless f gives the one mask 0.
    None when the listing would take more than `limit` steps, counting, per
    component, one per host edge (the search's link index) and one per map,
    and one per pair tried in a union.
    """
    if f.r != h.r:
        raise InvalidParameterError(f"uniformity mismatch: {f.r} vs {h.r}")
    parts: list[set[int]] = []  # vertex sets of the core's components
    for e in f.edges:
        joined = set(e).union(*(p for p in parts if not p.isdisjoint(e)))
        parts = [p for p in parts if p.isdisjoint(e)] + [joined]
    bit = [1 << v for v in range(h.n)]
    copies = {0}
    steps = 0
    for p in parts:
        steps += len(h.edges)
        if steps > limit:
            return None
        masks = set()
        for img in _iter_maps(induced(f, p), h, injective=True, break_twins=True):
            steps += 1
            if steps > limit:
                return None
            masks.add(sum(map(bit.__getitem__, img)))
        steps += len(copies) * len(masks)
        if steps > limit:
            return None
        copies = {c | m for c in copies for m in masks if not c & m}
    return copies


def _min_edge_list(h: Hypergraph, incumbent: Optional[tuple] = None) -> tuple:
    """Branch-and-bound minimum of the sorted edge list over all relabelings.

    Assigns new labels 0..n-1 to original vertices one at a time, in
    increasing order, so the labels an edge has received fill its sorted
    image from the left.  Each r-set of labels a_0 < ... < a_{r-1} is coded as
    the integer sum of a_i * n**(r-1-i); no digit exceeds n-1, so the codes
    sort as the tuples do and an edge list compares as its list of codes.

    Returns the least edge list, or, given an incumbent, the first list found
    strictly below it, else the incumbent.

    Bound.  When labels 0..k-1 are given, an edge with u unlabeled vertices
    ends as its labels followed by u distinct labels >= k, so its final code
    is at least its padded code: its labels followed by k, k+1, ..., k+u-1.
    No padded digit exceeds n-1, as u <= n-k.  Every final list dominates
    the padded list element-wise, hence also after sorting.  The final codes
    are distinct r-set codes, as the edges are distinct, so the j-th least of
    them is at least the r-set next after the (j-1)-th: raising each entry of
    the sorted padded list, in turn, to at least the r-set next after its
    predecessor keeps the domination.  (Without this step, equal padded codes
    keep the bound of a complete hypergraph below its one final list, and
    the search visits nearly all n! labelings.)  The result is an admissible
    bound, and branches whose bound does not strictly beat the incumbent are
    cut.  At k = n it is the final list.

    First-block rule.  Let c* be the largest codegree of an (r-1)-set.  The
    edges through {0..r-2} come first in any sorted edge list, and the least
    such block is (0..r-2, r-1), ..., (0..r-2, r-2+c*): a labeling whose block
    skips a label loses at the first skipped position, and one whose block is
    shorter loses at the position after it, where the least list still has an
    edge through {0..r-2}.  So every minimizing labeling gives labels 0..r-2 to
    an (r-1)-set of codegree c* and labels r-1..r-2+c* to its link, and only
    such vertices are tried at those depths.  This cuts no minimizer, so the
    result is exact.
    """
    n, r = h.n, h.r
    if not h.edges:
        return ()
    links = _links(h)
    top = max(map(len, links.values()))
    heads = [set(s) for s, link in links.items() if len(link) == top]
    # place[j]: the weight of an edge's j-th smallest label in its code.
    place = [n ** (r - 1 - j) for j in range(r)]
    # pad[k][u]: the code of the tail k, k+1, ..., k+u-1 in an edge's last u
    # places (only read with u <= n-k).
    pad = [
        [sum((k + j) * place[r - u + j] for j in range(u)) for u in range(r + 1)]
        for k in range(n + 1)
    ]
    edges_at: list[list[int]] = [[] for _ in range(n)]
    for i, e in enumerate(h.edges):
        for v in e:
            edges_at[v].append(i)
    deg = h.degrees
    placed = [False] * n
    labeled: list[int] = []
    # Per edge: the labels given so far, each in its place, and their count.
    code = [0] * len(h.edges)
    cnt = [0] * len(h.edges)
    best = None
    if incumbent is not None:
        best = [sum(a * w for a, w in zip(e, place)) for e in incumbent]

    def allowed(k: int) -> Iterable[int]:
        if k < r - 1:
            return set().union(*(s for s in heads if s.issuperset(labeled)))
        if k < r - 1 + top:
            return links[tuple(sorted(labeled[: r - 1]))]
        return range(n)

    def after(c: int) -> int:
        """The code of the r-set next after the one coded c in sorted order,
        or n**r, above every code, if there is none."""
        if c % n < n - 1:
            return c + 1
        a = [c // w % n for w in place]
        i = r - 1
        while i >= 0 and a[i] == n - r + i:
            i -= 1
        if i < 0:
            return n**r
        return sum(a[j] * place[j] for j in range(i)) + pad[a[i] + 1][r - i]

    def rec(k: int) -> bool:  # True: stop
        nonlocal best
        tail = pad[k]
        bound = sorted([c + tail[r - t] for c, t in zip(code, cnt)])
        for j in range(1, len(bound)):
            if bound[j] <= bound[j - 1]:
                bound[j] = after(bound[j - 1])
        if best is not None and bound >= best:
            return False
        if k == n:
            best = bound
            return incumbent is not None
        cands = []
        for v in allowed(k):
            if not placed[v]:
                newly = sum(cnt[i] == r - 1 for i in edges_at[v])
                cands.append((-newly, -deg[v], v))
        cands.sort()
        for _, _, v in cands:
            placed[v] = True
            labeled.append(v)
            for i in edges_at[v]:
                code[i] += k * place[cnt[i]]
                cnt[i] += 1
            stop = rec(k + 1)
            for i in edges_at[v]:
                cnt[i] -= 1
                code[i] -= k * place[cnt[i]]
            labeled.pop()
            placed[v] = False
            if stop:
                return True
        return False

    rec(0)
    return tuple(tuple(c // w % n for w in place) for c in best)


def canonical_form(h: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """Lexicographically minimal edge list of h over all vertex relabelings.

    Two hypergraphs with the same r and n are isomorphic iff their canonical
    forms are equal.  Exact but exponential; refuses n above CANONICAL_CAP.
    """
    if h.n > CANONICAL_CAP:
        raise CapacityError(f"canonical form limited to n <= {CANONICAL_CAP}, got {h.n}")
    return _min_edge_list(h)


def is_canonical(h: Hypergraph) -> bool:
    """True iff h's own edge list is already its canonical form, i.e. no
    relabeling beats it as the incumbent of the canonical search."""
    if h.n > CANONICAL_CAP:
        raise CapacityError(f"canonical form limited to n <= {CANONICAL_CAP}, got {h.n}")
    return _min_edge_list(h, h.edges) == h.edges


def is_isomorphic(a: Hypergraph, b: Hypergraph) -> bool:
    """Isomorphism test via bijective embedding search (no size cap)."""
    if a.r != b.r or a.n != b.n or len(a.edges) != len(b.edges):
        return False
    # With equal vertex and edge counts, any embedding is onto the edge set.
    return contains_copy(b, a) is not None
