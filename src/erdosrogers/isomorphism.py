"""Subgraph embedding search, exact embedding counts, and a minimal canonical form.

One deterministic backtracker, :func:`_iter_maps`, finds both embeddings
(injective) and homomorphisms (see :mod:`.morphisms`), and states the rules
both share: equal uniformity, a fixed search order, candidate sets as
bitmasks over the host's :attr:`~.Hypergraph.links` and :attr:`~.Hypergraph.nbhd`
(and, for embeddings, :attr:`~.Hypergraph.codeg2`), and the twin rule that the
copy searches (:func:`contains_copy`, :func:`count_embeddings`,
:func:`_copy_masks`) use without changing the first witness.
The canonical search reads the same twin classes (:func:`_twin_classes`).
"""

from __future__ import annotations

import collections
import functools
import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

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


def _twin_classes(h: Hypergraph) -> list[int]:
    """For each vertex, the least vertex of its twin class.

    u and v are twins when the transposition (u v) is an automorphism: with
    s(v) the set of v's edges as vertex bitmasks, v's bit removed, swapping
    bits u and v in every member of s(u) gives s(v).  The relation is an
    equivalence ((u w) is (u v) (v w) (u v)).  Twins have equal
    neighbourhoods, open if they share no edge and closed if they share one,
    and an open neighbourhood never equals a closed one.  So each vertex, in
    increasing order, is tested only against the least vertices of the
    classes found so far that share its open or its closed neighbourhood.
    """
    bit = [1 << v for v in range(h.n)]
    sets: list[list[int]] = [[] for _ in bit]
    for e in h.edges:
        m = sum(map(bit.__getitem__, e))
        for v in e:
            sets[v].append(m ^ bit[v])
    cls = list(range(h.n))
    leaders: dict[int, list[int]] = {}
    for v, s in enumerate(sets):
        around = functools.reduce(operator.or_, s, 0)
        for nbrs in (around, around | bit[v]):
            group = leaders.get(nbrs)
            if group is None:
                leaders[nbrs] = [v]
                continue
            for u in group:
                swap = bit[u] | bit[v]
                if len(sets[u]) == len(s) and {
                    m ^ swap if m & bit[v] else m for m in sets[u]
                } == set(s):
                    cls[v] = u
                    break
            else:
                group.append(v)
                continue
            break
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


def _plan(
    pattern: Hypergraph,
) -> tuple[list[int], list[list[tuple[int, ...]]], list[list[int]]]:
    """The placement order of :func:`_iter_maps` and the tests at each depth.

    order[d] is the vertex placed at depth d.  checks[d] holds, for each
    edge whose last vertex is order[d], in edge order, its other vertices.
    nbrs[d] holds the vertices placed before depth d that share an edge with
    order[d] but no edge in checks[d].
    """
    n, edges = pattern.n, pattern.edges
    pdeg = pattern.degrees
    edges_at: list[list[int]] = [[] for _ in range(n)]
    for i, e in enumerate(edges):
        for u in e:
            edges_at[u].append(i)
    # Key digits, lowest first: n-1-v (radix n), degree (radix e+1), link
    # (radix n), completes.  With r = 1 every edge is complete from the
    # start, so completes equals the degree and ranks vertices as it does:
    # for every r the keys can start at (0, 0, degree, -v).
    link_w = n * (len(edges) + 1)
    complete_w = link_w * n
    key = [d * n + n - 1 - v for v, d in enumerate(pdeg)]
    heap = [-k for k in key]
    heapq.heapify(heap)
    # Per edge: the number and the sum of its unplaced vertices.
    missing = [pattern.r] * len(edges)
    rest = list(map(sum, edges))
    placed = [False] * n
    seen = [-1] * n  # seen[u] == d: u was met at depth d
    order: list[int] = []
    checks: list[list[tuple[int, ...]]] = []
    nbrs: list[list[int]] = []
    while heap:
        k = -heapq.heappop(heap)
        v = n - 1 - k % n
        if key[v] != k:
            continue
        d = len(order)
        order.append(v)
        seen[v] = d
        done: list[tuple[int, ...]] = []
        still: list[int] = []  # the edges through v with unplaced vertices
        for i in edges_at[v]:
            missing[i] -= 1
            if missing[i]:
                rest[i] -= v
                if missing[i] == 1:
                    key[rest[i]] += complete_w
                still.append(i)
            else:
                e = edges[i]
                j = e.index(v)
                others = e[:j] + e[j + 1 :]
                done.append(others)
                for u in others:
                    seen[u] = d
        near: list[int] = []
        for i in still:
            for u in edges[i]:
                if seen[u] != d:
                    seen[u] = d
                    if placed[u]:
                        near.append(u)
                    else:
                        key[u] += link_w
                        heapq.heappush(heap, -key[u])
        placed[v] = True
        checks.append(done)
        nbrs.append(near)
    return order, checks, nbrs


def _iter_maps(
    pattern: Hypergraph, host: Hypergraph, injective: bool, break_twins: bool = False
) -> Iterator[tuple[int, ...]]:
    """Every edge-preserving vertex map of pattern into host, in a fixed order.

    A map is a tuple whose entry v hosts pattern vertex v; every pattern edge
    lands on r distinct vertices that form a host edge.  With injective=True
    the maps are the embeddings, otherwise the homomorphisms.

    Order.  Pattern vertices are placed constraint-first: next comes the
    vertex that completes the most pattern edges against those already
    placed, then the one sharing edges with the most placed vertices, then
    high degree, then small id.  :func:`_plan` finds the order, and each
    depth's tests below, in one pass over the pattern's edges, addressed by
    index.  A vertex's key (completes, link, degree, -v) is one int in mixed
    radix, and a heap of negated keys pops the largest; keys only grow, so an
    entry other than its vertex's key is stale and skipped.  Each edge keeps
    the count and the sum of its unplaced vertices, so the vertex an edge
    now needs is read off in O(1).  A depth's tests are read off when its
    vertex is placed, as the vertices placed before it are then exactly the
    placed ones.  No per-vertex adjacency sets are built: the pattern's
    ``nbhd`` masks cost O(v^2) on a v-vertex pattern (reading them made the
    search on a 1,100-edge tight path five times slower), and sets grown a
    vertex at a time over-allocate (a 5-entry set has a 32-slot table).
    Instead the distinct neighbours of the vertex being placed are found
    along its edges, each stamped with the depth once seen.  The search
    keeps an explicit stack, so pattern size is not bounded by the
    recursion limit.

    Candidates.  Sets of host vertices are int bitmasks (bit c is vertex c).
    The candidates of the vertex p placed at a depth are the host vertices
    that pass every test below; they are tried lowest bit first, that is in
    increasing id, so the maps come in lexicographic order of their images
    read in placement order.
      - Completion: for each pattern edge whose last vertex is p, the host's
        ``links`` entry of the images of its other vertices.
      - Neighbourhood: for each vertex q placed earlier that shares an edge
        with p, the host's ``nbhd`` entry of q's image: the vertices sharing a
        host edge with it, itself excluded.  A q in an edge that p completes
        is skipped, as that edge's link entry already lies inside it.
      - Embeddings only: an image not yet used, of host degree at least p's
        pattern degree (one mask per distinct pattern degree).
      - Embeddings only, codegree: for each q of the neighbourhood rule that
        shares two or more pattern edges with p (the pattern's ``codeg2``),
        the host's ``codeg2`` entry of q's image, in place of its ``nbhd``
        entry: the vertices sharing two or more host edges with it.
    Each test holds for every map.  An edge through p and q lands on r
    distinct vertices that form a host edge, so p's image differs from q's
    and shares a host edge with it; and an embedding's images are distinct,
    each in at least as many host edges as its vertex has pattern edges.
    An injective map also sends distinct pattern edges to distinct host
    edges, so two edges through p and q give two host edges through their
    images.  A homomorphism may send both onto one host edge (the triples
    {0, 1, 2} and {0, 1, 3} onto K^3_3), so it is exempt.  So no map is
    removed, and the maps and their order are those of trying every host
    vertex and testing the edges at their last vertex.  The neighbourhood
    and codegree rules matter at depths where no edge completes, such as
    the second vertex of a 3-graph pattern: there the other tests leave
    every unused host vertex of high enough degree.

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
    n = pattern.n
    if injective and (n > host.n or len(pattern.edges) > len(host.edges)):
        return
    order, checks, nbrs = _plan(pattern)
    pdeg = pattern.degrees
    # twin[d]: the vertex placed last before depth d in order[d]'s twin class.
    twin = [-1] * n
    if injective and break_twins:
        cls = _twin_classes(pattern)
        last_of: dict[int, int] = {}
        for d, v in enumerate(order):
            twin[d] = last_of.get(cls[v], -1)
            last_of[cls[v]] = v
    links, nbhd = host.links, host.nbhd
    # two[d]: for an embedding, the vertices of nbrs[d] that share two or
    # more edges with order[d], moved out of nbrs[d].  Their images are read
    # in the host's codeg2, which is built at its first read.
    two: list = [()] * n
    # base[d]: the host vertices order[d] may take whatever is placed.
    if injective:
        pair2 = pattern.codeg2
        if any(pair2):
            two = [[u for u in us if pair2[v] >> u & 1] for v, us in zip(order, nbrs)]
            nbrs = [[u for u in us if not pair2[v] >> u & 1] for v, us in zip(order, nbrs)]
        hdeg = host.degrees
        at_least = {
            k: sum(1 << c for c in range(host.n) if hdeg[c] >= k) for k in set(pdeg)
        }
        base = [at_least[pdeg[v]] for v in order]
    else:
        base = [(1 << host.n) - 1] * n
    images = [-1] * n
    bits = [0] * n  # bits[v] == 1 << images[v]

    def candidates(d: int, used: int) -> int:
        m = base[d] & ~used
        for others in checks[d]:
            m &= links.get(sum(map(bits.__getitem__, others)), 0)
        for u in nbrs[d]:
            m &= nbhd[images[u]]
        for u in two[d]:
            m &= host.codeg2[images[u]]
        if twin[d] >= 0:
            m &= -2 << images[twin[d]]
        return m

    if n == 0:
        yield ()
        return
    # stack[d]: the untried candidates at depth d; used[d]: the images taken
    # before depth d (none for homomorphisms).
    keep = -1 if injective else 0
    stack = [candidates(0, 0)]
    used = [0]
    while stack:
        d = len(stack) - 1
        m = stack[d]
        if not m:
            stack.pop()
            used.pop()
            continue
        low = m & -m
        stack[d] = m ^ low
        p = order[d]
        images[p] = low.bit_length() - 1
        bits[p] = low
        if d + 1 == n:
            yield tuple(images)
        else:
            u = used[d] | low & keep
            m = candidates(d + 1, u)
            if m:
                used.append(u)
                stack.append(m)


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
) -> Optional[dict[int, int]]:
    """The copies of f's core in h, each as its edge mask mapped to its vertex mask.

    Bit i of an edge mask is ``h.edges[i]``; bit v of a vertex mask is vertex
    v.  The core is f without its isolated vertices, so a vertex set W of h
    holds a copy of f exactly when |W| >= v(f) and some vertex mask lies
    inside W, and a hypergraph on h's vertices with some of h's edges holds
    one exactly when h.n >= v(f) and some edge mask lies inside its own.  A
    core copy is a union of vertex-disjoint copies of the core's components,
    each listed by the twin-broken search; an edgeless f gives the one copy
    0 -> 0.  None when the listing would take more than `limit` steps,
    counting, if f has an edge, one per host edge (h's indices, built once),
    then one per map of each component and one per pair tried in a union.
    """
    if f.r != h.r:
        raise InvalidParameterError(f"uniformity mismatch: {f.r} vs {h.r}")
    parts: list[set[int]] = []  # vertex sets of the core's components
    for e in f.edges:
        joined = set(e).union(*(p for p in parts if not p.isdisjoint(e)))
        parts = [p for p in parts if p.isdisjoint(e)] + [joined]
    copies = {0: 0}
    steps = len(h.edges) if parts else 0
    if steps > limit:
        return None
    bit = [1 << v for v in range(h.n)]
    # Keyed by its vertex bitmask, an image edge needs no sorting.
    edge_bit = {sum(map(bit.__getitem__, e)): 1 << i for i, e in enumerate(h.edges)}
    for p in parts:
        core = induced(f, p)
        maps = []
        for img in _iter_maps(core, h, injective=True, break_twins=True):
            steps += 1
            if steps > limit:
                return None
            maps.append(img)
        # Column v: the bit of vertex v's image, one entry per map.  Adding
        # columns gives each map's image edges, then its edge and vertex masks.
        cols = [[bit[img[v]] for img in maps] for v in range(core.n)]
        images = [map(sum, zip(*[cols[v] for v in e])) for e in core.edges]
        edge_masks = map(sum, zip(*[map(edge_bit.__getitem__, c) for c in images]))
        masks = dict(zip(edge_masks, map(sum, zip(*cols))))
        steps += len(copies) * len(masks)
        if steps > limit:
            return None
        copies = {
            ce | me: cv | mv
            for ce, cv in copies.items()
            for me, mv in masks.items()
            if not cv & mv
        }
    return copies


@functools.cache
def _code_tables(n: int, r: int) -> tuple[tuple[int, ...], ...]:
    """The r-set code tables of :func:`_min_edge_list` on n vertices.

    place[j]: the weight of an edge's j-th smallest label in its code.
    label[k][t]: the code of label k in place t.
    tail[k][t]: the code of the labels k, k+1, ..., k+r-t-1 in an edge's
    places t..r-1 (only read with r-t <= n-k).
    """
    place = tuple(n ** (r - 1 - j) for j in range(r))
    label = tuple(tuple(k * w for w in place) for k in range(n))
    tail = tuple(
        tuple(sum((k + j - t) * place[j] for j in range(t, r)) for t in range(r + 1))
        for k in range(n + 1)
    )
    return place, label, tail


def _min_edge_list(h: Hypergraph, incumbent: Optional[tuple] = None) -> tuple:
    """Branch-and-bound minimum of the sorted edge list over all relabelings.

    Assigns new labels 0..n-1 to original vertices one at a time, in
    increasing order, so the labels an edge has received fill its sorted
    image from the left.  Each r-set of labels a_0 < ... < a_{r-1} is coded as
    the integer sum of a_i * n**(r-1-i); no digit exceeds n-1, so the codes
    sort as the tuples do and an edge list compares as its list of codes.

    Returns the least edge list, or, given an incumbent, a list strictly
    below it, else the incumbent.

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
    the search visits nearly all n! labelings.)  Branches whose bound does
    not strictly beat the best list so far are cut; the comparison stops at
    the first entry that differs, and is skipped while no list is known.  At
    k = n-1 the padding is the last label, so the bound is the final list.

    First-block rule.  Let c* be the largest codegree of an (r-1)-set.  The
    edges through {0..r-2} come first in any sorted edge list, and the least
    such block is (0..r-2, r-1), ..., (0..r-2, r-2+c*): a labeling whose block
    skips a label loses at the first skipped position, and one whose block is
    shorter loses at the position after it, where the least list still has an
    edge through {0..r-2}.  So every minimizing labeling gives labels 0..r-2 to
    an (r-1)-set of codegree c* and labels r-1..r-2+c* to its link, and only
    such vertices are tried at those depths.  Every depth has a candidate:
    below depth r-1 the labeled vertices lie in such an (r-1)-set that still
    has an unlabeled member, below depth r-1+c* fewer than c* vertices of its
    link are labeled, and beyond that fewer than n vertices are labeled.

    Twin rule.  Of each twin class (:func:`_twin_classes`), only the first
    unlabeled vertex in candidate order is tried.  If u and w are unlabeled
    twins, the automorphism (u w) fixes every labeled vertex and so leaves
    the allowed vertices unchanged; it maps the subtree under u onto the one
    under w, so both hold the same lists.  Neither rule cuts a minimizer, so
    the result is exact.

    Candidates are tried by the edges they would complete, then degree, then
    id; each vertex's count of such edges is kept as labels come and go.
    """
    n, r = h.n, h.r
    if not h.edges:
        return ()
    links = h.links
    top = max(map(int.bit_count, links.values()))
    heads = [s for s, link in links.items() if link.bit_count() == top]
    place, label, tails = _code_tables(n, r)
    bit = [1 << v for v in range(n)]
    edges_at: list[list[int]] = [[] for _ in range(n)]
    for i, e in enumerate(h.edges):
        for v in e:
            edges_at[v].append(i)
    emask = [sum(map(bit.__getitem__, e)) for e in h.edges]
    # key[v]: the candidate key (edges v completes, degree, -v) in mixed
    # radix; v is read off as n-1 - key % n.  A completion adds step.
    deg = h.degrees
    step = (max(deg) + 1) * n
    key = [(deg[v] if r == 1 else 0) * step + deg[v] * n + n - 1 - v for v in range(n)]
    # lower[v]: the twins of v below v, as a bitmask.
    lower = [0] * n
    seen: dict[int, int] = {}
    for v, c in enumerate(_twin_classes(h)):
        lower[v] = seen.get(c, 0)
        seen[c] = lower[v] | bit[v]
    free = (1 << n) - 1  # the unlabeled vertices
    labeled: list[int] = []
    # Per edge: the labels given so far, each in its place, and their count.
    code = [0] * len(h.edges)
    cnt = [0] * len(h.edges)
    best = None
    if incumbent is not None:
        best = [sum(map(operator.mul, e, place)) for e in incumbent]
    deep = r - 1 + top  # from this depth on, every unlabeled vertex is allowed

    def allowed(k: int) -> int:
        if k < r - 1:
            given = sum(map(bit.__getitem__, labeled))
            m = 0
            for s in heads:
                if s & given == given:
                    m |= s
            return m & free
        return links[sum(map(bit.__getitem__, labeled[: r - 1]))] & free

    def after(c: int) -> int:
        """The code of the r-set next after the one coded c in sorted order,
        or n**r, above every code, if there is none."""
        a = [c // w % n for w in place]
        i = r - 1
        while i >= 0 and a[i] == n - r + i:
            i -= 1
        if i < 0:
            return n**r
        return sum(a[j] * place[j] for j in range(i)) + tails[a[i] + 1][i]

    def rec(k: int) -> bool:  # True: stop
        nonlocal best, free
        m = free if k >= deep else allowed(k)
        tail = tails[k]
        if k == n - 1:
            # The last vertex's label is k, its padding: the bound is final.
            final = [c + tail[t] for c, t in zip(code, cnt)]
            final.sort()
            if best is not None and final >= best:
                return False
            best = final
            return incumbent is not None
        if best is not None:
            bound = [c + tail[t] for c, t in zip(code, cnt)]
            bound.sort()
            prev = -1
            for b, c in zip(bound, best):
                if b <= prev:
                    b = prev + 1 if prev % n < n - 1 else after(prev)
                if b != c:
                    if b > c:
                        return False
                    break
                prev = b
            else:
                return False
        keys = [key[v] for v in range(n) if m >> v & 1 and not lower[v] & free]
        keys.sort(reverse=True)
        add = label[k]
        for kv in keys:
            v = n - 1 - kv % n
            free ^= bit[v]
            labeled.append(v)
            for i in edges_at[v]:
                c = cnt[i]
                code[i] += add[c]
                cnt[i] = c + 1
                if c == r - 2:
                    key[(emask[i] & free).bit_length() - 1] += step
            stop = rec(k + 1)
            for i in edges_at[v]:
                c = cnt[i] = cnt[i] - 1
                code[i] -= add[c]
                if c == r - 2:
                    key[(emask[i] & free).bit_length() - 1] -= step
            labeled.pop()
            free ^= bit[v]
            if stop:
                return True
        return False

    start = best
    rec(0)
    if best is start:
        return incumbent
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
