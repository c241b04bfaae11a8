"""Decision procedures with certificates: homomorphism, k-shadow-homomorphism,
k-tight connectivity, and membership in iterated blowups.

A k-shadow-homomorphism from G to F assigns every k-subset S of an edge of G
a target k-subset of an edge of F together with a bijection g_S, such that on
every edge of G the per-k-set bijections glue into a single bijection onto an
edge of F.  Equivalently: each edge of G gets an injective map onto an edge
of F, and any two edges sharing at least k vertices agree pointwise on their
intersection.

The solver reduces this to a homomorphism search on the slot r-graph G_k
(:func:`find_shadow_homomorphism`).  Homomorphisms, like embeddings, come
from the one backtracker in :mod:`.isomorphism`.  With k = 1 all slots of a
vertex merge, G_k is G on its covered vertices, and a 1-shadow-homomorphism
is a homomorphism restricted to those vertices.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidParameterError
from .hypergraph import Hypergraph, blowup_F
from .isomorphism import Embedding, _iter_maps, _orbits, contains_copy


@dataclass(frozen=True)
class HomWitness:
    """A homomorphism: images[v] is the target of vertex v (not necessarily injective)."""

    images: tuple[int, ...]


@dataclass(frozen=True)
class SetMap:
    """A bijection between two vertex sets, stored against the sorted source.

    images[i] is the image of source[i]; the target set is the sorted image.
    """

    source: tuple[int, ...]
    images: tuple[int, ...]

    @property
    def target(self) -> tuple[int, ...]:
        return tuple(sorted(self.images))

    def apply(self, v: int) -> int:
        return self.images[self.source.index(v)]


@dataclass(frozen=True)
class ShadowHomWitness:
    """Certificate for a k-shadow-homomorphism.

    shadow_map has one entry per k-set of the source shadow (in lexicographic
    order); edge_map has one entry per source edge (in canonical edge order).
    """

    k: int
    shadow_map: tuple[SetMap, ...]
    edge_map: tuple[SetMap, ...]


@dataclass(frozen=True)
class TightOrder:
    """An edge order in which every edge meets some earlier edge in >= k vertices."""

    order: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class BlowupCertificate:
    """Steps: the vertices blown up, each placing a copy of the base pattern,
    from the base pattern itself (chosen by :func:`is_sub_iterated_blowup`).
    Embedding maps the probe hypergraph into the replayed iterate."""

    steps: tuple[int, ...]
    embedding: Embedding


def find_homomorphism(g: Hypergraph, f: Hypergraph) -> Optional[HomWitness]:
    """First homomorphism from g to f in a fixed search order, or None.

    Every edge of g must map to distinct vertices forming an edge of f.
    """
    return next(map(HomWitness, _iter_maps(g, f, injective=False)), None)


def find_shadow_homomorphism(
    g: Hypergraph, f: Hypergraph, k: int
) -> Optional[ShadowHomWitness]:
    """Decide whether g is k-shadow-homomorphic to f; full witness on success.

    Reduces to a homomorphism search.  Slot (i, j) stands for the j-th vertex
    of edge i as that edge sees it; the slots of a vertex are merged across
    every two edges sharing a k-set, hence across every two edges meeting in
    at least k vertices.  The merged slots span the slot r-graph G_k, with
    one edge per edge of g, and g is k-shadow-homomorphic to f exactly when
    G_k is homomorphic to f.  The witness reads each edge's bijection off the
    images of its slots.
    """
    if g.r != f.r:
        raise InvalidParameterError(f"uniformity mismatch: {g.r} vs {f.r}")
    if k < 1 or k > g.r:
        raise InvalidParameterError(f"shadow order must be in 1..{g.r}, got {k}")
    r, edges = g.r, g.edges
    # Union-find over slots; slot i*r + j is vertex edges[i][j] seen by edge i.
    parent = list(range(len(edges) * r))

    def find(s: int) -> int:
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    first: dict[tuple[int, ...], int] = {}  # k-set -> first edge containing it
    for i, e in enumerate(edges):
        for positions in itertools.combinations(range(r), k):
            j = first.setdefault(tuple(e[p] for p in positions), i)
            for p in positions:
                parent[find(i * r + p)] = find(j * r + edges[j].index(e[p]))
    roots = [find(s) for s in range(len(edges) * r)]
    label = {root: c for c, root in enumerate(dict.fromkeys(roots))}
    slot = [label[root] for root in roots]
    g_k = Hypergraph(
        r, len(label), tuple(tuple(slot[i * r : i * r + r]) for i in range(len(edges)))
    )
    images = next(_iter_maps(g_k, f, injective=False), None)
    if images is None:
        return None
    edge_map = tuple(
        SetMap(source=e, images=tuple(images[c] for c in slot[i * r : i * r + r]))
        for i, e in enumerate(edges)
    )
    shadow_map = tuple(
        SetMap(source=s, images=tuple(edge_map[i].apply(v) for v in s))
        for s, i in sorted(first.items())
    )
    return ShadowHomWitness(k=k, shadow_map=shadow_map, edge_map=edge_map)


def verify_shadow_hom(
    g: Hypergraph, f: Hypergraph, k: int, witness: ShadowHomWitness
) -> bool:
    """Independent check of a shadow-homomorphism certificate: the definition, once.

    Shape mismatches raise: shadow_map must hold exactly one entry per k-set
    of g's k-shadow and edge_map exactly one entry per edge of g, each with
    images of the right arity.  Then one pass over the edges returns False
    unless every edge map is a bijection onto an edge of f whose restriction
    to each k-subset equals that k-set's entry.

    Nothing more needs checking.

    * Each k-set entry is an injection into f's k-shadow: every k-set S lies
      in some edge e, and the edge pass forces S's one entry to equal the
      map of e restricted to S.
    * For k = r-1, any three edges e1 = C+{a,b}, e2 = C+{a,c}, e3 = C+{b,c}
      (pairwise meeting in r-1 vertices, all three in the (r-2)-set C) map
      to pairwise distinct edges of f.  The entries of C+{a}, C+{b} and
      C+{c} glue into one map psi on C+{a,b,c} that agrees with all three
      edge maps.  The targets of e1 and e2 are equal only if psi(b) =
      psi(c), which cannot hold as psi is injective on e3; the same goes
      for each other pair, and for r = 2 (C empty).
    """
    if g.r != f.r:
        raise InvalidParameterError(f"uniformity mismatch: {g.r} vs {f.r}")
    if k < 1 or k > g.r or witness.k != k:
        raise InvalidParameterError(f"witness is for k={witness.k}, expected {k}")
    ksets = {s for e in g.edges for s in itertools.combinations(e, k)}
    if sorted(sm.source for sm in witness.shadow_map) != sorted(ksets):
        raise InvalidParameterError("shadow_map needs one entry per k-set of the k-shadow")
    if sorted(em.source for em in witness.edge_map) != list(g.edges):
        raise InvalidParameterError("edge_map needs one entry per edge")
    if any(len(sm.images) != k for sm in witness.shadow_map) or any(
        len(em.images) != g.r for em in witness.edge_map
    ):
        raise InvalidParameterError("image tuple of wrong arity")

    by_kset = {sm.source: sm.images for sm in witness.shadow_map}
    subsets = list(itertools.combinations(range(g.r), k))
    return all(
        em.target in f.edge_set
        and all(
            by_kset[tuple(em.source[p] for p in ps)] == tuple(em.images[p] for p in ps)
            for ps in subsets
        )
        for em in witness.edge_map
    )


def is_k_tightly_connected(g: Hypergraph, k: int) -> Optional[TightOrder]:
    """Greedy witness order, or None if the edge-intersection graph is disconnected.

    Starting from the first edge, each step takes the lowest-index unused edge
    that meets a used edge in >= k vertices, i.e. shares a k-set with it.  A
    heap holds these frontier edges; each k-set's edges join it once.  A
    hypergraph with no edges is defined not tightly connected; a single edge
    is (the ordering condition is vacuous).
    """
    if k < 1 or k > g.r:
        raise InvalidParameterError(f"connectivity order must be in 1..{g.r}, got {k}")
    if not g.edges:
        return None
    edges = g.edges
    by_kset: dict[tuple[int, ...], list[int]] = {}
    for i, e in enumerate(edges):
        for s in itertools.combinations(e, k):
            by_kset.setdefault(s, []).append(i)
    used = [False] * len(edges)
    frontier = [0]
    order = []
    while frontier:
        i = heapq.heappop(frontier)
        if used[i]:
            continue
        used[i] = True
        order.append(edges[i])
        for s in itertools.combinations(edges[i], k):
            for j in by_kset.pop(s, ()):
                if not used[j]:
                    heapq.heappush(frontier, j)
    if len(order) < len(edges):
        return None
    return TightOrder(tuple(order))


def is_sub_iterated_blowup(
    g: Hypergraph, f: Hypergraph, max_steps: int
) -> Optional[BlowupCertificate]:
    """Exact membership of g in the blowup closure of f, up to max_steps steps.

    Breadth-first over the step sequences of at most max_steps blowups, in
    lexicographic order within each depth; an iterate P is blown up only at
    the least vertex of each Aut(P)-orbit (:func:`.isomorphism._orbits`).
    The steps returned are the lexicographically least shortest sequence
    whose iterate contains g.  None means "not within max_steps"; for
    r >= 2 and max_steps >= v(g) - 2 it means g is in no iterate at all.

    Exactness.  Suppose a step s_i of that sequence s is not least in its
    orbit: an automorphism a of its iterate sends s_i to some u < s_i.  Both
    blowups put the new copies on the same fresh ids, so a, fixing those, is
    an isomorphism of the two children, and of the iterates of every
    continuation, each later step mapped through it.  The sequence with u
    for s_i and the later steps mapped is then as long, lexicographically
    smaller, and its iterate contains g: a contradiction.  So s survives the
    pruning, and every sequence tested before it misses g.

    Depth bound (r >= 2).  An iterate is the leaf set of a tree: f is a
    node with v(f) children labelled by its vertices, and a step turns a
    leaf into such a node.  By induction on :func:`.hypergraph.blowup_F`, an
    r-set of leaves is an edge iff, at its deepest common node, it lies in
    r distinct children whose labels form an f-edge.  Call the leaves of a
    copy of g used.  Turning a node that holds no used leaf into a leaf, or
    replacing a node whose used leaves lie in one child c by c under its
    label, keeps the edges among used leaves.  Once neither applies and
    v(g) >= 2, every node has 2 or more children holding used leaves: at most
    v(g) - 1 nodes, so at most v(g) - 2 steps, where the search stops.  For
    r = 1 this fails: three 1-edges need 2 steps over f = ({0, 1}, {{0}}).
    """
    if g.r != f.r:
        raise InvalidParameterError(f"uniformity mismatch: {g.r} vs {f.r}")
    if max_steps < 0:
        raise InvalidParameterError(f"max_steps must be >= 0, got {max_steps}")
    if g.r >= 2:
        max_steps = min(max_steps, max(g.n - 2, 0))
    frontier: list[tuple[Hypergraph, tuple[int, ...]]] = [(f, ())]
    for depth in range(max_steps + 1):
        for iterate, steps in frontier:
            emb = contains_copy(iterate, g)
            if emb is not None:
                return BlowupCertificate(steps=steps, embedding=emb)
        if depth == max_steps:
            break
        frontier = [
            (blowup_F(iterate, v, f), steps + (v,))
            for iterate, steps in frontier
            for v, low in enumerate(_orbits(iterate))
            if low == v
        ]
    return None
