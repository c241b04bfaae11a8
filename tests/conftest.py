"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's search code: embedding
counts sweep raw permutations, homomorphism existence sweeps all vertex maps,
canonical forms minimize over all relabelings, automorphism orbits take the
least image over all permutations, shadow-homomorphism existence sweeps
per-edge assignment products, shadow-homomorphism certificates are checked
against the definition written out, density exponents sweep every edge subset
and every vertex subset of a pair shadow built here, maximum pattern-free
subsets sweep vertex subsets as bitmasks, blowup membership replays every
step sequence, and the embedding kernel's placement order is recomputed from
its documented key at every step.  Library results are checked against these
on instances small enough to enumerate.  The seeded streams of the
constructions are re-derived from README's contract with hashlib and the
standard library's random.Random.  From the library this file imports only
Hypergraph, build_complete and build_h.
"""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from erdosrogers import Hypergraph, build_complete, build_h


@pytest.fixture
def k33():
    return build_complete(3, 3)


@pytest.fixture
def k34():
    return build_complete(3, 4)


@pytest.fixture
def h32():
    return build_h(3, 2)


@pytest.fixture
def h33():
    return build_h(3, 3)


def tight_c5_minus_edge() -> Hypergraph:
    # Tight 5-cycle with one edge removed: 2-shadow-homomorphic to the single
    # triple but not homomorphic to it.
    return Hypergraph(3, 5, ((0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4)))


def tight_cycle(r: int, n: int) -> Hypergraph:
    """Edges {i, i+1, ..., i+r-1} mod n: the tight cycle (for r = 2 the cycle)."""
    edges = {tuple(sorted((i + j) % n for j in range(r))) for i in range(n)}
    return Hypergraph(r, n, tuple(sorted(edges)))


@pytest.fixture
def tc5_gap():
    return tight_c5_minus_edge()


def random_hypergraph(
    rng: random.Random, r: int, n: int, p: float = 0.35, ensure_edge: bool = False
) -> Hypergraph:
    rsets = list(itertools.combinations(range(n), r))
    edges = [e for e in rsets if rng.random() < p]
    if ensure_edge and not edges:
        edges = [rsets[rng.randrange(len(rsets))]]
    return Hypergraph(r, n, tuple(edges))


def oracle_embedding_count(pattern: Hypergraph, host: Hypergraph) -> int:
    count = 0
    for perm in itertools.permutations(range(host.n), pattern.n):
        if all(
            tuple(sorted(perm[v] for v in e)) in host.edge_set
            for e in pattern.edges
        ):
            count += 1
    return count


def oracle_has_hom(g: Hypergraph, f: Hypergraph) -> bool:
    if g.n == 0:
        return True
    if f.n == 0:
        return False
    for assign in itertools.product(range(f.n), repeat=g.n):
        ok = True
        for e in g.edges:
            img = sorted(assign[v] for v in e)
            if len(set(img)) != g.r or tuple(img) not in f.edge_set:
                ok = False
                break
        if ok:
            return True
    return False


def oracle_canonical(h: Hypergraph) -> tuple:
    best = None
    for perm in itertools.permutations(range(h.n)):
        relabeled = tuple(
            sorted(tuple(sorted(perm[v] for v in e)) for e in h.edges)
        )
        if best is None or relabeled < best:
            best = relabeled
    return best


def oracle_has_shadow_hom(g: Hypergraph, f: Hypergraph, k: int) -> bool:
    """Sweep all per-edge injections onto edges of f; feasible iff some
    combination agrees pointwise on every pairwise intersection of size >= k.
    Exponential; keep the instances tiny."""
    if not g.edges:
        return True
    if not f.edges:
        return False
    maps_per_edge = []
    for e in g.edges:
        cands = []
        for target in f.edges:
            for perm in itertools.permutations(target):
                cands.append(dict(zip(e, perm)))
        maps_per_edge.append(cands)
    pairs = [
        (i, j, set(g.edges[i]) & set(g.edges[j]))
        for i in range(len(g.edges))
        for j in range(i + 1, len(g.edges))
        if len(set(g.edges[i]) & set(g.edges[j])) >= k
    ]
    for combo in itertools.product(*maps_per_edge):
        if all(
            all(combo[i][v] == combo[j][v] for v in inter) for i, j, inter in pairs
        ):
            return True
    return False


def oracle_shadow_hom_witness(g: Hypergraph, f: Hypergraph, k: int, w) -> bool:
    """The definition of a k-shadow-homomorphism certificate, clause by
    clause: one map per k-set of an edge of g, each injective onto a k-subset
    of an edge of f; one map per edge of g, each a bijection onto an edge of
    f that restricts to the k-set maps; and, for k = r - 1, pairwise distinct
    targets for any three edges pairwise meeting in r - 1 vertices with
    r - 2 in common."""
    f_edges = [set(e) for e in f.edges]
    ksets = sorted({s for e in g.edges for s in itertools.combinations(e, k)})
    if w.k != k or sorted(tuple(sm.source) for sm in w.shadow_map) != ksets:
        return False
    kmap = {}
    for sm in w.shadow_map:
        img = tuple(sm.images)
        if len(img) != k or len(set(img)) != k:
            return False
        if not any(set(img) <= t for t in f_edges):
            return False
        kmap[tuple(sm.source)] = dict(zip(sm.source, img))
    if sorted(tuple(em.source) for em in w.edge_map) != sorted(g.edges):
        return False
    target = {}
    for em in w.edge_map:
        img = tuple(em.images)
        if len(img) != g.r or set(img) not in f_edges:
            return False
        phi = dict(zip(em.source, img))
        for s in itertools.combinations(em.source, k):
            if any(phi[v] != kmap[s][v] for v in s):
                return False
        target[tuple(em.source)] = frozenset(img)
    if k == g.r - 1:
        for e1, e2, e3 in itertools.combinations(g.edges, 3):
            a, b, c = set(e1), set(e2), set(e3)
            if len(a & b) == len(a & c) == len(b & c) == k and len(a & b & c) == k - 1:
                if len({target[e1], target[e2], target[e3]}) < 3:
                    return False
    return True


SUBSET_ORACLE_CAP = 20


def oracle_max_density(f: Hypergraph, offset: int) -> Fraction:
    """max (e' + offset) / (v' - 1) over every nonempty edge subset of the
    pair shadow of f, v' counting the vertices the subset covers."""
    pairs = sorted({p for e in f.edges for p in itertools.combinations(e, 2)})
    if not pairs or len(pairs) > SUBSET_ORACLE_CAP:
        raise ValueError(f"subset oracle needs 1..{SUBSET_ORACLE_CAP} shadow edges")
    best = None
    for mask in range(1, 1 << len(pairs)):
        chosen = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        covered = {v for e in chosen for v in e}
        value = Fraction(len(chosen) + offset, len(covered) - 1)
        if best is None or value > best:
            best = value
    return best


def oracle_vertex_subsets(f: Hypergraph) -> list:
    """(size, S, shadow edges inside S) for every vertex subset S of the
    pair shadow of f with no isolated vertex, by increasing size."""
    pairs = {p for e in f.edges for p in itertools.combinations(e, 2)}
    covered = sorted({v for p in pairs for v in p})
    found = []
    for size in range(2, len(covered) + 1):
        for s in itertools.combinations(covered, size):
            chosen = tuple(filter(pairs.__contains__, itertools.combinations(s, 2)))
            if len(set(itertools.chain.from_iterable(chosen))) == size:
                found.append((size, s, chosen))
    return found


def oracle_densest(subsets: list, offset: int) -> tuple:
    """Brute-force (value, witness vertices, witness edges) of
    max (e' + offset) / (v' - 1) over the vertex subsets S that
    oracle_vertex_subsets(f) lists, e' counting the shadow edges inside S:
    the maximum value, then the fewest vertices, then the least canonical
    form of the witness relabeled to 0..|S|-1, then the least edge list."""
    best, tied = None, []
    for size, s, chosen in subsets:
        value = Fraction(len(chosen) + offset, size - 1)
        if best is None or value > best:
            best, tied = value, [(s, chosen)]
        elif size == len(tied[0][0]) and value == best:
            tied.append((s, chosen))
    s, chosen = min(tied, key=oracle_tie_key) if len(tied) > 1 else tied[0]
    return best, s, chosen


def oracle_tie_key(witness: tuple) -> tuple:
    """The exponents' tie-break key of a witness (vertices, shadow edges):
    the canonical form of the witness relabeled to 0..|S|-1, then its edges."""
    s, chosen = witness
    relabel = {v: i for i, v in enumerate(s)}
    h = Hypergraph(2, len(s), tuple(tuple(relabel[v] for v in e) for e in chosen))
    return oracle_canonical(h), chosen


def relabeled(h: Hypergraph, perm) -> Hypergraph:
    return Hypergraph(
        h.r, h.n, tuple(tuple(perm[v] for v in e) for e in h.edges)
    )


def oracle_orbits(h: Hypergraph) -> list[int]:
    """For each vertex, its least image over all automorphisms, i.e. the
    least vertex of its orbit."""
    low = list(range(h.n))
    for perm in itertools.permutations(range(h.n)):
        if all(tuple(sorted(perm[v] for v in e)) in h.edge_set for e in h.edges):
            low = [min(a, b) for a, b in zip(low, perm)]
    return low


def oracle_maps(pattern: Hypergraph, host: Hypergraph):
    """Every injective edge-preserving map.  Pattern vertices are assigned
    most-connected-to-the-assigned first, each to a host vertex of at least
    its degree, and each edge is tested once its last vertex is assigned."""
    pdeg = [sum(v in e for e in pattern.edges) for v in range(pattern.n)]
    hdeg = [sum(v in e for e in host.edges) for v in range(host.n)]
    order: list[int] = []
    while len(order) < pattern.n:
        placed = set(order)
        order.append(max(
            (v for v in range(pattern.n) if v not in placed),
            key=lambda v: (
                sum(v in e and not placed.isdisjoint(e) for e in pattern.edges),
                pdeg[v],
            ),
        ))
    due = {v: [] for v in order}
    for e in pattern.edges:
        due[max(e, key=order.index)].append(e)
    images = [-1] * pattern.n
    used: set[int] = set()

    def extend(i):
        if i == pattern.n:
            yield tuple(images)
            return
        v = order[i]
        for c in range(host.n):
            if c in used or hdeg[c] < pdeg[v]:
                continue
            images[v] = c
            if all(tuple(sorted(images[u] for u in e)) in host.edge_set for e in due[v]):
                used.add(c)
                yield from extend(i + 1)
                used.discard(c)
        images[v] = -1

    return extend(0)


def oracle_placement(pattern: Hypergraph):
    """The embedding kernel's documented plan, recomputed at every step.

    Next comes the unplaced vertex of largest key (completes, link, degree,
    -v): the number of edges through it whose other vertices are all placed,
    of placed vertices sharing an edge with it, its degree and its negated
    id.  Returns (order, checks, nbrs): checks[d] holds, in edge order, the
    other vertices of each edge that order[d] completes; nbrs[d] is the set
    of the vertices placed before order[d] that share an edge with it but no
    edge it completes.
    """
    others = [
        [tuple(u for u in e if u != v) for e in pattern.edges if v in e]
        for v in range(pattern.n)
    ]
    near = [{u for o in others[v] for u in o} for v in range(pattern.n)]
    placed: set[int] = set()
    order, checks, nbrs = [], [], []
    while len(order) < pattern.n:
        v = max(
            (v for v in range(pattern.n) if v not in placed),
            key=lambda v: (
                sum(placed.issuperset(o) for o in others[v]),
                len(near[v] & placed),
                len(others[v]),
                -v,
            ),
        )
        done = [o for o in others[v] if placed.issuperset(o)]
        order.append(v)
        checks.append(done)
        nbrs.append(near[v] & placed - {u for o in done for u in o})
        placed.add(v)
    return order, checks, nbrs


def oracle_max_f_free(h: Hypergraph, f: Hypergraph) -> int:
    """Largest vertex subset of h holding no copy of f: the copies' vertex
    sets as bitmasks, then every subset, each bad when it is a copy's set or
    a one-vertex extension of a bad subset."""
    bad = bytearray(1 << h.n)
    for img in oracle_maps(f, h):
        bad[sum(1 << v for v in img)] = 1
    best = 0
    for w in range(1 << h.n):
        if not bad[w] and any(bad[w ^ 1 << v] for v in range(h.n) if w >> v & 1):
            bad[w] = 1
        if not bad[w]:
            best = max(best, bin(w).count("1"))
    return best


def oracle_blowup(h: Hypergraph, v: int, f: Hypergraph) -> Hypergraph:
    """v gets f.n - 1 non-adjacent copies, each in copies of v's edges, and f
    is placed with v as f's vertex 0 and the copies, in order, as the rest."""
    role = [v] + list(range(h.n, h.n + f.n - 1))
    edges = set(h.edges)
    for e in h.edges:
        if v in e:
            for c in role[1:]:
                edges.add(tuple(sorted(c if u == v else u for u in e)))
    edges.update(tuple(sorted(role[u] for u in e)) for e in f.edges)
    return Hypergraph(h.r, h.n + f.n - 1, tuple(sorted(edges)))


def oracle_blowup_member(g: Hypergraph, f: Hypergraph, max_steps: int):
    """Unpruned breadth-first search: the first step sequence, shortest
    first and lexicographically within a length, whose replayed iterate
    holds a copy of g, with that iterate; None within max_steps."""
    for depth in range(max_steps + 1):
        ranges = [range(f.n + i * (f.n - 1)) for i in range(depth)]
        for steps in itertools.product(*ranges):
            host = f
            for v in steps:
                host = oracle_blowup(host, v, f)
            if next(oracle_maps(g, host), None) is not None:
                return steps, host
    return None


def oracle_substream(seed: int, kind: str, index: int) -> random.Random:
    """README's substream: the first 8 bytes of SHA-256("seed|kind|index"),
    big-endian, seeding the standard library's Mersenne Twister."""
    key = hashlib.sha256(f"{seed}|{kind}|{index}".encode()).digest()
    return random.Random(int.from_bytes(key[:8], "big"))


def oracle_fisher_yates(items, rng: random.Random) -> list:
    a = list(items)
    for i in range(len(a) - 1, 0, -1):
        j = rng.randrange(i + 1)
        a[i], a[j] = a[j], a[i]
    return a


def oracle_sample_sorted(rng: random.Random, n: int, w: int) -> tuple:
    """The first w places of a partial Fisher-Yates shuffle of range(n), sorted."""
    pool = list(range(n))
    for i in range(w):
        j = rng.randrange(i, n)
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(sorted(pool[:w]))


def oracle_coloring(seed: int, n: int, ell: int, target_n: int) -> tuple:
    """(beta, gammas) of the pair coloring: one substream per vertex pair and
    one per color."""
    pairs = n * (n - 1) // 2
    beta = tuple(oracle_substream(seed, "pair-color", i).randrange(ell) for i in range(pairs))
    gammas = []
    for t in range(ell):
        rng = oracle_substream(seed, "color-map", t)
        gammas.append(tuple(rng.randrange(target_n) for _ in range(n)))
    return beta, tuple(gammas)


def oracle_labeling(seed: int, n: int, k: int, f: Hypergraph) -> list:
    """[(S, images)] of the k-set labeling: per k-set S, a target drawn from
    the sorted k-subsets of f's edges, then a shuffle of it."""
    targets = sorted({c for e in f.edges for c in itertools.combinations(e, k)})
    labels = []
    for i, s in enumerate(itertools.combinations(range(n), k)):
        target = targets[oracle_substream(seed, "kset-target", i).randrange(len(targets))]
        images = oracle_fisher_yates(target, oracle_substream(seed, "kset-bijection", i))
        labels.append((s, tuple(images)))
    return labels
