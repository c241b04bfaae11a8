"""Independent output checks for the benchmark.

Nothing here imports the library.  Hypergraphs are plain ``(n, edges)``
pairs with edges as sorted vertex tuples, so a defect in the library's
constructor, parser, search kernels or random streams cannot hide itself by
also corrupting the check.  Every function is written for the small inputs
the workloads generate, not for speed.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction


# --- files -----------------------------------------------------------------

def format_hg(r: int, n: int, edges) -> str:
    lines = [f"{r} {n}"] + [" ".join(map(str, e)) for e in sorted(edges)]
    return "\n".join(lines) + "\n"


def parse_hg(text: str):
    """(r, n, edges) from .hg text; raises ValueError on anything malformed."""
    rows = [ln.split() for ln in text.splitlines()]
    rows = [row for row in rows if row and not row[0].startswith("#")]
    r, n = (int(x) for x in rows[0])
    edges = [tuple(int(x) for x in row) for row in rows[1:]]
    for e in edges:
        if len(e) != r or len(set(e)) != r or min(e) < 0 or max(e) >= n:
            raise ValueError(f"bad edge {e}")
    return r, n, edges


# --- seeded streams (re-implemented from the documented contract) ----------

def substream(seed: int, kind: str, index: int) -> random.Random:
    digest = hashlib.sha256(f"{seed}|{kind}|{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def fisher_yates(items, rng: random.Random) -> list:
    a = list(items)
    for i in range(len(a) - 1, 0, -1):
        j = rng.randrange(i + 1)
        a[i], a[j] = a[j], a[i]
    return a


def sample_subset(rng: random.Random, n: int, w: int) -> tuple:
    pool = list(range(n))
    for i in range(w):
        j = rng.randrange(i, n)
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(sorted(pool[:w]))


# --- constructions, re-derived from their certificates ----------------------

def coloring_certificate(seed: int, n: int, ell: int, target_n: int) -> dict:
    """The pair-coloring certificate the documented substreams must produce."""
    pairs = n * (n - 1) // 2
    beta = [substream(seed, "pair-color", i).randrange(ell) for i in range(pairs)]
    gammas = []
    for t in range(ell):
        rng = substream(seed, "color-map", t)
        gammas.append([rng.randrange(target_n) for _ in range(n)])
    return {"ell": ell, "beta": beta, "gammas": gammas}


def derive_coloring(cert: dict, f_edges, r: int) -> list:
    """Edges of the pair-coloring construction: monochromatic r-sets whose
    image under that color's vertex map is an edge of F."""
    gammas, beta = cert["gammas"], cert["beta"]
    n = len(gammas[0])
    color = {}
    for idx, pair in enumerate(itertools.combinations(range(n), 2)):
        color[pair] = beta[idx]
    f_set = set(f_edges)
    out = []
    for x in itertools.combinations(range(n), r):
        colors = {color[p] for p in itertools.combinations(x, 2)}
        if len(colors) != 1:
            continue
        gamma = gammas[colors.pop()]
        image = tuple(sorted(gamma[v] for v in x))
        if len(set(image)) == r and image in f_set:
            out.append(x)
    return out


def labeling_certificate(seed: int, n: int, k: int, targets) -> list:
    """The k-set labels [(S, images)] the documented substreams must produce;
    ``targets`` are F's k-shadow sets in lexicographic order."""
    labels = []
    for i, s in enumerate(itertools.combinations(range(n), k)):
        target = targets[substream(seed, "kset-target", i).randrange(len(targets))]
        images = fisher_yates(target, substream(seed, "kset-bijection", i))
        labels.append((s, tuple(images)))
    return labels


def derive_labeling(labels, n: int, f_edges, r: int, k: int) -> list:
    """Edges of the labeling construction: r-sets on which the k-set
    bijections glue into one injection onto an edge of F."""
    by_set = {tuple(s): tuple(img) for s, img in labels}
    f_set = set(f_edges)
    out = []
    for x in itertools.combinations(range(n), r):
        glued = {}
        ok = True
        for s in itertools.combinations(x, k):
            for v, img in zip(s, by_set[s]):
                if glued.setdefault(v, img) != img:
                    ok = False
            if not ok:
                break
        if not ok or len(set(glued.values())) != r:
            continue
        if tuple(sorted(glued.values())) in f_set:
            out.append(x)
    return out


def shadow_sets(edges, k: int) -> list:
    return sorted({s for e in edges for s in itertools.combinations(e, k)})


# --- embeddings and freeness -------------------------------------------------

def is_embedding(p_edges, p_n: int, host_edges, host_n: int, images) -> bool:
    images = list(images)
    if len(images) != p_n or len(set(images)) != p_n:
        return False
    if any(not 0 <= u < host_n for u in images):
        return False
    host = set(host_edges)
    return all(tuple(sorted(images[v] for v in e)) in host for e in p_edges)


def has_copy(p_edges, p_n: int, host_edges, host_n: int) -> bool:
    """Plain backtracking over pattern vertices 0..p_n-1 in index order."""
    host = set(host_edges)
    images: list = []

    def ok_so_far() -> bool:
        depth = len(images)
        for e in p_edges:
            if max(e) == depth - 1:
                if tuple(sorted(images[v] for v in e)) not in host:
                    return False
        return True

    def rec() -> bool:
        if len(images) == p_n:
            return True
        for u in range(host_n):
            if u in images:
                continue
            images.append(u)
            if ok_so_far() and rec():
                return True
            images.pop()
        return False

    return rec()


def links(edges) -> dict:
    """pair -> set of vertices completing it to an edge (3-graphs)."""
    out: dict = {}
    for a, b, c in edges:
        out.setdefault((a, b), set()).add(c)
        out.setdefault((a, c), set()).add(b)
        out.setdefault((b, c), set()).add(a)
    return out


def k4_copies(edges) -> list:
    """Vertex sets of all copies of K^3_4 in a 3-graph, as sorted 4-tuples."""
    link = links(edges)
    found = set()
    for a, b, c in edges:
        for d in link[(a, b)] & link.get((a, c), set()) & link.get((b, c), set()):
            found.add(tuple(sorted((a, b, c, d))))
    return sorted(found)


def has_c5_minus(edges) -> bool:
    """Does a 3-graph contain the tight 5-cycle minus one edge, i.e. five
    distinct vertices with {0,1,2}, {1,2,3}, {2,3,4}, {0,3,4} all edges?"""
    link = links(edges)
    edge_set = set(edges)
    for e in edges:
        for v0, v1, v2 in itertools.permutations(e):
            for v3 in link.get(tuple(sorted((v1, v2))), ()):
                if v3 == v0:
                    continue
                for v4 in link.get(tuple(sorted((v2, v3))), ()):
                    if v4 in (v0, v1):
                        continue
                    if tuple(sorted((v0, v3, v4))) in edge_set:
                        return True
    return False


# --- maximum pattern-free subsets as minimum hitting sets --------------------

def _min_hitting(copies, allowed_mask: int, bound: int):
    """Smallest number of vertices from ``allowed_mask`` that meets every
    copy (bitmask), or None if that needs ``bound`` or more vertices."""
    best = [bound]

    def rec(remaining, size):
        if size >= best[0]:
            return
        if not remaining:
            best[0] = size
            return
        pick = min(remaining, key=lambda c: bin(c & allowed_mask).count("1"))
        choices = pick & allowed_mask
        while choices:
            low = choices & -choices
            choices ^= low
            rec([c for c in remaining if not c & low], size + 1)

    rec(list(copies), 0)
    return best[0] if best[0] < bound else None


def max_free_subset(n: int, copy_sets) -> tuple[int, tuple]:
    """Size and lexicographically least witness of a largest vertex subset
    containing no set in ``copy_sets`` entirely."""
    copies = [sum(1 << v for v in c) for c in copy_sets]
    full = (1 << n) - 1
    tau = _min_hitting(copies, full, n + 1)
    inside = 0   # vertices already committed to the free subset
    for v in range(n):
        trial = inside | (1 << v)
        if _min_hitting(copies, full & ~trial, tau + 1) == tau:
            inside = trial
    witness = tuple(v for v in range(n) if inside >> v & 1)
    return n - tau, witness


# --- homomorphisms and shadow-homomorphisms ---------------------------------

def is_hom(g_edges, g_n: int, f_edges, images, r: int) -> bool:
    if len(images) != g_n:
        return False
    f_set = set(f_edges)
    for e in g_edges:
        img = tuple(sorted(images[v] for v in e))
        if len(set(img)) != r or img not in f_set:
            return False
    return True


def has_hom(g_edges, g_n: int, f_edges, f_n: int, r: int) -> bool:
    if g_n == 0:
        return True
    f_set = set(f_edges)
    images: list = []

    def rec() -> bool:
        depth = len(images)
        if depth == g_n:
            return True
        for u in range(f_n):
            images.append(u)
            good = all(
                len(set(img)) == r and tuple(sorted(img)) in f_set
                for img in ([images[v] for v in e] for e in g_edges if max(e) == depth)
            )
            if good and rec():
                return True
            images.pop()
        return False

    return f_n > 0 and rec()


def has_shadow_hom(g_edges, f_edges, k: int) -> bool:
    """Per-edge injections onto edges of F agreeing on every intersection of
    at least k vertices.  Edges constrain each other only within a component
    of the "shares >= k vertices" graph, so each component is searched on
    its own, by plain backtracking in breadth-first order."""
    if not g_edges:
        return True
    if not f_edges:
        return False
    m = len(g_edges)
    sets = [set(e) for e in g_edges]
    near = [[j for j in range(m) if j != i and len(sets[i] & sets[j]) >= k] for i in range(m)]
    cands = [perm for e in f_edges for perm in itertools.permutations(e)]
    maps: dict = {}

    def solve(comp, depth) -> bool:
        if depth == len(comp):
            return True
        i = comp[depth]
        for img in cands:
            m_i = dict(zip(g_edges[i], img))
            if all(
                m_i[v] == maps[j][v]
                for j in near[i] if j in maps
                for v in sets[i] & sets[j]
            ):
                maps[i] = m_i
                if solve(comp, depth + 1):
                    return True
                del maps[i]
        return False

    seen = [False] * m
    for root in range(m):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        for i in comp:
            for j in near[i]:
                if not seen[j]:
                    seen[j] = True
                    comp.append(j)
        if not solve(comp, 0):
            return False
    return True


def check_shadow_hom_witness(g_edges, f_edges, r: int, k: int, witness: dict) -> bool:
    """Re-check a shadow-homomorphism certificate given as the library's
    witness fields: k, shadow_map [(S, images)], edge_map [(e, images)]."""
    if witness["k"] != k:
        return False
    shadow_map = {tuple(s): tuple(img) for s, img in witness["shadow_map"]}
    edge_map = {tuple(e): tuple(img) for e, img in witness["edge_map"]}
    if set(shadow_map) != set(shadow_sets(g_edges, k)) or set(edge_map) != set(g_edges):
        return False
    f_set = set(f_edges)
    f_ksets = set(shadow_sets(f_edges, k))
    for s, img in shadow_map.items():
        if len(img) != k or len(set(img)) != k or tuple(sorted(img)) not in f_ksets:
            return False
    for e, img in edge_map.items():
        if len(img) != r or len(set(img)) != r or tuple(sorted(img)) not in f_set:
            return False
        for pos in itertools.combinations(range(r), k):
            if shadow_map[tuple(e[p] for p in pos)] != tuple(img[p] for p in pos):
                return False
    return True


# --- exponents ---------------------------------------------------------------

def density_max(edges, offset: int) -> Fraction:
    """max (e' + offset)/(v' - 1) over vertex subsets of the 2-shadow."""
    sh = shadow_sets(edges, 2)
    pool = sorted({v for e in sh for v in e})
    best = None
    for size in range(2, len(pool) + 1):
        for subset in itertools.combinations(pool, size):
            inside = set(subset)
            chosen = [e for e in sh if inside.issuperset(e)]
            if not chosen:
                continue
            covered = {v for e in chosen for v in e}
            value = Fraction(len(chosen) + offset, len(covered) - 1)
            if best is None or value > best:
                best = value
    return best


def check_density_witness(edges, offset: int, value: Fraction, vertices, w_edges) -> bool:
    sh = set(shadow_sets(edges, 2))
    w_edges = [tuple(e) for e in w_edges]
    inside = set(vertices)
    if not w_edges or any(e not in sh for e in w_edges):
        return False
    if {v for e in w_edges for v in e} != inside:
        return False
    if set(w_edges) != {e for e in sh if inside.issuperset(e)}:
        return False
    return Fraction(len(w_edges) + offset, len(inside) - 1) == value


# --- isomorphism and blowups -------------------------------------------------

def isomorphic(n: int, a_edges, b_edges) -> bool:
    """Backtracking bijection search with degree filtering."""
    if len(a_edges) != len(b_edges):
        return False
    deg_a, deg_b = [0] * n, [0] * n
    for e in a_edges:
        for v in e:
            deg_a[v] += 1
    for e in b_edges:
        for v in e:
            deg_b[v] += 1
    if sorted(deg_a) != sorted(deg_b):
        return False
    return is_embedding_search(n, a_edges, b_edges, deg_a, deg_b)


def is_embedding_search(n, a_edges, b_edges, deg_a, deg_b) -> bool:
    b_set = set(b_edges)
    images: list = []
    used = set()

    def rec() -> bool:
        depth = len(images)
        if depth == n:
            return True
        for u in range(n):
            if u in used or deg_b[u] != deg_a[depth]:
                continue
            images.append(u)
            used.add(u)
            good = all(
                tuple(sorted(images[v] for v in e)) in b_set
                for e in a_edges
                if max(e) == depth
            )
            if good and rec():
                return True
            used.discard(u)
            images.pop()
        return False

    return rec()


def blowup(n: int, edges, v: int, f_n: int, f_edges):
    """One pattern-placing blowup step: v gets f_n - 1 non-adjacent copies
    (ids n, n+1, ...) inheriting its edges, then F is placed on v and the
    copies with v playing F's vertex 0."""
    out = set(edges)
    copies = list(range(n, n + f_n - 1))
    for c in copies:
        for e in edges:
            if v in e:
                out.add(tuple(sorted([u for u in e if u != v] + [c])))
    role = [v] + copies
    for e in f_edges:
        out.add(tuple(sorted(role[u] for u in e)))
    return n + f_n - 1, sorted(out)


def replay_blowups(f_n: int, f_edges, steps):
    n, edges = f_n, sorted(f_edges)
    for v in steps:
        n, edges = blowup(n, edges, v, f_n, f_edges)
    return n, edges
