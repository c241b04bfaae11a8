"""Executable randomized constructions with deterministic verifiers.

Two seed-reproducible constructions of pattern-rich, probe-free hypergraphs
keep an r-set as an edge iff the maps on its k-subsets glue into one
injection onto an edge of F:

* :func:`construct_coloring` is the case k = 2 where the map of each vertex
  pair is its color t's vertex map gamma_t, tagged by t.  The output provably
  contains no 2-tightly-connected G that is not homomorphic to F, for every seed.

* :func:`construct_shadow_labeling` gives every k-subset an untagged uniform
  bijection onto a k-subset of an F-edge.  The output provably contains no G
  that is not k-shadow-homomorphic to F, for every seed.

Both return a full certificate; both are pure functions of (inputs, seed).
G-freeness of an output is checked exhaustively by
:func:`.isomorphism.contains_copy`.  The module also hosts a Monte-Carlo
estimator of how often small vertex subsets contain F, and the
supersaturation steps (richest extension, blowup copy extraction).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import CapacityError, InvalidParameterError
from .hypergraph import Hypergraph, blowup_F, induced, shadow
from .isomorphism import Embedding, _copy_masks, contains_copy, iter_embeddings
from .morphisms import SetMap
from .randomness import below, sample_sorted, shuffled, substream

EXHAUSTIVE_COVER_CAP = 10**6


@dataclass(frozen=True)
class ConstructionParams:
    """Tunable constants and the seed for the randomized constructions.

    c1 scales the color count ell = max(1, round(c1 * ln n)), at most C(n, 2).
    """

    c1: Fraction = Fraction(1)
    seed: int = 0

    def num_colors(self, n: int) -> int:
        if self.c1 <= 0:
            raise InvalidParameterError("c1 must be positive")
        try:
            scaled = float(self.c1) * math.log(n)
        except OverflowError:
            raise InvalidParameterError("c1 is too large to be a float") from None
        ell = max(1, round(scaled)) if math.isfinite(scaled) else math.inf
        if ell > math.comb(n, 2):
            raise CapacityError(f"c1 = {float(self.c1):g} gives over C({n}, 2) colors")
        return ell


@dataclass(frozen=True)
class PairColoring:
    """Certificate of the pair-coloring construction.

    beta[i] is the color of the i-th vertex pair in lexicographic order;
    gammas[t][v] is the F-vertex assigned to v under color t.
    """

    ell: int
    beta: tuple[int, ...]
    gammas: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ShadowLabeling:
    """Certificate of the k-set labeling construction: one SetMap per k-subset
    of the vertex set, in lexicographic order."""

    k: int
    labels: tuple[SetMap, ...]


@dataclass(frozen=True)
class CoverEstimate:
    fraction: float
    half_width: float
    hits: int
    trials: int
    exhaustive: bool = False


@dataclass(frozen=True)
class RichExtension:
    """A copy of G minus one vertex plus every host vertex completing it.

    base maps the remaining vertices of G (in increasing original order,
    relabeled 0..v(G)-2) into the host; extenders lists each host vertex u
    such that adding v -> u yields a full embedding of G.
    """

    base: Embedding
    extenders: tuple[int, ...]


def construct_coloring(
    n: int, f: Hypergraph, params: ConstructionParams
) -> tuple[Hypergraph, PairColoring]:
    """Sample the pair-coloring construction on n vertices from params.seed."""
    if f.r < 3:
        raise InvalidParameterError(f"pattern uniformity must be >= 3, got {f.r}")
    if not f.edges:
        raise InvalidParameterError("pattern must have at least one edge")
    if n < f.n:
        raise InvalidParameterError(f"need n >= {f.n}, got {n}")
    ell = params.num_colors(n)
    beta = tuple(
        below(substream(params.seed, "pair-color", i), ell)
        for i in range(math.comb(n, 2))
    )
    gammas = tuple(_sample_color_map(params.seed, t, n, f.n) for t in range(ell))
    cert = PairColoring(ell=ell, beta=beta, gammas=gammas)
    pairs = itertools.combinations(range(n), 2)
    labels = [(t, (gammas[t][u], gammas[t][v])) for (u, v), t in zip(pairs, beta)]
    return Hypergraph(f.r, n, _glued_edges(n, f, 2, labels)), cert


def _sample_color_map(seed: int, t: int, n: int, target_size: int) -> tuple[int, ...]:
    rng = substream(seed, "color-map", t)
    return tuple(below(rng, target_size) for _ in range(n))


def construct_shadow_labeling(
    n: int, f: Hypergraph, k: int, params: ConstructionParams
) -> tuple[Hypergraph, ShadowLabeling]:
    """Sample the k-set labeling construction on n vertices from params.seed."""
    if k < 2 or k >= f.r:
        raise InvalidParameterError(f"need r > k >= 2, got k={k}, r={f.r}")
    if not f.edges:
        raise InvalidParameterError("pattern must have at least one edge")
    if n < f.n:
        raise InvalidParameterError(f"need n >= {f.n}, got {n}")
    targets = shadow(f, k).edges
    labels = []
    for i, s in enumerate(itertools.combinations(range(n), k)):
        target = targets[below(substream(params.seed, "kset-target", i), len(targets))]
        images = tuple(shuffled(target, substream(params.seed, "kset-bijection", i)))
        labels.append(SetMap(source=s, images=images))
    cert = ShadowLabeling(k=k, labels=tuple(labels))
    edges = _glued_edges(n, f, k, [(None, sm.images) for sm in labels])
    return Hypergraph(f.r, n, edges), cert


def _glued_edges(n: int, f: Hypergraph, k: int, labels: list) -> list[tuple[int, ...]]:
    """The r-sets whose k-subsets carry one tag and maps that glue into one
    injection onto an edge of F, unsorted.  labels[i] = (tag, images) maps the
    i-th k-set S of range(n), in lexicographic order, by S[j] -> images[j];
    images is a tuple.

    Every prefix of an edge obeys the rule with its image inside an F-edge, so
    an edge grows from its first k vertices by one larger v -> a at a time,
    adding exactly the k-sets Q + v, Q a (k-1)-subset of the prefix.  Per Q,
    the index holds the bitmask of each v for which Q + v has the prefix's tag
    and images (glued(Q), a): the pools' intersection loses no edge and scans
    no r-set.  A k-set starts a prefix when its images are an ordered k-tuple
    inside an F-edge, and the a that extend an image set inside an F-edge are
    found once per image set.
    """
    # Each ordered k-tuple inside an F-edge, with its bitmask.
    in_edge = {
        p: sum(1 << a for a in p) for e in f.edges for p in itertools.permutations(e, k)
    }
    edge_masks = [sum(1 << a for a in e) for e in f.edges]
    index: dict[tuple, int] = {}
    stack = []
    for s, (tag, images) in zip(itertools.combinations(range(n), k), labels):
        key = (s[:-1], images[:-1], tag, images[-1])
        index[key] = index.get(key, 0) | 1 << s[-1]
        if images in in_edge:
            stack.append((s, images, in_edge[images], tag))
    extensions: dict[int, list[int]] = {}
    edges = []
    while stack:
        verts, images, used, tag = stack.pop()
        if len(verts) == f.r:
            edges.append(verts)
            continue
        if used not in extensions:
            room = 0
            for e in edge_masks:
                if e & used == used:
                    room |= e
            extensions[used] = [a for a in range(f.n) if (room & ~used) >> a & 1]
        subs = list(
            zip(itertools.combinations(verts, k - 1), itertools.combinations(images, k - 1))
        )
        for a in extensions[used]:
            pool = -1
            for q, glued in subs:
                pool &= index.get((q, glued, tag, a), 0)
                if not pool:
                    break
            while pool:
                low = pool & -pool
                v = low.bit_length() - 1
                stack.append((verts + (v,), images + (a,), used | 1 << a, tag))
                pool ^= low
    return edges


def estimate_f_cover(
    h: Hypergraph,
    f: Hypergraph,
    w: int,
    trials: int,
    seed: int,
    exhaustive: bool = False,
) -> CoverEstimate:
    """Fraction of w-subsets W for which the induced subgraph contains f.

    Sampling mode draws `trials` uniform subsets from per-trial substreams of
    the seed and reports a 95% normal-approximation half-width.  Exhaustive
    mode sweeps all C(n, w) subsets (allowed up to 10^6) and is exact.

    W contains f iff w >= v(f) and some copy of f's core lies inside W, and
    such a copy's lowest vertex is in W.  So when the copy table of
    :func:`_copy_masks` can be listed in at most w steps per subset, it is
    listed once, its distinct vertex masks are grouped by lowest vertex, and
    each W reads only the groups of the vertices it holds.  Otherwise
    each W is searched on its own, with :func:`contains_copy` on its induced
    subgraph, which already costs more than w steps per subset.
    """
    if h.r != f.r:
        raise InvalidParameterError(f"uniformity mismatch: {h.r} vs {f.r}")
    if w > h.n or w < 0:
        raise InvalidParameterError(f"subset size must be in 0..{h.n}, got {w}")
    if exhaustive:
        trials = math.comb(h.n, w)
        if trials > EXHAUSTIVE_COVER_CAP:
            raise CapacityError(
                f"exhaustive mode limited to {EXHAUSTIVE_COVER_CAP} subsets, got {trials}"
            )
        subsets = itertools.combinations(range(h.n), w)
    elif trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    else:
        subsets = (
            sample_sorted(substream(seed, "cover-trial", t), h.n, w)
            for t in range(trials)
        )
    copies = _copy_masks(f, h, limit=trials * w) if w >= f.n else {}
    if copies is None:
        hits = sum(1 for s in subsets if contains_copy(induced(h, s), f) is not None)
    elif 0 in copies:  # edgeless f: every W of size >= v(f) holds it
        hits = trials
    else:
        by_low: list[list[int]] = [[] for _ in range(h.n)]
        for m in set(copies.values()):
            by_low[(m & -m).bit_length() - 1].append(m)
        hits = 0
        for s in subsets:
            out = ~sum(1 << v for v in s)
            hits += any(not m & out for v in s for m in by_low[v])
    p = hits / trials
    half = 0.0 if exhaustive else 1.96 * math.sqrt(p * (1.0 - p) / trials)
    return CoverEstimate(
        fraction=p, half_width=half, hits=hits, trials=trials, exhaustive=exhaustive
    )


def richest_extension(
    h: Hypergraph, g: Hypergraph, v: int, threshold: int
) -> Optional[RichExtension]:
    """The copy of g minus v with the most single-vertex completions in h.

    Enumerates embeddings of g with v deleted; for each, counts host vertices
    u whose addition as the image of v completes an embedding of g.  Returns
    the first maximizer (in search order) with all its extenders, provided
    the count reaches `threshold`.
    """
    if h.r != g.r:
        raise InvalidParameterError(f"uniformity mismatch: {h.r} vs {g.r}")
    if v < 0 or v >= g.n:
        raise InvalidParameterError(f"vertex {v} not in 0..{g.n - 1}")
    rest = [w for w in range(g.n) if w != v]
    rel = {w: i for i, w in enumerate(rest)}
    minor = induced(g, rest)
    # Base positions of the other vertices of each edge through v.
    others = [[rel[w] for w in e if w != v] for e in g.edges if v in e]
    links = h.links
    best_count = -1
    best: Optional[RichExtension] = None
    for emb in iter_embeddings(minor, h):
        cands = (1 << h.n) - 1
        for o in others:
            cands &= links.get(sum(1 << emb.images[i] for i in o), 0)
        cands &= ~sum(1 << u for u in emb.images)
        if cands.bit_count() > best_count:
            best_count = cands.bit_count()
            extenders = tuple(u for u in range(h.n) if cands >> u & 1)
            best = RichExtension(base=emb, extenders=extenders)
    if best is None or best_count < threshold:
        return None
    return best


def extract_blowup_copy(
    h: Hypergraph, f: Hypergraph, steps: list[int] | tuple[int, ...]
) -> Optional[Embedding]:
    """Locate a copy of the iterated blowup of f (along `steps`) inside h.

    Replays the supersaturation induction at desk scale: at every step vertex
    v, find the richest copy of the current target minus v, then look for a
    copy of f among its extenders; together they form a copy of the blown-up
    target.  Returns the embedding of the final iterate, or None at the first
    failing step.  With no steps this is just an f-copy search.
    """
    if h.r != f.r:
        raise InvalidParameterError(f"uniformity mismatch: {h.r} vs {f.r}")
    current = f
    result: Optional[Embedding] = None
    if not steps:
        return contains_copy(h, f)
    for v in steps:
        if v < 0 or v >= current.n:
            raise InvalidParameterError(
                f"step vertex {v} not in the current target 0..{current.n - 1}"
            )
        ext = richest_extension(h, current, v, threshold=f.n)
        if ext is None:
            return None
        sub = induced(h, ext.extenders)
        f_emb = contains_copy(sub, f)
        if f_emb is None:
            return None
        # blowup_F keeps v as f's vertex 0 and appends f's other vertices.
        images = list(ext.base.images)
        images.insert(v, ext.extenders[f_emb.images[0]])
        images += (ext.extenders[i] for i in f_emb.images[1:])
        current = blowup_F(current, v, f)
        result = Embedding(tuple(images))
    return result


def pair_coloring_from_json(obj: dict) -> PairColoring:
    return PairColoring(
        ell=int(obj["ell"]),
        beta=tuple(obj["beta"]),
        gammas=tuple(tuple(g) for g in obj["gammas"]),
    )


def shadow_labeling_from_json(obj: dict) -> ShadowLabeling:
    return ShadowLabeling(
        k=int(obj["k"]),
        labels=tuple(
            SetMap(source=tuple(entry["S"]), images=tuple(entry["g_S"]))
            for entry in obj["labels"]
        ),
    )
