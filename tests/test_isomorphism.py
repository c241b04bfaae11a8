"""Embedding search, counts, and canonical form against permutation oracles."""

import collections
import itertools
import random

import pytest

from erdosrogers import (
    CapacityError,
    Embedding,
    Hypergraph,
    InvalidParameterError,
    ShadowHomWitness,
    blowup_F,
    build_complete,
    build_h,
    canonical_form,
    contains_copy,
    count_embeddings,
    enumerate_g_free,
    estimate_f_cover,
    extract_blowup_copy,
    f_exact,
    find_homomorphism,
    find_shadow_homomorphism,
    is_embedding,
    is_isomorphic,
    is_sub_iterated_blowup,
    iter_embeddings,
    iterated_blowup,
    max_f_free_subset,
    richest_extension,
    verify_shadow_hom,
)
from erdosrogers.exponents import VERTEX_ENUM_CAP
from erdosrogers.isomorphism import (
    CANONICAL_CAP,
    _copy_masks,
    _min_edge_list,
    _orbits,
    _twin_classes,
    is_canonical,
)
from conftest import (
    oracle_canonical,
    oracle_embedding_count,
    oracle_orbits,
    random_hypergraph,
    relabeled,
    tight_cycle,
)


class TestContainsCopy:
    def test_clique_monotone(self, k34, k33):
        emb = contains_copy(k34, k33)
        assert emb is not None and is_embedding(k33, k34, emb)

    def test_self_copy_is_automorphism(self, h32, tc5_gap):
        for f in (h32, tc5_gap):
            emb = contains_copy(f, f)
            assert emb is not None
            assert is_embedding(f, f, emb)
            assert sorted(emb.images) == list(range(f.n))

    def test_large_matching_self_copy(self):
        # 1200 pattern vertices: deeper than the default recursion limit.
        m = Hypergraph(3, 1200, tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(400)))
        emb = contains_copy(m, m)
        assert emb is not None and is_embedding(m, m, emb)

    def test_too_few_edges(self, h32, k34):
        assert contains_copy(h32, k34) is None

    def test_uniformity_mismatch(self, k33):
        with pytest.raises(InvalidParameterError):
            contains_copy(k33, build_complete(2, 2))

    def test_presence_matches_count(self, k33):
        rng = random.Random(17)
        for _ in range(30):
            host = random_hypergraph(rng, 3, 7, p=0.3)
            pattern = random_hypergraph(rng, 3, rng.randint(3, 5), p=0.5)
            present = contains_copy(host, pattern) is not None
            assert present == (count_embeddings(pattern, host).embeddings > 0)


def twin_heavy_pattern(rng: random.Random, r: int) -> Hypergraph:
    """A random small pattern, mostly with large twin classes: complete, a
    depth-1 blowup iterate, with isolated vertices, edgeless, or plain random."""
    kind = rng.randrange(5)
    if kind == 0:
        return build_complete(r, rng.randint(r, min(r + 2, 6)))
    if kind == 1:
        base = build_complete(r, r) if rng.random() < 0.5 else build_h(r, rng.randint(1, r + 1))
        return iterated_blowup(base, (rng.randrange(base.n),))
    if kind == 2:
        core = random_hypergraph(rng, r, rng.randint(r, r + 1), p=0.6, ensure_edge=True)
        return Hypergraph(r, core.n + rng.randint(1, 2), core.edges)
    if kind == 3:
        return Hypergraph(r, rng.randint(0, 3), ())
    return random_hypergraph(rng, r, rng.randint(1, min(r + 2, 6)), p=0.6)


def brute_twin_classes(h: Hypergraph) -> list[int]:
    """For each vertex, the least vertex whose transposition with it maps the
    edge set onto itself."""
    def swaps(u, v):
        t = {u: v, v: u}
        return all(
            tuple(sorted(t.get(x, x) for x in e)) in h.edge_set for e in h.edges
        )

    return [next(u for u in range(v + 1) if swaps(u, v)) for v in range(h.n)]


class TestTwinRule:
    def test_twin_classes_match_transpositions(self):
        rng = random.Random(101)
        graphs = [twin_heavy_pattern(rng, r) for r in (1, 2, 3, 4) for _ in range(30)]
        graphs += [random_hypergraph(rng, r, 7, p=0.5) for r in (2, 3) for _ in range(20)]
        graphs.append(iterated_blowup(build_h(3, 3), (0, 4)))
        for h in graphs:
            assert _twin_classes(h) == brute_twin_classes(h)

    def test_witness_is_first_embedding(self):
        # contains_copy searches with twins broken, iter_embeddings without;
        # the first embedding must be the same.
        rng = random.Random(103)
        for i in range(300):
            r = (1, 2, 3, 4)[i % 4]
            pattern = twin_heavy_pattern(rng, r)
            host = random_hypergraph(
                rng, r, rng.randint(0, 8), p=rng.choice((0.3, 0.6, 0.9))
            )
            assert contains_copy(host, pattern) == next(
                iter_embeddings(pattern, host), None
            )


class TestOrbits:
    def test_matches_oracle(self):
        rng = random.Random(113)
        graphs = [twin_heavy_pattern(rng, r) for r in (2, 3) for _ in range(15)]
        graphs += [
            random_hypergraph(rng, r, rng.randint(1, 7), p=0.5) for r in (2, 3) for _ in range(10)
        ]
        k33 = build_complete(3, 3)
        graphs += [iterated_blowup(k33, (a, b)) for a in range(3) for b in range(5)]
        for h in graphs:
            assert _orbits(h) == oracle_orbits(h)

    def test_tight_cycle_is_one_orbit_without_twins(self):
        c5 = tight_cycle(3, 5)
        assert _twin_classes(c5) == [0, 1, 2, 3, 4]
        assert _orbits(c5) == [0] * 5


def oracle_copy_count(pattern: Hypergraph, host: Hypergraph) -> int:
    """Distinct (vertex set, edge set) images over all injective edge-preserving
    maps: two maps give the same one iff they differ by an automorphism."""
    images = set()
    for perm in itertools.permutations(range(host.n), pattern.n):
        mapped = frozenset(tuple(sorted(perm[v] for v in e)) for e in pattern.edges)
        if mapped <= host.edge_set:
            images.add((frozenset(perm), mapped))
    return len(images)


class TestCopyMasks:
    def test_against_permutations(self):
        # The vertex sets of all maps of f's non-isolated vertices into h.
        rng = random.Random(107)
        for i in range(60):
            r = (2, 3)[i % 2]
            f = twin_heavy_pattern(rng, r)
            h = random_hypergraph(rng, r, 7, p=0.5)
            core = sorted({v for e in f.edges for v in e})
            want = set()
            for perm in itertools.permutations(range(h.n), len(core)):
                img = dict(zip(core, perm))
                if all(tuple(sorted(img[v] for v in e)) in h.edge_set for e in f.edges):
                    want.add(sum(1 << v for v in perm))
            assert _copy_masks(f, h) == want

    def test_limit(self):
        # Two disjoint edges in K^3_6: per component, 20 host edges and 20
        # maps, then 1 * 20 and 20 * 20 pairs tried in the unions.
        f, h = Hypergraph(3, 6, ((0, 1, 2), (3, 4, 5))), build_complete(3, 6)
        assert _copy_masks(f, h, limit=500) == {0b111111}
        assert _copy_masks(f, h, limit=499) is None
        assert _copy_masks(build_complete(3, 3), h, limit=39) is None


class TestCountEmbeddings:
    @pytest.mark.parametrize(
        "pattern",
        [build_complete(3, 4), build_complete(3, 5), Hypergraph(3, 3, ()),
         Hypergraph(3, 0, ()), Hypergraph(2, 4, ())],
        ids=["K34", "K35", "edgeless3", "empty", "edgeless-r2"],
    )
    def test_twin_heavy_against_oracles(self, pattern):
        host = build_complete(pattern.r, 8) if pattern.edges else build_complete(pattern.r, 6)
        got = count_embeddings(pattern, host)
        assert got == (
            oracle_embedding_count(pattern, host),
            oracle_copy_count(pattern, host),
        )

    def test_triple_in_k34(self, k33, k34):
        assert count_embeddings(k33, k34) == (24, 4)

    def test_edgeless_host(self, k33):
        assert count_embeddings(k33, Hypergraph(3, 6, ())) == (0, 0)

    def test_self_count(self, k33):
        assert count_embeddings(k33, k33) == (6, 1)

    def test_against_permutation_oracle(self):
        rng = random.Random(23)
        for _ in range(25):
            host = random_hypergraph(rng, 3, 6, p=0.4)
            pattern = random_hypergraph(rng, 3, rng.randint(3, 4), p=0.5)
            got = count_embeddings(pattern, host)
            assert got.embeddings == oracle_embedding_count(pattern, host)
            aut = oracle_embedding_count(pattern, pattern)
            if got.embeddings:
                assert got.copies == got.embeddings // aut


@pytest.fixture(scope="module")
def oracle_cases():
    """(h, oracle_canonical(h)) on random r in {1, 2, 3, 4} hypergraphs with
    n <= 7 (the 3-graphs with p in {0.3, 0.5}, the shape of the benchmark's
    inputs), and on the blowup iterates of K^3_3 (depth <= 2) and H^3_3
    (depth 1) on at most 7 vertices, which are full of twins."""
    rng = random.Random(43)
    graphs = [
        random_hypergraph(rng, r, rng.randint(0, 7), p=rng.choice((0.2, 0.4, 0.7)))
        for r in (1, 2, 4)
        for _ in range(10)
    ]
    graphs += [
        random_hypergraph(rng, 3, rng.randint(4, 7), p=p)
        for p in (0.3, 0.5)
        for _ in range(10)
    ]
    for base in (build_complete(3, 3), build_h(3, 3)):
        level = [()]
        for _ in range(2):
            level = [
                s + (v,) for s in level for v in range(iterated_blowup(base, s).n)
            ]
            graphs += [
                h for h in (iterated_blowup(base, s) for s in level) if h.n <= 7
            ]
    return [(h, oracle_canonical(h)) for h in graphs]


class TestCanonicalForm:
    def test_matches_oracle(self, oracle_cases):
        for h, want in oracle_cases:
            assert canonical_form(h) == want

    def test_is_canonical_matches_oracle(self, oracle_cases):
        for h, want in oracle_cases:
            assert is_canonical(h) == (h.edges == want)
            assert is_canonical(Hypergraph(h.r, h.n, want))

    def test_first_block(self, oracle_cases):
        # The edges through 0..r-2 end in exactly r-1..r-2+c*, where c* is
        # the largest codegree of an (r-1)-set.
        for h, _ in oracle_cases:
            if not h.edges:
                continue
            r = h.r
            codeg = collections.Counter(
                s for e in h.edges for s in itertools.combinations(e, r - 1)
            )
            top = max(codeg.values())
            block = [e[-1] for e in canonical_form(h) if e[: r - 1] == tuple(range(r - 1))]
            assert block == list(range(r - 1, r - 1 + top))

    def test_relabeling_invariance(self, h32):
        rng = random.Random(31)
        base = canonical_form(build_h(3, 2))
        for _ in range(10):
            perm = list(range(4))
            rng.shuffle(perm)
            assert canonical_form(relabeled(h32, perm)) == base

    def test_complete_graph(self, k34):
        assert canonical_form(k34) == k34.edges

    def test_random_relabelings_agree(self):
        # Two independent relabelings of the same 7-vertex 3-graph.
        rng = random.Random(37)
        for _ in range(10):
            h = random_hypergraph(rng, 3, 7, p=0.3)
            p1, p2 = list(range(7)), list(range(7))
            rng.shuffle(p1)
            rng.shuffle(p2)
            assert canonical_form(relabeled(h, p1)) == canonical_form(relabeled(h, p2))

    def test_matches_oracle_on_all_n4_3graphs(self):
        triples = list(itertools.combinations(range(4), 3))
        for mask in range(1 << len(triples)):
            edges = tuple(t for i, t in enumerate(triples) if mask >> i & 1)
            h = Hypergraph(3, 4, edges)
            assert canonical_form(h) == oracle_canonical(h)

    def test_matches_oracle_on_all_n5_3graphs(self):
        # Oracle equality on every 3-graph with n = 5 means canonical_form
        # both respects isomorphism and separates non-isomorphic inputs.
        triples = list(itertools.combinations(range(5), 3))
        for mask in range(1 << len(triples)):
            edges = tuple(t for i, t in enumerate(triples) if mask >> i & 1)
            h = Hypergraph(3, 5, edges)
            assert canonical_form(h) == oracle_canonical(h)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            canonical_form(Hypergraph(3, 13, ()))
        with pytest.raises(CapacityError):
            is_canonical(Hypergraph(3, 13, ()))

    def test_is_isomorphic(self, h32, k34):
        assert is_isomorphic(relabeled(h32, [3, 1, 0, 2]), h32)
        # same counts, different intersection pattern
        tight_pair = Hypergraph(3, 5, ((0, 1, 2), (0, 1, 3)))
        loose_pair = Hypergraph(3, 5, ((0, 1, 2), (2, 3, 4)))
        assert not is_isomorphic(tight_pair, loose_pair)
        assert not is_isomorphic(h32, k34)


def _check_least_form(h, form_of, is_least):
    """form_of agrees on two seeded relabelings of h, and its result is a
    sorted edge list that is_least accepts and that is isomorphic to h."""
    rng = random.Random(h.n)
    forms = []
    for _ in range(2):
        perm = list(range(h.n))
        rng.shuffle(perm)
        forms.append(form_of(relabeled(h, perm)))
    assert forms[0] == forms[1]
    g = Hypergraph(h.r, h.n, forms[0])
    assert g.edges == forms[0]
    assert is_least(g)
    assert is_isomorphic(g, h)


class TestCanonicalAtScale:
    """At the public cap, and past it up to VERTEX_ENUM_CAP vertices, which
    exponent witnesses reach through _min_edge_list: edge codes in base n
    must still sort as the edge tuples do."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_3graphs_at_cap(self, seed):
        h = random_hypergraph(random.Random(seed), 3, CANONICAL_CAP, p=0.3)
        _check_least_form(h, canonical_form, is_canonical)

    @pytest.mark.parametrize("n", range(CANONICAL_CAP + 1, VERTEX_ENUM_CAP + 1))
    def test_random_2graphs_past_cap(self, n):
        h = random_hypergraph(random.Random(n), 2, n, p=0.3)
        _check_least_form(
            h, _min_edge_list, lambda g: _min_edge_list(g, g.edges) == g.edges
        )

    def test_complete_hypergraphs(self):
        # Every labeling gives the one edge list; the bound must see that at
        # once instead of visiting the n! labelings.
        for r in (1, 2, 3, 4):
            k = build_complete(r, CANONICAL_CAP)
            assert canonical_form(k) == k.edges
            assert is_canonical(k)
        k = build_complete(2, VERTEX_ENUM_CAP)
        assert _min_edge_list(k) == k.edges


class TestIsEmbedding:
    def test_rejects_non_injective(self, k33, k34):
        assert not is_embedding(k33, k34, Embedding((0, 0, 1)))

    def test_rejects_non_edge_image(self, h32):
        host = Hypergraph(3, 4, ((0, 1, 2),))
        assert not is_embedding(h32, host, Embedding((0, 1, 2, 3)))


# Each public entry, given a 3-graph a against a 2-graph b.  The embedding
# kernel states the uniformity rule for the wrappers that call it first; the
# others state it themselves, before they can return or raise anything else.
UNIFORMITY_ENTRIES = {
    "contains_copy": contains_copy,
    "iter_embeddings": lambda a, b: list(iter_embeddings(a, b)),
    "count_embeddings": count_embeddings,
    "find_homomorphism": find_homomorphism,
    "find_shadow_homomorphism": lambda a, b: find_shadow_homomorphism(a, b, 2),
    "verify_shadow_hom": lambda a, b: verify_shadow_hom(
        a, b, 2, ShadowHomWitness(2, (), ())
    ),
    "is_sub_iterated_blowup": lambda a, b: is_sub_iterated_blowup(a, b, 2),
    "blowup_F": lambda a, b: blowup_F(a, 0, b),
    "max_f_free_subset": max_f_free_subset,
    "enumerate_g_free": lambda a, b: list(enumerate_g_free(3, a.r, b)),
    "f_exact": lambda a, b: f_exact(a, b, 3),
    "estimate_f_cover": lambda a, b: estimate_f_cover(a, b, 3, 10, 0),
    "richest_extension": lambda a, b: richest_extension(a, b, 0, 1),
    "extract_blowup_copy": lambda a, b: extract_blowup_copy(a, b, [0]),
    "_copy_masks": _copy_masks,
}


@pytest.mark.parametrize(
    "call", UNIFORMITY_ENTRIES.values(), ids=UNIFORMITY_ENTRIES.keys()
)
def test_uniformity_mismatch_raises_at_every_entry(call, k33):
    with pytest.raises(InvalidParameterError, match="uniformity mismatch"):
        call(k33, build_complete(2, 3))


def test_isomorphism_is_false_on_uniformity_mismatch(k33):
    assert is_isomorphic(k33, build_complete(2, 3)) is False
