"""Embedding search, counts, and canonical form against permutation oracles."""

import collections
import hashlib
import itertools
import random
import time

import pytest

from erdosrogers import (
    CapacityError,
    ConstructionParams,
    Embedding,
    Hypergraph,
    InvalidParameterError,
    ShadowHomWitness,
    alpha,
    blowup_F,
    blowup_t,
    build_complete,
    build_h,
    canonical_form,
    check_concluding_condition,
    construct_coloring,
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
    is_k_tightly_connected,
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
    _iter_maps,
    _min_edge_list,
    _orbits,
    _plan,
    _twin_classes,
    is_canonical,
)
from conftest import (
    oracle_canonical,
    oracle_embedding_count,
    oracle_has_hom,
    oracle_maps,
    oracle_orbits,
    oracle_placement,
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


def sweep_pattern(rng: random.Random, r: int, parts: int, isolated: bool) -> Hypergraph:
    """parts random components on r..r+1 vertices each, their vertices
    shuffled together, plus up to one isolated vertex when allowed."""
    comps = [
        random_hypergraph(rng, r, rng.randint(r, r + 1), p=0.6, ensure_edge=True)
        for _ in range(parts)
    ]
    n = sum(c.n for c in comps) + (rng.randint(0, 1) if isolated else 0)
    perm = list(range(n))
    rng.shuffle(perm)
    edges, offset = [], 0
    for c in comps:
        edges += [tuple(perm[offset + v] for v in e) for e in c.edges]
        offset += c.n
    return Hypergraph(r, n, tuple(edges))


def scattered(h: Hypergraph, rng: random.Random, n: int) -> Hypergraph:
    """h with its vertices sent to random distinct ids in range(n)."""
    ids = rng.sample(range(n), h.n)
    return Hypergraph(h.r, n, tuple(tuple(ids[v] for v in e) for e in h.edges))


class TestKernelSweep:
    def test_against_oracles(self):
        # Embedding sets against oracle_maps and homomorphism existence
        # against oracle_has_hom, for r = 2, 3, 4, then r = 1, where every
        # pattern edge is complete before any vertex is placed.  Every other
        # case scatters its host over 65..130 vertex ids, so masks are wider
        # than a machine word; isolated host vertices change no
        # homomorphism's existence.
        # Every link lookup must be of r - 1 distinct images: the placed
        # vertices of an edge get distinct images, by the neighbourhood rule
        # or by the link entry of an edge completed with both.
        lookups = []

        class Recording(dict):
            def get(self, key, default=None):
                lookups.append(key)
                return super().get(key, default)

        def recorded(host: Hypergraph) -> Hypergraph:
            host.__dict__["links"] = Recording(host.links)
            return host

        rng = random.Random(151)
        for i in range(320):
            r = (2, 3, 4)[i % 3] if i < 240 else 1
            wide = i % 2 == 1
            host = random_hypergraph(rng, r, rng.randint(r, 7), p=rng.choice((0.3, 0.5, 0.8)))
            if wide:
                host = scattered(host, rng, rng.randint(65, 130))
            pattern = sweep_pattern(rng, r, rng.randint(1, 2), isolated=not wide)
            maps = list(_iter_maps(pattern, recorded(host), True))
            assert len(set(maps)) == len(maps)
            assert set(maps) == set(oracle_maps(pattern, host))
            g = sweep_pattern(rng, r, 2 if r == 2 else 1, isolated=True)
            target = random_hypergraph(rng, r, rng.randint(r, r + 1), p=0.7)
            host = scattered(target, rng, rng.randint(65, 130)) if wide else target
            hom = next(_iter_maps(g, recorded(host), False), None)
            assert (hom is not None) == oracle_has_hom(g, target)
            assert all(k.bit_count() == r - 1 for k in lookups)
            del lookups[:]


# The full iter_embeddings sequences of three fixed cases, recorded before
# the kernel moved to bitmask candidate sets.  contains_copy and README rely
# on the order through the first witness.
C5M_IN_COLORING = [
    (9, 5, 0, 6, 7), (9, 5, 0, 6, 11), (9, 7, 0, 6, 5), (9, 7, 0, 6, 11),
    (9, 11, 0, 6, 5), (9, 11, 0, 6, 7), (6, 5, 0, 9, 7), (6, 5, 0, 9, 11),
    (6, 7, 0, 9, 5), (6, 7, 0, 9, 11), (6, 11, 0, 9, 5), (6, 11, 0, 9, 7),
    (9, 5, 6, 0, 7), (9, 5, 6, 0, 11), (9, 7, 6, 0, 5), (9, 7, 6, 0, 11),
    (9, 11, 6, 0, 5), (9, 11, 6, 0, 7), (0, 5, 6, 9, 7), (0, 5, 6, 9, 11),
    (0, 7, 6, 9, 5), (0, 7, 6, 9, 11), (0, 11, 6, 9, 5), (0, 11, 6, 9, 7),
    (6, 5, 9, 0, 7), (6, 5, 9, 0, 11), (6, 7, 9, 0, 5), (6, 7, 9, 0, 11),
    (6, 11, 9, 0, 5), (6, 11, 9, 0, 7), (0, 5, 9, 6, 7), (0, 5, 9, 6, 11),
    (0, 7, 9, 6, 5), (0, 7, 9, 6, 11), (0, 11, 9, 6, 5), (0, 11, 9, 6, 7),
]
# One map per word, its images as digits.
K34_IN_K36 = """
0123 0124 0125 0132 0134 0135 0142 0143 0145 0152 0153 0154 0213 0214 0215
0231 0234 0235 0241 0243 0245 0251 0253 0254 0312 0314 0315 0321 0324 0325
0341 0342 0345 0351 0352 0354 0412 0413 0415 0421 0423 0425 0431 0432 0435
0451 0452 0453 0512 0513 0514 0521 0523 0524 0531 0532 0534 0541 0542 0543
1023 1024 1025 1032 1034 1035 1042 1043 1045 1052 1053 1054 1203 1204 1205
1230 1234 1235 1240 1243 1245 1250 1253 1254 1302 1304 1305 1320 1324 1325
1340 1342 1345 1350 1352 1354 1402 1403 1405 1420 1423 1425 1430 1432 1435
1450 1452 1453 1502 1503 1504 1520 1523 1524 1530 1532 1534 1540 1542 1543
2013 2014 2015 2031 2034 2035 2041 2043 2045 2051 2053 2054 2103 2104 2105
2130 2134 2135 2140 2143 2145 2150 2153 2154 2301 2304 2305 2310 2314 2315
2340 2341 2345 2350 2351 2354 2401 2403 2405 2410 2413 2415 2430 2431 2435
2450 2451 2453 2501 2503 2504 2510 2513 2514 2530 2531 2534 2540 2541 2543
3012 3014 3015 3021 3024 3025 3041 3042 3045 3051 3052 3054 3102 3104 3105
3120 3124 3125 3140 3142 3145 3150 3152 3154 3201 3204 3205 3210 3214 3215
3240 3241 3245 3250 3251 3254 3401 3402 3405 3410 3412 3415 3420 3421 3425
3450 3451 3452 3501 3502 3504 3510 3512 3514 3520 3521 3524 3540 3541 3542
4012 4013 4015 4021 4023 4025 4031 4032 4035 4051 4052 4053 4102 4103 4105
4120 4123 4125 4130 4132 4135 4150 4152 4153 4201 4203 4205 4210 4213 4215
4230 4231 4235 4250 4251 4253 4301 4302 4305 4310 4312 4315 4320 4321 4325
4350 4351 4352 4501 4502 4503 4510 4512 4513 4520 4521 4523 4530 4531 4532
5012 5013 5014 5021 5023 5024 5031 5032 5034 5041 5042 5043 5102 5103 5104
5120 5123 5124 5130 5132 5134 5140 5142 5143 5201 5203 5204 5210 5213 5214
5230 5231 5234 5240 5241 5243 5301 5302 5304 5310 5312 5314 5320 5321 5324
5340 5341 5342 5401 5402 5403 5410 5412 5413 5420 5421 5423 5430 5431 5432
"""
PATH_IN_C7 = [
    (6, 0, 1, 2), (1, 0, 6, 5), (2, 1, 0, 6), (0, 1, 2, 3), (3, 2, 1, 0),
    (1, 2, 3, 4), (4, 3, 2, 1), (2, 3, 4, 5), (5, 4, 3, 2), (3, 4, 5, 6),
    (6, 5, 4, 3), (4, 5, 6, 0), (5, 6, 0, 1), (0, 6, 5, 4),
]


def plan_pattern(rng: random.Random, r: int, n: int) -> Hypergraph:
    """A random r-graph on n vertices: each vertex joins one of one or two
    blocks or, one time in eight, stays isolated, and edges are drawn inside
    blocks, so many patterns have several components or isolated vertices."""
    parts = rng.randint(1, 2)
    block = [0 if rng.random() < 1 / 8 else rng.randint(1, parts) for _ in range(n)]
    p = rng.choice((0.3, 0.6, 0.9))
    edges = [
        e
        for e in itertools.combinations(range(n), r)
        if block[e[0]] and len({block[v] for v in e}) == 1 and rng.random() < p
    ]
    return Hypergraph(r, n, tuple(edges))


def long_path(m: int) -> Hypergraph:
    """The tight 3-uniform path with m edges, its vertices shuffled by a
    random.Random seeded with m."""
    perm = list(range(m + 2))
    random.Random(m).shuffle(perm)
    return Hypergraph(3, m + 2, tuple(tuple(perm[i + j] for j in range(3)) for i in range(m)))


class TestPlan:
    def test_against_oracle(self):
        # The order, the edges checked at each depth and the neighbours
        # tested there, against the key recomputed at every step, on r = 1..4
        # patterns of 0..9 vertices and on two long tight paths.  Each edge
        # is checked once, at its last vertex.
        rng = random.Random(20)
        patterns = [plan_pattern(rng, 1 + i % 4, rng.randint(0, 9)) for i in range(600)]
        for pattern in patterns + [long_path(100), long_path(1100)]:
            order, checks, nbrs = _plan(pattern)
            want_order, want_checks, want_nbrs = oracle_placement(pattern)
            assert order == want_order
            assert checks == want_checks
            assert [set(u) for u in nbrs] == want_nbrs
            assert all(len(set(u)) == len(u) for u in nbrs)
            checked = [
                tuple(sorted(others + (v,)))
                for v, done in zip(order, checks)
                for others in done
            ]
            assert sorted(checked) == list(pattern.edges)


# SHA-256 digests of the witnesses on two long relabelled tight paths,
# recorded before the placement plan was computed in one pass: the first
# homomorphism of a 1,100-edge path into K^3_3, and the 2-shadow-homomorphism
# certificate of a 100-edge path.
HOM_PATH_1100 = "d0e933e897fc72b67767a1971a3475a9e20fecab8c26d090cdcf854565c0a8a4"
SHADOW_PATH_100 = "14a5f05414954cbce684e691df719cd35fe61352d7dd9cad4478a082b35ade3c"


def sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


class TestYieldOrder:
    def test_c5_minus_in_a_coloring(self, tc5_gap):
        host, _ = construct_coloring(12, build_complete(3, 4), ConstructionParams(seed=3))
        got = [e.images for e in iter_embeddings(tc5_gap, host)]
        assert got == C5M_IN_COLORING

    def test_k34_in_k36(self, k34):
        got = [e.images for e in iter_embeddings(k34, build_complete(3, 6))]
        assert got == [tuple(map(int, w)) for w in K34_IN_K36.split()]

    def test_path_in_c7(self):
        path = Hypergraph(2, 4, ((0, 1), (1, 2), (2, 3)))
        got = [e.images for e in iter_embeddings(path, tight_cycle(2, 7))]
        assert got == PATH_IN_C7

    def test_hom_of_1100_edge_path(self, k33):
        w = find_homomorphism(long_path(1100), k33)
        assert sha256(w.images) == HOM_PATH_1100

    def test_shadow_hom_of_100_edge_path(self, k33):
        w = find_shadow_homomorphism(long_path(100), k33, 2)
        maps = (
            [(m.source, m.images) for m in w.shadow_map],
            [(m.source, m.images) for m in w.edge_map],
        )
        assert sha256(maps) == SHADOW_PATH_100


def linear_hosts() -> list[Hypergraph]:
    """The Fano plane and STS(9), the lines of the affine plane over Z_3:
    every pair of points lies in exactly one edge."""
    fano = Hypergraph(3, 7, [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)])
    points = list(itertools.product(range(3), repeat=2))
    lines = {
        frozenset(points.index(((a[0] + t * d[0]) % 3, (a[1] + t * d[1]) % 3)) for t in range(3))
        for a in points
        for d in ((0, 1), (1, 0), (1, 1), (1, 2))
    }
    return [fano, Hypergraph(3, 9, [tuple(x) for x in lines])]


class TestCodegree:
    """An embedding sends a pair in two or more pattern edges to a pair in
    two or more host edges; a homomorphism need not."""

    def test_linear_hosts(self, k34, tc5_gap, h33):
        loose_triangle = Hypergraph(3, 6, ((0, 1, 2), (2, 3, 4), (0, 4, 5)))
        for host in linear_hosts():
            assert len(host.edges) == host.n * (host.n - 1) // 6
            assert not any(host.codeg2)
            for pattern in (k34, tc5_gap, h33):
                assert any(pattern.codeg2)
                assert contains_copy(host, pattern) is None
                assert not list(oracle_maps(pattern, host))
            maps = set(_iter_maps(loose_triangle, host, True))
            assert maps and maps == set(oracle_maps(loose_triangle, host))

    def test_r4_sweep(self):
        # 4-graph patterns with a pair in two or more edges, in hosts from
        # sparse (pairs of codegree 1 common) to dense; the maps come in
        # lexicographic order of their images read in placement order.
        rng = random.Random(23)
        cases = 0
        while cases < 80:
            pattern = random_hypergraph(rng, 4, rng.randint(5, 7), p=rng.choice((0.1, 0.2, 0.5)))
            if not any(pattern.codeg2):
                continue
            host = random_hypergraph(
                rng, 4, rng.randint(6, 9), p=rng.choice((0.06, 0.12, 0.25, 0.6))
            )
            maps = list(_iter_maps(pattern, host, True))
            assert set(maps) == set(oracle_maps(pattern, host))
            order = _plan(pattern)[0]
            keys = [tuple(m[v] for v in order) for m in maps]
            assert keys == sorted(set(keys))
            cases += 1

    def test_hom_folds_a_pair_of_codegree_two(self, k33):
        # The two triples on {0, 1} land on K^3_3's one edge, whose pairs
        # have codegree 1.
        g = Hypergraph(3, 4, ((0, 1, 2), (0, 1, 3)))
        w = find_homomorphism(g, k33)
        assert w is not None and w.images[2] == w.images[3]


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
        # Plain random hosts, from n = 0 and edgeless up to dense, many
        # with isolated vertices.
        graphs += [
            random_hypergraph(rng, r, rng.randint(0, 8), p=rng.choice((0.0, 0.1, 0.3, 0.6, 0.9)))
            for r in (1, 2, 3, 4)
            for _ in range(60)
        ]
        graphs += [Hypergraph(r, n, ()) for r in (1, 2, 3, 4) for n in (0, 3)]
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
        # The edge sets of all maps of f's non-isolated vertices into h, each
        # with its vertex set, as masks over h.edges and range(h.n).
        rng = random.Random(107)
        for i in range(60):
            r = (2, 3)[i % 2]
            f = twin_heavy_pattern(rng, r)
            h = random_hypergraph(rng, r, 7, p=0.5)
            core = sorted({v for e in f.edges for v in e})
            index = {e: i for i, e in enumerate(h.edges)}
            want = {}
            for perm in itertools.permutations(range(h.n), len(core)):
                img = dict(zip(core, perm))
                mapped = [tuple(sorted(img[v] for v in e)) for e in f.edges]
                if all(e in h.edge_set for e in mapped):
                    edges = sum(1 << index[e] for e in mapped)
                    want[edges] = sum(1 << v for v in perm)
            assert _copy_masks(f, h) == want

    def test_limit(self):
        # Two disjoint edges in K^3_6: 20 host edges once for the index, then
        # per component 20 maps, and 1 * 20 and 20 * 20 pairs tried in the
        # unions: 20 + 20 + 20 + 20 + 400.  The 10 copies are the splits of
        # range(6) into two triples, whose edge indices add up to 19.
        f, h = Hypergraph(3, 6, ((0, 1, 2), (3, 4, 5))), build_complete(3, 6)
        copies = _copy_masks(f, h, limit=480)
        assert copies == {1 << i | 1 << (19 - i): 0b111111 for i in range(10)}
        assert _copy_masks(f, h, limit=479) is None
        # A path on three vertices in K^2_4: 6 host edges, 12 maps, and 1 * 12
        # pairs, one per copy, though the copies span only 4 vertex sets.
        p3, k4 = Hypergraph(2, 3, ((0, 1), (1, 2))), build_complete(2, 4)
        assert len(_copy_masks(p3, k4, limit=30)) == 12
        assert _copy_masks(p3, k4, limit=29) is None
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


def complete_multipartite(r: int, sizes) -> Hypergraph:
    """The r-graph on parts of the given sizes whose edges are the r-sets
    meeting r distinct parts."""
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    return Hypergraph(r, len(part), tuple(
        e for e in itertools.combinations(range(len(part)), r)
        if len({part[v] for v in e}) == r
    ))


def disjoint_cliques(r: int, copies: int, s: int) -> Hypergraph:
    """copies vertex-disjoint copies of the complete r-graph on s vertices."""
    return Hypergraph(r, copies * s, tuple(
        tuple(b * s + v for v in e)
        for b in range(copies)
        for e in itertools.combinations(range(s), r)
    ))


def parity_cases() -> list[Hypergraph]:
    """1,600 seeded inputs of the canonical search.  1,200 are random
    r-graphs with r = 1..4 and n <= 9.  400 are twin-heavy, relabeled at
    random and with up to two isolated vertices added: complete multipartite
    graphs, disjoint cliques, and blowup iterates of K^r_r and H^r_t."""
    rng = random.Random(211)
    cases = [
        random_hypergraph(rng, 1 + i % 4, rng.randint(0, 9), p=rng.choice((0.2, 0.4, 0.6, 0.8)))
        for i in range(1200)
    ]
    for i in range(400):
        r = rng.choice((2, 3))
        if i % 3 == 0:
            h = complete_multipartite(r, [rng.randint(1, 3) for _ in range(rng.randint(r, 3))])
        elif i % 3 == 1:
            s = rng.randint(r, r + 2)
            h = disjoint_cliques(r, rng.randint(1, 8 // s), s)
        else:
            base = build_complete(r, r) if rng.random() < 0.5 else build_h(r, rng.randint(1, 3))
            steps: tuple[int, ...] = ()
            for _ in range(rng.randint(1, 2)):
                steps += (rng.randrange(iterated_blowup(base, steps).n),)
            h = iterated_blowup(base, steps)
        n = h.n + rng.randint(0, 2)
        perm = list(range(n))
        rng.shuffle(perm)
        cases.append(relabeled(Hypergraph(r, n, h.edges), perm))
    return cases


# SHA-256 of the canonical search's answers on parity_cases(), recorded
# before the search compared its bound lazily, kept completion counts and
# tried one vertex per twin class.
CANONICAL_PARITY = "4da09cff93bff75622052c7b70565fb4ef27d648e2a96f4715a15ca87f669ff1"


class TestCanonicalParity:
    def test_pinned_sweep(self):
        # Per case: the form, is_canonical of the input, and is_canonical of
        # the form with two seeded vertices swapped, which is canonical only
        # when the swap is an automorphism.  The form itself is canonical.
        rng = random.Random(223)
        answers = []
        for h in parity_cases():
            form = canonical_form(h)
            assert is_canonical(Hypergraph(h.r, h.n, form))
            perm = list(range(h.n))
            if h.n >= 2:
                a, b = rng.sample(perm, 2)
                perm[a], perm[b] = b, a
            near = relabeled(Hypergraph(h.r, h.n, form), perm)
            answers.append((form, is_canonical(h), is_canonical(near)))
        assert sha256(answers) == CANONICAL_PARITY


def test_symmetric_hosts():
    # K_{6,6}, 3 x K_4, 4 x K_3, K_{4,4,4} and 3 x K^3_4: each host's form
    # agrees over three seeded relabelings and is canonical, and the twin
    # rule keeps all five well under a second.
    hosts = (
        complete_multipartite(2, (6, 6)),
        disjoint_cliques(2, 3, 4),
        disjoint_cliques(2, 4, 3),
        complete_multipartite(2, (4, 4, 4)),
        disjoint_cliques(3, 3, 4),
    )
    rng = random.Random(227)
    start = time.perf_counter()
    for h in hosts:
        forms = set()
        for _ in range(3):
            perm = list(range(h.n))
            rng.shuffle(perm)
            forms.add(canonical_form(relabeled(h, perm)))
        (form,) = forms
        assert is_canonical(Hypergraph(h.r, h.n, form))
    assert time.perf_counter() - start < 0.5


class TestCanonicalAtScale:
    """At the public cap, and past it up to VERTEX_ENUM_CAP vertices through
    the private _min_edge_list: edge codes in base n must still sort as the
    edge tuples do."""

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

    def test_rejects_wrong_length(self, k33, k34):
        assert not is_embedding(k33, k34, Embedding((0, 1)))
        assert not is_embedding(k33, k34, Embedding((0, 1, 2, 3)))

    def test_rejects_image_outside_host(self, k33, k34):
        assert not is_embedding(k33, k34, Embedding((0, 1, 4)))
        assert not is_embedding(k33, k34, Embedding((-1, 0, 1)))


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


# Each argument check that the other tests do not reach, with its message;
# the calls take K^3_3.  blowup_t states its multiplicity rule before its
# vertex rule.
ARGUMENT_CHECKS = {
    "alpha-r1": (lambda k: alpha(Hypergraph(1, 3, ((0,),))), "uniformity must be >= 2, got 1"),
    "concluding-edgeless": (
        lambda k: check_concluding_condition(Hypergraph(3, 4)),
        "condition undefined for an edgeless hypergraph",
    ),
    "hypergraph-n": (lambda k: Hypergraph(3, -1), "vertex count must be >= 0, got -1"),
    "enumerate-n": (
        lambda k: next(enumerate_g_free(-1, 3, k)), "vertex count must be >= 0, got -1"
    ),
    "tight-k0": (
        lambda k: is_k_tightly_connected(k, 0), "connectivity order must be in 1..3, got 0"
    ),
    "blowup-member-steps": (
        lambda k: is_sub_iterated_blowup(k, k, -1), "max_steps must be >= 0, got -1"
    ),
    "blowup_t-t0": (lambda k: blowup_t(k, 0, 0), "multiplicity must be >= 1, got 0"),
    "blowup_t-v": (lambda k: blowup_t(k, 3, 2), "vertex 3 not in 0..2"),
    "blowup_t-both": (lambda k: blowup_t(k, 3, 0), "multiplicity must be >= 1, got 0"),
}


@pytest.mark.parametrize(
    "call, message", ARGUMENT_CHECKS.values(), ids=ARGUMENT_CHECKS.keys()
)
def test_argument_checks(call, message, k33):
    with pytest.raises(InvalidParameterError) as info:
        call(k33)
    assert str(info.value) == message


def test_isomorphism_is_false_on_uniformity_mismatch(k33):
    assert is_isomorphic(k33, build_complete(2, 3)) is False
