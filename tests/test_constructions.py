"""Seeded constructions: determinism, certificate soundness, freeness,
coverage estimation, and the supersaturation extraction steps.

The acceptance suite runs the full-size freeness sweeps; here the same
properties are exercised at smaller n so the module suite stays fast.
"""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from erdosrogers import (
    CapacityError,
    ConstructionParams,
    Hypergraph,
    InvalidParameterError,
    build_complete,
    build_h,
    construct_coloring,
    construct_shadow_labeling,
    contains_copy,
    estimate_f_cover,
    extract_blowup_copy,
    find_homomorphism,
    find_shadow_homomorphism,
    induced,
    is_embedding,
    is_k_tightly_connected,
    iter_embeddings,
    iterated_blowup,
    richest_extension,
)
from erdosrogers.cli import _json_value
from erdosrogers.constructions import (
    RichExtension,
    pair_coloring_from_json,
    shadow_labeling_from_json,
)
from erdosrogers.hgio import _json_text
from erdosrogers.randomness import sample_sorted, substream
from conftest import random_hypergraph, tight_c5_minus_edge


# Patterns for the edge-rule checks: complete, one missing edge, a sparse
# tight path, and r = 4 so that k = 3 labelings are exercised too.
EDGE_RULE_PATTERNS = {
    "K33": build_complete(3, 3),
    "H32": build_h(3, 2),
    "tight_path3": Hypergraph(3, 5, ((0, 1, 2), (1, 2, 3), (2, 3, 4))),
    "K45": build_complete(4, 5),
    "H43": build_h(4, 3),
}


class TestColoringConstruction:
    def test_deterministic(self, k33):
        params = ConstructionParams(seed=99)
        assert construct_coloring(18, k33, params) == construct_coloring(
            18, k33, params
        )

    # n = 70 makes the gluing's vertex bitmasks span two machine words.
    @pytest.mark.parametrize(
        "name, seed, c1, n",
        [
            pytest.param(name, seed, c1, 16 if f.r == 3 else 20, id=f"{name}-{seed}-{c1}")
            for c1 in (1, 3)
            for seed in (5, 7, 11)
            for name, f in EDGE_RULE_PATTERNS.items()
        ]
        + [pytest.param("K33", 5, 1, 70, id="K33-5-1-n70")],
    )
    def test_certificate_recomputes_edges(self, name, seed, c1, n):
        f = EDGE_RULE_PATTERNS[name]
        h, cert = construct_coloring(n, f, ConstructionParams(c1=c1, seed=seed))
        color = dict(zip(itertools.combinations(range(n), 2), cert.beta))
        expected = []
        for x in itertools.combinations(range(n), f.r):
            colors = {color[p] for p in itertools.combinations(x, 2)}
            if len(colors) != 1:
                continue
            gamma = cert.gammas[colors.pop()]
            image = tuple(sorted(gamma[u] for u in x))
            if len(set(image)) == f.r and image in f.edge_set:
                expected.append(x)
        assert h.edges == tuple(expected)

    def test_color_count_scales_with_c1(self, k33):
        _, cert1 = construct_coloring(20, k33, ConstructionParams(seed=0))
        _, cert3 = construct_coloring(
            20, k33, ConstructionParams(c1=3, seed=0)
        )
        assert cert1.ell == max(1, round(math.log(20)))
        assert cert3.ell == max(1, round(3 * math.log(20)))

    def test_color_count_capped_by_pairs(self):
        # C(8, 2) = 28 pairs; 13.46 ln 8 rounds to 28 colors, 13.8 ln 8 to 29.
        assert ConstructionParams(c1=Fraction("13.46")).num_colors(8) == 28
        with pytest.raises(CapacityError):
            ConstructionParams(c1=Fraction("13.8")).num_colors(8)
        with pytest.raises(CapacityError):
            ConstructionParams(c1=Fraction(10**300)).num_colors(90)
        # A finite c1 whose product with ln n overflows to inf.
        with pytest.raises(CapacityError):
            ConstructionParams(c1=Fraction(10**308)).num_colors(90)

    def test_c1_checked_where_read(self):
        # The labeling never reads c1, so params with any c1 construct.
        for c1 in (0, -1, Fraction(10**400)):
            params = ConstructionParams(c1=c1)
            with pytest.raises(InvalidParameterError, match="c1"):
                params.num_colors(8)

    def test_freeness_for_tight_non_homomorphic_probes(self, k33):
        probes = [build_complete(3, 4), tight_c5_minus_edge()]
        for probe in probes:
            assert is_k_tightly_connected(probe, 2) is not None
            assert find_homomorphism(probe, k33) is None
        for seed in range(8):
            h, _ = construct_coloring(16, k33, ConstructionParams(seed=seed))
            for probe in probes:
                assert contains_copy(h, probe) is None

    def test_rejects_degenerate_inputs(self, k33):
        with pytest.raises(InvalidParameterError):
            construct_coloring(2, k33, ConstructionParams(seed=0))
        with pytest.raises(InvalidParameterError):
            construct_coloring(10, build_complete(2, 3), ConstructionParams(seed=0))

    def test_certificate_json_round_trip(self, k33):
        _, cert = construct_coloring(12, k33, ConstructionParams(seed=1))
        again = pair_coloring_from_json(json.loads(_json_text(_json_value(cert))))
        assert again == cert


class TestLabelingConstruction:
    def test_deterministic(self, k33):
        params = ConstructionParams(seed=123)
        assert construct_shadow_labeling(14, k33, 2, params) == (
            construct_shadow_labeling(14, k33, 2, params)
        )

    # c1 only sets the color count, which the labeling does not use.
    # r = 4 labelings are sparse: at n = 20 every one of these is empty.
    # n = 70 makes the gluing's vertex bitmasks span two machine words.
    @pytest.mark.parametrize(
        "name, k, seed, n",
        [
            pytest.param(name, k, seed, 14 if f.r == 3 else 36, id=f"{name}-{k}-{seed}")
            for seed in (5, 7, 11)
            for name, f in EDGE_RULE_PATTERNS.items()
            for k in range(2, f.r)
        ]
        + [pytest.param("K33", 2, 5, 70, id="K33-2-5-n70")],
    )
    def test_edges_satisfy_gluing(self, name, k, seed, n):
        f = EDGE_RULE_PATTERNS[name]
        h, cert = construct_shadow_labeling(n, f, k, ConstructionParams(seed=seed))
        by_kset = {sm.source: sm for sm in cert.labels}
        for x in itertools.combinations(range(n), f.r):
            glued = {}
            consistent = True
            for s in itertools.combinations(x, k):
                sm = by_kset[s]
                for v, img in zip(s, sm.images):
                    if glued.setdefault(v, img) != img:
                        consistent = False
            is_edge = (
                consistent
                and len(set(glued.values())) == f.r
                and tuple(sorted(glued.values())) in f.edge_set
            )
            assert (x in h.edge_set) == is_edge

    def test_freeness_for_non_shadow_homomorphic_probes(self, k33, h32):
        cases = [(k33, build_complete(3, 4)), (h32, build_h(3, 3))]
        for base, probe in cases:
            assert find_shadow_homomorphism(probe, base, 2) is None
            for seed in range(8):
                h, _ = construct_shadow_labeling(
                    14, base, 2, ConstructionParams(seed=seed)
                )
                assert contains_copy(h, probe) is None

    def test_rejects_bad_k(self, k33):
        with pytest.raises(InvalidParameterError):
            construct_shadow_labeling(10, k33, 1, ConstructionParams(seed=0))
        with pytest.raises(InvalidParameterError):
            construct_shadow_labeling(10, k33, 3, ConstructionParams(seed=0))

    def test_certificate_json_round_trip(self, k33):
        _, cert = construct_shadow_labeling(8, k33, 2, ConstructionParams(seed=2))
        again = shadow_labeling_from_json(json.loads(_json_text(_json_value(cert))))
        assert again == cert


class TestCoverEstimator:
    def test_complete_host_full_cover(self, k33):
        est = estimate_f_cover(build_complete(3, 9), k33, 3, 30, seed=4)
        assert est.fraction == 1.0 and est.hits == 30

    def test_edgeless_host_zero(self, k33):
        est = estimate_f_cover(Hypergraph(3, 9, ()), k33, 4, 30, seed=4)
        assert est.fraction == 0.0

    def test_seed_determinism(self, k33):
        rng = random.Random(83)
        h = random_hypergraph(rng, 3, 12, p=0.2)
        a = estimate_f_cover(h, k33, 6, 50, seed=11)
        b = estimate_f_cover(h, k33, 6, 50, seed=11)
        assert a == b

    def test_exhaustive_matches_full_sweep(self, k33):
        rng = random.Random(89)
        h = random_hypergraph(rng, 3, 9, p=0.15)
        est = estimate_f_cover(h, k33, 4, 1, seed=0, exhaustive=True)
        hits = sum(
            1
            for w in itertools.combinations(range(9), 4)
            if contains_copy(induced(h, w), k33) is not None
        )
        assert est.hits == hits and est.trials == math.comb(9, 4)
        assert est.half_width == 0.0

    def test_rejects_oversized_subset(self, k33):
        with pytest.raises(InvalidParameterError):
            estimate_f_cover(build_complete(3, 5), k33, 6, 10, seed=0)

    @pytest.mark.parametrize(
        "f",
        [
            Hypergraph(3, 3, ((0, 1, 2),)),
            Hypergraph(3, 4, ((0, 1, 2), (0, 1, 3))),
            Hypergraph(3, 5, ((0, 1, 2), (0, 3, 4))),
            Hypergraph(3, 6, ((0, 1, 2), (3, 4, 5))),
            Hypergraph(3, 4, ((0, 1, 2),)),
            Hypergraph(3, 2, ()),
            Hypergraph(2, 4, ((0, 1), (2, 3))),
        ],
        ids=["edge", "h32", "bowtie", "matching", "isolated", "edgeless", "r2-matching"],
    )
    def test_both_modes_match_permutation_oracle(self, f):
        # Hits on every w-subset (exhaustive) and on the seeded trial subsets
        # (sampled) against a search over all maps of f into W, w < v(f)
        # included.
        def holds(h, w):
            return any(
                all(tuple(sorted(perm[v] for v in e)) in h.edge_set for e in f.edges)
                for perm in itertools.permutations(w, f.n)
            )

        rng = random.Random(97 + f.n)
        for _ in range(4):
            h = random_hypergraph(rng, f.r, 8, p=rng.choice((0.15, 0.4)))
            for w in range(f.n - 1, 7):
                subsets = list(itertools.combinations(range(8), w))
                est = estimate_f_cover(h, f, w, 1, seed=0, exhaustive=True)
                assert est.hits == sum(holds(h, s) for s in subsets)
                drawn = [sample_sorted(substream(5, "cover-trial", t), 8, w) for t in range(20)]
                est = estimate_f_cover(h, f, w, 20, seed=5)
                assert est.hits == sum(holds(h, s) for s in drawn)

    def test_disconnected_f_on_dense_host(self):
        # Two disjoint edges on a 40-vertex host with p = 0.5 have millions of
        # copies, far more than 200 trials of width 8 need: each W is searched
        # on its own.  The same with w = n - 1 in exhaustive mode.
        f = Hypergraph(3, 6, ((0, 1, 2), (3, 4, 5)))

        def holds(h, w):
            inside = [e for e in itertools.combinations(w, 3) if e in h.edge_set]
            return any(set(a).isdisjoint(b) for a, b in itertools.combinations(inside, 2))

        h = random_hypergraph(random.Random(109), 3, 40, p=0.5)
        drawn = [sample_sorted(substream(3, "cover-trial", t), 40, 8) for t in range(200)]
        assert estimate_f_cover(h, f, 8, 200, seed=3).hits == sum(holds(h, s) for s in drawn)
        h = random_hypergraph(random.Random(113), 3, 12, p=0.1)
        est = estimate_f_cover(h, f, 11, 1, seed=0, exhaustive=True)
        subsets = itertools.combinations(range(12), 11)
        assert est.hits == sum(holds(h, s) for s in subsets)


class TestRichestExtension:
    def test_complete_host_extends_everywhere(self, k33):
        ext = richest_extension(build_complete(3, 10), k33, 0, threshold=7)
        assert ext is not None and len(ext.extenders) == 8

    def test_threshold_not_met(self, k33):
        assert richest_extension(Hypergraph(3, 6, ()), k33, 0, threshold=1) is None

    def test_extenders_each_complete_an_embedding(self, k33):
        rng = random.Random(97)
        for _ in range(10):
            h = random_hypergraph(rng, 3, 9, p=0.3)
            g = random_hypergraph(rng, 3, 4, p=0.5, ensure_edge=True)
            v = rng.randrange(4)
            ext = richest_extension(h, g, v, threshold=1)
            if ext is None:
                continue
            rest = [w for w in range(4) if w != v]
            for u in ext.extenders:
                images = [0] * 4
                for idx, w in enumerate(rest):
                    images[w] = ext.base.images[idx]
                images[v] = u
                for e in g.edges:
                    assert tuple(sorted(images[w] for w in e)) in h.edge_set

    def test_rejects_bad_vertex(self, k33):
        with pytest.raises(InvalidParameterError):
            richest_extension(build_complete(3, 5), k33, 5, threshold=1)

    def test_matches_brute_force(self):
        # The first maximizer in iter_embeddings order, with every host vertex
        # that completes it tested against every edge of g.
        rng = random.Random(4242)
        for _ in range(30):
            r = rng.choice((2, 3))
            g = random_hypergraph(rng, r, rng.randint(r, 5), p=0.5, ensure_edge=True)
            h = random_hypergraph(rng, r, rng.randint(g.n, 9), p=0.5)
            v = rng.randrange(g.n)
            threshold = rng.randint(0, 3)
            minor = induced(g, [w for w in range(g.n) if w != v])
            best = None
            for emb in iter_embeddings(minor, h):
                extenders = []
                for u in range(h.n):
                    images = list(emb.images)
                    images.insert(v, u)
                    if u not in emb.images and all(
                        tuple(sorted(images[w] for w in e)) in h.edge_set
                        for e in g.edges
                    ):
                        extenders.append(u)
                if best is None or len(extenders) > len(best.extenders):
                    best = RichExtension(base=emb, extenders=tuple(extenders))
            if best is not None and len(best.extenders) < threshold:
                best = None
            assert richest_extension(h, g, v, threshold) == best


class TestExtractBlowupCopy:
    def test_single_step_on_complete_host(self, k33):
        host = build_complete(3, 12)
        emb = extract_blowup_copy(host, k33, [0])
        assert emb is not None
        assert is_embedding(iterated_blowup(k33, [0]), host, emb)

    def test_no_steps_is_plain_search(self, k33):
        assert extract_blowup_copy(Hypergraph(3, 5, ()), k33, []) is None
        emb = extract_blowup_copy(build_complete(3, 5), k33, [])
        assert emb is not None and is_embedding(k33, build_complete(3, 5), emb)

    def test_two_steps_on_complete_host(self, k33):
        host = build_complete(3, 14)
        emb = extract_blowup_copy(host, k33, [0, 1])
        assert emb is not None
        assert is_embedding(iterated_blowup(k33, [0, 1]), host, emb)

    def test_step_vertex_validation(self, k33):
        with pytest.raises(InvalidParameterError):
            extract_blowup_copy(build_complete(3, 8), k33, [3])
