"""Exact oracles: branch-and-bound vs exhaustive, orderly enumeration vs
permutation-quotient brute force, and the two-pattern extremal value."""

import itertools
import random

import pytest

from erdosrogers import (
    CapacityError,
    FFreeResult,
    Hypergraph,
    InvalidParameterError,
    build_complete,
    contains_copy,
    enumerate_g_free,
    f_exact,
    induced,
    max_f_free_subset,
)
from erdosrogers import exact
from erdosrogers.isomorphism import is_canonical
from conftest import oracle_canonical, oracle_maps, oracle_max_f_free, random_hypergraph


def oracle_free(h: Hypergraph, g: Hypergraph) -> bool:
    return next(oracle_maps(g, h), None) is None


def iso_class_count(n: int, r: int, keep) -> int:
    """Brute force: all edge subsets modulo relabeling, filtered by `keep`."""
    rsets = list(itertools.combinations(range(n), r))
    classes = set()
    for mask in range(1 << len(rsets)):
        edges = tuple(r_ for i, r_ in enumerate(rsets) if mask >> i & 1)
        h = Hypergraph(r, n, edges)
        if keep(h):
            classes.add(oracle_canonical(h))
    return len(classes)


class TestMaxFFreeSubset:
    def test_edgeless_host(self, k33):
        res = max_f_free_subset(Hypergraph(3, 7, ()), k33)
        assert res.size == 7 and res.witness == tuple(range(7))

    def test_k34_vs_k33(self, k34, k33):
        assert max_f_free_subset(k34, k33).size == 2

    def test_h32_witness(self, h32, k33):
        res = max_f_free_subset(h32, k33)
        assert res.size == 3 and res.witness == (0, 2, 3)

    def test_witness_is_free_and_maximal(self, k33):
        rng = random.Random(101)
        for _ in range(15):
            h = random_hypergraph(rng, 3, 9, p=0.3)
            res = max_f_free_subset(h, k33)
            assert contains_copy(induced(h, res.witness), k33) is None
            assert res.size == oracle_max_f_free(h, k33)

    def test_rejects_edgeless_pattern(self, k34):
        with pytest.raises(InvalidParameterError):
            max_f_free_subset(k34, Hypergraph(3, 3, ()))

    def test_capacity(self, k33):
        with pytest.raises(CapacityError):
            max_f_free_subset(Hypergraph(3, 25, ()), k33)

    def test_isolated_vertex_tie_takes_first_vertices(self):
        # Every 4-set is free of an edge plus two isolated vertices, so the
        # least 4-set wins even though K^3_6 has larger sets free of its core.
        f = Hypergraph(3, 5, ((0, 1, 2),))
        res = max_f_free_subset(build_complete(3, 6), f)
        assert res == FFreeResult(4, (0, 1, 2, 3))

    def test_cap_size_random_host(self, k34):
        rng = random.Random(109)
        h = random_hypergraph(rng, 3, 24, p=0.2)
        res = max_f_free_subset(h, k34)
        assert res.size == len(res.witness) < 24
        assert contains_copy(induced(h, res.witness), k34) is None
        for v in set(range(24)) - set(res.witness):
            assert contains_copy(induced(h, res.witness + (v,)), k34) is not None

    def test_complete_host_at_cap(self):
        # 42,504 copies of K^3_5 in K^3_24; every 5-set holds one.
        res = max_f_free_subset(build_complete(3, 24), build_complete(3, 5))
        assert (res.size, res.witness) == (4, (0, 1, 2, 3))


class TestBruteforceOracle:
    def test_single_edge_host(self, k33):
        h = Hypergraph(3, 5, ((1, 2, 4),))
        assert oracle_max_f_free(h, k33) == 4

    def test_agreement_random(self, k33, k34, h32):
        rng = random.Random(107)
        patterns = [k33, k34, h32]
        for i in range(20):
            h = random_hypergraph(rng, 3, rng.randint(5, 10), p=0.3)
            f = patterns[i % 3]
            assert max_f_free_subset(h, f).size == oracle_max_f_free(h, f)
        more_patterns = [
            Hypergraph(3, 5, ((0, 1, 2),)),  # isolated vertices
            Hypergraph(2, 3, ((0, 1), (0, 2), (1, 2))),
            Hypergraph(2, 4, ((0, 1), (2, 3))),  # two components
            Hypergraph(4, 6, ((0, 1, 2, 3), (2, 3, 4, 5))),
        ]
        for f in more_patterns:
            for _ in range(8):
                h = random_hypergraph(rng, f.r, rng.randint(4, 9), p=0.5)
                assert max_f_free_subset(h, f).size == oracle_max_f_free(h, f)
        rng = random.Random(103)
        for _ in range(10):
            h = random_hypergraph(rng, 3, 8, p=0.35)
            assert max_f_free_subset(h, k33).size == oracle_max_f_free(h, k33)


class TestEnumeration:
    def test_k34_free_on_4_vertices(self, k34):
        graphs = list(enumerate_g_free(4, 3, k34))
        assert len(graphs) == 4
        assert len(graphs) == iso_class_count(
            4, 3, lambda h: contains_copy(h, k34) is None
        )

    def test_single_edge_probe_leaves_only_edgeless(self, k33):
        graphs = list(enumerate_g_free(5, 3, k33))
        assert graphs == [Hypergraph(3, 5, ())]

    def test_all_yielded_are_free_and_distinct(self, k34):
        seen = set()
        for h in enumerate_g_free(5, 3, k34):
            assert contains_copy(h, k34) is None
            key = oracle_canonical(h)
            assert key not in seen
            seen.add(key)

    def test_class_counts_match_bruteforce_n5(self, k34):
        got = sum(1 for _ in enumerate_g_free(5, 3, k34))
        assert got == iso_class_count(5, 3, lambda h: contains_copy(h, k34) is None)

    def test_capacity(self, k33):
        with pytest.raises(CapacityError):
            list(enumerate_g_free(9, 3, k33))

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_fewer_vertices_than_r(self, n, k34):
        assert list(enumerate_g_free(n, 3, k34)) == [Hypergraph(3, n, ())]

    def test_probe_larger_than_n_leaves_all_free(self):
        # Both probes have 5 vertices, so no 3-graph on 4 vertices holds them.
        for g in (build_complete(3, 5), Hypergraph(3, 5, ((0, 1, 2),))):
            graphs = list(enumerate_g_free(4, 3, g))
            assert [len(h.edges) for h in graphs] == [0, 1, 2, 3, 4]

    def test_edgeless_probe(self):
        # An edgeless probe is in every host on at least as many vertices, and
        # in none on fewer: then every class of 3-graphs on 4 vertices is free.
        assert list(enumerate_g_free(4, 3, Hypergraph(3, 4, ()))) == []
        graphs = list(enumerate_g_free(4, 3, Hypergraph(3, 5, ())))
        assert [len(h.edges) for h in graphs] == [0, 1, 2, 3, 4]

    def test_against_oracles(self):
        # Seeded random probes plus a disconnected one and ones with isolated
        # vertices; G-freeness by oracle_maps, classes by oracle_canonical.
        rng = random.Random(1401)
        cases = [
            (2, 5, Hypergraph(2, 4, ((0, 1), (2, 3)))),
            (2, 5, Hypergraph(2, 4, ((0, 1), (1, 2)))),
            (3, 5, Hypergraph(3, 5, ((0, 1, 2), (1, 2, 3)))),
            (1, 6, Hypergraph(1, 4, ((0,), (2,)))),
        ]
        for r, n in [(1, 6), (2, 4), (2, 5), (3, 4), (3, 5), (3, 5)]:
            g = random_hypergraph(rng, r, rng.randint(r + 1, n), p=0.7, ensure_edge=True)
            cases.append((r, n, g))
        for r, n, g in cases:
            graphs = list(enumerate_g_free(n, r, g))
            for h in graphs:
                assert oracle_free(h, g)
                assert oracle_canonical(h) == h.edges
            assert len(graphs) == iso_class_count(n, r, lambda h: oracle_free(h, g))

    @pytest.mark.parametrize("r", [1, 12])
    def test_vertex_capacity(self, r):
        # C(13, r) = 13 is within the C(n, r) bound; the 12-vertex bound of
        # the canonical check must still refuse, naming the enumeration.
        with pytest.raises(CapacityError, match="enumeration limited to n <= 12"):
            list(enumerate_g_free(13, r, build_complete(r, r + 1)))


class TestFExact:
    def test_golden_value_n4(self, k33, k34):
        res = f_exact(k33, k34, 4)
        assert res.value == 3
        assert contains_copy(res.extremal, k34) is None

    def test_trivial_when_probe_equals_pattern(self, k33):
        assert f_exact(k33, k33, 4).value == 4

    def test_monotone_in_n(self, k33, k34):
        values = [f_exact(k33, k34, n).value for n in range(3, 6)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_matches_unquotiented_bruteforce_n4(self, k33, k34):
        rsets = list(itertools.combinations(range(4), 3))
        best = None
        for mask in range(1 << 4):
            edges = tuple(r for i, r in enumerate(rsets) if mask >> i & 1)
            h = Hypergraph(3, 4, edges)
            if contains_copy(h, k34) is not None:
                continue
            val = oracle_max_f_free(h, k33)
            best = val if best is None else min(best, val)
        assert f_exact(k33, k34, 4).value == best

    def test_two_disjoint_edges_probe(self, k33):
        two_edges = Hypergraph(3, 6, ((0, 1, 2), (3, 4, 5)))
        for n in (4, 5):
            rsets = list(itertools.combinations(range(n), 3))
            best = None
            for mask in range(1 << len(rsets)):
                edges = tuple(r for i, r in enumerate(rsets) if mask >> i & 1)
                h = Hypergraph(3, n, edges)
                if contains_copy(h, two_edges) is not None:
                    continue
                val = oracle_max_f_free(h, k33)
                best = val if best is None else min(best, val)
            assert f_exact(k33, two_edges, n).value == best

    def test_rejects_edgeless_inputs(self, k34):
        with pytest.raises(InvalidParameterError):
            f_exact(Hypergraph(3, 3, ()), k34, 4)
        with pytest.raises(InvalidParameterError):
            f_exact(k34, Hypergraph(3, 3, ()), 4)

    def test_edgeless_probe_on_more_vertices(self, k33):
        # Every 3-graph on 4 vertices is a host; K^3_4 leaves only two vertices.
        assert f_exact(k33, Hypergraph(3, 5, ()), 4).value == 2

    def test_at_least_one(self, k33, k34):
        assert f_exact(k33, k34, 1).value >= 1

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_fewer_vertices_than_r(self, n, k33, k34):
        assert f_exact(k33, k34, n).value == n

    def test_against_oracles(self):
        # The value is the least oracle max-free size over the classes, and
        # the extremal is the first class attaining it and is G-free.  The
        # random cases take r = 1-4, so some have v(F) > n and some stop at
        # the floor min(n, v(F) - 1).
        rng = random.Random(1402)
        cases = [
            (Hypergraph(3, 4, ((0, 1, 2),)), build_complete(3, 4), 5),  # isolated vertex
            (  # disconnected F
                Hypergraph(3, 6, ((0, 1, 2), (3, 4, 5))),
                Hypergraph(3, 4, ((0, 1, 2), (0, 1, 3))),
                6,
            ),
            (Hypergraph(2, 4, ((0, 1), (2, 3))), Hypergraph(2, 3, ((0, 1), (0, 2), (1, 2))), 6),
            (Hypergraph(2, 5, ((0, 1), (2, 3))), Hypergraph(2, 3, ((0, 1), (1, 2))), 6),
            (Hypergraph(1, 3, ((0,), (1,))), Hypergraph(1, 3, ((0,), (1,), (2,))), 7),
            (Hypergraph(4, 7, ((0, 1, 2, 3),)), build_complete(4, 5), 6),  # v(F) > n
            (build_complete(3, 4), Hypergraph(3, 5, ((0, 1, 2), (2, 3, 4))), 5),
            (build_complete(2, 3), build_complete(2, 6), 5),  # v(G) > n
        ]
        shapes = [(1, 6), (2, 5), (2, 6), (3, 5), (3, 5), (4, 6)]
        max_n, shape_rng = {1: 8, 2: 6, 3: 5, 4: 6}, random.Random(1403)
        shapes += [(r, shape_rng.randint(r + 1, max_n[r])) for r in [1, 2, 3, 4] * 13]
        for r, n in shapes:
            f = random_hypergraph(rng, r, rng.randint(r, r + 2), p=0.6, ensure_edge=True)
            g = random_hypergraph(rng, r, rng.randint(r + 1, n), p=0.5, ensure_edge=True)
            cases.append((f, g, n))
        floor_hits = 0
        for f, g, n in cases:
            res = f_exact(f, g, n)
            sizes = [(oracle_max_f_free(h, f), h) for h in enumerate_g_free(n, f.r, g)]
            assert res.value == min(size for size, _ in sizes)
            assert res.extremal == next(h for size, h in sizes if size == res.value)
            assert oracle_free(res.extremal, g)
            floor_hits += res.value == min(n, f.n - 1)
        assert 0 < floor_hits < len(cases)

    def test_cut_skips_canonicity_tests(self, monkeypatch, k33, k34):
        # The full walk at n = 6 makes 1,805 canonicity tests.
        calls = []
        monkeypatch.setattr(exact, "is_canonical", lambda h: calls.append(h) or is_canonical(h))
        assert f_exact(k33, k34, 6).value == 3
        assert len(calls) <= 40

    def test_constructor_probe_reading_edges_first(self, monkeypatch, k33, k34):
        # A probe wrapping Hypergraph.__post_init__ that reads len(edges)
        # before the real one runs, as a tracer may, sees only sized edges.
        classes = list(enumerate_g_free(5, 3, k34))
        post_init = Hypergraph.__post_init__

        def probe(h):
            len(h.edges)
            post_init(h)

        monkeypatch.setattr(Hypergraph, "__post_init__", probe)
        assert f_exact(k33, k34, 5).value == 3
        assert list(enumerate_g_free(5, 3, k34)) == classes
