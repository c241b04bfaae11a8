"""Core type, builders, shadow, induced, and the two blowup operators."""

import random

import pytest

from erdosrogers import (
    Hypergraph,
    InvalidParameterError,
    blowup_F,
    blowup_t,
    build_complete,
    build_h,
    canonical_form,
    contains_copy,
    induced,
    richest_extension,
    shadow,
)
from conftest import oracle_blowup, random_hypergraph


class TestHypergraph:
    def test_normalization(self):
        h = Hypergraph(3, 4, ((2, 1, 0), (0, 1, 3), (0, 1, 2)))
        assert h.edges == ((0, 1, 2), (0, 1, 3))

    def test_zero_edges_legal(self):
        assert Hypergraph(3, 0, ()).edges == ()
        assert Hypergraph(1, 5, ()).n == 5

    def test_rejects_bad_edges(self):
        with pytest.raises(InvalidParameterError):
            Hypergraph(3, 3, ((0, 1, 3),))
        with pytest.raises(InvalidParameterError):
            Hypergraph(3, 4, ((0, 1, 1),))
        with pytest.raises(InvalidParameterError):
            Hypergraph(0, 4, ())
        with pytest.raises(InvalidParameterError):
            Hypergraph(3, 4, (0, 1, 2))

    def test_one_shot_edge_iterable(self):
        h = Hypergraph(3, 5, (e for e in [(0, 2, 1), (1, 2, 3)]))
        assert h.edges == ((0, 1, 2), (1, 2, 3))

    @pytest.mark.parametrize(
        "r, n, edges",
        [
            (3, 4, ((0, 1, 2.5),)),
            (3, 4, ((0, 2, True),)),
            (3, 4, ((0, 1, "2"), (0, 1, 3))),
            (3.0, 4, ((0, 1, 2),)),
        ],
        ids=["float-vertex", "bool-vertex", "str-vertex", "float-r"],
    )
    def test_rejects_non_int_ids(self, r, n, edges):
        with pytest.raises(InvalidParameterError):
            Hypergraph(r, n, edges)

    def test_degrees(self, h32):
        assert h32.degrees == (2, 2, 1, 1)


def mask(vertices) -> int:
    return sum(1 << v for v in vertices)


class TestIndices:
    """links, nbhd and codeg2 against their definitions, read off the edges as sets."""

    @staticmethod
    def hosts():
        rng = random.Random(44)
        for r in (1, 2, 3, 4):
            yield Hypergraph(r, r + 2, ())
            for n in (r, r + 3, 9):
                yield random_hypergraph(rng, r, n, p=0.5)
            # Scattered over more than 64 ids, so masks span machine words.
            h = random_hypergraph(rng, r, 7, p=0.6)
            ids = rng.sample(range(130), h.n)
            yield Hypergraph(r, 130, [[ids[v] for v in e] for e in h.edges])

    def test_against_definition(self):
        for h in self.hosts():
            completing: dict[frozenset, set[int]] = {}
            for e in h.edges:
                for v in e:
                    completing.setdefault(frozenset(e) - {v}, set()).add(v)
            assert h.links == {mask(s): mask(c) for s, c in completing.items()}
            assert h.nbhd == tuple(
                mask({u for e in h.edges if v in e for u in e} - {v}) for v in range(h.n)
            )
            assert h.codeg2 == tuple(
                mask(u for u in range(h.n) if u != v and sum({u, v} <= set(e) for e in h.edges) > 1)
                for v in range(h.n)
            )
            if h.r == 1:  # the one key is the empty set's; no vertex has a neighbour
                assert set(h.links) <= {0} and not any(h.nbhd)
            if h.r <= 2:  # distinct edges share at most r - 1 < 2 vertices
                assert not any(h.codeg2)

    def test_built_once(self):
        # Searches on one host read its cached index, not a fresh one.
        h = random_hypergraph(random.Random(3), 3, 8, p=0.6)
        links, nbhd = h.links, h.nbhd
        assert contains_copy(h, build_complete(3, 4)) is not None
        canonical_form(h)
        assert richest_extension(h, build_complete(3, 4), 0, threshold=1) is not None
        assert h.links is links and h.nbhd is nbhd


class TestBuilders:
    def test_complete_edge_counts(self):
        assert len(build_complete(3, 3).edges) == 1
        assert len(build_complete(3, 4).edges) == 4
        assert len(build_complete(2, 5).edges) == 10

    def test_complete_rejects_bad_params(self):
        with pytest.raises(InvalidParameterError):
            build_complete(4, 3)
        with pytest.raises(InvalidParameterError):
            build_complete(0, 3)

    def test_build_h_representative(self):
        assert build_h(3, 2).edges == ((0, 1, 2), (0, 1, 3))
        assert build_h(3, 4).edges == build_complete(3, 4).edges
        h41 = build_h(4, 1)
        assert h41.edges == ((0, 1, 2, 3),) and h41.n == 5

    def test_build_h_rejects_bad_t(self):
        with pytest.raises(InvalidParameterError):
            build_h(3, 0)
        with pytest.raises(InvalidParameterError):
            build_h(3, 5)


class TestShadow:
    def test_single_triple(self, k33):
        assert shadow(k33, 2).edges == ((0, 1), (0, 2), (1, 2))

    def test_h32_shadow_is_k4_minus_pair(self, h32):
        assert shadow(h32, 2).edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))

    def test_full_order_shadow_is_identity(self, h32):
        assert shadow(h32, 3).edges == h32.edges

    def test_rejects_bad_order(self, k33):
        with pytest.raises(InvalidParameterError):
            shadow(k33, 0)
        with pytest.raises(InvalidParameterError):
            shadow(k33, 4)

    def test_composition(self):
        rng = random.Random(11)
        for _ in range(20):
            h = random_hypergraph(rng, 4, 7, p=0.2)
            for k2 in range(1, 5):
                for k1 in range(1, k2 + 1):
                    assert shadow(shadow(h, k2), k1) == shadow(h, k1)


class TestInduced:
    def test_subclique(self, k34, k33):
        assert induced(k34, [0, 1, 2]) == k33

    def test_empty_subset(self, k34):
        assert induced(k34, []) == Hypergraph(3, 0, ())

    def test_whole_vertex_set_is_the_graph(self, k34):
        # Hypergraph is immutable, so its cached indices are shared.
        assert induced(k34, [3, 1, 0, 2, 1]) is k34
        with pytest.raises(InvalidParameterError):
            induced(k34, [0, 1, 2, 4])

    def test_h32_no_surviving_edges(self, h32):
        assert induced(h32, [0, 2, 3]).edges == ()

    def test_rejects_out_of_range(self, k33):
        with pytest.raises(InvalidParameterError):
            induced(k33, [0, 5])

    def test_matches_edge_filter(self):
        # Small W in a dense host looks up W's r-subsets; large W scans the
        # host's edges.  Both must keep exactly the edges inside W, relabeled.
        rng = random.Random(7)
        for _ in range(200):
            r = rng.randint(1, 4)
            h = random_hypergraph(rng, r, rng.randint(r, 10), p=rng.choice((0.1, 0.5, 0.9)))
            w = sorted(rng.sample(range(h.n), rng.randint(0, h.n)))
            kept = [e for e in h.edges if set(e) <= set(w)]
            want = tuple(tuple(w.index(v) for v in e) for e in kept)
            assert induced(h, w) == Hypergraph(r, len(w), want)

    def test_containment_monotone(self, k33):
        rng = random.Random(5)
        for _ in range(25):
            h = random_hypergraph(rng, 3, 8, p=0.3)
            w = [v for v in range(8) if rng.random() < 0.7]
            if contains_copy(induced(h, w), k33) is not None:
                assert contains_copy(h, k33) is not None


class TestBlowups:
    def test_duplicated_edge(self, k33):
        assert blowup_t(k33, 0, 2).edges == ((0, 1, 2), (1, 2, 3))

    def test_t1_is_identity(self, h32):
        assert blowup_t(h32, 1, 1) == h32

    def test_rejects_bad_vertex(self, k33):
        with pytest.raises(InvalidParameterError):
            blowup_t(k33, 3, 2)

    def test_edge_count_formula(self):
        rng = random.Random(3)
        for _ in range(20):
            h = random_hypergraph(rng, 3, 6, p=0.4)
            v = rng.randrange(6)
            t = rng.randint(1, 4)
            b = blowup_t(h, v, t)
            assert len(b.edges) == len(h.edges) + (t - 1) * h.degrees[v]
            assert b.n == h.n + t - 1

    def test_no_edge_spans_two_copies(self, k34):
        b = blowup_t(k34, 1, 4)
        copies = {1, 4, 5, 6}
        assert all(len(copies & set(e)) <= 1 for e in b.edges)

    def test_repeated_blowup_canonical(self):
        rng = random.Random(9)
        for _ in range(10):
            h = random_hypergraph(rng, 3, 5, p=0.4, ensure_edge=True)
            v = rng.randrange(5)
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            lhs = blowup_t(blowup_t(h, v, a), v, b)
            rhs = blowup_t(h, v, a + b - 1)
            assert canonical_form(lhs) == canonical_form(rhs)

    def test_blowup_F_matches_figure(self, k33):
        b = blowup_F(k33, 0, k33)
        assert b.n == 5
        assert b.edges == ((0, 1, 2), (0, 3, 4), (1, 2, 3), (1, 2, 4))

    def test_blowup_F_single_edge_count(self):
        rng = random.Random(21)
        single = build_complete(3, 3)
        for _ in range(15):
            h = random_hypergraph(rng, 3, 6, p=0.4)
            v = rng.randrange(6)
            b = blowup_F(h, v, single)
            assert len(b.edges) == len(h.edges) + 2 * h.degrees[v] + 1

    def test_blowup_F_places_pattern(self, k33, h32):
        b = blowup_F(h32, 1, k33)
        placed = [1] + [4, 5]
        assert contains_copy(induced(b, placed), k33) is not None

    def test_against_oracle(self):
        # blowup_t(h, v, t) places the edgeless pattern on t vertices.
        rng = random.Random(27)
        for _ in range(2000):
            r = rng.randint(1, 4)
            h = random_hypergraph(rng, r, rng.randint(1, 7), p=0.4)
            f = random_hypergraph(rng, r, rng.randint(1, 5), p=0.5)
            v = rng.randrange(h.n)
            t = rng.randint(1, 4)
            assert blowup_F(h, v, f) == oracle_blowup(h, v, f)
            assert blowup_t(h, v, t) == oracle_blowup(h, v, Hypergraph(r, t))

    def test_blowup_F_empty_pattern_is_identity(self, h32):
        assert blowup_F(h32, 2, Hypergraph(3, 0)) == h32

    def test_blowup_F_uniformity_mismatch(self, k33):
        with pytest.raises(InvalidParameterError):
            blowup_F(k33, 0, build_complete(2, 2))
