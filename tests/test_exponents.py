"""Density exponents against brute force: values and witnesses against a
sweep of every vertex subset of the pair shadow (conftest.oracle_densest, up
to 12 covered vertices), and against a sweep of all 2^e edge subsets on
shadows of at most 20 edges."""

import itertools
import random
from fractions import Fraction

import pytest

from erdosrogers import (
    Hypergraph,
    InvalidParameterError,
    alpha,
    beta,
    build_complete,
    build_h,
    check_concluding_condition,
    exponents,
)
from conftest import (
    oracle_densest,
    oracle_max_density,
    oracle_tie_key,
    oracle_vertex_subsets,
    random_hypergraph,
)


def loose_tail(base: Hypergraph, joints: int) -> Hypergraph:
    """Attach a loose path of `joints` triples at the last vertex of base."""
    edges = list(base.edges)
    anchor = base.n - 1
    nxt = base.n
    for _ in range(joints):
        edges.append((anchor, nxt, nxt + 1))
        anchor = nxt + 1
        nxt += 2
    return Hypergraph(3, nxt, tuple(edges))


def oracle_witness(f: Hypergraph, offset: int):
    """Brute-force (value, witness vertices, witness edges): sweep every
    nonempty edge subset of the 2-shadow and take the maximum value, then the
    fewest covered vertices, then the least canonical form of the witness
    relabeled to 0..v'-1, then the least edge list."""
    pairs = sorted({p for e in f.edges for p in itertools.combinations(e, 2)})
    scored = []
    for mask in range(1, 1 << len(pairs)):
        chosen = tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
        covered = tuple(sorted({v for e in chosen for v in e}))
        value = Fraction(len(chosen) + offset, len(covered) - 1)
        scored.append(((value, -len(covered)), covered, chosen))
    top = max(key for key, _, _ in scored)
    covered, chosen = min(((c, e) for key, c, e in scored if key == top), key=oracle_tie_key)
    return top[0], covered, chosen


class TestGoldenValues:
    def test_alpha_cliques(self):
        assert alpha(build_complete(3, 3)).value == Fraction(2)
        assert alpha(build_complete(3, 4)).value == Fraction(7, 3)
        assert alpha(build_complete(3, 5)).value == Fraction(11, 4)

    def test_alpha_h32(self, h32):
        assert alpha(h32).value == Fraction(2)
        assert oracle_max_density(h32, 1) == Fraction(2)

    def test_beta_values(self, k33, k34):
        assert beta(k33).value == Fraction(3, 2)
        assert beta(k34).value == Fraction(2)

    def test_beta_tree_shadow_is_one(self):
        path = Hypergraph(2, 5, ((0, 1), (1, 2), (2, 3), (3, 4)))
        assert beta(path).value == Fraction(1)

    def test_rejects_edgeless(self):
        with pytest.raises(InvalidParameterError):
            alpha(Hypergraph(3, 4, ()))
        with pytest.raises(InvalidParameterError):
            beta(Hypergraph(3, 4, ()))


class TestWitnesses:
    def test_witness_achieves_value(self):
        rng = random.Random(71)
        for _ in range(25):
            f = random_hypergraph(rng, 3, rng.randint(3, 6), p=0.4, ensure_edge=True)
            for fn in (alpha, beta):
                rep = fn(f)
                assert rep.recompute() == rep.value
                assert len(rep.witness_edges) >= 1

    @pytest.mark.parametrize("fn, offset", [(alpha, 1), (beta, 0)])
    def test_witness_matches_oracle(self, fn, offset):
        rng = random.Random(83)
        cases = [
            build_complete(3, 4),
            build_h(3, 2),
            Hypergraph(3, 6, ((0, 1, 2), (3, 4, 5))),
            # Two non-isomorphic components, each a beta witness of value 7/4
            # on 5 vertices: only the canonical form picks the second one.
            Hypergraph(2, 10, (
                (0, 2), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
                (5, 8), (5, 9), (6, 8), (6, 9), (7, 8), (7, 9), (8, 9),
            )),
        ] + [
            random_hypergraph(rng, 3, rng.randint(3, 6), p=0.35, ensure_edge=True)
            for _ in range(30)
        ]
        for f in cases:
            rep = fn(f)
            assert (rep.value, rep.witness_vertices, rep.witness_edges) == oracle_witness(
                f, offset
            )

    def test_tie_break_prefers_fewest_vertices(self, k33):
        rep = alpha(k33)
        assert rep.witness_vertices == (0, 1)
        assert rep.witness_edges == ((0, 1),)


class TestTieBreakSize:
    def test_tied_witnesses_share_at_most_one_vertex(self, monkeypatch):
        # README's capacity bound.  e(S) - x|S| is supermodular, so two
        # fewest-vertex maximizers sharing two vertices would leave their
        # intersection as a maximizer with fewer vertices.  A tie within 16
        # covered vertices therefore compares witnesses of at most 8.
        tied = []
        induced = exponents.induced
        monkeypatch.setattr(
            exponents, "induced", lambda h, v: tied.append(set(v)) or induced(h, v)
        )
        # Two K^3_5 sharing vertex 4: their K_5 shadows tie for alpha and beta.
        k5s = [c for c in itertools.combinations(range(9), 3) if max(c) < 5 or min(c) > 3]
        rng = random.Random(89)
        cases = [Hypergraph(3, 9, k5s)] + [
            random_hypergraph(rng, r, rng.randint(3, 8), p=rng.choice((0.3, 0.6)),
                              ensure_edge=True)
            for r in (2, 3) for _ in range(60)
        ]
        for f in cases:
            for fn in (alpha, beta):
                del tied[:]
                fn(f)
                assert all(len(a & b) <= 1 for a, b in itertools.combinations(tied, 2))
                if f is cases[0]:
                    assert tied == [set(range(5)), set(range(4, 9))]


class TestOracleAgreement:
    def test_random_3graphs(self):
        rng = random.Random(73)
        for _ in range(25):
            f = random_hypergraph(rng, 3, rng.randint(3, 6), p=0.35, ensure_edge=True)
            assert alpha(f).value == oracle_max_density(f, 1)
            assert beta(f).value == oracle_max_density(f, 0)

    def test_alpha_at_least_beta_and_two(self):
        rng = random.Random(79)
        for _ in range(25):
            f = random_hypergraph(rng, 3, rng.randint(3, 6), p=0.35, ensure_edge=True)
            a, b = alpha(f).value, beta(f).value
            assert a >= b
            assert a >= 2


class TestVertexSubsetOracle:
    def test_sweep(self):
        # 7-12 covered vertices, past the edge-subset oracle's 20 shadow
        # edges.  Dense 2-graphs make ties common, so the tie-break is tested.
        rng = random.Random(101)
        cases = []
        while len(cases) < 300:
            r = (2, 2, 3, 4)[len(cases) % 4]
            n = rng.randint(7, 12)
            p = {2: (0.3, 0.6, 0.8), 3: (0.1, 0.2), 4: (0.05, 0.1)}[r]
            f = random_hypergraph(rng, r, n, p=rng.choice(p))
            if len({v for e in f.edges for v in e}) >= 7:
                cases.append(f)
        for f in cases:
            subsets = oracle_vertex_subsets(f)
            for fn, offset in ((alpha, 1), (beta, 0)):
                rep = fn(f)
                assert (rep.value, rep.witness_vertices, rep.witness_edges) == (
                    oracle_densest(subsets, offset)
                )


class TestConcludingCondition:
    def test_cliques_attain_full_shadow(self, k33, k34):
        assert check_concluding_condition(k33)
        assert check_concluding_condition(k34)

    def test_diluted_shadow_fails(self):
        # A dense core with a long loose tail: the full shadow is strictly
        # less dense than the core alone.
        diluted = loose_tail(build_complete(3, 4), 3)
        assert beta(diluted).value == Fraction(2)
        assert not check_concluding_condition(diluted)

    def test_disconnected_shadow_fails(self):
        two_triples = Hypergraph(3, 6, ((0, 1, 2), (3, 4, 5)))
        assert not check_concluding_condition(two_triples)

    def test_isolated_vertex_counts_in_denominator(self):
        # The full shadow attains beta = 3/2, but v(F) - 1 = 3 counts the
        # isolated vertex, so the condition compares against 3/3.
        k33_plus_isolated = Hypergraph(3, 4, ((0, 1, 2),))
        assert beta(k33_plus_isolated).value == Fraction(3, 2)
        assert not check_concluding_condition(k33_plus_isolated)
