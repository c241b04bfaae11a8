"""Homomorphism and shadow-homomorphism deciders, tight connectivity, and
bounded iterated-blowup membership, cross-checked against sweep oracles."""

import itertools
import random
import time
from collections import Counter
from dataclasses import replace

import pytest

from erdosrogers import (
    Hypergraph,
    InvalidParameterError,
    SetMap,
    ShadowHomWitness,
    build_complete,
    build_h,
    find_homomorphism,
    find_shadow_homomorphism,
    is_embedding,
    is_k_tightly_connected,
    is_sub_iterated_blowup,
    iterated_blowup,
    verify_shadow_hom,
)
from conftest import (
    oracle_blowup_member,
    oracle_has_hom,
    oracle_has_shadow_hom,
    oracle_shadow_hom_witness,
    random_hypergraph,
    relabeled,
    tight_cycle,
)


def tight_path(m):
    return Hypergraph(3, m + 2, tuple((i, i + 1, i + 2) for i in range(m)))


def greedy_tight_order(g, k):
    """Oracle: repeatedly take the lowest-index unused edge that meets some
    used edge in >= k vertices, rescanning everything at every step."""
    if not g.edges:
        return None
    order, rest = [g.edges[0]], list(g.edges[1:])
    while rest:
        nxt = next(
            (e for e in rest if any(len(set(e) & set(u)) >= k for u in order)), None
        )
        if nxt is None:
            return None
        order.append(nxt)
        rest.remove(nxt)
    return tuple(order)


def random_shadow_witness(rng, g, f, k):
    """A certificate of the right shape with random images.  Each edge of g
    goes where one random vertex map sends it if that is an edge of f, else
    onto a random edge of f in random order; each k-set's entry is read off
    a random edge containing it, so the maps glue only where they agree."""
    phi = [rng.randrange(f.n) for _ in range(g.n)]
    images = {}
    for e in g.edges:
        img = tuple(phi[v] for v in e)
        if tuple(sorted(img)) not in f.edge_set:
            img = tuple(rng.sample(rng.choice(f.edges), g.r))
        images[e] = img
    holders = {}
    for e in g.edges:
        for ps in itertools.combinations(range(g.r), k):
            holders.setdefault(tuple(e[p] for p in ps), []).append((e, ps))
    shadow_map = []
    for s in sorted(holders):
        e, ps = rng.choice(holders[s])
        shadow_map.append(SetMap(s, tuple(images[e][p] for p in ps)))
    edge_map = tuple(SetMap(e, images[e]) for e in g.edges)
    return ShadowHomWitness(k, tuple(shadow_map), edge_map)


def corrupt_shadow_witness(rng, w, f):
    """The same certificate with one entry's images swapped in two places,
    or replaced by arbitrary values (repeats and non-vertices of f too)."""
    maps = [list(w.shadow_map), list(w.edge_map)]
    side = maps[rng.randrange(2)]
    i = rng.randrange(len(side))
    img = list(side[i].images)
    if len(img) >= 2 and rng.random() < 0.5:
        a, b = rng.sample(range(len(img)), 2)
        img[a], img[b] = img[b], img[a]
    else:
        img = [rng.randrange(-1, f.n + 1) for _ in img]
    side[i] = SetMap(side[i].source, tuple(img))
    return ShadowHomWitness(w.k, tuple(maps[0]), tuple(maps[1]))


class TestFindHomomorphism:
    def test_identity(self, h32):
        w = find_homomorphism(h32, h32)
        assert w is not None
        for e in h32.edges:
            assert tuple(sorted(w.images[v] for v in e)) in h32.edge_set

    def test_k34_to_k33_absent(self, k34, k33):
        assert find_homomorphism(k34, k33) is None
        assert not oracle_has_hom(k34, k33)

    def test_open_tight_cycle_not_homomorphic(self, tc5_gap, k33):
        assert find_homomorphism(tc5_gap, k33) is None

    def test_against_oracle(self):
        rng = random.Random(13)
        for _ in range(40):
            g = random_hypergraph(rng, 3, rng.randint(3, 5), p=0.4)
            f = random_hypergraph(rng, 3, rng.randint(3, 4), p=0.5)
            assert (find_homomorphism(g, f) is not None) == oracle_has_hom(g, f)

    def test_witness_is_valid(self):
        rng = random.Random(19)
        for _ in range(40):
            g = random_hypergraph(rng, 3, rng.randint(3, 5), p=0.35)
            f = random_hypergraph(rng, 3, rng.randint(3, 5), p=0.5)
            w = find_homomorphism(g, f)
            if w is None:
                continue
            assert len(w.images) == g.n
            for e in g.edges:
                img = sorted(w.images[v] for v in e)
                assert len(set(img)) == 3 and tuple(img) in f.edge_set

    def test_long_tight_path(self, k33):
        # 1102 vertices to place: deeper than the default recursion limit.
        g = tight_path(1100)
        w = find_homomorphism(g, k33)
        assert w is not None
        for e in g.edges:
            assert tuple(sorted(w.images[v] for v in e)) in k33.edge_set


class TestFindShadowHomomorphism:
    def test_open_tight_cycle_yes_at_2(self, tc5_gap, k33):
        w = find_shadow_homomorphism(tc5_gap, k33, 2)
        assert w is not None
        assert verify_shadow_hom(tc5_gap, k33, 2, w)

    def test_open_tight_cycle_no_at_1(self, tc5_gap, k33):
        assert find_shadow_homomorphism(tc5_gap, k33, 1) is None

    def test_cliques_no(self, k34, k33):
        assert find_shadow_homomorphism(k34, k33, 2) is None

    def test_h_family_no(self, h33, h32):
        assert find_shadow_homomorphism(h33, h32, 2) is None

    def test_k1_matches_homomorphism(self):
        rng = random.Random(29)
        for _ in range(40):
            g = random_hypergraph(rng, 3, rng.randint(4, 6), p=0.35)
            f = random_hypergraph(rng, 3, rng.randint(4, 6), p=0.4)
            shallow = find_shadow_homomorphism(g, f, 1) is not None
            assert shallow == (find_homomorphism(g, f) is not None)

    def test_against_sweep_oracle(self):
        rng = random.Random(43)
        # With r = 4 on five vertices any two edges meet in three vertices,
        # more than k = 1 or 2.
        for r, n in ((3, 4), (4, 5)):
            checked = 0
            while checked < 25:
                g = random_hypergraph(rng, r, n, p=0.4)
                f = random_hypergraph(rng, r, n, p=0.4)
                if len(g.edges) > 3 or not (1 <= len(f.edges) <= 2):
                    continue
                for k in range(1, r):
                    got = find_shadow_homomorphism(g, f, k) is not None
                    assert got == oracle_has_shadow_hom(g, f, k)
                checked += 1

    def test_monotone_in_k(self):
        rng = random.Random(47)
        for _ in range(60):
            g = random_hypergraph(rng, 3, rng.randint(4, 6), p=0.35)
            f = random_hypergraph(rng, 3, rng.randint(4, 6), p=0.4)
            if find_shadow_homomorphism(g, f, 1) is not None:
                assert find_shadow_homomorphism(g, f, 2) is not None

    def test_long_tight_path(self, k33):
        g = tight_path(1100)
        w = find_shadow_homomorphism(g, k33, 2)
        assert w is not None and verify_shadow_hom(g, k33, 2, w)

    def test_edgeless_source_trivially_yes(self, k33):
        empty = Hypergraph(3, 4, ())
        w = find_shadow_homomorphism(empty, k33, 2)
        assert w == ShadowHomWitness(k=2, shadow_map=(), edge_map=())

    def test_bad_k(self, k33):
        with pytest.raises(InvalidParameterError):
            find_shadow_homomorphism(k33, k33, 0)
        with pytest.raises(InvalidParameterError):
            find_shadow_homomorphism(k33, k33, 4)


class TestVerifyShadowHom:
    def _witness(self, g, f, k):
        w = find_shadow_homomorphism(g, f, k)
        assert w is not None
        return w

    def test_accepts_solver_output(self, tc5_gap, k33):
        w = self._witness(tc5_gap, k33, 2)
        assert verify_shadow_hom(tc5_gap, k33, 2, w)

    def test_rejects_swapped_kset_images(self, tc5_gap, k33):
        w = self._witness(tc5_gap, k33, 2)
        sm = w.shadow_map[0]
        corrupted = SetMap(source=sm.source, images=(sm.images[1], sm.images[0]))
        mutated = ShadowHomWitness(
            k=2, shadow_map=(corrupted,) + w.shadow_map[1:], edge_map=w.edge_map
        )
        assert not verify_shadow_hom(tc5_gap, k33, 2, mutated)

    def test_rejects_swapped_edge_images(self, tc5_gap, k33):
        w = self._witness(tc5_gap, k33, 2)
        em = w.edge_map[0]
        corrupted = SetMap(
            source=em.source, images=(em.images[1], em.images[0], em.images[2])
        )
        mutated = ShadowHomWitness(
            k=2, shadow_map=w.shadow_map, edge_map=(corrupted,) + w.edge_map[1:]
        )
        assert not verify_shadow_hom(tc5_gap, k33, 2, mutated)

    def test_shape_mismatch_raises(self, tc5_gap, k33):
        w = self._witness(tc5_gap, k33, 2)
        with pytest.raises(InvalidParameterError):
            verify_shadow_hom(tc5_gap, k33, 1, w)
        truncated = ShadowHomWitness(
            k=2, shadow_map=w.shadow_map[1:], edge_map=w.edge_map
        )
        with pytest.raises(InvalidParameterError):
            verify_shadow_hom(tc5_gap, k33, 2, truncated)

    def test_wrong_arity_raises(self, tc5_gap, k33):
        # One image dropped from the first k-set's entry, then from the first edge's.
        w = self._witness(tc5_gap, k33, 2)
        sm, em = w.shadow_map[0], w.edge_map[0]
        for short in (
            replace(w, shadow_map=(SetMap(sm.source, sm.images[:1]),) + w.shadow_map[1:]),
            replace(w, edge_map=(SetMap(em.source, em.images[:2]),) + w.edge_map[1:]),
        ):
            with pytest.raises(InvalidParameterError, match="image tuple of wrong arity"):
                verify_shadow_hom(tc5_gap, k33, 2, short)

    def test_conflicting_duplicate_kset_entry_raises(self, tc5_gap, k33):
        # A reversed copy of the first k-set's entry in front of the true
        # one: two maps for one k-set is a malformed certificate.
        w = self._witness(tc5_gap, k33, 2)
        sm = w.shadow_map[0]
        doubled = ShadowHomWitness(
            k=2,
            shadow_map=(SetMap(sm.source, sm.images[::-1]),) + w.shadow_map,
            edge_map=w.edge_map,
        )
        with pytest.raises(InvalidParameterError):
            verify_shadow_hom(tc5_gap, k33, 2, doubled)
        assert not oracle_shadow_hom_witness(tc5_gap, k33, 2, doubled)

    def test_duplicate_edge_entry_raises(self, tc5_gap, k33):
        w = self._witness(tc5_gap, k33, 2)
        for edge_map in (
            w.edge_map[:1] + w.edge_map,
            w.edge_map[:1] + w.edge_map[:1] + w.edge_map[2:],
        ):
            doubled = ShadowHomWitness(k=2, shadow_map=w.shadow_map, edge_map=edge_map)
            with pytest.raises(InvalidParameterError):
                verify_shadow_hom(tc5_gap, k33, 2, doubled)

    def test_agrees_with_definition_oracle(self):
        # Solver witnesses, random ones, and either with one entry corrupted;
        # for k = r - 1 the oracle also checks the injectivity consequence,
        # which the verifier leaves to the edge pass.
        rng = random.Random(97)
        verdicts = Counter()
        for case in range(2000):
            r = rng.choice((2, 3, 4))
            k = rng.randint(1, r)
            g = random_hypergraph(rng, r, rng.randint(r, r + 3), p=0.5, ensure_edge=True)
            f = random_hypergraph(rng, r, rng.randint(r, r + 2), p=0.6, ensure_edge=True)
            w = find_shadow_homomorphism(g, f, k) if case % 3 == 0 else None
            if w is None:
                w = random_shadow_witness(rng, g, f, k)
            if case % 3 == 2:
                w = corrupt_shadow_witness(rng, w, f)
            got = verify_shadow_hom(g, f, k, w)
            assert got == oracle_shadow_hom_witness(g, f, k, w), (g, f, k, w)
            verdicts[r, k, got] += 1
        # Every (r, k) is seen both accepted and refused.
        assert len(verdicts) == 2 * (2 + 3 + 4), verdicts

    def test_injectivity_consequence_on_built_witness(self):
        # Hand-build edge maps sending two edges of a tight triple to the same
        # target; the k = r-1 cross-check must refuse it even though each map
        # is a bijection onto an edge.
        g = build_h(3, 3)
        f = build_complete(3, 4)
        assignment = {
            (0, 1, 2): (0, 1, 2),
            (0, 1, 3): (0, 1, 2),
            (0, 2, 3): (0, 2, 3),
        }
        edge_map = tuple(SetMap(source=e, images=assignment[e]) for e in g.edges)
        shadow_entries = {}
        for em in edge_map:
            for i in range(3):
                for j in range(i + 1, 3):
                    s = (em.source[i], em.source[j])
                    shadow_entries.setdefault(s, (em.images[i], em.images[j]))
        shadow_map = tuple(
            SetMap(source=s, images=shadow_entries[s]) for s in sorted(shadow_entries)
        )
        w = ShadowHomWitness(k=2, shadow_map=shadow_map, edge_map=edge_map)
        assert not verify_shadow_hom(g, f, 2, w)


class TestTightConnectivity:
    def test_single_edge(self, k33):
        order = is_k_tightly_connected(k33, 2)
        assert order is not None and order.order == ((0, 1, 2),)

    def test_disjoint_edges(self):
        g = Hypergraph(3, 6, ((0, 1, 2), (3, 4, 5)))
        assert is_k_tightly_connected(g, 1) is None

    def test_open_tight_cycle(self, tc5_gap):
        order = is_k_tightly_connected(tc5_gap, 2)
        assert order is not None
        seen = [set(order.order[0])]
        for e in order.order[1:]:
            assert any(len(set(e) & prev) >= 2 for prev in seen)
            seen.append(set(e))

    def test_edgeless(self):
        assert is_k_tightly_connected(Hypergraph(3, 4, ()), 1) is None

    def test_order_matches_greedy_oracle(self):
        rng = random.Random(59)
        for _ in range(150):
            r = rng.choice((2, 3, 4))
            g = random_hypergraph(rng, r, rng.randint(r, 8), p=rng.choice((0.1, 0.3, 0.6)))
            for k in range(1, r + 1):
                order = is_k_tightly_connected(g, k)
                assert (order and order.order) == greedy_tight_order(g, k)

    def test_long_relabeled_tight_path(self):
        perm = list(range(1102))
        random.Random(61).shuffle(perm)
        g = relabeled(tight_path(1100), perm)
        start = time.perf_counter()
        order = is_k_tightly_connected(g, 2)
        assert time.perf_counter() - start < 1.0
        assert sorted(order.order) == list(g.edges)
        # Each edge meets an earlier one in >= 2 vertices: it shares a pair.
        seen = set(itertools.combinations(order.order[0], 2))
        for e in order.order[1:]:
            pairs = set(itertools.combinations(e, 2))
            assert pairs & seen
            seen |= pairs

    def test_orders_valid_on_random_inputs(self):
        rng = random.Random(53)
        for _ in range(40):
            g = random_hypergraph(rng, 3, 6, p=0.3)
            for k in (1, 2, 3):
                order = is_k_tightly_connected(g, k)
                if order is None:
                    continue
                assert sorted(order.order) == list(g.edges)
                seen = [set(order.order[0])]
                for e in order.order[1:]:
                    assert any(len(set(e) & prev) >= k for prev in seen)
                    seen.append(set(e))


class TestIteratedBlowupMembership:
    def test_self_at_depth_zero(self):
        rng = random.Random(59)
        for _ in range(10):
            f = random_hypergraph(rng, 3, rng.randint(3, 5), p=0.4, ensure_edge=True)
            cert = is_sub_iterated_blowup(f, f, 0)
            assert cert is not None and cert.steps == ()

    def test_graph_case_always_member(self):
        k4 = build_complete(2, 4)
        k2 = build_complete(2, 2)
        cert = is_sub_iterated_blowup(k4, k2, 4)
        assert cert is not None
        replayed = iterated_blowup(k2, cert.steps)
        assert is_embedding(k4, replayed, cert.embedding)

    def test_k34_not_member_of_k33_closure(self, k34, k33):
        assert is_sub_iterated_blowup(k34, k33, 3) is None

    def test_depth_bound_reached(self):
        # K^2_4 needs exactly v(G) - 2 = 2 steps over K^2_2, so a bound one
        # lower would refuse it.
        k24, k22 = build_complete(2, 4), build_complete(2, 2)
        assert is_sub_iterated_blowup(k24, k22, 1) is None
        cert = is_sub_iterated_blowup(k24, k22, 5)
        assert cert is not None and len(cert.steps) == 2

    def test_no_depth_bound_for_r1(self):
        # Three 1-edges over F = ({0, 1}, {{0}}) need 2 steps, past v(G) - 2.
        f = Hypergraph(1, 2, ((0,),))
        g = Hypergraph(1, 3, ((0,), (1,), (2,)))
        cert = is_sub_iterated_blowup(g, f, 3)
        assert cert is not None and len(cert.steps) == 2

    def test_depth_bound_against_unpruned_oracle(self):
        # Searched one step past v(G) - 2, the oracle finds nothing that the
        # bounded search misses, and the same least steps.  A non-member over
        # H^3_2 costs the oracle about 3 s (280 iterates at depth 3), so that
        # base gets two draws.
        rng = random.Random(73)
        for f, draws in ((build_complete(3, 3), 6), (build_h(3, 2), 2),
                         (build_complete(2, 3), 6)):
            for _ in range(draws):
                g = random_hypergraph(rng, f.r, rng.randint(3, 4), p=0.5, ensure_edge=True)
                depth = g.n - 1
                want = oracle_blowup_member(g, f, depth)
                cert = is_sub_iterated_blowup(g, f, depth)
                assert (cert is None) == (want is None)
                if want is not None:
                    assert cert.steps == want[0] and len(cert.steps) <= g.n - 2

    def test_certificates_replay(self, k33):
        probe = iterated_blowup(k33, [0, 1])
        cert = is_sub_iterated_blowup(probe, k33, 2)
        assert cert is not None
        replayed = iterated_blowup(k33, cert.steps)
        assert is_embedding(probe, replayed, cert.embedding)

    def test_consistent_with_tight_non_homomorphic(self, k33):
        # 2-tightly-connected and not homomorphic implies not a subgraph of
        # any iterate; spot-check at small depth.
        rng = random.Random(61)
        tested = 0
        while tested < 6:
            g = random_hypergraph(rng, 3, rng.randint(4, 5), p=0.4, ensure_edge=True)
            if is_k_tightly_connected(g, 2) is None:
                continue
            if find_homomorphism(g, k33) is not None:
                continue
            assert is_sub_iterated_blowup(g, k33, 2) is None
            tested += 1

    @pytest.mark.parametrize(
        "f",
        [build_complete(3, 3), build_complete(3, 4), build_h(3, 2), tight_cycle(3, 5),
         tight_cycle(2, 5)],
        ids=["K33", "K34", "H32", "tight-C5", "C5"],
    )
    def test_least_steps_against_unpruned_oracle(self, f):
        # Two in three probes are subgraphs of random depth-2 iterates on at
        # most 7 vertices; the rest are random and mostly not members.
        rng = random.Random(71)
        for i in range(12):
            if i % 3:
                it = iterated_blowup(f, [rng.randrange(f.n), rng.randrange(2 * f.n - 1)])
                keep = rng.sample(range(it.n), rng.randint(f.r + 2, 7))
                edges = [e for e in it.edges if set(e) <= set(keep) and rng.random() < 0.9]
                g = Hypergraph(f.r, len(keep), tuple(
                    tuple(sorted(keep.index(v) for v in e)) for e in edges
                ))
            else:
                g = random_hypergraph(rng, f.r, rng.randint(f.r, 5), p=0.5, ensure_edge=True)
            depth = rng.choice((1, 2, 2))
            want = oracle_blowup_member(g, f, depth)
            cert = is_sub_iterated_blowup(g, f, depth)
            if want is None:
                assert cert is None
                continue
            steps, host = want
            assert cert.steps == steps
            img = cert.embedding.images
            assert len(set(img)) == g.n and all(0 <= v < host.n for v in img)
            assert all(tuple(sorted(img[v] for v in e)) in host.edge_set for e in g.edges)


def test_membership_found_certificates_always_embed(k33):
    rng = random.Random(67)
    for _ in range(8):
        g = random_hypergraph(rng, 3, 5, p=0.25, ensure_edge=True)
        cert = is_sub_iterated_blowup(g, k33, 2)
        if cert is None:
            continue
        assert is_embedding(g, iterated_blowup(k33, cert.steps), cert.embedding)
