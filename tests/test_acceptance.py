"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria with stated wall-clock limits assert them.
"""

import itertools
import json
import random
import time

from erdosrogers import (
    Hypergraph,
    ConstructionParams,
    SetMap,
    ShadowHomWitness,
    build_complete,
    build_h,
    construct_coloring,
    construct_shadow_labeling,
    contains_copy,
    enumerate_g_free,
    f_exact,
    find_homomorphism,
    find_shadow_homomorphism,
    is_embedding,
    is_sub_iterated_blowup,
    iterated_blowup,
    max_f_free_subset,
    extract_blowup_copy,
    verify_g_free,
    verify_shadow_hom,
)
from erdosrogers.exponents import alpha, beta
from erdosrogers.cli import run
from erdosrogers.hgio import save_hg
from conftest import (
    oracle_canonical,
    oracle_max_density,
    oracle_max_f_free,
    random_hypergraph,
    tight_c5_minus_edge,
)

from fractions import Fraction


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def test_criterion_1_shadow_hom_golden_table():
    cases = [
        (tight_c5_minus_edge(), build_complete(3, 3), 2, True),
        (build_complete(3, 4), build_complete(3, 3), 2, False),
        (build_complete(4, 5), build_complete(4, 4), 3, False),
        (build_h(3, 3), build_h(3, 2), 2, False),
        (build_h(4, 3), build_h(4, 2), 3, False),
        (tight_c5_minus_edge(), build_complete(3, 3), 1, False),
    ]
    for g, f, k, expect in cases:
        witness, elapsed = timed(find_shadow_homomorphism, g, f, k)
        assert elapsed < 10.0, f"case {(g, f, k)} took {elapsed:.1f}s"
        assert (witness is not None) == expect, f"case {(g, f, k)}"
        if witness is not None:
            assert verify_shadow_hom(g, f, k, witness)
    print("criterion 1: PASS - shadow-homomorphism golden table (6 cases)")


def test_criterion_2_monotonicity_property():
    rng = random.Random(20240)
    violations = 0
    for _ in range(200):
        g = random_hypergraph(rng, 3, rng.randint(4, 6), p=rng.uniform(0.2, 0.5))
        f = random_hypergraph(rng, 3, rng.randint(4, 6), p=rng.uniform(0.2, 0.5))
        hom = find_homomorphism(g, f) is not None
        sh1 = find_shadow_homomorphism(g, f, 1) is not None
        sh2 = find_shadow_homomorphism(g, f, 2) is not None
        if sh1 != hom:
            violations += 1
        if sh1 and not sh2:
            violations += 1
        # r = 3 leaves no shadow order strictly between 2 and r, so a k=2 YES
        # has nothing larger to contradict.
    assert violations == 0
    print("criterion 2: PASS - 200 random pairs, k=1 = homomorphism, monotone in k, 0 violations")


def test_criterion_3_exponents_exact_rationals():
    cases = [
        (alpha, build_complete(3, 3), Fraction(2), 1),
        (alpha, build_complete(3, 4), Fraction(7, 3), 1),
        (alpha, build_complete(3, 5), Fraction(11, 4), 1),
        (beta, build_complete(3, 3), Fraction(3, 2), 0),
    ]
    for fn, f, expect, offset in cases:
        report, elapsed = timed(fn, f)
        assert elapsed < 5.0
        assert report.value == expect
        assert report.recompute() == expect
        oracle, elapsed = timed(oracle_max_density, f, offset)
        assert elapsed < 5.0
        assert oracle == expect
    print("criterion 3: PASS - alpha/beta golden rationals, subset oracle agreement")


def test_criterion_4_construction_g_freeness():
    t0 = time.perf_counter()
    k33 = build_complete(3, 3)
    k34 = build_complete(3, 4)
    h32 = build_h(3, 2)
    h33 = build_h(3, 3)
    fig = tight_c5_minus_edge()
    checks = 0
    for seed in range(50):
        h, _ = construct_coloring(30, k33, ConstructionParams(seed=seed))
        assert verify_g_free(h, k34) is None, f"coloring seed {seed} contains K^3_4"
        assert verify_g_free(h, fig) is None, f"coloring seed {seed} contains probe"
        checks += 2
    for seed in range(50):
        h, _ = construct_shadow_labeling(25, k33, 2, ConstructionParams(seed=seed))
        assert verify_g_free(h, k34) is None, f"labeling seed {seed} contains K^3_4"
        checks += 1
    for seed in range(50):
        h, _ = construct_shadow_labeling(25, h32, 2, ConstructionParams(seed=seed))
        assert verify_g_free(h, h33) is None, f"labeling seed {seed} contains H^3_3"
        checks += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(
        f"criterion 4: PASS - {checks} exhaustive freeness checks over 150 seeded "
        f"constructions in {elapsed:.1f}s"
    )


def test_criterion_5_iterated_blowup_membership():
    rng = random.Random(555)
    for _ in range(20):
        f = random_hypergraph(rng, 3, rng.randint(3, 5), p=0.4, ensure_edge=True)
        cert, elapsed = timed(is_sub_iterated_blowup, f, f, 0)
        assert elapsed < 60.0
        assert cert is not None and cert.steps == ()
    cert, elapsed = timed(
        is_sub_iterated_blowup, build_complete(2, 4), build_complete(2, 2), 4
    )
    assert elapsed < 60.0 and cert is not None
    assert is_embedding(
        build_complete(2, 4),
        iterated_blowup(build_complete(2, 2), cert.steps),
        cert.embedding,
    )
    answer, elapsed = timed(
        is_sub_iterated_blowup, build_complete(3, 4), build_complete(3, 3), 3
    )
    assert elapsed < 60.0 and answer is None
    print("criterion 5: PASS - blowup membership: 20 self-cases, graph case, clique non-member")


def test_criterion_6_exact_oracle_agreement():
    rng = random.Random(606)
    k33 = build_complete(3, 3)
    k34 = build_complete(3, 4)
    h32 = build_h(3, 2)
    patterns = [k33, k34, h32]
    mismatches = 0
    for i in range(100):
        n = rng.randint(6, 12)
        h = random_hypergraph(rng, 3, n, p=rng.uniform(0.1, 0.35))
        f = patterns[i % 3]
        if max_f_free_subset(h, f).size != oracle_max_f_free(h, f):
            mismatches += 1
    assert mismatches == 0

    assert f_exact(k33, k34, 4).value == 3

    # n = 5 value against the permutation-quotient brute force
    rsets = list(itertools.combinations(range(5), 3))
    classes = {}
    for mask in range(1 << len(rsets)):
        edges = tuple(r for i, r in enumerate(rsets) if mask >> i & 1)
        h = Hypergraph(3, 5, edges)
        if contains_copy(h, k34) is not None:
            continue
        classes.setdefault(oracle_canonical(h), h)
    oracle_value = min(oracle_max_f_free(h, k33) for h in classes.values())
    assert f_exact(k33, k34, 5).value == oracle_value

    for n in (3, 4, 5):
        rsets = list(itertools.combinations(range(n), 3))
        free_classes = set()
        for mask in range(1 << len(rsets)):
            edges = tuple(r for i, r in enumerate(rsets) if mask >> i & 1)
            h = Hypergraph(3, n, edges)
            if contains_copy(h, k34) is None:
                free_classes.add(oracle_canonical(h))
        assert sum(1 for _ in enumerate_g_free(n, 3, k34)) == len(free_classes)
    print(
        "criterion 6: PASS - 100/100 oracle agreements, f_exact(4)=3, "
        f"f_exact(5)={oracle_value} matches quotient brute force, class counts match"
    )


def test_criterion_7_supersaturation_pipeline():
    k33 = build_complete(3, 3)
    host = build_complete(3, 12)
    emb, elapsed = timed(extract_blowup_copy, host, k33, [0])
    assert elapsed < 30.0
    assert emb is not None
    target = iterated_blowup(k33, [0])
    assert target.n == 5 and len(target.edges) == 4
    assert is_embedding(target, host, emb)
    assert contains_copy(host, target) is not None
    print(f"criterion 7: PASS - blowup copy extracted and re-validated in {elapsed:.2f}s")


def test_criterion_8_seeded_determinism(tmp_path, capsys):
    k33_path = str(tmp_path / "k33.hg")
    h32_path = str(tmp_path / "h32.hg")
    save_hg(build_complete(3, 3), k33_path)
    save_hg(build_h(3, 2), h32_path)

    def collect(argv, out_files=()):
        code = run(argv)
        report = json.loads(capsys.readouterr().out)
        report.pop("wall_time_ms")
        blobs = []
        for path in out_files:
            with open(path, "rb") as fobj:
                blobs.append(fobj.read())
        return code, report, blobs

    out1, out2 = str(tmp_path / "a.hg"), str(tmp_path / "b.hg")
    cert1, cert2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    seeded = [
        (
            ["construct", "coloring", "-n", "20", "-F", k33_path, "--seed", "11"],
            ["-o", out1, "--cert", cert1],
            ["-o", out2, "--cert", cert2],
        ),
        (
            ["construct", "labeling", "-n", "14", "-F", h32_path, "-k", "2",
             "--seed", "12"],
            ["-o", out1, "--cert", cert1],
            ["-o", out2, "--cert", cert2],
        ),
        (
            ["cover", k33_path, k33_path, "-w", "3", "--trials", "25",
             "--seed", "13"],
            [],
            [],
        ),
    ]
    for base, extra1, extra2 in seeded:
        files1 = [a for a in extra1 if not a.startswith("-")]
        files2 = [a for a in extra2 if not a.startswith("-")]
        code_a, rep_a, blobs_a = collect(base + extra1 + ["--threads", "1"], files1)
        code_b, rep_b, blobs_b = collect(base + extra2 + ["--threads", "8"], files2)
        assert code_a == code_b == 0
        # the -o/--cert paths differ between runs; blank them before comparing
        for rep in (rep_a, rep_b):
            rep["result"].pop("output_file", None)
            rep["result"].pop("certificate_file", None)
        assert rep_a == rep_b
        assert blobs_a == blobs_b
    print("criterion 8: PASS - seeded CLI runs bit-identical across reruns and --threads")


def _mutate(witness: ShadowHomWitness, mode: int, f_n: int) -> ShadowHomWitness:
    if mode % 4 == 0:
        i = mode % len(witness.shadow_map)
        sm = witness.shadow_map[i]
        bent = SetMap(sm.source, (sm.images[1], sm.images[0]) + sm.images[2:])
        return ShadowHomWitness(
            witness.k,
            witness.shadow_map[:i] + (bent,) + witness.shadow_map[i + 1 :],
            witness.edge_map,
        )
    if mode % 4 == 1:
        i = mode % len(witness.shadow_map)
        sm = witness.shadow_map[i]
        bent = SetMap(
            sm.source, ((sm.images[0] + 1) % f_n,) + sm.images[1:]
        )
        return ShadowHomWitness(
            witness.k,
            witness.shadow_map[:i] + (bent,) + witness.shadow_map[i + 1 :],
            witness.edge_map,
        )
    if mode % 4 == 2:
        j = mode % len(witness.edge_map)
        em = witness.edge_map[j]
        bent = SetMap(em.source, (em.images[1], em.images[0]) + em.images[2:])
        return ShadowHomWitness(
            witness.k,
            witness.shadow_map,
            witness.edge_map[:j] + (bent,) + witness.edge_map[j + 1 :],
        )
    j = mode % len(witness.edge_map)
    em = witness.edge_map[j]
    bent = SetMap(em.source, em.images[1:] + em.images[:1])
    return ShadowHomWitness(
        witness.k,
        witness.shadow_map,
        witness.edge_map[:j] + (bent,) + witness.edge_map[j + 1 :],
    )


def test_criterion_9_lemma_checker():
    rng = random.Random(909)
    accepted = rejected = 0
    produced = 0
    while produced < 50:
        g = random_hypergraph(rng, 3, rng.randint(4, 6), p=0.4, ensure_edge=True)
        # alternate between a self target and a complete target; both admit
        # witnesses, so the solver output stream never stalls
        f = g if produced % 2 == 0 else build_complete(3, g.n)
        witness = find_shadow_homomorphism(g, f, 2)
        if witness is None:
            continue
        assert verify_shadow_hom(g, f, 2, witness)
        accepted += 1
        mutated = _mutate(witness, produced, f.n)
        assert not verify_shadow_hom(g, f, 2, mutated), f"mutation {produced} accepted"
        rejected += 1
        produced += 1
    assert accepted == 50 and rejected == 50
    print("criterion 9: PASS - 50 solver witnesses accepted, 50 corrupted witnesses rejected")
