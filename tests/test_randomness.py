"""The seeded streams against README's contract, re-derived in conftest from
hashlib and the standard library alone: integer draws, the certificates of
both constructions, and the cover trials' subsets."""

import math

import pytest

from erdosrogers import (
    ConstructionParams,
    build_complete,
    construct_coloring,
    construct_shadow_labeling,
)
from erdosrogers.randomness import below, sample_sorted, substream
from conftest import (
    oracle_coloring,
    oracle_labeling,
    oracle_sample_sorted,
    oracle_substream,
)

# Every width up to 33, then both sides of each power of two up to 2^40,
# where the redraw rate swings from none to about one half.
WIDTHS = sorted(
    set(range(1, 34)) | {2**j + d for j in range(1, 41) for d in (-1, 0, 1)}
)


def test_below_draws_as_randrange():
    for m in WIDTHS:
        for key in range(200):
            rng, ref = substream(m, "below", key), oracle_substream(m, "below", key)
            drawn = [below(rng, m) for _ in range(3)]
            assert drawn == [ref.randrange(m) for _ in range(3)], (m, key)


@pytest.mark.parametrize("m", [0, -1, -8])
def test_below_refuses_an_empty_range(m):
    with pytest.raises(ValueError):
        below(substream(0, "below", 0), m)


@pytest.mark.parametrize("n", [12, 45])
@pytest.mark.parametrize("seed", [0, 8])
def test_coloring_certificate(n, seed):
    f = build_complete(3, 3)
    _, cert = construct_coloring(n, f, ConstructionParams(seed=seed))
    ell = max(1, round(math.log(n)))
    assert cert.ell == ell
    assert (cert.beta, cert.gammas) == oracle_coloring(seed, n, ell, f.n)


@pytest.mark.parametrize("r, n_f, k", [(3, 3, 2), (4, 5, 3)])
@pytest.mark.parametrize("seed", [0, 8])
def test_labeling_certificate(r, n_f, k, seed):
    f = build_complete(r, n_f)
    _, cert = construct_shadow_labeling(25, f, k, ConstructionParams(seed=seed))
    labels = [(sm.source, sm.images) for sm in cert.labels]
    assert labels == oracle_labeling(seed, 25, k, f)


@pytest.mark.parametrize("n", [1, 2, 8, 40, 70])
def test_sample_sorted(n):
    for w in sorted({0, 1, n // 2, n - 1, n}):
        for t in range(50):
            drawn = sample_sorted(substream(n, "cover-trial", t), n, w)
            assert drawn == oracle_sample_sorted(oracle_substream(n, "cover-trial", t), n, w)
