"""Seeded, order-independent randomness for the randomized constructions.

Every random object drawn by a construction (a pair color, a color map, a
k-set target, a k-set bijection, a sampling trial) gets its own substream
keyed by (seed, kind, index).  Substream keys are the first 8 bytes of
SHA-256("seed|kind|index") seeding a Mersenne Twister.  An integer below m
is drawn as k = m.bit_length() bits by getrandbits, redrawn until it is
below m, and bijections are sampled with an explicit Fisher-Yates shuffle
on such draws.  This derivation is part of the package's compatibility
contract: outputs for a given seed are stable across runs, platforms, and
versions, and independent of iteration order.
"""

from __future__ import annotations

import _random
import hashlib
from typing import Sequence


def substream(seed: int, kind: str, index: int) -> _random.Random:
    """Deterministic generator for one named random object."""
    key = hashlib.sha256(f"{seed}|{kind}|{index}".encode()).digest()
    # random.Random subclasses this C generator and seeds an int key through
    # the same init_by_array, so the state is identical; the C class only
    # skips the Python-level __init__ and seed wrappers.
    return _random.Random(int.from_bytes(key[:8], "big"))


def below(rng: _random.Random, m: int) -> int:
    """Uniform integer in range(m), m >= 1: k = m.bit_length() random bits,
    redrawn until below m.  CPython's random module draws a range of width m
    the same way (_randbelow_with_getrandbits), so i + below(rng, n - i) is
    the integer that module would draw from range(i, n)."""
    if m < 1:
        raise ValueError(f"empty range: {m}")
    k = m.bit_length()
    x = rng.getrandbits(k)
    while x >= m:
        x = rng.getrandbits(k)
    return x


def shuffled(items: Sequence, rng: _random.Random) -> list:
    """Fisher-Yates shuffle into a new list (uniform over permutations)."""
    a = list(items)
    for i in range(len(a) - 1, 0, -1):
        j = below(rng, i + 1)
        a[i], a[j] = a[j], a[i]
    return a


def sample_sorted(rng: _random.Random, n: int, w: int) -> tuple[int, ...]:
    """Uniform w-subset of range(n), returned sorted (partial Fisher-Yates)."""
    pool = list(range(n))
    for i in range(w):
        j = i + below(rng, n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(sorted(pool[:w]))
