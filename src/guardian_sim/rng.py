"""Seeded random streams.

Every stream in the simulator is numpy's PCG64 bit generator seeded through
numpy's `SeedSequence`.  `Rng` is a thin wrapper over one such stream.
Normal variates use numpy's ziggurat sampler; the method is fixed here so
that a given (seed, call sequence) reproduces the same values bitwise for a
fixed numpy version.  Per-trial streams are derived from a base seed with
`derive_seed`, which is stable regardless of execution order or worker count.

The matrix kernel seeds a whole block of trials at once with the array twins
below, which give `SeedSequence`'s bits lane by lane: it is pure 32-bit
integer arithmetic, and numpy's array integer arithmetic wraps as its does.
`derive_seeds` is `derive_seed` over arrays of key words, `seed_words` is the
seeding state `SeedSequence(seed)` hands PCG64, and `word_generator` builds
`Generator(PCG64(seed))` from those words without a `SeedSequence`; its draws
are numpy's own.

An episode reads its normals through a `NormalWindow`, which draws
`NORMAL_WINDOW` of them per numpy call: numpy fills `standard_normal(n)` draw
by draw, as n scalar calls would, so the window hands out the same bits in
the same stream order.
"""
from __future__ import annotations

import functools
import itertools
from typing import Protocol

import numpy as np

# Standard normals a `NormalWindow` draws per numpy call.
NORMAL_WINDOW = 64


class NormalStream(Protocol):
    """Anything that hands out scaled pairs of standard normals in stream
    order, as `Rng.normal_pair` does."""

    def normal_pair(self, sigma: float) -> tuple[float, float]: ...


class Rng:
    """Deterministic random stream identified by a 64-bit unsigned seed."""

    __slots__ = ("_gen",)

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        self._gen = np.random.Generator(np.random.PCG64(seed))

    def standard_normal(self) -> float:
        return float(self._gen.standard_normal())

    def normal_pair(self, sigma: float) -> tuple[float, float]:
        """Two independent N(0, sigma^2) draws (always consumes two normals,
        even when sigma == 0, to keep streams aligned across noise levels)."""
        g = self._gen
        return sigma * float(g.standard_normal()), sigma * float(g.standard_normal())

    def uniform(self, low: float, high: float) -> float:
        return float(self._gen.uniform(low, high))

    def random(self, n: int) -> np.ndarray:
        return self._gen.random(n)

    @property
    def generator(self) -> np.random.Generator:
        """Underlying numpy generator, for vectorized bulk draws."""
        return self._gen


class NormalWindow:
    """`Rng.normal_pair` of one stream, read from a window of its standard
    normals.

    It draws `NORMAL_WINDOW` normals when the last window runs out, never
    sooner, so it holds at most one window whatever the episode's length.
    The `Rng` must not be drawn from elsewhere while a reader holds it.
    """

    __slots__ = ("_next",)

    def __init__(self, rng: Rng) -> None:
        gen = rng.generator
        windows = iter(lambda: gen.standard_normal(NORMAL_WINDOW).tolist(), None)
        self._next = itertools.chain.from_iterable(windows).__next__

    def normal_pair(self, sigma: float) -> tuple[float, float]:
        """Two independent N(0, sigma^2) draws, two normals even at sigma == 0."""
        draw = self._next
        return sigma * draw(), sigma * draw()


def derive_seed(base_seed: int, *key: int) -> int:
    """64-bit child seed for stream `key` of `base_seed`.

    Uses numpy's SeedSequence spawn keys, so children are independent and the
    derivation does not depend on how many other streams exist.
    """
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


# `SeedSequence`'s hash constants, pool size and shift (numpy's
# bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def _pool(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """`SeedSequence.mix_entropy` lane by lane: the four uint32 pool words
    of each lane from its entropy words, uint32 arrays in entropy order."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ (value >> _XSHIFT)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool


def _mix(x, y):
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _XSHIFT)


def _state64(pool: list[np.ndarray], n_words: int) -> np.ndarray:
    """`SeedSequence.generate_state(n_words, np.uint64)` lane by lane, as
    an (n_words, lanes) array."""
    const = _INIT_B
    words = []
    for i in range(2 * n_words):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        words.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    return np.array(words[0::2]) | (np.array(words[1::2]) << 32)


def derive_seeds(base_seed: int, *key) -> np.ndarray:
    """`derive_seed(base_seed, *key)` lane by lane, as uint64.

    Each key word is an int or an integer array below 2**32, so that it is
    one entropy word; they broadcast together.
    """
    if base_seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {base_seed}")
    key = np.broadcast_arrays(*(np.asarray(word) for word in key))
    if any(((word < 0) | (word > _MASK32)).any() for word in key):
        raise ValueError("key words must lie in [0, 2**32)")
    # Lanes are 1-d, where numpy's integer arithmetic wraps without warning.
    shape, key = key[0].shape, [word.astype(np.uint32).reshape(-1) for word in key]
    # The entropy is the base seed's words, low first, padded with zeros to
    # the pool size as numpy pads them when a spawn key follows, then the key.
    n_base = max(_POOL_SIZE, -(-base_seed.bit_length() // 32))
    entropy = [np.full(key[0].shape, base_seed >> 32 * i & _MASK32, np.uint32)
               for i in range(n_base)] + key
    return _state64(_pool(entropy), 1)[0].reshape(shape)


def seed_words(seeds) -> np.ndarray:
    """`SeedSequence(seed).generate_state(4, np.uint64)` for each uint64
    seed, as a C-contiguous (..., 4) array: the words PCG64 is seeded with.

    A seed below 2**32 has one entropy word where the others have two, but
    the pool pads it with the hash of a zero word either way.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    flat = seeds.reshape(-1)
    low, high = (flat & _MASK32).astype(np.uint32), (flat >> 32).astype(np.uint32)
    return np.ascontiguousarray(_state64(_pool([low, high]), 4).T).reshape(seeds.shape + (4,))


@functools.cache
def _seed_words_type() -> type:
    """An `ISeedSequence` that hands PCG64 precomputed seeding words.  It is
    made on first use: importing `numpy.random` takes about 12 ms."""

    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if self.words.shape != (n_words,) or np.dtype(dtype) != np.uint64:
                raise ValueError("only the four uint64 seeding words are known")
            return self.words

    return SeedWords


def word_generator(words) -> np.random.Generator:
    """`Generator(PCG64(seed))` from the seed's four `seed_words`."""
    # PCG64 reads the words' buffer as it lies.
    words = np.ascontiguousarray(words, dtype=np.uint64)
    return np.random.Generator(np.random.PCG64(_seed_words_type()(words)))
