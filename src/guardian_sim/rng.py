"""Seeded random streams.

Every stream in the simulator is numpy's PCG64 bit generator seeded through
numpy's `SeedSequence`.  `Rng` is a thin wrapper over one such stream.
Normal variates use numpy's ziggurat sampler; the method is fixed here so
that a given (seed, call sequence) reproduces the same values bitwise for a
fixed numpy version.  Per-trial streams are derived from a base seed with
`derive_seed`, which is stable regardless of execution order or worker count.

The matrix kernel seeds a whole block of trials at once with the array twins
below, which give `SeedSequence`'s and PCG64's bits lane by lane: both are
pure 32- and 64-bit integer arithmetic (O'Neill 2014, "PCG", HMC-CS-2014-0905),
and numpy's array integer arithmetic wraps as theirs does.
`derive_seeds` is `derive_seed` over arrays of key words, `seed_words` is the
seeding state `SeedSequence(seed)` hands PCG64, `uniforms` is PCG64's
`Generator.random()` from those words, and `word_generator` builds the
`Generator` itself from them.  Its normals still come from numpy's ziggurat,
whose tables numpy does not expose.

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

    __slots__ = ("seed", "_gen")

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def standard_normal(self) -> float:
        return float(self._gen.standard_normal())

    def normal_pair(self, sigma: float) -> tuple[float, float]:
        """Two independent N(0, sigma^2) draws (always consumes two normals,
        even when sigma == 0, to keep streams aligned across noise levels)."""
        g = self._gen
        return sigma * float(g.standard_normal()), sigma * float(g.standard_normal())

    def uniform(self, low: float, high: float) -> float:
        return float(self._gen.uniform(low, high))

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
# bit_generator.pyx), and PCG64's 128-bit multiplier as (high, low) words.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_PCG_MULT = (0x2360ED051FC65DA4, 0x4385DF649FCCF645)


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


def _mul64(a, b: int):
    """The 128-bit product of uint64 lanes `a` and the constant `b`, as
    (high, low) uint64 words, from 32-bit limbs."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    t = a0 * b0
    w0 = t & _MASK32
    t = a1 * b0 + (t >> 32)
    w1, k = t >> 32, t & _MASK32
    t = a0 * b1 + k
    return a1 * b1 + w1 + (t >> 32), (t << 32) | w0


def _add128(a, b):
    low = a[1] + b[1]
    return a[0] + b[0] + (low < a[1]), low


def _pcg_step(state, inc):
    """One step of PCG64's LCG, state * multiplier + inc mod 2**128."""
    high, low = _mul64(state[1], _PCG_MULT[1])
    high = high + state[1] * _PCG_MULT[0] + state[0] * _PCG_MULT[1]
    return _add128((high, low), inc)


def uniforms(words, n: int) -> np.ndarray:
    """The first `n` `Generator(PCG64(seed)).random()` draws of each seed,
    from its `seed_words`, as a (..., n) array.

    PCG64 takes the state from the first two words and the stream from the
    last two; it steps once, adds the state, and steps again.  Each draw
    steps, takes the XSL-RR output of the new state, and keeps its top 53
    bits.
    """
    words = np.asarray(words, dtype=np.uint64)
    shape, (high, low, seq_high, seq_low) = words.shape[:-1], words.reshape(-1, 4).T
    inc = ((seq_high << 1) | (seq_low >> 63), (seq_low << 1) | 1)
    state = _pcg_step(_add128(inc, (high, low)), inc)
    draws = []
    for _ in range(n):
        state = _pcg_step(state, inc)
        x = state[0] ^ state[1]
        rot = state[0] >> 58
        raw = (x >> rot) | (x << ((64 - rot) & 63))
        draws.append((raw >> 11) * (1.0 / 9007199254740992.0))
    return np.stack(draws, axis=-1).reshape(shape + (n,))


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
