"""Seeded stream determinism, child-seed derivation, and the array twins
of numpy's seeding, checked against numpy itself."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from guardian_sim.rng import (
    NORMAL_WINDOW,
    NormalWindow,
    Rng,
    derive_seed,
    derive_seeds,
    seed_words,
    word_generator,
)


def test_same_seed_same_sequence():
    a = Rng(12345)
    b = Rng(12345)
    assert [a.standard_normal() for _ in range(8)] == [b.standard_normal() for _ in range(8)]
    assert a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)


def test_different_seeds_differ():
    assert Rng(1).standard_normal() != Rng(2).standard_normal()


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        Rng(-1)


def test_normal_pair_scales_by_sigma():
    base = Rng(7)
    raw = (base.standard_normal(), base.standard_normal())
    pair = Rng(7).normal_pair(2.5)
    assert pair == (2.5 * raw[0], 2.5 * raw[1])


def test_normal_pair_consumes_stream_even_at_zero_sigma():
    """Zero-noise runs must stay aligned with noisy runs draw-for-draw."""
    ref = Rng(99)
    ref_draws = [ref.standard_normal() for _ in range(3)]
    r = Rng(99)
    assert r.normal_pair(0.0) == (0.0, 0.0)
    assert r.standard_normal() == ref_draws[2]


# Noise scales for successive pairs, zero among them: a zero-noise pair
# still consumes its two normals.
SIGMAS = [0.0, 1.0, 2.5, 0.0, 1e-3, 7.0, 0.5]


def _pairs(stream, n: int) -> list[tuple[str, str]]:
    """The bits of `n` successive `normal_pair` draws."""
    return [tuple(w.hex() for w in stream.normal_pair(SIGMAS[i % len(SIGMAS)]))
            for i in range(n)]


@pytest.mark.parametrize("seed", [0, 99, 2**64 - 1])
def test_normal_window_is_the_per_call_stream(seed):
    n = 2 * NORMAL_WINDOW  # four windows of normals
    assert _pairs(NormalWindow(Rng(seed)), n) == _pairs(Rng(seed), n)


def test_normal_window_pair_straddling_a_window_edge(monkeypatch):
    """With an odd window, every other window ends between the two draws of
    a pair."""
    monkeypatch.setattr("guardian_sim.rng.NORMAL_WINDOW", 5)
    assert _pairs(NormalWindow(Rng(7)), 12) == _pairs(Rng(7), 12)


def test_normal_window_draws_at_most_one_window_ahead():
    """Memory stays one window whatever the episode length."""
    drawn = []

    class SpyGenerator:
        def __init__(self, gen):
            self.gen = gen

        def standard_normal(self, size):
            drawn.append(size)
            return self.gen.standard_normal(size)

    class SpyRng:
        generator = SpyGenerator(Rng(3).generator)

    reader = NormalWindow(SpyRng())
    assert drawn == []
    for used in range(2, 2001, 2):
        reader.normal_pair(1.0)
        assert used <= sum(drawn) < used + NORMAL_WINDOW
    assert set(drawn) == {NORMAL_WINDOW}


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(42, 1, 0) == derive_seed(42, 1, 0)
    seen = {derive_seed(42, trial, stream) for trial in range(50) for stream in (0, 1)}
    assert len(seen) == 100
    assert derive_seed(42, 1, 0) != derive_seed(43, 1, 0)


def test_derive_seed_in_uint64_range():
    for trial in range(10):
        s = derive_seed(0, trial)
        assert 0 <= s < 2**64
        Rng(s)  # must be directly usable as a seed


# Each side of the boundaries where numpy's entropy changes length: a base
# seed of one, two, three and five 32-bit words, and child seeds of one and
# two words.
BASE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**128 - 1, 2**128]
CHILD_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
# Child seeds as the matrix makes them, for longer stretches of draws.
TRIAL_SEEDS = CHILD_SEEDS + [derive_seed(0, trial, stream) for trial in range(40)
                             for stream in (0, 1)]


@pytest.mark.parametrize("base_seed", BASE_SEEDS)
def test_derive_seeds_is_derive_seed(base_seed):
    trials = np.array([0, 1, 2**32 - 1])
    seeds = derive_seeds(base_seed, trials[:, None], np.array([0, 1]))
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [[derive_seed(base_seed, trial, stream) for stream in (0, 1)]
                              for trial in trials.tolist()]


@given(st.integers(min_value=0, max_value=2**200), st.integers(0, 2**32 - 1),
       st.integers(0, 2**32 - 1))
def test_derive_seeds_is_derive_seed_for_any_base_and_key(base_seed, a, b):
    assert derive_seeds(base_seed, a, np.array([b])).tolist() == [derive_seed(base_seed, a, b)]


def test_derive_seeds_refuses_what_derive_seed_gives_other_entropy():
    with pytest.raises(ValueError, match="key words"):
        derive_seeds(0, np.array([0, 2**32]), 0)
    with pytest.raises(ValueError, match="non-negative"):
        derive_seeds(-1, 0)


def test_seed_words_are_seed_sequence_state():
    words = seed_words(np.array(TRIAL_SEEDS, dtype=np.uint64))
    assert words.dtype == np.uint64 and words.flags.c_contiguous
    assert words.tolist() == [
        np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()
        for seed in TRIAL_SEEDS]
    assert seed_words(2**32).tolist() == words[3].tolist()


def test_word_generator_normals_are_generator_normals():
    """Its normals are the episode's, and its first `random()` draws the
    ones a block builds each trial's first start pair from."""
    for seed in TRIAL_SEEDS + [5]:
        words = seed_words(seed)
        expected = np.random.Generator(np.random.PCG64(seed)).random(9)
        assert word_generator(words).random(9).tolist() == expected.tolist(), seed
        expected = np.random.Generator(np.random.PCG64(seed)).standard_normal(64)
        assert word_generator(words).standard_normal(64).tolist() == expected.tolist(), seed
