"""`run`'s renderers give the bytes of the oracles' whole-payload encoder and
row-by-row CSV loop, on any world, seed, outcome and episode.

The summary's config block is rendered once per `WorldConfig` object.  Two
pairs of equal worlds render differently (a noise term of -0.0 against 0.0,
and a step cap of 1000.0 against 1000), so each is rendered here in both
orders in one process.
"""
from __future__ import annotations

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from conftest import Record
from guardian_sim.analysis import MATRIX_PAIRS, trial_seeds
from guardian_sim.engine import (
    TRAJECTORY_HEADER,
    EpisodeResult,
    FailureCriterion,
    Outcome,
    StepRecord,
    WorldConfig,
    run_episode,
    sample_initial_positions,
    summary_json_text,
    trajectory_csv_text,
)
from guardian_sim.geometry import Vec2
from guardian_sim.observation import NoiseParams
from guardian_sim.rng import Rng
from guardian_sim.strategies import AttackerBehavior, DefenderStrategy

# Values that `repr` writes in exponent form, and ones that round to 9
# significant digits across a power of ten.
EXPONENT_FORM = [1e-7, 2.5e-5, 9.99999999951e-5, 1.23456789012e16, 3e20]
positives = st.one_of(st.floats(1e-3, 1e3), st.sampled_from(EXPONENT_FORM))
noise_terms = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 1.0),
                        st.sampled_from(EXPONENT_FORM))
visibility = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0))
step_caps = st.one_of(st.sampled_from([1, 1000, 1000.0, 10**20]), st.integers(1, 10**6),
                      st.integers(1, 10**6).map(float))
seeds = st.one_of(st.sampled_from([0, 2**64 - 1, 2**70]), st.integers(0, 2**128))
finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 5e-324, 9.99999999951, 1e16, 0.999999999951]))
vectors = st.tuples(finite, finite)


@st.composite
def worlds(draw) -> WorldConfig:
    r_interest = draw(positives)
    try:
        return WorldConfig(
            r_interest=r_interest,
            r_safe=r_interest * draw(st.floats(1e-6, 0.999)),
            tau=draw(positives),
            noise=NoiseParams(beta_b=draw(noise_terms), beta_d=draw(noise_terms),
                              beta_v=draw(noise_terms), nu=draw(visibility)),
            k=draw(positives),
            max_steps=draw(step_caps),
            failure_criterion=draw(st.sampled_from(FailureCriterion)),
        )
    except ValueError:  # r_safe rounded to 0, or noise large enough to overflow
        assume(False)


def assert_renders_as_oracle(records: list[StepRecord]) -> None:
    """The CSV of `records` is the oracle's.  `run` streams the same
    `trajectory_row` lines after the same header."""
    result = EpisodeResult(Outcome.CAPTURED, 0, records)
    assert trajectory_csv_text(result) == oracles.trajectory_csv_text(result)


@given(worlds(), st.sampled_from(Outcome), st.integers(0, 10**6), seeds)
def test_summary_matches_the_oracle(cfg, outcome, end_time, seed):
    result = EpisodeResult(outcome, end_time, [])
    assert summary_json_text(result, cfg, seed) == oracles.summary_json_text(result, cfg, seed)


def test_summary_does_not_rebuild_the_flat_dict(monkeypatch):
    cfg, result = WorldConfig(), EpisodeResult(Outcome.BREACHED, 7, [])
    expected = oracles.summary_json_text(result, cfg, 3)

    def refuse(self):
        raise AssertionError("to_flat_dict called")

    monkeypatch.setattr(WorldConfig, "to_flat_dict", refuse)
    assert summary_json_text(result, cfg, 3) == expected


@pytest.mark.parametrize("order", ["plain-first", "variant-first"])
@pytest.mark.parametrize("plain, variant", [
    ({"max_steps": 1000}, {"max_steps": 1000.0}),
    ({"noise": NoiseParams(beta_b=0.0)}, {"noise": NoiseParams(beta_b=-0.0)}),
    ({"noise": NoiseParams(beta_d=0.0)}, {"noise": NoiseParams(beta_d=-0.0)}),
    ({"noise": NoiseParams(beta_v=0.0)}, {"noise": NoiseParams(beta_v=-0.0)}),
    ({"noise": NoiseParams(nu=0.0)}, {"noise": NoiseParams(nu=-0.0)}),
], ids=["max_steps", "beta_b", "beta_d", "beta_v", "nu"])
def test_equal_worlds_render_their_own_settings(plain, variant, order):
    """Each world's summary shows its own settings, even after an equal
    world that renders differently."""
    result = EpisodeResult(Outcome.SURVIVED, 1000, [])
    texts = {}
    for name, settings in sorted({"plain": plain, "variant": variant}.items(),
                                 reverse=order == "variant-first"):
        cfg = WorldConfig(**settings)
        texts[name] = summary_json_text(result, cfg, 0)
        assert texts[name] == oracles.summary_json_text(result, cfg, 0)
    assert WorldConfig(**plain) == WorldConfig(**variant)
    assert hash(WorldConfig(**plain)) == hash(WorldConfig(**variant))
    assert texts["plain"] != texts["variant"]


@given(st.lists(st.tuples(st.integers(0, 2**40), vectors, vectors, vectors, finite, finite),
                max_size=5),
       st.integers(0, 2**40), vectors, vectors, st.one_of(st.none(), finite))
def test_rows_match_the_oracle(live, end_t, end_xa, end_xd, end_margin):
    records = [(t, *xa, *xd, *y, margin, rel) for t, xa, xd, y, margin, rel in live]
    records.append((end_t, *end_xa, *end_xd, None, None, end_margin, None))
    assert_renders_as_oracle(records)


@given(st.sampled_from(MATRIX_PAIRS), st.integers(0, 2**64 - 1),
       st.sampled_from(FailureCriterion))
def test_episodes_match_the_oracle(pair, seed, criterion):
    """Every matrix pair, under either failure rule: the streamed records
    are the kept trajectory, whose CSV is the oracle's, and the summary."""
    defender, attacker = pair
    cfg = WorldConfig(failure_criterion=criterion)
    init_seed, episode_seed = trial_seeds(seed, 0)
    xa, xd = sample_initial_positions(Rng(init_seed), cfg.tau)
    kept = run_episode(xa, xd, defender, attacker, cfg, episode_seed)
    streamed: list[StepRecord] = []
    result = run_episode(xa, xd, defender, attacker, cfg, episode_seed, sink=streamed.append)
    assert streamed == kept.trajectory and result.trajectory == []
    assert (result.outcome, result.end_time) == (kept.outcome, kept.end_time)
    assert trajectory_csv_text(kept) == oracles.trajectory_csv_text(kept)
    assert summary_json_text(result, cfg, seed) == oracles.summary_json_text(kept, cfg, seed)


@pytest.mark.parametrize("xa, xd, criterion, outcome, steps", [
    ((10.0, 0.0), (8.0, 0.0), FailureCriterion.POSITION_BREACH, Outcome.CAPTURED, 2),
    ((12.0, 0.0), (-40.0, 0.0), FailureCriterion.MARGIN_BREACH, Outcome.BREACHED, 0),
], ids=["coincident-capture", "zero-step"])
def test_edge_episodes_match_the_oracle(xa, xd, criterion, outcome, steps):
    """A capture that lands the agents on one point, whose terminal row has
    no margin, and an episode that ends before its first step."""
    cfg = WorldConfig(tau=0.5, noise=NoiseParams(beta_d=0.0), failure_criterion=criterion)
    kept = run_episode(Vec2(*xa), Vec2(*xd), DefenderStrategy.PURE_PURSUIT,
                       AttackerBehavior.STATIC, cfg, 0)
    assert (kept.outcome, kept.end_time) == (outcome, steps)
    end = Record(*kept.trajectory[-1])
    assert (end.margin is None) == (outcome is Outcome.CAPTURED)
    assert_renders_as_oracle(kept.trajectory)
    assert summary_json_text(kept, cfg, 0) == oracles.summary_json_text(kept, cfg, 0)


def test_an_empty_trajectory_renders_the_header_alone():
    result = EpisodeResult(Outcome.SURVIVED, 3, [])
    assert trajectory_csv_text(result) == oracles.trajectory_csv_text(result)
    assert trajectory_csv_text(result) == TRAJECTORY_HEADER + "\n"
