"""Channel loss model: forced first slot, Bernoulli statistics, determinism."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fcwsim.channel import ChannelConfig, apply_mask, delivery_masks, philox_random, transmit
from fcwsim.errors import ConfigError
from fcwsim.kinematics import TimedState, VehicleState


def make_states(n, t_s=0.1):
    return [TimedState(i * t_s, VehicleState(float(i), 1.0, 0.0)) for i in range(n)]


def delivered(slots):
    return [s.delivered for s in slots]


def test_zero_loss_delivers_everything():
    slots = transmit(make_states(20), ChannelConfig(per=0.0, seed=1))
    assert all(s.delivered for s in slots)


def test_total_loss_keeps_only_first_slot():
    slots = transmit(make_states(5), ChannelConfig(per=1.0, seed=1))
    assert slots[0].delivered
    assert all(not s.delivered for s in slots[1:])


def test_drop_rate_within_binomial_bound():
    n = 100_000
    per = 0.3
    slots = transmit(make_states(n), ChannelConfig(per=per, seed=123))
    drops = sum(not s.delivered for s in slots[1:])
    sigma = math.sqrt(per * (1 - per) / (n - 1))
    assert abs(drops / (n - 1) - per) < 3 * sigma


def test_count_conservation():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 400))
        per = float(rng.uniform(0, 1))
        slots = transmit(make_states(n), ChannelConfig(per=per, seed=int(rng.integers(2**32))))
        delivered = sum(s.delivered for s in slots)
        assert delivered + sum(not s.delivered for s in slots) == n


def test_deterministic_in_seed_and_distinct_across_seeds():
    states = make_states(500)
    a = delivered(transmit(states, ChannelConfig(per=0.3, seed=42)))
    b = delivered(transmit(states, ChannelConfig(per=0.3, seed=42)))
    c = delivered(transmit(states, ChannelConfig(per=0.3, seed=43)))
    assert a == b
    assert a != c


def test_seed_independence_drop_rates():
    # z^2 over seeds should behave like chi-square(k): stay inside a wide band
    n, per, k = 2000, 0.3, 30
    masks = set()
    stat = 0.0
    for seed in range(k):
        slots = transmit(make_states(n), ChannelConfig(per=per, seed=seed))
        masks.add(tuple(delivered(slots)))
        drops = sum(not s.delivered for s in slots[1:])
        z = (drops - per * (n - 1)) / math.sqrt(per * (1 - per) * (n - 1))
        stat += z * z
    assert len(masks) == k
    assert k - 5 * math.sqrt(2 * k) < stat < k + 5 * math.sqrt(2 * k)


def test_apply_mask_patterns():
    states = make_states(4)
    assert all(s.delivered for s in apply_mask(states[:3], [True, True, True]))
    slots = apply_mask(states[:3], [True, False, True])
    assert delivered(slots) == [True, False, True]
    assert [s.state for s in slots] == [states[0].state, None, states[2].state]
    slots = apply_mask(states, [True, False, False, False])
    assert delivered(slots) == [True, False, False, False]


def test_apply_mask_usage_errors():
    states = make_states(3)
    with pytest.raises(ValueError):
        apply_mask(states, [True, False])
    with pytest.raises(ValueError):
        apply_mask(states, [False, True, True])


def test_invalid_per_rejected():
    for per in (-0.1, 1.1, math.nan):
        with pytest.raises(ConfigError):
            ChannelConfig(per=per)


def test_empty_stream_rejected():
    with pytest.raises(ValueError):
        transmit([], ChannelConfig())


def test_bsm_carries_input_timing():
    states = make_states(10, t_s=0.1)
    slots = transmit(states, ChannelConfig(per=0.0, seed=0))
    for i, slot in enumerate(slots):
        assert slot.state == states[i].state


def numpy_draws(seed, n):
    """The oracle the channel reproduces: numpy's own Philox generator."""
    return np.random.Generator(np.random.Philox(seed)).random(n)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n_slots=st.integers(1, 400), per=st.floats(0.0, 1.0))
@example(seed=0, n_slots=151, per=0.5)
@example(seed=1, n_slots=2, per=0.5)
@example(seed=2**32 - 1, n_slots=3, per=0.0)
@example(seed=2**32, n_slots=4, per=1.0)
@example(seed=2**63, n_slots=5, per=0.9)
@example(seed=2**64 - 1, n_slots=400, per=0.1)
def test_masks_reproduce_numpys_philox_stream(seed, n_slots, per):
    # n_slots - 1 draws end anywhere in a block of four Philox words
    expected = numpy_draws(seed, n_slots - 1)
    assert philox_random(n_slots - 1, np.array([seed], dtype=np.uint64))[:, 0].tobytes() == expected.tobytes()
    mask = delivery_masks(n_slots, [per], [seed])
    assert mask.shape == (n_slots, 1) and mask[0, 0]
    assert mask[1:, 0].tolist() == (expected >= per).tolist()


def test_masks_of_many_runs_match_run_by_run_draws():
    # more runs than one chunk, each with its own PER
    rng = np.random.default_rng(67)
    seeds = [int(s) for s in rng.integers(0, 2**63, size=600)] + [0, 2**64 - 1]
    pers = rng.uniform(0.0, 1.0, size=len(seeds))
    masks = delivery_masks(151, pers, seeds)
    for i, (per, seed) in enumerate(zip(pers, seeds)):
        assert masks[1:, i].tolist() == (numpy_draws(seed, 150) >= per).tolist()
        assert masks[:, i].tolist() == delivered(transmit(make_states(151), ChannelConfig(per=per, seed=seed)))


def test_seed_outside_64_bits_rejected():
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError):
            ChannelConfig(seed=seed)
