"""Channel loss model: forced first slot, Bernoulli statistics, determinism."""

import math

import numpy as np
import pytest

from fcwsim.channel import ChannelConfig, apply_mask, transmit
from fcwsim.errors import ConfigError
from fcwsim.kinematics import TimedState, VehicleState


def make_states(n, t_s=0.1):
    return [TimedState(i * t_s, VehicleState(float(i), 1.0, 0.0)) for i in range(n)]


def delivered(slots):
    return [s.delivered for s in slots]


def test_zero_loss_delivers_everything():
    slots = transmit(make_states(20), ChannelConfig(per=0.0, seed=1))
    assert all(s.delivered for s in slots)
    assert [s.slot for s in slots] == list(range(20))


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
        assert slot.slot == i
        assert slot.state == states[i].state
