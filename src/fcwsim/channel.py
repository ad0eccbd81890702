"""Lossy V2V broadcast channel.

Each leading-vehicle sample becomes one basic safety message (BSM); the
channel drops messages independently with probability `per` (i.i.d.
Bernoulli loss, no bursts, no latency, no reordering). Slot 0 is always
delivered so every estimator has an initialization sample.

Randomness comes from numpy's Philox counter-based generator, so a given
(states, per, seed) triple always produces the identical loss pattern
regardless of what else has run in the process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError
from .kinematics import TimedState, VehicleState


@dataclass(frozen=True)
class Bsm:
    """One broadcast safety message: send time and sender state."""

    t: float
    state: VehicleState


@dataclass(frozen=True)
class ChannelConfig:
    per: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.per) or not 0.0 <= self.per <= 1.0:
            raise ConfigError(f"packet error ratio must be in [0, 1]: {self.per}")


@dataclass(frozen=True)
class ReceivedSlot:
    """Outcome of one transmission step: the BSM, or None if it was dropped."""

    slot: int
    bsm: Optional[Bsm]

    @property
    def delivered(self) -> bool:
        return self.bsm is not None


def transmit(states: Sequence[TimedState], cfg: ChannelConfig) -> list[ReceivedSlot]:
    """Push one BSM per sample through the lossy channel.

    Returns one ReceivedSlot per input state. Slot 0 is forced delivered;
    every later slot is dropped independently with probability cfg.per.
    Deterministic in (states, cfg).
    """
    if not states:
        raise ValueError("transmit requires a non-empty state sequence")
    delivered = delivery_mask(len(states), cfg.per, cfg.seed)
    return [
        ReceivedSlot(i, Bsm(ts.t, ts.state) if keep else None)
        for i, (ts, keep) in enumerate(zip(states, delivered))
    ]


def delivery_mask(n_slots: int, per: float, seed: int) -> np.ndarray:
    """The loss pattern `transmit` applies: a bool array, True = delivered.

    Slot 0 is always delivered; each later slot is dropped when its Philox
    draw falls below `per`.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    delivered = np.ones(n_slots, dtype=bool)
    delivered[1:] = rng.random(n_slots - 1) >= per
    return delivered


def apply_mask(states: Sequence[TimedState], mask: Sequence[bool]) -> list[ReceivedSlot]:
    """Apply an explicit delivery mask (True = delivered) to a state sequence.

    For deterministic loss patterns in tests; mask[0] must be True.
    """
    if len(mask) != len(states):
        raise ValueError(f"mask length {len(mask)} != state count {len(states)}")
    if len(mask) > 0 and not mask[0]:
        raise ValueError("slot 0 must be delivered")
    return [
        ReceivedSlot(i, Bsm(ts.t, ts.state) if keep else None)
        for i, (ts, keep) in enumerate(zip(states, mask))
    ]


def mask_line(slots: Sequence[ReceivedSlot]) -> str:
    """Render a slot sequence as a debug string: '1' delivered, '0' dropped."""
    return "".join("1" if s.delivered else "0" for s in slots)
