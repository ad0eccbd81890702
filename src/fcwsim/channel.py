"""Lossy V2V broadcast channel.

Each leading-vehicle sample becomes one basic safety message (BSM); the
channel drops messages independently with probability `per` (i.i.d.
Bernoulli loss, no bursts, no latency, no reordering). Slot 0 is always
delivered so every estimator has an initialization sample.

Slot k > 0 is dropped when the k-th draw of numpy's
`Generator(Philox(seed)).random()` falls below `per`. That stream is
reproduced here in numpy integer arithmetic (SeedSequence key, then
Philox4x64-10 counter blocks), without importing numpy.random, for many
runs at once. A given (states, per, seed) triple always produces the
identical loss pattern regardless of what else has run in the process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError
from .kinematics import TimedState, VehicleState


@dataclass(frozen=True)
class ChannelConfig:
    per: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.per) or not 0.0 <= self.per <= 1.0:
            raise ConfigError(f"packet error ratio must be in [0, 1]: {self.per}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"channel seed must be in [0, 2**64): {self.seed}")


@dataclass(frozen=True)
class ReceivedSlot:
    """Outcome of one transmission step: the sender state, or None if dropped."""

    state: Optional[VehicleState]

    @property
    def delivered(self) -> bool:
        return self.state is not None


def transmit(states: Sequence[TimedState], cfg: ChannelConfig) -> list[ReceivedSlot]:
    """Push one BSM per sample through the lossy channel.

    Returns one ReceivedSlot per input state. Slot 0 is forced delivered;
    every later slot is dropped independently with probability cfg.per.
    Deterministic in (states, cfg).
    """
    if not states:
        raise ValueError("transmit requires a non-empty state sequence")
    return apply_mask(states, delivery_masks(len(states), [cfg.per], [cfg.seed])[:, 0])


# Runs drawn together. It bounds the Philox intermediates: a 1,000-run draw of 151 slots peaks at
# 0.72 MB traced (the 0.15 MB mask included), against 1.28 MB at 256 runs, for the same CPU; an
# 18,000-run draw takes about 20 ms more (tracemalloc and process_time on x86-64 Linux).
CHUNK = 128
MASK32 = 0xFFFFFFFF
# Constants as 0-d uint64 arrays, which numpy takes as operands faster than Python ints.
_LOW, _32 = (np.array(v, dtype=np.uint64) for v in (MASK32, 32))
_PHILOX_M = [[np.array(v, dtype=np.uint64) for v in (m, m & MASK32, m >> 32)]
             for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157)]  # each multiplier and its 32-bit halves
_PHILOX_BUMPS = np.array([[r * w % 2**64 for w in (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)] for r in range(10)],
                         dtype=np.uint64)[:, :, None]  # (round, key word, 1): what round r adds to the key
# SeedSequence's running hash constant, as uint32 columns: the mixing's 17 values, then generate_state's 5
_HASH_A = np.array([0x43B0D7E5 * pow(0x931E8875, k, 2**32) % 2**32 for k in range(17)], dtype=np.uint32)[:, None]
_HASH_B = np.array([0x8B51F9DD * pow(0x58F38DED, k, 2**32) % 2**32 for k in range(5)], dtype=np.uint32)[:, None]
_OTHER_WORDS = [np.array([i for i in range(4) if i != src]) for src in range(4)]  # index arrays index fastest


def delivery_masks(n_slots: int, pers: Sequence[float], seeds: Sequence[int]) -> np.ndarray:
    """Loss patterns of many runs: a bool array (n_slots, runs), True = delivered.

    Column i is the pattern `transmit` applies for (pers[i], seeds[i]):
    slot 0 is always delivered, and slot k > 0 is dropped when draw k - 1
    of `Generator(Philox(seeds[i])).random()` falls below pers[i].
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    pers = np.asarray(pers, dtype=np.float64)
    delivered = np.ones((n_slots, len(seeds)), dtype=bool)
    for lo in range(0, len(seeds), CHUNK):
        runs = slice(lo, lo + CHUNK)
        delivered[1:, runs] = philox_random(n_slots - 1, seeds[runs]) >= pers[runs]
    return delivered


def philox_random(n: int, seeds: np.ndarray) -> np.ndarray:
    """`Generator(Philox(seed)).random(n)` for each uint64 seed, as an (n, seeds) float64 array.

    The key is `SeedSequence(seed).generate_state(2, np.uint64)`; block b of
    four uint64 words is Philox4x64-10 of the counter (b + 1, 0, 0, 0), and
    a word w gives the double (w >> 11) * 2**-53.
    """
    words = np.stack(_philox_blocks(n, seeds), axis=1).reshape(-1, len(seeds))[:n]
    return (words >> 11) * 2.0**-53


def _philox_blocks(n: int, seeds: np.ndarray) -> tuple[np.ndarray, ...]:
    """The four words of the Philox blocks that hold n draws per seed, each a (blocks, seeds) uint64 array."""
    c0 = np.arange(1, -(-n // 4) + 1, dtype=np.uint64)[:, None]
    c1 = c2 = c3 = np.zeros((1, 1), dtype=np.uint64)
    for k0, k1 in _seed_sequence_key(seeds) + _PHILOX_BUMPS:
        hi0, lo0 = _mulhilo(*_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(*_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1, c2, c3


def _mulhilo(m: np.ndarray, m_lo: np.ndarray, m_hi: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low uint64 words of the 128-bit products m * x, from 32-bit halves."""
    x_lo, x_hi = x & _LOW, x >> _32
    mid = x_hi * m_lo + (x_lo * m_lo >> _32)  # each sum stays below 2**64
    mid2 = x_lo * m_hi + (mid & _LOW)
    return x_hi * m_hi + (mid >> _32) + (mid2 >> _32), x * m


def _seed_sequence_key(seeds: np.ndarray) -> np.ndarray:
    """`SeedSequence(seed).generate_state(2, np.uint64)` per uint64 seed, as a (2, seeds) uint64 array.

    A seed below 2**64 is at most two 32-bit entropy words, which the
    4-word pool pads with zeros, so every seed takes the same path.
    """
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0], pool[1] = seeds & MASK32, seeds >> 32
    pool = _hashmix(pool, _HASH_A[:5])
    for src, dst in enumerate(_OTHER_WORDS):
        mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * _hashmix(pool[src], _HASH_A[3 * src + 4:3 * src + 8])
        pool[dst] = mixed ^ mixed >> 16
    state = _hashmix(pool, _HASH_B).astype(np.uint64)
    return state[0::2] | state[1::2] << 32


def _hashmix(value: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of value under successive hash constants, one row per pair of them."""
    value = (value ^ constants[:-1]) * constants[1:]
    return value ^ value >> 16


def apply_mask(states: Sequence[TimedState], mask: Sequence[bool]) -> list[ReceivedSlot]:
    """Apply a delivery mask (True = delivered) to a state sequence.

    `transmit` passes a drawn mask; tests pass explicit ones. mask[0] must
    be True.
    """
    if len(mask) != len(states):
        raise ValueError(f"mask length {len(mask)} != state count {len(states)}")
    if len(mask) > 0 and not mask[0]:
        raise ValueError("slot 0 must be delivered")
    return [ReceivedSlot(ts.state if keep else None) for ts, keep in zip(states, mask)]
