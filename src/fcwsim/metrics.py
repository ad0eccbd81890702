"""Warning-quality metrics from per-step confusion counts.

Each simulated step is classified against the ground-truth decision
(computed with the exact LV state) versus the estimated-data decision:
correct hazard (ch), correct safe (cs), incorrect safe / missed hazard
(is_), incorrect hazard / false alarm (ih). Two ratios summarize a run:

    true positive = ch / (is_ + ch)
    accuracy      = (ch + cs) / (is_ + ih + ch + cs)

A ratio with an empty denominator is undefined (None), not an error, and
undefined values are excluded from the averages over runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import NamedTuple, Optional, Sequence

import numpy as np


class ConfusionCounts(NamedTuple):
    """One run's counts; a list of them is a (runs, 4) array-like, as a slab of the sweep's count array is."""

    ch: int = 0
    cs: int = 0
    is_: int = 0
    ih: int = 0


def confusion(ch: int | np.ndarray, n_truth: int | np.ndarray, n_warn: int | np.ndarray,
              n_steps: int) -> tuple[int | np.ndarray, ...]:
    """(ch, cs, is_, ih) from counts of correct hazards, truth warnings, estimate warnings and steps."""
    is_, ih = n_truth - ch, n_warn - ch
    return ch, n_steps - ch - is_ - ih, is_, ih


def classify_step(truth_warn: bool, est_warn: bool, acc: ConfusionCounts) -> ConfusionCounts:
    """Fold one step's (truth, estimate) warning pair into the counts."""
    step = confusion(int(truth_warn and est_warn), int(truth_warn), int(est_warn), 1)
    return ConfusionCounts(*map(add, acc, step))


@dataclass(frozen=True)
class MetricSummary:
    """Averages over runs (scenarios x seeds) with undefined-ratio exclusion counts."""

    mean_tp: Optional[float]
    mean_accuracy: Optional[float]
    tp_std: Optional[float]
    accuracy_std: Optional[float]
    n_undefined_tp: int
    n_undefined_accuracy: int


def aggregate(runs: Sequence[ConfusionCounts] | np.ndarray) -> MetricSummary:
    """Per-run ratios first, then the arithmetic mean of the defined ones.

    runs holds one (ch, cs, is_, ih) row per run: a list of ConfusionCounts,
    or a slab of the sweep's count array. The ratios are int64 quotients,
    which equal Python's int / int below 2**53; the means and spreads add
    them left to right in run order, as `sum` did before CPython 3.12.
    """
    counts = np.asarray(runs, dtype=np.int64).reshape(-1, 4)
    if not len(counts):
        raise ValueError("aggregate requires at least one run")
    ch, cs, is_, _ = counts.T
    hazards, total = ch + is_, counts.sum(axis=1)
    tps = (ch[hazards > 0] / hazards[hazards > 0]).tolist()
    accs = ((ch + cs)[total > 0] / total[total > 0]).tolist()
    n = len(counts)
    mean_tp = reduce(add, tps, 0.0) / len(tps) if tps else None
    mean_accuracy = reduce(add, accs, 0.0) / len(accs) if accs else None
    return MetricSummary(
        mean_tp=mean_tp,
        mean_accuracy=mean_accuracy,
        tp_std=_std(tps, mean_tp),
        accuracy_std=_std(accs, mean_accuracy),
        n_undefined_tp=n - len(tps),
        n_undefined_accuracy=n - len(accs),
    )


def _std(values: list[float], mean: Optional[float]) -> Optional[float]:
    if not values:
        return None
    return (reduce(add, ((v - mean) ** 2 for v in values), 0.0) / len(values)) ** 0.5
