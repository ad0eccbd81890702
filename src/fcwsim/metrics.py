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

from dataclasses import dataclass, replace
from typing import Optional, Sequence


@dataclass(frozen=True)
class ConfusionCounts:
    ch: int = 0
    cs: int = 0
    is_: int = 0
    ih: int = 0

    @property
    def total(self) -> int:
        return self.ch + self.cs + self.is_ + self.ih


def classify_step(truth_warn: bool, est_warn: bool, acc: ConfusionCounts) -> ConfusionCounts:
    """Fold one step's (truth, estimate) warning pair into the counts."""
    if truth_warn:
        return replace(acc, ch=acc.ch + 1) if est_warn else replace(acc, is_=acc.is_ + 1)
    return replace(acc, ih=acc.ih + 1) if est_warn else replace(acc, cs=acc.cs + 1)


def true_positive(c: ConfusionCounts) -> Optional[float]:
    """ch / (is_ + ch); None when no hazard steps existed."""
    hazards = c.is_ + c.ch
    return c.ch / hazards if hazards > 0 else None


def accuracy(c: ConfusionCounts) -> Optional[float]:
    """(ch + cs) / total; None on zero total."""
    return (c.ch + c.cs) / c.total if c.total > 0 else None


@dataclass(frozen=True)
class MetricSummary:
    """Averages over runs (scenarios x seeds) with undefined-ratio exclusion counts."""

    mean_tp: Optional[float]
    mean_accuracy: Optional[float]
    tp_std: Optional[float]
    accuracy_std: Optional[float]
    n_undefined_tp: int
    n_undefined_accuracy: int


def aggregate(runs: Sequence[ConfusionCounts]) -> MetricSummary:
    """Per-run ratios first, then the arithmetic mean of the defined ones."""
    if not runs:
        raise ValueError("aggregate requires at least one run")
    tps = [tp for c in runs if (tp := true_positive(c)) is not None]
    accs = [a for c in runs if (a := accuracy(c)) is not None]
    n = len(runs)
    return MetricSummary(
        mean_tp=sum(tps) / len(tps) if tps else None,
        mean_accuracy=sum(accs) / len(accs) if accs else None,
        tp_std=_std(tps),
        accuracy_std=_std(accs),
        n_undefined_tp=n - len(tps),
        n_undefined_accuracy=n - len(accs),
    )


def _std(values: list[float]) -> Optional[float]:
    if not values:
        return None
    mean = sum(values) / len(values)
    return (sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5
