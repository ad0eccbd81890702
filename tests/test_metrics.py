"""Confusion counting and TP/accuracy ratios against brute-force recounts."""

import statistics

import numpy as np
import pytest

from fcwsim.metrics import ConfusionCounts, accuracy, aggregate, classify_step, true_positive


def brute_force(pairs):
    """Oracle: recount a (truth, est) label stream directly."""
    ch = sum(1 for t, e in pairs if t and e)
    cs = sum(1 for t, e in pairs if not t and not e)
    is_ = sum(1 for t, e in pairs if t and not e)
    ih = sum(1 for t, e in pairs if not t and e)
    tp = ch / (is_ + ch) if is_ + ch else None
    acc = (ch + cs) / len(pairs) if pairs else None
    return ch, cs, is_, ih, tp, acc


def classify_all(pairs):
    counts = ConfusionCounts()
    for truth, est in pairs:
        counts = classify_step(truth, est, counts)
    return counts


def test_classify_step_definitions():
    zero = ConfusionCounts()
    assert classify_step(True, True, zero) == ConfusionCounts(ch=1)
    assert classify_step(True, False, zero) == ConfusionCounts(is_=1)
    assert classify_step(False, True, zero) == ConfusionCounts(ih=1)
    assert classify_step(False, False, zero) == ConfusionCounts(cs=1)
    seq = [(True, True), (False, False), (True, False), (False, True)]
    assert classify_all(seq) == ConfusionCounts(ch=1, cs=1, is_=1, ih=1)


def test_true_positive_values():
    assert true_positive(ConfusionCounts(ch=8, is_=2)) == pytest.approx(0.8, rel=1e-9)
    assert true_positive(ConfusionCounts(ch=10)) == 1.0
    assert true_positive(ConfusionCounts(cs=5, ih=3)) is None


def test_accuracy_values():
    assert accuracy(ConfusionCounts(ch=3, cs=5, is_=1, ih=1)) == pytest.approx(0.8, rel=1e-9)
    assert accuracy(ConfusionCounts(ch=4, cs=6)) == 1.0
    assert accuracy(ConfusionCounts(is_=2, ih=3)) == 0.0
    assert accuracy(ConfusionCounts()) is None


def test_matches_brute_force_recount():
    rng = np.random.default_rng(59)
    for _ in range(200):
        n = int(rng.integers(1, 200))
        p_truth = float(rng.uniform(0, 1))
        p_match = float(rng.uniform(0, 1))
        pairs = []
        for _ in range(n):
            truth = bool(rng.random() < p_truth)
            est = truth if rng.random() < p_match else not truth
            pairs.append((truth, est))
        counts = classify_all(pairs)
        ch, cs, is_, ih, tp, acc = brute_force(pairs)
        assert (counts.ch, counts.cs, counts.is_, counts.ih) == (ch, cs, is_, ih)
        assert counts.total == n
        assert true_positive(counts) == tp
        assert accuracy(counts) == acc
        if tp is not None:
            assert 0.0 <= tp <= 1.0
        assert 0.0 <= acc <= 1.0


def test_perfect_estimation_fixed_point():
    rng = np.random.default_rng(61)
    pairs = [(bool(rng.random() < 0.4),) * 2 for _ in range(500)]
    counts = classify_all(pairs)
    assert accuracy(counts) == 1.0
    tp = true_positive(counts)
    assert tp is None or tp == 1.0


def test_aggregate_means_and_exclusions():
    one = aggregate([ConfusionCounts(ch=8, is_=2, cs=0, ih=0)])
    assert one.mean_tp == pytest.approx(0.8, rel=1e-9)

    two = aggregate([ConfusionCounts(ch=10), ConfusionCounts(ch=6, is_=4)])
    assert two.mean_tp == pytest.approx(0.8, rel=1e-9)

    mixed = aggregate([ConfusionCounts(ch=9, is_=1), ConfusionCounts(cs=10)])
    assert mixed.mean_tp == pytest.approx(0.9, rel=1e-9)
    assert mixed.n_undefined_tp == 1
    assert mixed.n_undefined_accuracy == 0
    assert mixed.mean_accuracy == pytest.approx((0.9 + 1.0) / 2, rel=1e-9)


def test_aggregate_spreads_are_population_std_over_defined_ratios():
    # TP is defined on the first two runs only (0.9, 0.5); accuracy on all three
    s = aggregate([ConfusionCounts(ch=9, is_=1), ConfusionCounts(ch=1, is_=1, cs=2), ConfusionCounts(cs=10)])
    assert s.tp_std == pytest.approx(0.2, rel=1e-12)
    assert s.accuracy_std == pytest.approx(statistics.pstdev([0.9, 0.75, 1.0]), rel=1e-12)
    assert aggregate([ConfusionCounts(ch=3, ih=1)]).tp_std == 0.0

    undefined = aggregate([ConfusionCounts(cs=5), ConfusionCounts()])
    assert undefined.tp_std is None
    assert undefined.accuracy_std == 0.0
    assert aggregate([ConfusionCounts()]).accuracy_std is None


def test_aggregate_requires_input():
    with pytest.raises(ValueError):
        aggregate([])
