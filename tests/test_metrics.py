"""Confusion counting and TP/accuracy ratios against brute-force recounts."""

import json
import statistics
from dataclasses import asdict, astuple

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fcwsim.metrics import ConfusionCounts, MetricSummary, aggregate, classify_step, confusion


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
    assert aggregate([ConfusionCounts(ch=8, is_=2)]).mean_tp == pytest.approx(0.8, rel=1e-9)
    assert aggregate([ConfusionCounts(ch=10)]).mean_tp == 1.0
    assert aggregate([ConfusionCounts(cs=5, ih=3)]).mean_tp is None


def test_accuracy_values():
    assert aggregate([ConfusionCounts(ch=3, cs=5, is_=1, ih=1)]).mean_accuracy == pytest.approx(0.8, rel=1e-9)
    assert aggregate([ConfusionCounts(ch=4, cs=6)]).mean_accuracy == 1.0
    assert aggregate([ConfusionCounts(is_=2, ih=3)]).mean_accuracy == 0.0
    assert aggregate([ConfusionCounts()]).mean_accuracy is None


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
        assert sum(counts) == n
        summary = aggregate([counts])
        assert (summary.mean_tp, summary.mean_accuracy) == (tp, acc)
        if tp is not None:
            assert 0.0 <= tp <= 1.0
        assert 0.0 <= acc <= 1.0


def test_confusion_matches_brute_force_recount():
    # one run from its counts, then every column of a (steps, runs) array at once, then no steps at all
    rng = np.random.default_rng(67)
    for n_steps in (0, 1, 151):
        truth = rng.random((n_steps, 40)) < 0.4
        est = np.where(rng.random((n_steps, 40)) < 0.8, truth, ~truth)
        many = confusion((truth & est).sum(axis=0), truth.sum(axis=0), est.sum(axis=0), n_steps)
        for run in range(truth.shape[1]):
            pairs = list(zip(truth[:, run].tolist(), est[:, run].tolist()))
            expected = brute_force(pairs)[:4]
            t, e = truth[:, run], est[:, run]
            assert confusion(int((t & e).sum()), int(t.sum()), int(e.sum()), n_steps) == expected
            assert tuple(column[run] for column in many) == expected
    assert confusion(0, 0, 0, 0) == brute_force([])[:4] == (0, 0, 0, 0)


def test_perfect_estimation_fixed_point():
    rng = np.random.default_rng(61)
    pairs = [(bool(rng.random() < 0.4),) * 2 for _ in range(500)]
    counts = classify_all(pairs)
    summary = aggregate([counts])
    assert summary.mean_accuracy == 1.0
    assert summary.mean_tp in (None, 1.0)


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


def per_run_loop(runs):
    """Oracle: aggregate as a Python loop over ConfusionCounts, one int / int ratio per run."""
    tps = [c.ch / (c.is_ + c.ch) for c in runs if c.is_ + c.ch > 0]
    accs = [(c.ch + c.cs) / sum(c) for c in runs if sum(c) > 0]

    def std(values):
        if not values:
            return None
        mean = sum(values) / len(values)
        return (sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5

    return MetricSummary(
        mean_tp=sum(tps) / len(tps) if tps else None,
        mean_accuracy=sum(accs) / len(accs) if accs else None,
        tp_std=std(tps),
        accuracy_std=std(accs),
        n_undefined_tp=len(runs) - len(tps),
        n_undefined_accuracy=len(runs) - len(accs),
    )


_count = st.one_of(st.integers(0, 200), st.integers(0, 2**50))  # run lengths, and sums still below 2**53
_rows = st.one_of(
    st.tuples(_count, _count, _count, _count),
    st.tuples(st.just(0), _count, st.just(0), _count),  # no truth-hazard step: TP undefined
    st.just((0, 0, 0, 0)),  # no step: both ratios undefined
)


_cell = np.random.default_rng(21).integers(0, 152, (2000, 4))  # as many runs as a default sweep cell
_cell[::7, 0::2] = 0  # no truth-hazard step
_cell[::50] = 0  # no step


@given(rows=st.lists(_rows, min_size=1, max_size=100))
@example(rows=_cell.tolist())
def test_aggregate_of_a_count_array_equals_the_per_run_loop(rows):
    expected = per_run_loop([ConfusionCounts(*row) for row in rows])
    slab = np.array(rows, dtype=np.int64)[:, None, :]  # (scenario, seed, 4), as sweep passes its slabs
    for runs in (slab, [ConfusionCounts(*row) for row in rows]):
        summary = aggregate(runs)
        assert summary == expected
        assert [type(v) for v in astuple(summary)] == [type(v) for v in astuple(expected)]
        json.dumps(asdict(summary))
