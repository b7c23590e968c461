"""Calibration metrics against brute-force oracles and the spec'd conventions."""

import dataclasses
import json
import re

import numpy as np
import pytest

from calprune.metrics import (CalibrationReport, ReliabilityBin, SubsetCalibration,
                              bin_edges, bin_indices, binned_ece, build_report, ece_on_subset,
                              record_doc, refinement_auroc, report_from_dict)
from calprune.metrics import test_error as error_rate
from calprune.reporting import dumps_json, export_reliability_rows, hist_rows_from_bins


def records(pairs):
    """(confidence, correct) float64 arrays from (confidence, bool) pairs."""
    pairs = list(pairs)
    return (np.array([c for c, _ in pairs], dtype=np.float64),
            np.array([ok for _, ok in pairs], dtype=np.float64))


def random_records(rng, n):
    return rng.uniform(0, 1, n), (rng.random(n) < 0.7).astype(np.float64)


def oracle_bin_table(conf, correct, n_bins):
    """O(n*M) re-binning by direct comparison against the same float64 edges."""
    counts = [0] * n_bins
    conf_sums = [0.0] * n_bins
    correct_sums = [0.0] * n_bins
    for c, ok in zip(conf.tolist(), correct.tolist()):
        placed = None
        for m in range(1, n_bins + 1):
            lower = (m - 1) / n_bins
            upper = m / n_bins
            if (lower < c <= upper) or (m == 1 and c == 0.0):
                placed = m - 1
                break
        assert placed is not None, f"confidence {c} fell through all bins"
        counts[placed] += 1
        conf_sums[placed] += c
        correct_sums[placed] += ok
    return counts, conf_sums, correct_sums


def oracle_ece(conf, correct, n_bins):
    counts, conf_sums, correct_sums = oracle_bin_table(conf, correct, n_bins)
    n = len(conf)
    total = 0.0
    for m in range(n_bins):
        if counts[m]:
            total += counts[m] / n * abs(correct_sums[m] / counts[m]
                                         - conf_sums[m] / counts[m])
    return total


def test_single_bin_formula():
    bins, ece = binned_ece(*records((0.8, ok) for ok in [True] * 3 + [False]), 10)
    assert ece == pytest.approx(0.05, abs=1e-12)
    assert bins[7].count == 4
    assert bins[7].confidence == pytest.approx(0.8, abs=1e-12)
    assert bins[7].accuracy == pytest.approx(0.75, abs=1e-12)


def test_exactly_calibrated_records_have_zero_ece():
    pairs = []
    for numerator in range(0, 5):  # accuracies 0/4 .. 4/4 at matching confidences
        c = numerator / 4
        pairs += [(c, i < numerator) for i in range(4)]
    _, ece = binned_ece(*records(pairs), 4)
    assert ece == pytest.approx(0.0, abs=1e-15)


def test_matches_oracle_on_random_records():
    rng = np.random.default_rng(12)
    for n_bins in (1, 10, 15):
        for _ in range(20):
            conf, correct = random_records(rng, int(rng.integers(1, 200)))
            _, ece = binned_ece(conf, correct, n_bins)
            assert ece == pytest.approx(oracle_ece(conf, correct, n_bins), abs=1e-12)


def test_bin_counts_match_oracle_exactly():
    rng = np.random.default_rng(13)
    conf, correct = random_records(rng, 500)
    # include exact edge confidences
    conf = np.append(conf, [0.0, 0.1, 0.2, 0.5, 1.0])
    correct = np.append(correct, np.ones(5))
    bins, _ = binned_ece(conf, correct, 10)
    counts, _, _ = oracle_bin_table(conf, correct, 10)
    assert [b.count for b in bins] == counts


@pytest.mark.parametrize("n_bins", [1, 2, 3, 7, 10, 15, 100])
def test_bin_indices_match_searchsorted_bitwise(n_bins):
    """Counting the edges below each confidence gives searchsorted's left
    indices on [0, 1]: at 0 and 1, on every edge m/M, at each edge's float64
    neighbours and at random values."""
    edges = bin_edges(n_bins)
    conf = np.concatenate([
        [0.0, 1.0], edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0),
        np.random.default_rng(n_bins).uniform(0.0, 1.0, 5000)])
    conf = conf[conf <= 1.0]
    expected = np.searchsorted(edges, conf, side="left")
    idx = bin_indices(conf, n_bins)
    assert idx.dtype == expected.dtype
    assert idx.tobytes() == expected.tobytes()


def test_zero_confidence_lands_in_first_bin():
    bins, _ = binned_ece(*records([(0.0, False)]), 10)
    assert bins[0].count == 1


def test_empty_records_rejected():
    with pytest.raises(ValueError):
        binned_ece(*records([]), 10)
    for n_bins in (0, 1001):
        with pytest.raises(ValueError, match=rf"^n_bins must be in \[1, 1000\], got {n_bins}$"):
            binned_ece(*records([(0.5, True)]), n_bins)
    for bad in (1.5, -0.1, np.nan):
        with pytest.raises(ValueError, match="outside"):
            binned_ece(*records([(0.5, True), (bad, True)]), 10)


def test_ece_on_subset_counts_its_subset():
    """The subset is the records with confidence >= delta: here the one right
    record at 0.96, whose ECE is |1 - 0.96|."""
    conf, correct = records([(0.96, True), (0.94, False)])
    sub = ece_on_subset(conf, correct, 0.95, 10)
    assert sub.count == 1 and sub.ece == pytest.approx(0.04, abs=1e-12)
    assert sub.fraction_pct == pytest.approx(50.0)
    one = ece_on_subset(*records([(1.0, True)]), 1.0, 10)
    assert one.count == 1 and one.fraction_pct == 100.0
    with pytest.raises(ValueError, match=r"^delta must be in \(0, 1\], got 0.0$"):
        ece_on_subset(conf, correct, 0.0, 10)


def test_ece_on_subset_checks_n_bins_whether_or_not_its_subset_is_empty():
    for conf in ([0.3], [0.97]):  # no record, then one, reaches delta
        for n_bins, problem in ((0, "be in [1, 1000], got 0"),
                                (2.0, "be of type integer, got number 2.0")):
            with pytest.raises(ValueError, match=f"^n_bins must {re.escape(problem)}$"):
                ece_on_subset(conf, [1.0], 0.95, n_bins)


def test_ece_on_subset_values():
    well = records((0.96, i != 0) for i in range(25))  # accuracy 24/25 = 0.96
    sub = ece_on_subset(*well, 0.95, 10)
    assert sub.ece == pytest.approx(0.0, abs=1e-12)
    half = records([(0.99, True), (0.99, False)])
    assert ece_on_subset(*half, 0.95, 10).ece == pytest.approx(0.49, abs=1e-12)


def test_ece_on_subset_empty_is_flagged():
    sub = ece_on_subset(*records([(0.3, True), (0.4, False)]), 0.95, 10)
    assert sub.empty
    assert sub.ece is None
    assert sub.count == 0


def test_subset_matches_oracle():
    rng = np.random.default_rng(14)
    for _ in range(20):
        conf, correct = random_records(rng, 300)
        delta = float(rng.uniform(0.1, 0.99))
        sub = ece_on_subset(conf, correct, delta, 10)
        keep = conf >= delta
        if keep.any():
            assert sub.ece == pytest.approx(oracle_ece(conf[keep], correct[keep], 10),
                                            abs=1e-12)
        else:
            assert sub.empty


def test_auroc_perfect_separation():
    pairs = [(0.9, True), (0.8, True), (0.2, False), (0.1, False)]
    assert refinement_auroc(*records(pairs)) == 1.0


def test_auroc_all_ties():
    pairs = [(0.5, True), (0.5, False), (0.5, True)]
    assert refinement_auroc(*records(pairs)) == pytest.approx(0.5)


def test_auroc_pair_counting():
    pairs = [(0.9, True), (0.3, True), (0.5, False)]
    assert refinement_auroc(*records(pairs)) == pytest.approx(0.5)


def test_auroc_degenerate_is_none():
    assert refinement_auroc(*records([(0.5, True)] * 3)) is None
    assert refinement_auroc(*records([(0.5, False)] * 3)) is None


@pytest.mark.parametrize("grid", [None, 0.05], ids=["distinct", "ties"])
def test_auroc_matches_pairwise_oracle(grid):
    rng = np.random.default_rng(15)
    conf, correct = random_records(rng, 80)
    if grid is not None:  # a coarse grid makes most confidences tie
        conf = np.round(conf / grid) * grid
    fast = refinement_auroc(conf, correct)
    wins = ties = total = 0
    for a, a_ok in zip(conf, correct):
        if not a_ok:
            continue
        for b, b_ok in zip(conf, correct):
            if b_ok:
                continue
            total += 1
            wins += a > b
            ties += a == b
    assert fast == pytest.approx((wins + 0.5 * ties) / total, abs=1e-12)


def test_auroc_matches_pairwise_oracle_on_heavy_ties():
    """About 2000 confidences on a 0.01 grid: every positive/negative pair
    counted, ties as 1/2."""
    rng = np.random.default_rng(23)
    conf, correct = random_records(rng, 2000)
    conf = np.round(conf, 2)
    pos, neg = conf[correct == 1.0], conf[correct == 0.0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    assert ties > len(conf)  # heavily tied
    expected = (wins + 0.5 * ties) / (len(pos) * len(neg))
    assert refinement_auroc(conf, correct) == pytest.approx(expected, abs=1e-12)


def stable_sort_auroc(conf, correct):
    """The rank-sum AUROC with a stable sort, tie runs sharing their average rank."""
    n, n_pos = len(conf), int(correct.sum())
    order = np.argsort(conf, kind="mergesort")
    sorted_conf = conf[order]
    starts = np.flatnonzero(np.r_[True, sorted_conf[1:] != sorted_conf[:-1]])
    ends = np.r_[starts[1:], n]
    ranks = np.empty(n)
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    rank_sum = ranks[correct == 1.0].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * (n - n_pos)))


def test_auroc_equals_stable_sort_rank_sum_bitwise():
    """Each tie run gets one shared rank, so the order a sort leaves inside a run
    cannot change a bit of the result."""
    rng = np.random.default_rng(24)
    conf, correct = random_records(rng, 100_000)
    conf = np.round(conf, 3)
    conf[:500], conf[500:1000] = 0.0, -0.0  # one tie run holding both zeros
    fast = refinement_auroc(conf, correct)
    assert np.float64(fast).tobytes() == np.float64(stable_sort_auroc(conf, correct)).tobytes()


@pytest.mark.parametrize("correct, match", [
    ([2.0, 0.0, 0.0], "0.0 and 1.0, got 2.0"),
    ([1.0, 0.0, 0.5], "0.0 and 1.0, got 0.5"),
    ([1.0, np.nan, 0.0], "0.0 and 1.0, got nan"),
    ([1.0, 0.0], r"one length, got shapes \(3,\) and \(2,\)"),
    ([1.0, 0.0, 1.0, 0.0], r"one length, got shapes \(3,\) and \(4,\)"),
    ([[1.0, 0.0, 1.0]], r"correct must be a 1-d array, got shape \(1, 3\)"),
], ids=["two", "half", "nan", "shorter", "longer", "2d"])
def test_malformed_correct_rejected(correct, match):
    """Every metric that reads `correct` names the problem instead of returning
    an AUROC outside [0, 1], a bin accuracy of 2 or a raw numpy error."""
    conf, correct = np.array([0.2, 0.8, 0.5]), np.array(correct)
    for metric in (lambda: binned_ece(conf, correct, 10),
                   lambda: refinement_auroc(conf, correct),
                   lambda: ece_on_subset(conf, correct, 0.5, 10),
                   lambda: build_report(conf, correct, 10, [0.9])):
        with pytest.raises(ValueError, match=match):
            metric()
    if correct.ndim != 1 or len(correct) != len(conf):
        return
    with pytest.raises(ValueError, match=match):
        error_rate(correct)


@pytest.mark.parametrize("bad, shown", [(np.nan, "nan"), (1.5, "1.5"), (-0.1, "-0.1")],
                         ids=["nan", "above_one", "negative"])
def test_confidence_outside_unit_interval_rejected(bad, shown):
    """Every metric that reads confidences refuses one outside [0, 1] with one
    message, instead of ranking a NaN or dropping it from a subset."""
    conf, correct = np.array([bad, 0.2, 0.9, 0.7]), np.array([1.0, 0.0, 1.0, 0.0])
    for metric in (lambda: binned_ece(conf, correct, 10),
                   lambda: refinement_auroc(conf, correct),
                   lambda: ece_on_subset(conf, correct, 0.5, 10),
                   lambda: build_report(conf, correct, 10, [0.9])):
        with pytest.raises(ValueError, match=rf"^confidence {shown} outside \[0, 1\]$"):
            metric()


def test_malformed_confidences_shape_rejected():
    with pytest.raises(ValueError, match=r"one length, got shapes \(1, 2\) and \(2,\)"):
        refinement_auroc(np.array([[0.2, 0.8]]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="correct must be a 1-d array"):
        error_rate(np.ones((2, 2)))


def test_test_error_values():
    assert error_rate(np.array([1.0, 1.0, 1.0, 0.0])) == pytest.approx(25.0)
    assert error_rate(np.array([1.0])) == 0.0
    assert error_rate(np.array([0.0])) == 100.0
    with pytest.raises(ValueError, match="^test_error requires at least one record$"):
        error_rate(np.array([]))


def test_single_record_ece():
    for c, ok in ((0.3, True), (0.9, False)):
        _, ece = binned_ece(*records([(c, ok)]), 10)
        assert ece == pytest.approx(abs(float(ok) - c), abs=1e-12)


def test_permutation_invariance():
    rng = np.random.default_rng(16)
    conf, correct = random_records(rng, 150)
    report = build_report(conf, correct, 10, [0.95])
    perm = rng.permutation(len(conf))
    other = build_report(conf[perm], correct[perm], 10, [0.95])
    assert other.ece == pytest.approx(report.ece, abs=1e-12)
    assert other.auroc == pytest.approx(report.auroc, abs=1e-12)
    assert other.test_error_pct == pytest.approx(report.test_error_pct, abs=1e-12)


def test_tiny_delta_subset_is_no_op():
    rng = np.random.default_rng(22)
    conf = rng.uniform(0.05, 1, 120)  # every confidence strictly positive
    correct = (rng.random(120) < 0.6).astype(np.float64)
    _, full = binned_ece(conf, correct, 10)
    sub = ece_on_subset(conf, correct, 1e-9, 10)
    assert sub.count == len(conf)
    assert sub.ece == pytest.approx(full, abs=1e-15)


def test_one_bin_reduces_to_global_gap():
    rng = np.random.default_rng(17)
    conf, correct = random_records(rng, 200)
    _, ece = binned_ece(conf, correct, 1)
    assert ece == pytest.approx(abs(np.mean(correct) - np.mean(conf)), abs=1e-12)


def test_report_ece_recomputable_from_bins():
    rng = np.random.default_rng(18)
    report = build_report(*random_records(rng, 400), 10, [0.95, 0.99])
    recomputed = sum(b.count / report.n * abs(b.accuracy - b.confidence)
                     for b in report.bins if b.count)
    assert report.ece == pytest.approx(recomputed, abs=1e-12)
    assert sum(b.count for b in report.bins) == report.n
    assert 0.0 <= report.ece <= 1.0


def test_export_rows_shape_and_gap():
    rng = np.random.default_rng(19)
    bins, _ = binned_ece(*random_records(rng, 50), 10)
    rows = export_reliability_rows(bins)
    assert len(rows) == 10
    for (lower, upper, count, conf, acc, gap), b in zip(rows, bins):
        if count == 0:
            assert conf is None and acc is None and gap is None
        else:
            assert gap == pytest.approx(acc - conf, abs=1e-15)


def test_histogram_counts_sum_to_n():
    rng = np.random.default_rng(20)
    conf, correct = random_records(rng, 123)
    bins, _ = binned_ece(conf, correct, 10)
    rows = hist_rows_from_bins(bins, len(conf))
    assert sum(count for _, _, count, _ in rows) == 123
    assert sum(fraction for _, _, _, fraction in rows) == pytest.approx(1.0, abs=1e-12)
    counts, _, _ = oracle_bin_table(conf, correct, 10)
    assert [count for _, _, count, _ in rows] == counts


def test_report_dict_roundtrip():
    """Write, dump, load and read back gives the same report, whole; every field
    of the three report records declares its read-back rule or record type."""
    rng = np.random.default_rng(21)
    conf = rng.uniform(0, 0.9, 60)
    reports = [build_report(*random_records(rng, 60), 10, [0.95]),
               build_report(conf, np.ones(60), 10, [0.5, 0.99]),  # every record correct
               build_report(conf, (rng.random(60) < 0.5).astype(np.float64), 7, [0.99])]
    # the written bins are those bin_edges gives at any bin count, so they read back
    reports += [build_report(*random_records(rng, 60), m, [0.5]) for m in (1, 3, 15, 100)]
    assert reports[1].auroc is None and reports[1].subsets[1].empty
    assert reports[2].subsets[0].empty and not reports[1].subsets[0].empty
    for report in reports:
        back = report_from_dict(json.loads(dumps_json(record_doc(report))))
        assert isinstance(back, CalibrationReport)
        assert back == report
    # three confidences of exactly 0.1 average just above the first bin's upper edge
    edge = build_report(*records([(0.1, True)] * 3), 10, [0.95])
    assert edge.bins[0].confidence > edge.bins[0].upper
    assert report_from_dict(json.loads(dumps_json(record_doc(edge)))) == edge
    for record in (CalibrationReport, ReliabilityBin, SubsetCalibration):
        for f in dataclasses.fields(record):
            assert ("rule" in f.metadata) != ("record" in f.metadata), (record, f.name)
