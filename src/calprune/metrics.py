"""Binned calibration metrics, high-confidence subsets, refinement AUROC.

Bin convention: M equispaced bins over (0, 1], bin m covering
((m-1)/M, m/M], with confidence exactly 0 assigned to the first bin.
Bin membership is decided by direct comparison against the float64 edges
m/M, so an O(n*M) re-binning oracle using the same edge values agrees
exactly.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .ranges import (COUNT, NON_NEGATIVE_INT, SETTINGS, Rule, _json, check, kind_of,
                     require, require_kind)


def _number(high, null=False):
    """Rule: a number in [0, high] (so never NaN or infinite), or also null."""
    return Rule(f"a number{' or null' if null else ''} in [0, {high:g}]",
                lambda v: (v is None and null)
                or (kind_of(v) in ("integer", "number") and 0 <= v <= high))


# Each field of a report record declares the rule its JSON value must pass
# when read back; a list field declares the record type of its elements.
def _rule(rule):
    return field(metadata={"rule": rule})


_UNIT, _UNIT_OR_NULL, _PERCENT = _number(1), _number(1, null=True), _number(100)


@dataclass
class ReliabilityBin:
    lower: float = _rule(_UNIT)
    upper: float = _rule(_UNIT)
    count: int = _rule(NON_NEGATIVE_INT)
    confidence: float = _rule(_UNIT_OR_NULL)   # None when the bin is empty
    accuracy: float = _rule(_UNIT_OR_NULL)     # None when the bin is empty


@dataclass
class SubsetCalibration:
    """Calibration restricted to records with confidence >= delta."""
    delta: float = _rule(_UNIT)
    count: int = _rule(NON_NEGATIVE_INT)
    fraction_pct: float = _rule(_PERCENT)
    ece: float = _rule(_UNIT_OR_NULL)          # None when the subset is empty
    empty: bool = _rule(Rule("a boolean", lambda v: kind_of(v) == "boolean"))


@dataclass
class CalibrationReport:
    n: int = _rule(NON_NEGATIVE_INT)
    n_bins: int = _rule(COUNT)
    bins: list = field(metadata={"record": ReliabilityBin})
    ece: float = _rule(_UNIT_OR_NULL)
    subsets: list = field(metadata={"record": SubsetCalibration})
    test_error_pct: float = _rule(_PERCENT)
    auroc: float = _rule(_UNIT_OR_NULL)        # None when all records are correct or all incorrect


# how far a bin's mean confidence, a float sum divided by its count, may round
# past the bin's edges (three confidences of exactly 0.1 average 0.1 + 2**-56)
_MEAN_SLACK = 1e-9


def bin_edges(n_bins):
    return np.arange(1, n_bins + 1) / n_bins


def bin_indices(confidences, n_bins):
    """Index of the first edge m/M that is >= c; c=0 lands in bin 0.

    For c in [0, 1] that is the count of the first M-1 edges below c, summed
    here edge by edge: the indices of searchsorted(bin_edges(M), c,
    side="left"), faster at the bin counts in use, though the cost grows with M.
    """
    confidences = np.asarray(confidences)
    idx = np.zeros(confidences.shape, dtype=np.intp)
    for edge in bin_edges(n_bins)[:-1]:
        idx += confidences > edge
    return idx


def _check_correct(correct):
    """`correct` as a 1-d float64 array holding only 1.0 (right) and 0.0 (wrong).

    Anything else raises a ValueError naming the problem.
    """
    correct = np.asarray(correct, dtype=np.float64)
    if correct.ndim != 1:
        raise ValueError(f"correct must be a 1-d array, got shape {correct.shape}")
    wrong = correct[(correct != 0.0) & (correct != 1.0)]
    if wrong.size:
        raise ValueError(f"correct must hold only 0.0 and 1.0, got {wrong[0]}")
    return correct


def _check_records(conf, correct):
    """`conf` and `correct` (checked by _check_correct) as float64 arrays of one
    length, every confidence in [0, 1]; every metric reads its records through here."""
    correct = _check_correct(correct)
    conf = np.asarray(conf, dtype=np.float64)
    if conf.shape != correct.shape:
        raise ValueError(f"confidences and correct must be 1-d arrays of one length, "
                         f"got shapes {conf.shape} and {correct.shape}")
    outside = conf[~((conf >= 0.0) & (conf <= 1.0))]
    if outside.size:
        raise ValueError(f"confidence {outside[0]} outside [0, 1]")
    return conf, correct


def binned_ece(conf, correct, n_bins):
    """Equispaced-bin reliability table and its expected calibration error.

    `conf` and `correct` are equal-length float64 arrays: each record's
    confidence in [0, 1] and 1.0 where its prediction was right, else 0.0.
    """
    check("eval.bins", n_bins, "n_bins")
    conf, correct = _check_records(conf, correct)
    if not len(conf):
        raise ValueError("binned_ece requires at least one record")
    idx = bin_indices(conf, n_bins)
    counts = np.bincount(idx, minlength=n_bins)
    conf_sums = np.bincount(idx, weights=conf, minlength=n_bins)
    correct_sums = np.bincount(idx, weights=correct, minlength=n_bins)
    uppers = bin_edges(n_bins)
    n = len(conf)
    bins = []
    ece = 0.0
    for m, (lower, upper) in enumerate(zip(np.r_[0.0, uppers[:-1]], uppers)):
        if counts[m] == 0:
            bins.append(ReliabilityBin(lower, upper, 0, None, None))
            continue
        mean_conf = conf_sums[m] / counts[m]
        accuracy = correct_sums[m] / counts[m]
        bins.append(ReliabilityBin(lower, upper, int(counts[m]),
                                   float(mean_conf), float(accuracy)))
        ece += counts[m] / n * abs(accuracy - mean_conf)
    return bins, float(ece)


def ece_on_subset(conf, correct, delta, n_bins):
    """Binned ECE of the records with confidence >= delta, and their percentage.

    An empty subset is reported with ece=None and empty=True rather than a
    silent zero.
    """
    require_kind("number", delta, "delta")
    require(SETTINGS["eval.deltas"].rule, delta, "delta")
    check("eval.bins", n_bins, "n_bins")  # also for an empty subset, which bins nothing
    conf, correct = _check_records(conf, correct)
    keep = conf >= delta
    count = int(keep.sum())
    fraction_pct = 100.0 * count / len(conf) if len(conf) else 0.0
    if not count:
        return SubsetCalibration(delta, 0, fraction_pct, None, True)
    _, ece = binned_ece(conf[keep], correct[keep], n_bins)
    return SubsetCalibration(delta, count, fraction_pct, ece, False)


def refinement_auroc(conf, correct):
    """P(random correct record outranks a random incorrect one), ties counted 1/2.

    Returns None when the ranking is undefined (all correct or all incorrect).
    In the sorted incorrect confidences, a correct one's left insertion point
    counts those below it and its right one those below or tied: the two sums
    count each win twice and each tie once, twice the Mann-Whitney U.
    """
    conf, correct = _check_records(conf, correct)
    right, wrong = np.sort(conf[correct == 1.0]), np.sort(conf[correct == 0.0])
    if not len(right) or not len(wrong):
        return None
    twice_u = (np.searchsorted(wrong, right, "left").sum()
               + np.searchsorted(wrong, right, "right").sum())
    return float(twice_u / 2 / (len(right) * len(wrong)))


def test_error(correct):
    """Fraction of misclassified records, as a percentage."""
    correct = _check_correct(correct)
    if not len(correct):
        raise ValueError("test_error requires at least one record")
    return float(100.0 * (1.0 - correct.mean()))


def build_report(conf, correct, n_bins, deltas):
    bins, ece = binned_ece(conf, correct, n_bins)
    subsets = [ece_on_subset(conf, correct, delta, n_bins) for delta in deltas]
    return CalibrationReport(
        n=len(conf),
        n_bins=n_bins,
        bins=bins,
        ece=ece,
        subsets=subsets,
        test_error_pct=test_error(correct),
        auroc=refinement_auroc(conf, correct),
    )


def record_doc(record):
    """The JSON-ready dict of a dataclass record, field by field; a list field
    declaring a record type holds its elements' dicts."""
    doc = {}
    for f in fields(record):
        value = getattr(record, f.name)
        doc[f.name] = [record_doc(r) for r in value] if "record" in f.metadata else value
    return doc


def _read_record(cls, doc, where=""):
    """The inverse of record_doc for a report record: `doc` is a JSON object,
    each field passes its rule and each list field is an array of records.
    Errors name a field by its path from the report, `where` its prefix."""
    record = f"report field {where[:-1]}" if where else "report"
    require_kind("object", doc, record)
    values = {}
    for f in fields(cls):
        if f.name not in doc:
            raise ValueError(f"{record} lacks key {_json(f.name)}")
        value, name = doc[f.name], f"report field {where}{f.name}"
        if "record" in f.metadata:
            require_kind("array", value, name)
            value = [_read_record(f.metadata["record"], item, f"{where}{f.name}[{i}].")
                     for i, item in enumerate(value)]
        else:
            require(f.metadata["rule"], value, name)
        values[f.name] = value
    return cls(**values)


def report_from_dict(doc):
    """Rebuild a report from its record_doc form, whose bins must be the n_bins
    bins that bin_edges gives; a malformed one raises ValueError."""
    report = _read_record(CalibrationReport, doc)
    if report.n_bins != len(report.bins):
        raise ValueError(f"report field n_bins must equal the number of bins, "
                         f"{len(report.bins)}, got {report.n_bins}")
    uppers = bin_edges(report.n_bins)
    for i, (b, lower, upper) in enumerate(zip(report.bins, np.r_[0.0, uppers[:-1]], uppers)):
        if (b.lower, b.upper) != (lower, upper):
            raise ValueError(f"report field bins[{i}] must have lower {lower} and upper "
                             f"{upper}, as one of {report.n_bins} equispaced bins, got {b}")
        empty = b.count == 0
        if (b.confidence is None) != empty or (b.accuracy is None) != empty:
            raise ValueError(f"report field bins[{i}] must have a null confidence and "
                             f"accuracy exactly when its count is 0, got {b}")
        if not empty and not lower - _MEAN_SLACK <= b.confidence <= upper + _MEAN_SLACK:
            raise ValueError(f"report field bins[{i}] must have a confidence in [{lower}, "
                             f"{upper}], the bin's own range, got {b.confidence}")
    for i, sub in enumerate(report.subsets):
        if sub.empty != (sub.count == 0) or (sub.ece is None) != sub.empty:
            raise ValueError(f"report field subsets[{i}] must have empty true and a null "
                             f"ece exactly when its count is 0, got {sub}")
        if sub.count > report.n:
            raise ValueError(f"report field subsets[{i}] must have a count of at most n, "
                             f"{report.n}, got {sub.count}")
    total = sum(b.count for b in report.bins)
    if report.n != total:
        raise ValueError(f"report field n must equal the sum of the bin counts, "
                         f"{total}, got {report.n}")
    return report
