"""EMA updates, the classwise prune rule, the resolved prune epochs, and schedule validation."""

from collections import namedtuple

import numpy as np
import pytest

from calprune.config import build_prune_schedule, resolve_config
from calprune.pruning import PruneSchedule, prune_count, prune_using_ema, update_ema

# one value per row: label, original id, EMA score
Rows = namedtuple("Rows", "y ids ema")


def make_rows(labels, emas=None, ids=None):
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    emas = np.zeros(n) if emas is None else np.asarray(emas, dtype=np.float64)
    ids = np.arange(n, dtype=np.int64) if ids is None else np.asarray(ids, dtype=np.int64)
    return Rows(labels, ids, emas)


def prune(rows, percent, n_classes=None):
    """The rows that `prune_using_ema` keeps, in the order of its positions."""
    k = int(rows.y.max()) + 1 if n_classes is None else n_classes
    keep = prune_using_ema(*rows, k, percent)
    return Rows(*(a[keep] for a in rows))


def test_update_ema_basic_arithmetic():
    scores = np.zeros(2)
    out = update_ema(scores, np.array([0.8, 0.5]), ema_factor=0.3)
    assert out[0] == pytest.approx(0.24, abs=1e-15)
    assert out[1] == pytest.approx(0.15, abs=1e-15)
    # input scores untouched
    assert np.all(scores == 0.0)


def test_update_ema_factor_one_has_no_memory():
    out = update_ema(np.array([0.9, 0.1]), np.array([0.3, 0.7]), ema_factor=1.0)
    np.testing.assert_array_equal(out, [0.3, 0.7])


def test_update_ema_factor_zero_warns_and_freezes():
    with pytest.warns(UserWarning, match="frozen"):
        out = update_ema(np.array([0.9, 0.1]), np.array([0.3, 0.7]), ema_factor=0.0)
    np.testing.assert_array_equal(out, [0.9, 0.1])


def test_update_ema_missing_confidence_rejected():
    scores = np.zeros(2)
    with pytest.raises(ValueError, match="position 1"):  # NaN marks a row never visited
        update_ema(scores, np.array([0.5, np.nan]), ema_factor=0.3)
    with pytest.raises(ValueError, match="2 instances"):
        update_ema(scores, np.array([0.5]), ema_factor=0.3)


def test_update_ema_out_of_range_confidence_rejected():
    with pytest.raises(ValueError, match="outside"):
        update_ema(np.zeros(1), np.array([1.5]), ema_factor=0.3)


def test_ema_closed_form_matches_iteration():
    rng = np.random.default_rng(5)
    for _ in range(50):
        length = rng.integers(1, 60)
        kappa = float(rng.uniform(0.05, 1.0))
        confs = rng.uniform(0, 1, size=length)
        scores = np.zeros(1)
        for c in confs:
            scores = update_ema(scores, np.array([c]), ema_factor=kappa)
        closed = kappa * sum((1 - kappa) ** (length - 1 - t) * confs[t]
                             for t in range(length))
        assert scores[0] == pytest.approx(closed, abs=1e-12)


def test_prune_ten_classes_ten_percent():
    rows = make_rows(np.repeat(np.arange(10), 100))
    out = prune(rows, 10.0)
    assert len(out.y) == 900
    np.testing.assert_array_equal(np.bincount(out.y), [90] * 10)


def test_prune_removes_lowest_ema():
    rows = make_rows([0, 0, 0], emas=[0.1, 0.5, 0.9])
    out = prune(rows, 40.0)  # floor(1.2) = 1 removed
    assert len(out.y) == 2
    np.testing.assert_array_equal(out.ema, [0.5, 0.9])
    np.testing.assert_array_equal(out.ids, [1, 2])


def test_prune_compounds():
    rows = make_rows(np.repeat(np.arange(2), 1000))
    once = prune(rows, 10.0)
    twice = prune(once, 10.0)
    np.testing.assert_array_equal(np.bincount(once.y), [900, 900])
    np.testing.assert_array_equal(np.bincount(twice.y), [810, 810])


def test_prune_tie_break_removes_lowest_id():
    rows = make_rows([0, 0, 0, 0], emas=[0.5, 0.5, 0.5, 0.5], ids=[7, 3, 9, 1])
    out = prune(rows, 50.0)
    assert sorted(out.ids.tolist()) == [7, 9]


def test_prune_preserves_survivor_order_and_class_grouping():
    rows = make_rows([1, 0, 1, 0, 1, 0], emas=[0.9, 0.8, 0.1, 0.2, 0.5, 0.7])
    out = prune(rows, 34.0)  # floor(1.02) = 1 per class
    # class 0 keeps ids 1, 5 (drops ema .2); class 1 keeps ids 0, 4 (drops ema .1)
    np.testing.assert_array_equal(out.y, [0, 0, 1, 1])
    np.testing.assert_array_equal(out.ids, [1, 5, 0, 4])


def setdiff_survivor_ids(rows, n_classes, percent):
    """The survivors' ids when each class drops its victims with np.setdiff1d."""
    keep_parts = []
    for k in range(n_classes):
        positions = np.flatnonzero(rows.y == k)
        order = np.lexsort((rows.ids[positions], rows.ema[positions]))
        victims = positions[order[:prune_count(percent, positions.size)]]
        keep_parts.append(np.setdiff1d(positions, victims))
    return rows.ids[np.concatenate(keep_parts)]


def test_prune_mask_keeps_the_setdiff_survivors_in_order():
    """Tied scores and ids out of order: the boolean mask over a class's
    positions keeps the survivors, and their order, that np.setdiff1d keeps."""
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 3, size=90)
    emas = rng.choice([0.1, 0.5, 0.9], size=90)
    ids = rng.permutation(1000)[:90]
    rows = make_rows(labels, emas=emas, ids=ids)
    for percent in (10.0, 34.0, 50.0, 95.0):
        out = prune(rows, percent, n_classes=3)
        assert out.ids.tolist() == setdiff_survivor_ids(rows, 3, percent).tolist(), percent
        assert out.ema.tolist() == [emas[ids.tolist().index(i)] for i in out.ids]


def test_prune_never_mutates_surviving_scores():
    rng = np.random.default_rng(6)
    rows = make_rows(rng.integers(0, 3, size=60), emas=rng.uniform(0, 1, 60))
    out = prune(rows, 25.0)
    kept = np.isin(rows.ids, out.ids)
    np.testing.assert_array_equal(np.sort(rows.ema[kept]), np.sort(out.ema))


def test_prune_rejects_bad_percent():
    rows = make_rows([0, 1])
    for bad in (0.0, 100.0, -3.0):
        with pytest.raises(ValueError):
            prune(rows, bad)


@pytest.mark.parametrize("labels, n_classes, message", [
    ([0, 0, 1, 1, 2, 2, 2], 2, "labels out of range for 2 classes"),
    ([0, 0, 1, 1, -1], 2, "labels out of range for 2 classes"),
    ([0, 0, 2, 2], 3, "class 1 has no instances to prune from"),
], ids=["label_high", "label_negative", "class_empty"])
def test_prune_refuses_labels_it_cannot_prune_class_by_class(labels, n_classes, message):
    """A label outside [0, K) is refused, not dropped with its row."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        prune(make_rows(labels), 10.0, n_classes)


def test_prune_count_exact_rational():
    assert prune_count(30.0, 10) == 3       # float 0.3*10 would floor to 2
    assert prune_count(10.0, 1000) == 100
    assert prune_count(40.0, 3) == 1
    assert prune_count(99.0, 1) == 0


def test_monotone_shrinking_id_set():
    rng = np.random.default_rng(7)
    rows = make_rows(rng.integers(0, 4, size=200), emas=rng.uniform(0, 1, 200))
    seen = set(rows.ids.tolist())
    for _ in range(5):
        rows = prune(rows, 15.0, n_classes=4)
        current = set(rows.ids.tolist())
        assert current <= seen
        seen = current


def prune_epochs(prune):
    cfg = resolve_config({"prune": {"enabled": True, **prune}})
    return build_prune_schedule(cfg).epochs


def test_should_prune_interval():
    epochs = prune_epochs({"interval": 5, "warmup_epochs": 0})
    assert 10 in epochs
    assert 7 not in epochs


def test_should_prune_warmup_gate():
    explicit = prune_epochs({"epochs": [5, 25], "warmup_epochs": 20})
    assert 5 not in explicit
    assert 25 in explicit
    interval = prune_epochs({"interval": 5, "warmup_epochs": 20})
    assert 20 in interval
    assert 15 not in interval


def test_schedule_validation():
    with pytest.raises(ValueError):
        PruneSchedule(percent=0.0, epochs=())
    with pytest.raises(ValueError):
        PruneSchedule(percent=10.0, ema_factor=1.5, epochs=())
    with pytest.raises(ValueError):
        PruneSchedule(percent=10.0, epochs={0})
    with pytest.raises(ValueError, match="^percent must be of type number, got boolean true"):
        PruneSchedule(True, epochs=[1])
    with pytest.raises(ValueError, match=r"^epochs\[0\] must be of type integer"):
        PruneSchedule(10.0, epochs=["5"])
    with pytest.raises(ValueError, match=r"^epochs\[1\] must be an integer >= 1, got 0$"):
        PruneSchedule(10.0, epochs=[5, 0])
    with pytest.raises(ValueError, match="^epochs must be of type array, got integer 5$"):
        PruneSchedule(10.0, epochs=5)
    assert PruneSchedule(10.0, epochs=range(5, 20, 5)).epochs == {5, 10, 15}
