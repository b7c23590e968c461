"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines. The desk-scale experiment (criteria 6-9) trains fifteen
models; the whole module runs in well under the stated per-criterion budgets
on an ordinary laptop.

Criterion 6a (cross-entropy ECE strictly above the focal+Huber ECE) is
expected to fail at this scale and is left red on purpose rather than
loosened. The effect it probes relies on cross-entropy overfitting: a large
network memorises the training set, its confidence tracks the inflated train
accuracy, and test-time calibration collapses. A [2,64,64,4] MLP trained 60
epochs on the 2-d noisy mixture never develops that generalisation gap
(train and test accuracy stay within ~2pp across every optimizer setting
tried: batch 4..128, lr 0.05..0.3, weight decay on/off, assorted milestone
placements), so cross-entropy remains nearly calibrated (ECE ~0.02-0.05,
mean confidence ~0.82 vs accuracy ~0.80). The focal objective, being an
improper scoring rule, settles at a deliberately underconfident optimum
(mean confidence ~0.56, ECE ~0.24) that the small Huber restoring force
(weight * alpha = 0.05) cannot lift. The inequality is therefore reversed
by an order of magnitude in every seed. All other criteria pass.
"""

import json
import time
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest

from calprune.autodiff import Graph, grad_check
from calprune.cli import main as cli_main
from calprune.data import Dataset, generate_gaussian_mixture, stratified_split
from calprune.losses import (AuxSpec, LossSpec, focal_loss, label_smoothing_loss,
                             nll_loss, total_loss)
from calprune.metrics import binned_ece, ece_on_subset
from calprune.mlp import forward_logits, init_mlp, logits_graph, param_bindings, predict
from calprune.pruning import PruneSchedule, prune_count, prune_using_ema, update_ema
from calprune.reporting import stable_run_text
from calprune.trainer import (TrainConfig, evaluate_model, fit_temperature, mean_nll,
                              train_with_pruning)

SEEDS = [1, 2, 3, 4, 5]
KINK_MARGIN = 1e-3  # all finite-difference tests stay this far from corners


def criterion(num, ok, detail):
    print(f"\n[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness for every loss
# ---------------------------------------------------------------------------

LOSS_CONFIGS = [
    ("nll", LossSpec(kind="nll")),
    ("focal_g0", LossSpec(kind="focal", gamma=0.0)),
    ("focal_g1", LossSpec(kind="focal", gamma=1.0)),
    ("focal_g3", LossSpec(kind="focal", gamma=3.0)),
    ("flsd", LossSpec(kind="flsd")),
    ("brier", LossSpec(kind="brier")),
    ("label_smoothing", LossSpec(kind="label_smoothing", smoothing=0.1)),
    ("total_huber", LossSpec(kind="flsd", aux=AuxSpec(kind="huber", alpha=0.005,
                                                      weight=10.0))),
    ("total_dca", LossSpec(kind="flsd", aux=AuxSpec(kind="dca", weight=5.0))),
    ("total_mdca", LossSpec(kind="flsd", aux=AuxSpec(kind="mdca", weight=2.0))),
]


def _build_instance(spec, seed, n=8, widths=(2, 5, 4)):
    """The trainer's MLP + loss graph at a small size, with the hidden
    pre-activation and the log-probability node for corner screening."""
    params = init_mlp(list(widths), seed)
    rng = np.random.default_rng(seed + 10_000)
    g = Graph()
    log_probs = g.log_softmax(logits_graph(g, g.leaf("x", param=False), params.n_layers))
    targets = rng.integers(0, widths[-1], size=n)
    total_loss(g, log_probs, g.int_leaf("y"), spec, widths[-1])
    bindings = param_bindings(params)
    bindings["x"] = rng.uniform(-2, 2, size=(n, widths[0]))
    bindings["y"] = targets
    pre_activation = bindings["x"] @ params.weights[0] + params.biases[0]
    return g, bindings, pre_activation, log_probs, targets


def _clear_of_kinks(spec, pre_activation, log_probs, targets):
    """True iff every nondifferentiable corner is at least KINK_MARGIN away."""
    if np.min(np.abs(pre_activation)) < KINK_MARGIN:
        return False  # relu corner
    lp = log_probs.value
    top2 = np.sort(lp, axis=1)[:, -2:]
    if np.min(top2[:, 1] - top2[:, 0]) < KINK_MARGIN:
        return False  # argmax tie (row_max / correctness indicator)
    p_target = np.exp(lp[np.arange(len(targets)), targets])
    if spec.kind == "flsd" and np.min(np.abs(p_target - 0.2)) < KINK_MARGIN:
        return False  # gamma schedule boundary
    if spec.aux is not None:
        conf = np.exp(np.max(lp, axis=1))
        acc = np.mean(np.argmax(lp, axis=1) == targets)
        gap = conf.mean() - acc
        if spec.aux.kind == "huber" and abs(abs(gap) - spec.aux.alpha) < KINK_MARGIN:
            return False  # Huber transition
        if spec.aux.kind == "dca" and abs(gap) < KINK_MARGIN:
            return False  # absolute-value corner
        if spec.aux.kind == "mdca":
            freq = np.bincount(targets, minlength=lp.shape[1]) / len(targets)
            class_gap = np.exp(lp).mean(axis=0) - freq
            if np.min(np.abs(class_gap)) < KINK_MARGIN:
                return False
    return True


def test_criterion_01_gradient_correctness():
    started = time.perf_counter()
    failures = []
    for name, spec in LOSS_CONFIGS:
        done = 0
        seed = 0
        while done < 50:
            seed += 1
            g, bindings, pre, lp, targets = _build_instance(spec, seed)
            g.forward(bindings)
            if not _clear_of_kinks(spec, pre, lp, targets):
                continue
            for result in grad_check(g, bindings, step=1e-5, tol=1e-4):
                if not result.passed:
                    failures.append((name, seed, result.leaf, result.max_rel_error))
            done += 1
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 30.0
    assert criterion(1, ok,
                     f"10 losses x 50 instances, tol 1e-4, {elapsed:.1f}s "
                     f"(budget 30s), failures: {failures[:3]}"), failures
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# criterion 2: binning oracle equivalence
# ---------------------------------------------------------------------------

def _oracle_ece(conf, correct, n_bins):
    counts = [0] * n_bins
    conf_sums = [0.0] * n_bins
    hit_sums = [0.0] * n_bins
    for c, hit in zip(conf.tolist(), correct.tolist()):
        for m in range(1, n_bins + 1):
            if ((m - 1) / n_bins < c <= m / n_bins) or (m == 1 and c == 0.0):
                counts[m - 1] += 1
                conf_sums[m - 1] += c
                hit_sums[m - 1] += hit
                break
    n = len(conf)
    return sum(counts[m] / n * abs(hit_sums[m] / counts[m] - conf_sums[m] / counts[m])
               for m in range(n_bins) if counts[m])


def test_criterion_02_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    sets = 0
    for n_bins in (1, 10, 15):
        for _ in range(334 if n_bins != 15 else 332):
            n = int(rng.integers(1, 501))
            conf = rng.uniform(0, 1, n)
            correct = (rng.random(n) < 0.7).astype(np.float64)
            _, ece = binned_ece(conf, correct, n_bins)
            worst = max(worst, abs(ece - _oracle_ece(conf, correct, n_bins)))
            delta = float(rng.uniform(0.05, 0.99))
            sub = ece_on_subset(conf, correct, delta, n_bins)
            kept = conf >= delta
            if kept.any():
                worst = max(worst, abs(sub.ece - _oracle_ece(conf[kept], correct[kept],
                                                             n_bins)))
            else:
                assert sub.empty and sub.ece is None
            sets += 1
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and sets == 1000 and elapsed < 10.0
    assert criterion(2, ok, f"{sets} record sets, max |diff| {worst:.2e} "
                            f"(tol 1e-12), {elapsed:.1f}s (budget 10s)")
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criterion 3: pruning arithmetic
# ---------------------------------------------------------------------------

def test_criterion_03_pruning_arithmetic():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    for trial in range(200):
        n_classes = int(rng.integers(1, 7))
        sizes = rng.integers(1, 400, size=n_classes)
        percent = float(rng.uniform(0.5, 99.5))
        labels = np.repeat(np.arange(n_classes), sizes)
        emas = np.round(rng.uniform(0, 1, len(labels)), 1)  # coarse: forces ties
        ids = rng.permutation(len(labels)).astype(np.int64)
        ds = Dataset(rng.normal(size=(len(labels), 2)), labels, n_classes, ids=ids)
        keep = prune_using_ema(ds.y, ds.ids, emas, n_classes, percent)
        out_y, out_ids, out_emas = ds.y[keep], ds.ids[keep], emas[keep]
        out_sizes = np.bincount(out_y, minlength=n_classes)
        for k in range(n_classes):
            n_k = int(sizes[k])
            expected = n_k - int(Fraction(percent) * n_k / 100)
            assert out_sizes[k] == expected, (trial, k)
            # victims are exactly the lowest (ema, id) pairs
            in_class = np.flatnonzero(ds.y == k)
            order = sorted(in_class, key=lambda i: (emas[i], ds.ids[i]))
            victim_ids = {int(ds.ids[i]) for i in order[:n_k - expected]}
            survivor_ids = set(out_ids[out_y == k].tolist())
            assert survivor_ids == {int(ds.ids[i]) for i in in_class} - victim_ids
        # repeated pruning compounds per the same closed form
        again = prune_using_ema(out_y, out_ids, out_emas, n_classes, percent)
        again_sizes = np.bincount(out_y[again], minlength=n_classes)
        for k in range(n_classes):
            n_k = int(out_sizes[k])
            assert again_sizes[k] == n_k - prune_count(percent, n_k)
    elapsed = time.perf_counter() - started
    assert criterion(3, elapsed < 5.0,
                     f"200 random (sizes, fraction) configs exact, {elapsed:.1f}s "
                     f"(budget 5s)")
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# criterion 4: EMA closed form
# ---------------------------------------------------------------------------

def test_criterion_04_ema_closed_form():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    checked = 0
    worst = 0.0
    while checked < 1000:
        batch = min(20, 1000 - checked)
        length = int(rng.integers(1, 101))
        kappa = float(rng.uniform(0.0, 1.0))
        confs = rng.uniform(0, 1, size=(length, batch))
        scores = np.zeros(batch)
        import warnings as _warnings
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")  # kappa may legitimately be 0
            for t in range(length):
                scores = update_ema(scores, confs[t], kappa)
        closed = kappa * np.array(
            [sum((1 - kappa) ** (length - 1 - t) * confs[t, i] for t in range(length))
             for i in range(batch)])
        worst = max(worst, float(np.max(np.abs(scores - closed))))
        checked += batch
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 5.0
    assert criterion(4, ok, f"1000 sequences, max |diff| {worst:.2e} (tol 1e-12), "
                            f"{elapsed:.1f}s (budget 5s)")
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# criterion 5: reductions and Huber smoothness
# ---------------------------------------------------------------------------

def _loss_value(build, log_probs, targets, **kwargs):
    g = Graph()
    lp = g.leaf("lp")
    node = build(g, lp, g.int_leaf("y"), **kwargs)
    return float(g.forward({"lp": log_probs, "y": targets}, root=node))


def test_criterion_05_reductions():
    rng = np.random.default_rng(505)
    logits = rng.normal(size=(12, 5)) * 2
    lp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    targets = rng.integers(0, 5, size=12)
    nll = _loss_value(nll_loss, lp, targets)
    focal0 = _loss_value(focal_loss, lp, targets, gamma=0.0)
    smooth0 = _loss_value(label_smoothing_loss, lp, targets, smoothing=0.0, n_classes=5)
    spec = LossSpec(kind="focal", gamma=3.0,
                    aux=AuxSpec(kind="huber", alpha=0.005, weight=0.0))
    total0 = _loss_value(total_loss, lp, targets, spec=spec, n_classes=5)
    alone = _loss_value(focal_loss, lp, targets, gamma=3.0)
    g = Graph()
    huber = g.huber(g.leaf("x"), 0.005)

    def huber_at(x):
        return float(g.forward({"x": x}, root=huber))

    even_worst = max(abs(huber_at(x) - huber_at(-x)) for x in rng.uniform(-1, 1, 200))
    h = 1e-7
    smooth_worst = max(
        abs((huber_at(x0 + h) - huber_at(x0)) / h - (huber_at(x0) - huber_at(x0 - h)) / h)
        for x0 in (0.005, -0.005))
    ok = (abs(focal0 - nll) <= 1e-12 and abs(smooth0 - nll) <= 1e-12
          and total0 == alone and even_worst <= 1e-15 and smooth_worst <= 1e-6)
    assert criterion(5, ok,
                     f"focal(0)-nll {abs(focal0 - nll):.1e}, ls(0)-nll "
                     f"{abs(smooth0 - nll):.1e}, total(0) bitwise "
                     f"{total0 == alone}, huber even {even_worst:.1e}, "
                     f"C1 two-sided {smooth_worst:.1e}")


# ---------------------------------------------------------------------------
# criteria 6-9: the desk-scale synthetic experiment
# ---------------------------------------------------------------------------

EXPERIMENT_LOSSES = {
    "nll": LossSpec(kind="nll"),
    "calibrated": LossSpec(kind="flsd", aux=AuxSpec(kind="huber", alpha=0.005,
                                                    weight=10.0)),
}
PRUNE_SCHEDULE = PruneSchedule(percent=10.0, ema_factor=0.3, epochs=range(20, 61, 5))


def _experiment_data(seed):
    pool = generate_gaussian_mixture(4, 500, noise=0.15, seed=100 + seed)
    train, val = stratified_split(pool, 0.9, seed=100 + seed)
    test = generate_gaussian_mixture(4, 250, noise=0.15, seed=900 + seed)
    return train, val, test


# what criteria 6-9 read of one trained arm: its model, its cost and its test report
Arm = namedtuple("Arm", "params total_sample_updates report")


def _run_experiment(seed, loss, prune=None):
    train, _, test = _experiment_data(seed)
    cfg = TrainConfig(max_epochs=60, batch_size=128, learning_rate=0.1,
                      lr_milestones=[30, 45], lr_decay_factor=0.1, momentum=0.9,
                      weight_decay=5e-4, seed=seed, loss=loss, prune=prune)
    params = init_mlp([2, 64, 64, 4], seed=seed)
    result = train_with_pruning(train, params, cfg)
    return Arm(result.params, result.total_sample_updates,
               evaluate_model(result.params, test, 10, [0.95, 0.99]))


@pytest.fixture(scope="module")
def experiment_grid():
    grid = {"timing": {}}
    for arm, prune in (("nll", None), ("calibrated", None),
                       ("pruned", PRUNE_SCHEDULE)):
        loss = EXPERIMENT_LOSSES["nll" if arm == "nll" else "calibrated"]
        started = time.perf_counter()
        grid[arm] = {seed: _run_experiment(seed, loss, prune) for seed in SEEDS}
        grid["timing"][arm] = time.perf_counter() - started
    return grid


def test_criterion_06a_calibrated_loss_beats_nll_on_ece(experiment_grid):
    wins = sum(experiment_grid["nll"][s].report.ece
               > experiment_grid["calibrated"][s].report.ece for s in SEEDS)
    pairs = [(round(experiment_grid['nll'][s].report.ece, 4),
              round(experiment_grid['calibrated'][s].report.ece, 4)) for s in SEEDS]
    elapsed = experiment_grid["timing"]["nll"] + experiment_grid["timing"]["calibrated"]
    ok = wins >= 4 and elapsed < 300.0
    assert criterion("6a", ok,
                     f"ece_nll > ece_calibrated in {wins}/5 seeds, pairs "
                     f"(nll, calibrated): {pairs}, {elapsed:.0f}s (budget 300s); "
                     f"expected red at desk scale, see the module docstring")
    assert elapsed < 300.0


def test_criterion_06b_accuracy_not_sacrificed(experiment_grid):
    holds = sum(experiment_grid["calibrated"][s].report.test_error_pct
                <= experiment_grid["nll"][s].report.test_error_pct + 3.0
                for s in SEEDS)
    pairs = [(experiment_grid['nll'][s].report.test_error_pct,
              experiment_grid['calibrated'][s].report.test_error_pct) for s in SEEDS]
    assert criterion("6b", holds >= 4,
                     f"te_calibrated within +3pp of te_nll in {holds}/5 seeds, "
                     f"pairs (nll, calibrated): {pairs}")


def test_criterion_07_pruning_boosts_high_confidence_fraction(experiment_grid):
    def frac95(result):
        return result.report.subsets[0].fraction_pct

    wins = sum(frac95(experiment_grid["pruned"][s])
               >= frac95(experiment_grid["calibrated"][s]) for s in SEEDS)
    # supporting context: the confidence boost is visible at a desk-scale
    # threshold even though both arms sit at zero for delta=0.95
    boosts = []
    for s in SEEDS:
        _, _, test = _experiment_data(s)
        _, with_p = predict(forward_logits(experiment_grid["pruned"][s].params, test.x))
        _, without = predict(
            forward_logits(experiment_grid["calibrated"][s].params, test.x))
        boosts.append((round(100 * np.mean(with_p >= 0.6), 1),
                       round(100 * np.mean(without >= 0.6), 1)))
    elapsed = experiment_grid["timing"]["pruned"] + experiment_grid["timing"]["calibrated"]
    ok = wins >= 4 and elapsed < 600.0
    assert criterion(7, ok,
                     f"|S_0.95| with pruning >= without in {wins}/5 seeds "
                     f"(both 0 at desk scale); fraction >= 0.6 (pruned, plain): "
                     f"{boosts}; {elapsed:.0f}s (budget 600s)")
    assert elapsed < 600.0


def test_criterion_08_training_cost_accounting(experiment_grid):
    reductions = []
    for s in SEEDS:
        result = experiment_grid["pruned"][s]
        train, _, _ = _experiment_data(s)
        per_class = train.class_sizes().tolist()  # noise skews pool class counts
        initial = sum(per_class)
        expected_updates = 0
        survivors = initial
        for epoch in range(1, 61):
            expected_updates += survivors
            if epoch >= 20 and epoch % 5 == 0:
                per_class = [n - prune_count(10.0, n) for n in per_class]
                survivors = sum(per_class)
        assert result.total_sample_updates == expected_updates, s
        full = 60 * initial
        assert result.total_sample_updates <= 0.85 * full, s
        reductions.append(100 * (1 - result.total_sample_updates / full))
    assert criterion(8, True,
                     f"sample updates match the closed form exactly in 5/5 seeds; "
                     f"reductions {[round(r, 1) for r in reductions]}% "
                     f"(>= 15% required)")


def test_criterion_09_temperature_scaling(experiment_grid):
    started = time.perf_counter()
    seed = SEEDS[0]
    result = experiment_grid["nll"][seed]
    _, val, test = _experiment_data(seed)
    temperature = fit_temperature(result.params, val)
    val_logits = forward_logits(result.params, val.x)
    nll_before = mean_nll(val_logits, val.y, 1.0)
    nll_after = mean_nll(val_logits, val.y, temperature)
    test_logits = forward_logits(result.params, test.x)
    labels_before, _ = predict(test_logits)
    labels_after, _ = predict(test_logits / temperature)
    elapsed = time.perf_counter() - started
    ok = (nll_after <= nll_before and np.array_equal(labels_before, labels_after)
          and temperature > 0 and elapsed < 30.0)
    assert criterion(9, ok,
                     f"T={temperature:.4f}, val NLL {nll_before:.4f} -> "
                     f"{nll_after:.4f}, labels unchanged on all "
                     f"{len(labels_before)} test records, {elapsed:.1f}s "
                     f"(budget 30s)")
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# criterion 10: end-to-end determinism of cmd_train
# ---------------------------------------------------------------------------

def test_criterion_10_end_to_end_determinism(tmp_path):
    out = tmp_path / "determinism"
    config = {
        "dataset": {"source": "gaussian_mixture", "classes": 2, "train_per_class": 40,
                    "test_per_class": 30, "noise": 0.1, "seed": 11},
        "model": {"hidden": [8]},
        "train": {"max_epochs": 6, "batch_size": 20, "learning_rate": 0.05,
                  "lr_milestones": [4], "seed": 5},
        "prune": {"enabled": True, "percent": 10.0, "interval": 2,
                  "warmup_epochs": 0},
        "output_dir": str(out),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert cli_main(["train", "--config", str(config_path)]) == 0
    first = tmp_path / "first"
    out.rename(first)
    assert cli_main(["train", "--config", str(config_path)]) == 0
    identical = []
    for name in ("reliability.csv", "confidence_histogram.csv", "reliability.svg",
                 "confidence_histogram.svg", "checkpoint.json"):
        identical.append((first / name).read_bytes() == (out / name).read_bytes())
    run_stable_equal = (stable_run_text((first / "run.json").read_text())
                        == stable_run_text((out / "run.json").read_text()))
    ok = all(identical) and run_stable_equal
    assert criterion(10, ok,
                     f"CSV/SVG/checkpoint byte-identical: {all(identical)}; "
                     f"run JSON identical excluding wall clock: {run_stable_equal}")
