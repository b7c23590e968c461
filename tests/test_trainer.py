"""SGD mechanics, the training loop's accounting, and temperature scaling."""

import numpy as np
import pytest

from calprune.data import generate_gaussian_mixture, mixture_posterior, stratified_split
from calprune.losses import AuxSpec, LossSpec
from calprune.mlp import forward_logits, init_mlp, predict
from calprune.pruning import PruneSchedule
from calprune.trainer import (TrainConfig, TrainingDiverged, evaluate_model,
                              fit_temperature, fit_temperature_on_logits,
                              lr_at_epoch, mean_nll, sgd_update,
                              train_with_pruning)


def test_sgd_plain_step():
    params = {"w": np.array([1.0, 2.0])}
    grads = {"w": np.array([0.5, -0.5])}
    vel = {"w": np.zeros(2)}
    theta = params["w"]
    new, _ = sgd_update(params, grads, vel, lr=0.1, momentum=0.0, weight_decay=0.0)
    assert new["w"] is theta  # stepped in place
    np.testing.assert_allclose(theta, [0.95, 2.05], atol=1e-15)


def test_sgd_decay_only_step():
    params = {"w": np.array([1.0])}
    grads = {"w": np.array([0.0])}
    vel = {"w": np.zeros(1)}
    new, _ = sgd_update(params, grads, vel, lr=1.0, momentum=0.0, weight_decay=0.1)
    assert new["w"][0] == pytest.approx(0.9, abs=1e-15)


def test_sgd_momentum_recurrence():
    params = {"w": np.array([0.0])}
    vel = {"w": np.zeros(1)}
    grads = {"w": np.array([1.0])}
    p1, vel = sgd_update(params, grads, vel, lr=1.0, momentum=0.9, weight_decay=0.0)
    assert p1["w"][0] == pytest.approx(-1.0)
    before = p1["w"].copy()  # the step below writes into p1's arrays
    p2, vel = sgd_update(p1, grads, vel, lr=1.0, momentum=0.9, weight_decay=0.0)
    assert p2["w"][0] - before[0] == pytest.approx(-1.9)


def test_sgd_shape_mismatch_rejected():
    params = {"a": np.ones(1), "w": np.zeros(2)}
    with pytest.raises(ValueError, match="shape"):
        sgd_update(params, {"a": np.ones(1), "w": np.zeros(3)},
                   {"a": np.zeros(1), "w": np.zeros(2)},
                   lr=0.1, momentum=0.0, weight_decay=0.0)
    assert params["a"][0] == 1.0  # shapes are checked before any array is stepped


def test_lr_schedule():
    cfg = TrainConfig(max_epochs=160, batch_size=8, learning_rate=0.1,
                      lr_milestones=[80, 120], lr_decay_factor=0.1)
    assert lr_at_epoch(79, cfg) == pytest.approx(0.1)
    assert lr_at_epoch(80, cfg) == pytest.approx(0.01)
    assert lr_at_epoch(119, cfg) == pytest.approx(0.01)
    assert lr_at_epoch(120, cfg) == pytest.approx(0.001)
    flat = TrainConfig(max_epochs=10, batch_size=8, learning_rate=0.1, lr_milestones=[])
    assert lr_at_epoch(9, flat) == pytest.approx(0.1)


def small_experiment(n_classes=2, per_class=100, noise=0.0, seed=3):
    pool = generate_gaussian_mixture(n_classes, per_class, noise=noise, seed=seed)
    train, val = stratified_split(pool, 0.9, seed=seed)
    test = generate_gaussian_mixture(n_classes, per_class // 2, noise=noise, seed=seed + 500)
    return train, val, test


def test_plain_loop_keeps_all_survivors_and_learns():
    train, _, test = small_experiment()
    cfg = TrainConfig(max_epochs=10, batch_size=32, learning_rate=0.05,
                      lr_milestones=[], momentum=0.9, weight_decay=0.0, seed=1,
                      loss=LossSpec(kind="nll"))
    params = init_mlp([2, 16, 2], seed=1)
    result = train_with_pruning(train, test, params, cfg)
    assert [e.surviving for e in result.epoch_log] == [len(train)] * 10
    assert result.total_sample_updates == 10 * len(train)
    # separable data: the loss must come down
    assert result.epoch_log[9].train_loss < result.epoch_log[0].train_loss
    assert result.report.test_error_pct < 10.0


def test_training_leaves_caller_params_unchanged():
    train, _, test = small_experiment(noise=0.1, seed=4)
    cfg = TrainConfig(max_epochs=3, batch_size=32, learning_rate=0.05,
                      lr_milestones=[], seed=5, loss=LossSpec(kind="flsd", aux=AuxSpec()))
    params = init_mlp([2, 8, 2], seed=5)
    before = [a.tobytes() for a in params.weights + params.biases]
    result = train_with_pruning(train, test, params, cfg)
    assert [a.tobytes() for a in params.weights + params.biases] == before
    assert all(not np.shares_memory(a, b) for a, b in
               zip(params.weights + params.biases, result.params.weights + result.params.biases))


def test_pruned_loop_survivor_arithmetic():
    _, _, test = small_experiment(per_class=1000, seed=9)
    # stratified split of 1000/class at 0.9 leaves 900/class; use the pool directly
    from calprune.pruning import ScoredDataset
    pool = generate_gaussian_mixture(2, 1000, noise=0.0, seed=9)
    train = ScoredDataset(pool.x, pool.y, np.zeros(len(pool)),
                          np.arange(len(pool), dtype=np.int64), 2)
    cfg = TrainConfig(max_epochs=20, batch_size=256, learning_rate=0.05,
                      lr_milestones=[], seed=2, loss=LossSpec(kind="nll"),
                      prune=PruneSchedule(percent=10.0, ema_factor=0.3, interval=5,
                                          warmup_epochs=0))
    params = init_mlp([2, 8, 2], seed=2)
    result = train_with_pruning(train, test, params, cfg)
    # per-class sizes after each prune: 1000 -> 900 -> 810 -> 729 -> 657
    assert [p.surviving_total for p in result.prune_events] == [1800, 1620, 1458, 1314]
    assert [p.epoch for p in result.prune_events] == [5, 10, 15, 20]
    assert all(p.removed_per_class[0] == p.removed_per_class[1]
               for p in result.prune_events)
    expected_updates = 5 * (2000 + 1800 + 1620 + 1458)
    assert result.total_sample_updates == expected_updates
    sizes = [e.surviving for e in result.epoch_log]
    assert sizes == [2000] * 5 + [1800] * 5 + [1620] * 5 + [1458] * 5


def test_training_is_bitwise_deterministic():
    train, _, test = small_experiment(noise=0.1, seed=4)
    cfg = TrainConfig(max_epochs=6, batch_size=32, learning_rate=0.05,
                      lr_milestones=[3], seed=5,
                      loss=LossSpec(kind="flsd", aux=AuxSpec()),
                      prune=PruneSchedule(percent=10.0, interval=3, warmup_epochs=0))
    runs = []
    for _ in range(2):
        params = init_mlp([2, 8, 2], seed=5)
        runs.append(train_with_pruning(train, test, params, cfg))
    a, b = runs
    for wa, wb in zip(a.params.weights + a.params.biases,
                      b.params.weights + b.params.biases):
        assert wa.tobytes() == wb.tobytes()
    assert a.epoch_log == b.epoch_log
    assert a.prune_events == b.prune_events
    assert a.report == b.report
    assert a.total_sample_updates == b.total_sample_updates


def test_ema_log_matches_closed_form():
    train, _, test = small_experiment(noise=0.1, seed=6)
    kappa = 0.3
    cfg = TrainConfig(max_epochs=8, batch_size=32, learning_rate=0.05,
                      lr_milestones=[], seed=7, loss=LossSpec(kind="nll"),
                      prune=PruneSchedule(percent=10.0, ema_factor=kappa, interval=4,
                                          warmup_epochs=0),
                      log_confidences=True)
    params = init_mlp([2, 8, 2], seed=7)
    result = train_with_pruning(train, test, params, cfg)
    assert len(result.confidence_log) == 8
    assert all(np.all((0.0 <= c) & (c <= 1.0)) for _, c in result.confidence_log)
    by_id = [dict(zip(ids.tolist(), c.tolist())) for ids, c in result.confidence_log]
    # every final survivor's ema equals the closed form over its logged
    # confidences: e = sum_t kappa * (1-kappa)^(last-t) * c_t
    assert len(result.survivors) > 0
    for row, original_id in enumerate(result.survivors.ids):
        confs = [epoch[int(original_id)] for epoch in by_id]
        closed = sum(kappa * (1 - kappa) ** (len(confs) - 1 - t) * confs[t]
                     for t in range(len(confs)))
        assert result.survivors.ema[row] == pytest.approx(closed, abs=1e-10)


def test_nan_aborts_loudly():
    train, _, test = small_experiment(seed=8)
    cfg = TrainConfig(max_epochs=5, batch_size=32, learning_rate=1e155,
                      lr_milestones=[], momentum=0.0, weight_decay=0.0, seed=8,
                      loss=LossSpec(kind="nll"))
    params = init_mlp([2, 8, 2], seed=8)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match="epoch"):
        train_with_pruning(train, test, params, cfg)


def test_batch_size_warning_with_pruning():
    train, _, test = small_experiment(seed=12)
    cfg = TrainConfig(max_epochs=1, batch_size=8, learning_rate=0.05,
                      lr_milestones=[], seed=1, loss=LossSpec(kind="nll"),
                      prune=PruneSchedule(percent=10.0, interval=1, warmup_epochs=0))
    params = init_mlp([2, 4, 2], seed=1)
    with pytest.warns(UserWarning, match="10\\*K"):
        train_with_pruning(train, test, params, cfg)


def test_evaluate_zero_model_predicts_class_zero():
    params = init_mlp([2, 2], seed=0)
    params.weights[0][:] = 0.0
    test = generate_gaussian_mixture(2, 50, noise=0.0, seed=13)
    report = evaluate_model(params, test, 10, [0.95, 0.99])
    assert report.test_error_pct == pytest.approx(50.0)
    assert len(report.subsets) == 2
    recomputed = sum(b.count / report.n * abs(b.accuracy - b.confidence)
                     for b in report.bins if b.count)
    assert report.ece == pytest.approx(recomputed, abs=1e-12)


def calibrated_logits():
    data = generate_gaussian_mixture(4, 1500, noise=0.15, seed=77)
    post = mixture_posterior(data.x, 4, 1500, noise=0.15)
    return np.log(post), data.y


def test_temperature_near_one_for_calibrated_logits():
    logits, labels = calibrated_logits()
    fit = fit_temperature_on_logits(logits, labels)
    # frozen oracle: dense-grid (step 5e-4) argmin over [0.05, 10] is 0.9725
    assert abs(fit - 0.9725) <= 1e-3
    assert abs(fit - 1.0) <= 0.05
    assert mean_nll(logits, labels, fit) <= mean_nll(logits, labels, 1.0)


def test_temperature_scaling_construction():
    logits, labels = calibrated_logits()
    base = fit_temperature_on_logits(logits, labels)
    doubled = fit_temperature_on_logits(2.0 * logits, labels)
    assert abs(doubled - 2.0 * base) <= 2e-3


def test_temperature_never_worse_than_identity():
    rng = np.random.default_rng(30)
    for trial in range(10):
        logits = rng.normal(size=(200, 3)) * rng.uniform(0.5, 4.0)
        labels = rng.integers(0, 3, size=200)
        fit = fit_temperature_on_logits(logits, labels)
        assert fit > 0
        assert mean_nll(logits, labels, fit) <= mean_nll(logits, labels, 1.0) + 1e-15


def test_temperature_preserves_argmax():
    train, val, test = small_experiment(noise=0.1, seed=14)
    cfg = TrainConfig(max_epochs=5, batch_size=32, learning_rate=0.05,
                      lr_milestones=[], seed=3, loss=LossSpec(kind="nll"))
    params = init_mlp([2, 8, 2], seed=3)
    result = train_with_pruning(train, test, params, cfg)
    temperature = fit_temperature(result.params, val)
    logits = forward_logits(result.params, test.x)
    before, _ = predict(logits)
    after, _ = predict(logits / temperature)
    np.testing.assert_array_equal(before, after)
