"""SGD mechanics, the training loop's accounting, and temperature scaling."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from calprune import trainer
from calprune.autodiff import Graph, log_softmax
from calprune.config import build_datasets, build_train_config, load_config, model_widths
from calprune.data import (Dataset, generate_gaussian_mixture, minibatches,
                           mixture_posterior, stratified_split)
from calprune.losses import AUX_LOSSES, CLASSIFICATION_LOSSES, AuxSpec, LossSpec, total_loss
from calprune.mlp import (forward_logits, init_mlp, logits_graph, param_bindings, predict,
                          row_blocks)
from calprune.pruning import PruneSchedule, prune_using_ema, update_ema
from calprune.trainer import (TrainConfig, TrainingDiverged, evaluate_model,
                              fit_temperature, fit_temperature_on_logits,
                              lr_at_epoch, mean_nll, records_for, sgd_state, sgd_update,
                              train_with_pruning)

QUICKSTART = Path(__file__).resolve().parent.parent / "demos" / "quickstart_config.json"
MNIST_ARRAYS = param_bindings(init_mlp([784, 256, 256, 10], seed=0))  # only read


def test_sgd_plain_step():
    state, params = sgd_state({"w": np.array([1.0, 2.0])})
    grads = {"w": np.array([0.5, -0.5])}
    theta = params["w"]
    sgd_update(state, grads, lr=0.1, momentum=0.0, weight_decay=0.0)
    assert theta.base is state.theta  # stepped in place
    np.testing.assert_allclose(theta, [0.95, 2.05], atol=1e-15)


def test_sgd_decay_only_step():
    state, params = sgd_state({"w": np.array([1.0])})
    grads = {"w": np.array([0.0])}
    sgd_update(state, grads, lr=1.0, momentum=0.0, weight_decay=0.1)
    assert params["w"][0] == pytest.approx(0.9, abs=1e-15)


def test_sgd_momentum_recurrence():
    state, params = sgd_state({"w": np.array([0.0])})
    grads = {"w": np.array([1.0])}
    sgd_update(state, grads, lr=1.0, momentum=0.9, weight_decay=0.0)
    assert params["w"][0] == pytest.approx(-1.0)
    before = params["w"].copy()  # the step below writes into the same array
    sgd_update(state, grads, lr=1.0, momentum=0.9, weight_decay=0.0)
    assert params["w"][0] - before[0] == pytest.approx(-1.9)


def test_sgd_shape_mismatch_rejected():
    for arrays, wrong in [
        ({"a": np.ones(1), "w": np.zeros(2)}, {"a": np.ones(1), "w": np.zeros(3)}),
        # w0 spans many blocks; the wrong gradient is 784 elements short
        (MNIST_ARRAYS, {**MNIST_ARRAYS, "w0": np.zeros((784, 255))}),
        # would fail only at w1's first piece, after w0 and b0 were stepped
        (MNIST_ARRAYS, {**MNIST_ARRAYS, "w1": np.zeros((256, 1))}),
    ]:
        state, _ = sgd_state(arrays)
        state.velocity[:] = np.linspace(-0.5, 0.5, state.velocity.size)
        theta, velocity = state.theta.copy(), state.velocity.copy()
        with pytest.raises(ValueError, match="shape"):
            sgd_update(state, wrong, lr=0.1, momentum=0.9, weight_decay=0.1)
        # shapes are checked before any block is stepped
        assert state.theta.tobytes() == theta.tobytes()
        assert state.velocity.tobytes() == velocity.tobytes()


def test_sgd_state_copies_arrays_into_one_vector():
    arrays = {"w": np.arange(6.0).reshape(2, 3), "b": np.array([7.0, 8.0])}
    state, params = sgd_state(arrays)
    assert state.theta.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 8.0]
    assert not state.velocity.any()
    for name, a in arrays.items():
        assert params[name].base is state.theta and params[name].shape == a.shape
        assert not np.shares_memory(params[name], a)
    [block] = state.blocks  # 8 elements: one block of two whole parameters
    assert state.scratch.shape == (8,) and block.scratch.base is state.scratch
    assert [(name, rows) for _, name, rows in block.pieces] == [("w", None), ("b", None)]
    for slot, name, _ in block.pieces:
        assert slot.base is state.scratch and slot.shape == arrays[name].shape


def _whole_vector_steps(arrays, grad_steps, velocity, lr, momentum, weight_decay):
    """theta and velocity after the steps run over whole flat vectors."""
    theta = np.concatenate([np.ravel(a) for a in arrays.values()], dtype=np.float64)
    v, s = velocity.copy(), np.empty_like(theta)
    for grads in grad_steps:
        np.multiply(theta, weight_decay, out=s)
        s += np.concatenate([np.ravel(grads[name]) for name in arrays])
        v *= momentum
        v += s
        np.multiply(v, lr, out=s)
        theta -= s
    return theta, v


@pytest.mark.parametrize("arrays", [
    MNIST_ARRAYS,
    {"scale": np.array(0.5),  # 0-d
     "long": np.linspace(-1.0, 1.0, trainer.SGD_BLOCK + 5),  # 1-d, more than a block
     "b": np.arange(3.0),
     "wide": np.ones((3, trainer.SGD_BLOCK + 7)),  # each row longer than a block
     "w": np.full((2, 4), 0.25)},
], ids=["mnist", "odd_shapes"])
def test_sgd_blocks_match_whole_vector_steps_bitwise(arrays):
    rng = np.random.default_rng(3)
    state, _ = sgd_state(arrays)
    start = 0  # the blocks tile theta, velocity and their pieces exactly once, in order
    for block in state.blocks:
        for view, flat in ((block.theta, state.theta), (block.velocity, state.velocity)):
            assert view.base is flat and view.ctypes.data == flat.ctypes.data + 8 * start
        assert block.scratch.base is state.scratch and block.scratch.size == block.theta.size
        assert sum(slot.size for slot, _, _ in block.pieces) == block.theta.size
        if block is not state.blocks[-1]:
            assert block.theta.size == trainer.SGD_BLOCK
        start += block.theta.size
    assert start == state.theta.size
    assert state.scratch.size == min(trainer.SGD_BLOCK, state.theta.size)

    state.velocity[:] = rng.normal(size=state.velocity.size)
    velocity = state.velocity.copy()
    grad_steps = [{name: rng.normal(size=np.shape(a)) for name, a in arrays.items()}
                  for _ in range(3)]
    for grads in grad_steps:
        sgd_update(state, grads, lr=0.1, momentum=0.9, weight_decay=5e-4)
    theta, v = _whole_vector_steps(arrays, grad_steps, velocity, 0.1, 0.9, 5e-4)
    assert state.theta.tobytes() == theta.tobytes()
    assert state.velocity.tobytes() == v.tobytes()


def test_sgd_fortran_ordered_gradients_step_like_c_ordered():
    """A cut piece reads its range of the gradient in C order whatever the
    gradient's memory layout; a whole piece adds the gradient in its shape."""
    rng = np.random.default_rng(4)
    grads = {name: rng.normal(size=a.shape) for name, a in MNIST_ARRAYS.items()}
    fortran = {name: np.asfortranarray(g) for name, g in grads.items()}
    assert not fortran["w0"].flags.c_contiguous and not fortran["w2"].flags.c_contiguous
    states = []
    for steps in (grads, fortran):
        state, _ = sgd_state(MNIST_ARRAYS)
        for _ in range(2):
            sgd_update(state, steps, lr=0.1, momentum=0.9, weight_decay=5e-4)
        states.append(state)
    c_state, f_state = states
    assert c_state.theta.tobytes() == f_state.theta.tobytes()
    assert c_state.velocity.tobytes() == f_state.velocity.tobytes()


def test_sgd_update_allocates_nothing_per_step():
    rng = np.random.default_rng(0)
    arrays = MNIST_ARRAYS  # the MNIST-shaped model: 2.15 MB of parameters
    state, _ = sgd_state(arrays)
    grads = {name: rng.normal(size=a.shape) for name, a in arrays.items()}
    sgd_update(state, grads, lr=0.1, momentum=0.9, weight_decay=5e-4)  # warm-up
    tracemalloc.start()
    try:
        sgd_update(state, grads, lr=0.1, momentum=0.9, weight_decay=5e-4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


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
    result = train_with_pruning(train, params, cfg)
    report = evaluate_model(result.params, test, 10, [0.95, 0.99])
    assert [e.surviving for e in result.epoch_log] == [len(train)] * 10
    assert result.total_sample_updates == 10 * len(train)
    # separable data: the loss must come down
    assert result.epoch_log[9].train_loss < result.epoch_log[0].train_loss
    assert report.test_error_pct < 10.0


def test_training_without_pruning_computes_no_confidences(monkeypatch):
    """Per-row confidences feed only the EMA, so a run without pruning never
    takes a row max and leaves every EMA score at 0."""
    train, _, _ = small_experiment()
    cfg = TrainConfig(max_epochs=2, batch_size=32, learning_rate=0.05, lr_milestones=[],
                      loss=LossSpec(kind="nll"))

    def never(ufunc, columns):
        raise AssertionError("confidences computed without pruning")

    monkeypatch.setattr(trainer, "_fold", never)
    result = train_with_pruning(train, init_mlp([2, 8, 2], seed=1), cfg)
    assert not result.ema.any()


def test_training_leaves_caller_params_unchanged():
    train, _, _ = small_experiment(noise=0.1, seed=4)
    cfg = TrainConfig(max_epochs=3, batch_size=32, learning_rate=0.05,
                      lr_milestones=[], seed=5, loss=LossSpec(kind="flsd", aux=AuxSpec()))
    params = init_mlp([2, 8, 2], seed=5)
    before = [a.tobytes() for a in params.weights + params.biases]
    result = train_with_pruning(train, params, cfg)
    assert [a.tobytes() for a in params.weights + params.biases] == before
    assert all(not np.shares_memory(a, b) for a, b in
               zip(params.weights + params.biases, result.params.weights + result.params.biases))


def test_pruned_loop_survivor_arithmetic():
    # stratified split of 1000/class at 0.9 leaves 900/class; use the pool directly
    train = generate_gaussian_mixture(2, 1000, noise=0.0, seed=9)
    cfg = TrainConfig(max_epochs=20, batch_size=256, learning_rate=0.05,
                      lr_milestones=[], seed=2, loss=LossSpec(kind="nll"),
                      prune=PruneSchedule(percent=10.0, ema_factor=0.3,
                                          epochs=range(5, 21, 5)))
    params = init_mlp([2, 8, 2], seed=2)
    result = train_with_pruning(train, params, cfg)
    # per-class sizes after each prune: 1000 -> 900 -> 810 -> 729 -> 657
    assert [p.surviving_total for p in result.prune_events] == [1800, 1620, 1458, 1314]
    assert [p.epoch for p in result.prune_events] == [5, 10, 15, 20]
    assert all(p.removed_per_class[0] == p.removed_per_class[1]
               for p in result.prune_events)
    expected_updates = 5 * (2000 + 1800 + 1620 + 1458)
    assert result.total_sample_updates == expected_updates
    sizes = [e.surviving for e in result.epoch_log]
    assert sizes == [2000] * 5 + [1800] * 5 + [1620] * 5 + [1458] * 5


def test_pruned_run_never_revalidates(monkeypatch):
    # the EMA blends and prunes derive records from checked ones: no check reruns
    train, _, _ = small_experiment(noise=0.1, seed=6)
    calls = []
    check = Dataset.__post_init__
    monkeypatch.setattr(Dataset, "__post_init__",
                        lambda self: calls.append(len(self.y)) or check(self))
    cfg = TrainConfig(max_epochs=8, batch_size=32, learning_rate=0.05,
                      lr_milestones=[], seed=7, loss=LossSpec(kind="nll"),
                      prune=PruneSchedule(percent=10.0, epochs={4, 8}))
    result = train_with_pruning(train, init_mlp([2, 8, 2], seed=7), cfg)
    assert [p.epoch for p in result.prune_events] == [4, 8]
    assert calls == []


def test_training_is_bitwise_deterministic():
    train, _, test = small_experiment(noise=0.1, seed=4)
    cfg = TrainConfig(max_epochs=6, batch_size=32, learning_rate=0.05,
                      lr_milestones=[3], seed=5,
                      loss=LossSpec(kind="flsd", aux=AuxSpec()),
                      prune=PruneSchedule(percent=10.0, epochs={3, 6}))
    runs, reports = [], []
    for _ in range(2):
        params = init_mlp([2, 8, 2], seed=5)
        runs.append(train_with_pruning(train, params, cfg))
        reports.append(evaluate_model(runs[-1].params, test, 10, [0.95, 0.99]))
    a, b = runs
    for wa, wb in zip(a.params.weights + a.params.biases,
                      b.params.weights + b.params.biases):
        assert wa.tobytes() == wb.tobytes()
    assert a.epoch_log == b.epoch_log
    assert a.prune_events == b.prune_events
    assert reports[0] == reports[1]
    assert a.total_sample_updates == b.total_sample_updates


def graph_per_batch_training(train, params, config):
    """Reference loop: the training procedure with a fresh graph per minibatch,
    the SGD step written out per parameter array, and each prune event copying
    the survivors' rows into a new Dataset."""
    bindings = {name: np.array(arr) for name, arr in param_bindings(params).items()}
    velocity = {name: np.zeros_like(arr) for name, arr in bindings.items()}
    survivors = train
    ema = np.zeros(len(train))  # by survivor position
    for epoch in range(1, config.max_epochs + 1):
        lr = lr_at_epoch(epoch, config)
        confidences = np.full(len(survivors), np.nan)
        for block in minibatches(survivors, config.batch_size, epoch, config.seed):
            g = Graph()
            x, y = g.leaf("x", param=False), g.int_leaf("y")
            log_probs = g.log_softmax(logits_graph(g, x, params.n_layers))
            root = total_loss(g, log_probs, y, config.loss, params.n_classes)
            g.forward({**bindings, "x": survivors.x[block], "y": survivors.y[block]},
                      root=root)
            grads = g.backward(root=root)
            for name, theta in bindings.items():
                step = config.weight_decay * theta
                step += grads[name]
                v = velocity[name]
                v *= config.momentum
                v += step
                theta -= lr * v
            confidences[block] = np.exp(np.max(log_probs.value, axis=1))
        ema = update_ema(ema, confidences, config.prune.ema_factor)
        if epoch in config.prune.epochs:
            keep = prune_using_ema(survivors.y, survivors.ids, ema, survivors.n_classes,
                                   config.prune.percent)
            survivors = Dataset(survivors.x[keep], survivors.y[keep], survivors.n_classes,
                                ids=survivors.ids[keep])
            ema = ema[keep]
    return bindings


@pytest.mark.parametrize("aux", [None, *AUX_LOSSES])
@pytest.mark.parametrize("kind", list(CLASSIFICATION_LOSSES))
def test_one_graph_run_matches_graph_per_batch_bitwise(kind, aux):
    train, _, _ = small_experiment(n_classes=3, per_class=50, noise=0.1, seed=21)
    cfg = TrainConfig(max_epochs=4, batch_size=40, learning_rate=0.1, lr_milestones=[3],
                      seed=4, loss=LossSpec(kind=kind, gamma=2.0, smoothing=0.1,
                                            aux=aux and AuxSpec(kind=aux, weight=3.0)),
                      prune=PruneSchedule(percent=20.0, epochs={2}))
    assert len(train) % cfg.batch_size != 0  # every epoch ends on a short batch
    params = init_mlp([2, 8, 3], seed=4)
    result = train_with_pruning(train, params, cfg)
    assert [p.epoch for p in result.prune_events] == [2]
    reference = graph_per_batch_training(train, params, cfg)
    for i in range(params.n_layers):
        assert np.array_equal(result.params.weights[i], reference[f"w{i}"]), f"w{i}"
        assert np.array_equal(result.params.biases[i], reference[f"b{i}"]), f"b{i}"


def test_one_graph_per_training_run(monkeypatch):
    built = []

    class CountingGraph(Graph):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(trainer, "Graph", CountingGraph)
    train, _, _ = small_experiment(noise=0.1, seed=6)
    cfg = TrainConfig(max_epochs=3, batch_size=32, learning_rate=0.05, lr_milestones=[],
                      seed=7, loss=LossSpec(kind="flsd", aux=AuxSpec()),
                      prune=PruneSchedule(percent=10.0, epochs={2}))
    train_with_pruning(train, init_mlp([2, 8, 2], seed=7), cfg)
    assert len(built) == 1


def test_ema_log_matches_closed_form(monkeypatch):
    train, _, _ = small_experiment(noise=0.1, seed=6)
    kappa = 0.3
    logged = []  # per-epoch (original ids, confidences) arrays, seen by update_ema
    alive_ids = [train.ids]  # the survivors' original ids, by position, as pruning leaves them

    def spy(scores, confidences, ema_factor):
        logged.append((alive_ids[-1], confidences))
        return update_ema(scores, confidences, ema_factor)

    def prune_spy(labels, ids, scores, n_classes, percent):
        assert ids.tolist() == alive_ids[-1].tolist()
        keep = prune_using_ema(labels, ids, scores, n_classes, percent)
        alive_ids.append(ids[keep])
        return keep

    monkeypatch.setattr(trainer, "update_ema", spy)
    monkeypatch.setattr(trainer, "prune_using_ema", prune_spy)
    cfg = TrainConfig(max_epochs=8, batch_size=32, learning_rate=0.05,
                      lr_milestones=[], seed=7, loss=LossSpec(kind="nll"),
                      prune=PruneSchedule(percent=10.0, ema_factor=kappa, epochs={4, 8}))
    params = init_mlp([2, 8, 2], seed=7)
    result = train_with_pruning(train, params, cfg)
    assert len(logged) == 8
    assert all(np.all((0.0 <= c) & (c <= 1.0)) for _, c in logged)
    by_id = [dict(zip(ids.tolist(), c.tolist())) for ids, c in logged]
    # every row's ema equals the closed form over the confidences logged while
    # it was alive: e = sum_t kappa * (1-kappa)^(last-t) * c_t; a final survivor
    # was logged every epoch, and a pruned row keeps its score from its last one
    assert len(result.survivors) > 0
    assert train.ids[result.survivors].tolist() == alive_ids[-1].tolist()
    survivors = set(result.survivors.tolist())
    for row, original_id in enumerate(train.ids.tolist()):
        confs = [epoch[original_id] for epoch in by_id if original_id in epoch]
        assert len(confs) == 8 if row in survivors else len(confs) in (4, 8)
        closed = sum(kappa * (1 - kappa) ** (len(confs) - 1 - t) * confs[t]
                     for t in range(len(confs)))
        assert result.ema[row] == pytest.approx(closed, abs=1e-10)


def test_nan_aborts_loudly():
    train, _, _ = small_experiment(seed=8)
    cfg = TrainConfig(max_epochs=5, batch_size=32, learning_rate=1e155,
                      lr_milestones=[], momentum=0.0, weight_decay=0.0, seed=8,
                      loss=LossSpec(kind="nll"))
    params = init_mlp([2, 8, 2], seed=8)
    with pytest.raises(TrainingDiverged, match="epoch"):
        train_with_pruning(train, params, cfg)


def test_empty_training_set_raises_before_the_graph_is_built(monkeypatch):
    empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 2)
    cfg = TrainConfig(max_epochs=1, batch_size=8, learning_rate=0.05, lr_milestones=[])

    def no_graph():
        raise AssertionError("the loss graph was built")

    monkeypatch.setattr(trainer, "Graph", no_graph)
    with pytest.raises(ValueError, match="cannot train on an empty dataset"):
        train_with_pruning(empty, init_mlp([2, 4, 2], seed=1), cfg)


def test_class_count_must_match_the_model_output_width():
    """Training checks the model against its training set, evaluation and
    scoring against the set they score, temperature fitting against its
    validation set; the validation labels reach 2, past a 2-class model."""
    train, val, test = small_experiment(n_classes=3, per_class=20, seed=8)
    assert val.y.max() == 2
    cfg = TrainConfig(max_epochs=1, batch_size=8, learning_rate=0.05, lr_milestones=[])
    with pytest.raises(ValueError, match="class counts disagree"):
        train_with_pruning(train, init_mlp([2, 4, 2], seed=1), cfg)
    with pytest.raises(ValueError, match="class counts disagree"):
        evaluate_model(init_mlp([2, 4, 4], seed=1), test, 10, [0.95])
    with pytest.raises(ValueError, match="class counts disagree"):
        records_for(init_mlp([2, 4, 2], seed=1), test)
    with pytest.raises(ValueError, match="class counts disagree"):
        fit_temperature(init_mlp([2, 4, 2], seed=1), val)


def test_training_evaluates_nothing(monkeypatch):
    """A quickstart-shaped run trains without forwarding, predicting or
    scoring anything outside its loss graph."""
    cfg = load_config(QUICKSTART, overrides=["train.max_epochs=2"], env={})
    train, _, _ = build_datasets(cfg)
    config = build_train_config(cfg)
    params = init_mlp(model_widths(cfg, train.x.shape[1], train.n_classes), config.seed)

    def never(*args, **kwargs):
        raise AssertionError("training evaluated the model")

    for name in ("evaluate_model", "records_for", "forward_logits", "predict", "build_report"):
        monkeypatch.setattr(trainer, name, never)
    result = train_with_pruning(train, params, config)
    assert [e.epoch for e in result.epoch_log] == [1, 2]


def test_batch_size_warning_with_pruning():
    """The warning points at the caller's line, not into numpy."""
    train, _, _ = small_experiment(seed=12)
    cfg = TrainConfig(max_epochs=1, batch_size=8, learning_rate=0.05,
                      lr_milestones=[], seed=1, loss=LossSpec(kind="nll"),
                      prune=PruneSchedule(percent=10.0, epochs={1}))
    params = init_mlp([2, 4, 2], seed=1)
    with pytest.warns(UserWarning, match="10\\*K") as record:
        train_with_pruning(train, params, cfg)
    assert [w.filename for w in record] == [__file__]


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


def whole_set_records(params, data, temperatures):
    """records_for's whole-set form: all logits at once, then the log_softmax
    predict (argmax, exp at the label) per temperature."""
    logits = forward_logits(params, data.x)
    records = []
    for t in temperatures:
        log_probs = log_softmax(logits / t)
        labels = np.argmax(log_probs, axis=1)
        confidences = np.exp(log_probs[np.arange(len(labels)), labels])
        records.append((confidences, (labels == data.y).astype(np.float64)))
    return records


def params_with_biases(widths, seed):
    params = init_mlp(widths, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for b in params.biases:
        b[:] = rng.normal(size=b.shape)
    return params


@pytest.mark.parametrize("widths", [[2, 64, 64, 4], [784, 256, 256, 10]],
                         ids=["quickstart", "mnist_shaped"])
def test_streaming_records_match_whole_set_bitwise(widths):
    """Block by block, records_for gives the bits of the whole-set forward and
    predict, on both sides of each block boundary and for every temperature."""
    params = params_with_biases(widths, seed=8)
    temperatures = (1.0, 0.7, 2.5)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(40003, widths[0]))
    y = rng.integers(0, widths[-1], size=len(x))
    for n in (1, 8191, 16383, 16384, 40003):
        data = Dataset(x[:n], y[:n], widths[-1])
        streamed = records_for(params, data, temperatures)
        reference = whole_set_records(params, data, temperatures)
        assert len(streamed) == len(temperatures)
        for (conf, correct), (ref_conf, ref_correct) in zip(streamed, reference):
            assert conf.dtype == correct.dtype == np.float64
            assert conf.tobytes() == ref_conf.tobytes()
            assert correct.tobytes() == ref_correct.tobytes()
    assert 0.0 < streamed[0][1].mean() < 1.0  # both outcomes occur at n = 40003


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streaming_records_never_build_whole_set_logits():
    """Beyond its returned arrays, records_for on 100k rows peaks within a
    quarter of one (n, K) logits array of the forward of its largest block;
    the whole-set form holds several (n, K) arrays at once."""
    params = params_with_biases([2, 64, 64, 4], seed=8)
    rng = np.random.default_rng(10)
    n, temperatures = 100_000, (1.0, 0.7, 2.5)
    data = Dataset(rng.normal(size=(n, 2)), rng.integers(0, 4, size=n), 4)
    largest = max(rows.stop - rows.start for rows in row_blocks(n))
    block_peak = traced_peak(lambda: forward_logits(params, data.x[:largest]))
    peak = traced_peak(lambda: records_for(params, data, temperatures))
    returned = 2 * n * 8 * len(temperatures)
    assert peak - returned - block_peak < n * 4 * 8 / 4


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


def test_mean_nll_rejects_labels_that_are_not_one_class_index_per_row():
    logits = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]])
    assert mean_nll(logits, [2, 1]) == pytest.approx(0.4795, abs=1e-4)
    for labels in ([-1, 1], [3, 1], [1.5, 1], [1], [0, 1, 2]):
        with pytest.raises(ValueError, match="mean_nll"):
            mean_nll(logits, labels)
    with pytest.raises(ValueError, match="mean_nll"):
        mean_nll(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError, match="mean_nll"):
        fit_temperature_on_logits(logits, [-1, 1])


def test_temperature_preserves_argmax():
    train, val, test = small_experiment(noise=0.1, seed=14)
    cfg = TrainConfig(max_epochs=5, batch_size=32, learning_rate=0.05,
                      lr_milestones=[], seed=3, loss=LossSpec(kind="nll"))
    params = init_mlp([2, 8, 2], seed=3)
    result = train_with_pruning(train, params, cfg)
    temperature = fit_temperature(result.params, val)
    logits = forward_logits(result.params, test.x)
    before, _ = predict(logits)
    after, _ = predict(logits / temperature)
    np.testing.assert_array_equal(before, after)
