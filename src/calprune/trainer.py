"""SGD-with-momentum training loop with EMA pruning, plus temperature scaling.

The loop is a single logical thread: per epoch it shuffles the surviving
instances, runs forward/backward/update per minibatch, records every
instance's predicted confidence from its own minibatch forward pass, folds
those into the EMA scores, and prunes at scheduled epochs. Everything is
deterministic given the config seed; a non-finite loss aborts loudly.
"""

import math
import time
import warnings
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Graph, _fold_max, log_softmax
from .data import minibatches
from .losses import LossSpec, total_loss
from .metrics import build_report
from .mlp import (MlpParams, forward_logits, logits_graph, param_bindings, predict,
                  row_blocks)
from .pruning import PruneSchedule, prune_using_ema, update_ema
from .ranges import check_fields

TEMPERATURE_LO, TEMPERATURE_HI = 0.05, 10.0  # golden-section search bracket
TEMPERATURE_RESOLUTION = 1e-3


class TrainingDiverged(RuntimeError):
    """Raised when the loss turns non-finite."""


@dataclass
class TrainConfig:
    max_epochs: int
    batch_size: int
    learning_rate: float
    lr_milestones: list = field(default_factory=list)
    lr_decay_factor: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    seed: int = 0
    loss: LossSpec = field(default_factory=LossSpec)
    prune: PruneSchedule = None

    def __post_init__(self):
        check_fields(self)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    surviving: int


@dataclass
class PruneEvent:
    epoch: int
    removed_per_class: list
    surviving_total: int


@dataclass
class RunResult:
    params: object
    epoch_log: list
    prune_events: list
    total_sample_updates: int
    wall_clock_seconds: float  # training alone; evaluating the model is not timed
    survivors: object = None  # the final surviving Dataset, EMA scores included


# flat float64 vectors of one length, and name -> view of `scratch`
SgdState = namedtuple("SgdState", "theta velocity scratch slots")


def sgd_state(arrays):
    """SgdState for name -> array `arrays`, and name -> view of its `theta`.

    `theta` holds a float64 copy of the arrays back to back and `velocity`
    starts at zero; each slot is the view of `scratch` at the offsets of the
    parameter of its name. The arrays themselves are never written.
    """
    theta = np.concatenate([np.ravel(a) for a in arrays.values()], dtype=np.float64)
    scratch = np.empty_like(theta)
    views, slots, start = {}, {}, 0
    for name, a in arrays.items():
        stop = start + np.size(a)
        views[name] = theta[start:stop].reshape(np.shape(a))
        slots[name] = scratch[start:stop].reshape(np.shape(a))
        start = stop
    return SgdState(theta, np.zeros_like(theta), scratch, slots), views


def sgd_update(state, grads, lr, momentum, weight_decay):
    """One SGD step in place over the flat vectors of `state`, allocating nothing.

    s = wd*theta + g; v = momentum*v + s; theta -= lr*v. Each gradient is
    added into its own slot of s, its shape checked first, so a mismatch
    raises before the velocity or theta is written.
    """
    theta, v, s, slots = state
    np.multiply(theta, weight_decay, out=s)
    for name, slot in slots.items():
        g = grads[name]
        if g.shape != slot.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {slot.shape}"
                             f" for {name!r}")
        np.add(slot, g, out=slot)
    v *= momentum
    v += s
    np.multiply(v, lr, out=s)
    theta -= s


def lr_at_epoch(epoch, config):
    """Base rate decayed once per milestone at or before this epoch."""
    if epoch < 1:
        raise ValueError(f"epoch must be >= 1, got {epoch}")
    passed = sum(1 for m in config.lr_milestones if m <= epoch)
    return config.learning_rate * config.lr_decay_factor ** passed


def _check_classes(params, data):
    """Raise unless `data` declares as many classes as the model outputs."""
    if data.n_classes != params.n_classes:
        raise ValueError("dataset class counts disagree with the model's output width")


def train_with_pruning(train, params, config):
    """Run the full training procedure; evaluating the model is the caller's step."""
    started = time.perf_counter()
    _check_classes(params, train)
    n_classes = params.n_classes
    if len(train) == 0:
        raise ValueError("cannot train on an empty dataset")
    if config.prune is not None and config.batch_size < 10 * n_classes:
        warnings.warn(
            f"batch size {config.batch_size} < 10*K={10 * n_classes}: minibatches may "
            "not represent every class while pruning", stacklevel=2)

    # every parameter is a view of state.theta, which sgd_update steps in place
    state, feed = sgd_state(param_bindings(params))
    survivors = train
    epoch_log, prune_events = [], []
    total_updates = 0

    # one loss graph for the whole run; each batch rebinds the x and y leaves
    graph = Graph()
    x = graph.leaf("x", param=False)
    y = graph.int_leaf("y")
    log_probs = graph.log_softmax(logits_graph(graph, x, params.n_layers))
    loss_node = total_loss(graph, log_probs, y, config.loss, n_classes)

    for epoch in range(1, config.max_epochs + 1):
        lr = lr_at_epoch(epoch, config)
        blocks = minibatches(survivors, config.batch_size, epoch, config.seed)
        epoch_conf = np.full(len(survivors), np.nan)  # by survivor position
        loss_sum = 0.0
        for batch_no, block in enumerate(blocks):
            feed["x"] = survivors.x[block]
            feed["y"] = survivors.y[block]
            loss_value = float(graph.forward(feed, root=loss_node))
            if not math.isfinite(loss_value):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}")
            grads = graph.backward(root=loss_node)
            sgd_update(state, grads, lr, config.momentum, config.weight_decay)
            epoch_conf[block] = np.exp(_fold_max(log_probs.value.T))  # exp(±0) is 1
            loss_sum += loss_value * len(block)

        n_surviving = len(survivors)
        total_updates += n_surviving
        epoch_log.append(EpochStats(epoch, loss_sum / n_surviving, n_surviving))
        if config.prune is not None:
            survivors = update_ema(survivors, epoch_conf, config.prune.ema_factor)
            if epoch in config.prune.epochs:
                before = survivors.class_sizes()
                survivors = prune_using_ema(survivors, config.prune.percent)
                prune_events.append(PruneEvent(epoch, (before - survivors.class_sizes()).tolist(),
                                               len(survivors)))

    layers = range(params.n_layers)
    final_params = MlpParams(list(params.widths), [feed[f"w{i}"] for i in layers],
                             [feed[f"b{i}"] for i in layers])
    return RunResult(final_params, epoch_log, prune_events, total_updates,
                     time.perf_counter() - started, survivors)


def records_for(params, data, temperatures=(1.0,)):
    """One (confidence, correct) pair of float64 arrays per temperature.

    The rows are forwarded once, block by block (mlp.row_blocks), and each
    temperature divides the same block logits, so no whole-set logits are built.
    """
    _check_classes(params, data)
    n = len(data)
    records = [(np.empty(n), np.empty(n)) for _ in temperatures]
    for rows in row_blocks(n):
        logits = forward_logits(params, data.x[rows])
        for t, (confidences, correct) in zip(temperatures, records):
            # x / 1.0 is x bit for bit, so T = 1 needs no scaled copy
            labels, confidences[rows] = predict(logits if t == 1.0 else logits / t)
            correct[rows] = labels == data.y[rows]
    return records


def evaluate_model(params, data, n_bins, deltas):
    """Forward + predict the whole dataset, then assemble the calibration report."""
    if len(data) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    [(confidences, correct)] = records_for(params, data)
    return build_report(confidences, correct, n_bins, deltas)


def mean_nll(logits, labels, temperature=1.0):
    log_probs = log_softmax(np.asarray(logits, dtype=np.float64) / temperature)
    return float(-np.mean(log_probs[np.arange(len(labels)), labels]))


def fit_temperature(params, val):
    """Golden-section search for the temperature minimising validation NLL.

    The search runs over [TEMPERATURE_LO, TEMPERATURE_HI]. The final answer is
    compared against T=1 (the identity), so the returned temperature never
    scores worse than leaving the logits alone; exact ties resolve to the
    smaller temperature.
    """
    _check_classes(params, val)
    if len(val) == 0:
        raise ValueError("temperature fitting needs a nonempty validation set")
    logits = forward_logits(params, val.x)
    return fit_temperature_on_logits(logits, val.y)


def fit_temperature_on_logits(logits, labels):
    def nll(t):
        return mean_nll(logits, labels, temperature=t)

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi = TEMPERATURE_LO, TEMPERATURE_HI
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    f_c, f_d = nll(c), nll(d)
    while hi - lo > TEMPERATURE_RESOLUTION:
        if f_c <= f_d:
            hi, d, f_d = d, c, f_c
            c = hi - invphi * (hi - lo)
            f_c = nll(c)
        else:
            lo, c, f_c = c, d, f_d
            d = lo + invphi * (hi - lo)
            f_d = nll(d)
    return min([0.5 * (lo + hi), 1.0], key=lambda t: (nll(t), t))
