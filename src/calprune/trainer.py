"""SGD-with-momentum training loop with EMA pruning, plus temperature scaling.

The loop is a single logical thread: per epoch it shuffles the surviving
instances, runs forward/backward/update per minibatch, records every
instance's predicted confidence from its own minibatch forward pass, folds
those into the EMA scores, and prunes at scheduled epochs. Everything is
deterministic given the config seed; a non-finite loss aborts loudly.
"""

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Graph, log_softmax
from .data import minibatches
from .losses import LossSpec, total_loss
from .metrics import build_report
from .mlp import (forward_logits, logits_graph, param_bindings, params_from_bindings,
                  predict)
from .pruning import PruneSchedule, prune_using_ema, should_prune, update_ema


class TrainingDiverged(RuntimeError):
    """Raised when the loss turns non-finite or pruning empties the data."""


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
    eval_deltas: list = field(default_factory=lambda: [0.95, 0.99])
    n_bins: int = 10
    log_confidences: bool = False

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        # written as `not ...` so that NaN fails every range check
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 < self.lr_decay_factor < np.inf:
            raise ValueError(
                f"lr_decay_factor must be finite and > 0, got {self.lr_decay_factor}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0 <= self.weight_decay < np.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {self.n_bins}")
        if any(not 0 < d <= 1 for d in self.eval_deltas):
            raise ValueError(f"eval deltas must lie in (0, 1], got {self.eval_deltas}")

    def to_dict(self):
        return {
            "max_epochs": self.max_epochs,
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "lr_milestones": list(self.lr_milestones),
            "lr_decay_factor": self.lr_decay_factor,
            "momentum": self.momentum,
            "weight_decay": self.weight_decay,
            "seed": self.seed,
            "loss": self.loss.to_dict(),
            "prune": self.prune.to_dict() if self.prune is not None else None,
            "eval_deltas": list(self.eval_deltas),
            "n_bins": self.n_bins,
        }


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
    report: object
    total_sample_updates: int
    wall_clock_seconds: float
    survivors: object = None     # the final surviving ScoredDataset
    confidence_log: list = None  # per-epoch (original ids, confidences) arrays, opt-in


def sgd_update(params, grads, velocity, lr, momentum, weight_decay):
    """One SGD step: g' = g + wd*theta; v = momentum*v + g'; theta -= lr*v."""
    new_params, new_velocity = {}, {}
    for name, theta in params.items():
        g = grads[name]
        if g.shape != theta.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {theta.shape}"
                             f" for {name!r}")
        v = momentum * velocity[name] + (g + weight_decay * theta)
        new_velocity[name] = v
        new_params[name] = theta - lr * v
    return new_params, new_velocity


def lr_at_epoch(epoch, config):
    """Base rate decayed once per milestone at or before this epoch."""
    if epoch < 1:
        raise ValueError(f"epoch must be >= 1, got {epoch}")
    passed = sum(1 for m in config.lr_milestones if m <= epoch)
    return config.learning_rate * config.lr_decay_factor ** passed


def train_with_pruning(train, test, params, config):
    """Run the full training procedure and evaluate on the test set."""
    started = time.perf_counter()
    n_classes = params.n_classes
    if train.n_classes != n_classes or test.n_classes != n_classes:
        raise ValueError("dataset class counts disagree with the model's output width")
    if config.prune is not None and config.batch_size < 10 * n_classes:
        warnings.warn(
            f"batch size {config.batch_size} < 10*K={10 * n_classes}: minibatches may "
            "not represent every class while pruning", stacklevel=2)

    bindings = param_bindings(params)
    velocity = {name: np.zeros_like(arr) for name, arr in bindings.items()}
    survivors = train
    epoch_log, prune_events = [], []
    confidence_log = [] if config.log_confidences else None
    total_updates = 0

    for epoch in range(1, config.max_epochs + 1):
        lr = lr_at_epoch(epoch, config)
        if len(survivors) == 0:
            raise TrainingDiverged(f"no training instances left at epoch {epoch}")
        blocks = minibatches(survivors, config.batch_size, epoch, config.seed)
        epoch_conf = np.full(len(survivors), np.nan)  # by survivor position
        loss_sum = 0.0
        for batch_no, block in enumerate(blocks):
            graph = Graph()
            x = graph.leaf("x", param=False)
            logits = logits_graph(graph, x, params.n_layers)
            log_probs = graph.log_softmax(logits)
            loss_node = total_loss(graph, log_probs, survivors.y[block],
                                   config.loss, n_classes)
            batch_bindings = dict(bindings)
            batch_bindings["x"] = survivors.x[block]
            loss_value = float(graph.forward(batch_bindings, root=loss_node))
            if not np.isfinite(loss_value):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}")
            grads = graph.backward(root=loss_node)
            bindings, velocity = sgd_update(bindings, grads, velocity, lr,
                                            config.momentum, config.weight_decay)
            epoch_conf[block] = np.exp(np.max(log_probs.value, axis=1))
            loss_sum += loss_value * len(block)

        n_surviving = len(survivors)
        total_updates += n_surviving
        epoch_log.append(EpochStats(epoch, loss_sum / n_surviving, n_surviving))
        if confidence_log is not None:
            confidence_log.append((survivors.ids, epoch_conf))
        if config.prune is not None:
            survivors = update_ema(survivors, epoch_conf, config.prune.ema_factor)
            if should_prune(epoch, config.prune):
                before = survivors.class_sizes()
                survivors = prune_using_ema(survivors, config.prune.percent)
                after = survivors.class_sizes()
                if len(survivors) == 0 or (after == 0).any():
                    raise TrainingDiverged(f"pruning emptied a class at epoch {epoch}")
                prune_events.append(PruneEvent(epoch, (before - after).tolist(),
                                               len(survivors)))

    final_params = params_from_bindings(params.widths, bindings)
    report = evaluate_model(final_params, test, config.n_bins, config.eval_deltas)
    return RunResult(final_params, epoch_log, prune_events, report, total_updates,
                     time.perf_counter() - started, survivors, confidence_log)


def records_for(params, data, temperature=1.0):
    """(confidence, correct) float64 arrays over every row of `data`."""
    logits = forward_logits(params, data.x) / temperature
    labels, confidences = predict(logits)
    return confidences, (labels == data.y).astype(np.float64)


def evaluate_model(params, data, n_bins, deltas):
    """Forward + predict the whole dataset, then assemble the calibration report."""
    if len(data) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    return build_report(*records_for(params, data), n_bins, deltas)


def mean_nll(logits, labels, temperature=1.0):
    log_probs = log_softmax(np.asarray(logits, dtype=np.float64) / temperature)
    return float(-np.mean(log_probs[np.arange(len(labels)), labels]))


@dataclass
class TemperatureSearch:
    lo: float = 0.05
    hi: float = 10.0
    resolution: float = 1e-3


def fit_temperature(params, val, search=None):
    """Golden-section search for the temperature minimising validation NLL.

    The final answer is compared against T=1 (the identity), so the returned
    temperature never scores worse than leaving the logits alone; exact ties
    resolve to the smaller temperature.
    """
    search = search or TemperatureSearch()
    if len(val) == 0:
        raise ValueError("temperature fitting needs a nonempty validation set")
    logits = forward_logits(params, val.x)
    return fit_temperature_on_logits(logits, val.y, search)


def fit_temperature_on_logits(logits, labels, search=None):
    search = search or TemperatureSearch()

    def nll(t):
        return mean_nll(logits, labels, temperature=t)

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi = search.lo, search.hi
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    f_c, f_d = nll(c), nll(d)
    while hi - lo > search.resolution:
        if f_c <= f_d:
            hi, d, f_d = d, c, f_c
            c = hi - invphi * (hi - lo)
            f_c = nll(c)
        else:
            lo, c, f_c = c, d, f_d
            d = lo + invphi * (hi - lo)
            f_d = nll(d)
    best = 0.5 * (lo + hi)
    candidates = [best]
    if search.lo <= 1.0 <= search.hi:
        candidates.append(1.0)
    return min(candidates, key=lambda t: (nll(t), t))
