"""SGD-with-momentum training loop with EMA pruning, plus temperature scaling.

The loop is a single logical thread: per epoch it shuffles the surviving
instances, runs forward/backward/update per minibatch and, when pruning,
records every instance's predicted confidence from its own minibatch forward
pass, folds those into the EMA scores, and prunes at scheduled epochs; after
the last scheduled epoch it records no confidences.
Everything is deterministic given the config seed; a non-finite loss, or
non-finite parameters after the last step, abort loudly.
"""

import math
import time
import warnings
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Graph, _bind, _fold
from .data import minibatches
from .losses import LossSpec, nll_loss, total_loss
from .metrics import build_report
from .mlp import (MlpParams, forward_logits, logits_graph, param_bindings, predict,
                  row_blocks)
from .pruning import PruneSchedule, prune_using_ema, update_ema
from .ranges import POSITIVE, check_fields, require, require_kind

TEMPERATURE_LO, TEMPERATURE_HI = 0.05, 10.0  # golden-section search bracket
TEMPERATURE_RESOLUTION = 1e-3


class TrainingDiverged(RuntimeError):
    """Raised when the loss or, after the last step, a parameter turns non-finite."""


class NonFiniteLogits(ValueError):
    """Raised when a model's forward pass gives a logit that is not finite."""


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
        check_fields(self, "train")


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
    survivors: object = None  # positions in the training Dataset of the rows never pruned
    ema: object = None  # every training row's final EMA score; a pruned row keeps its last


SGD_BLOCK = 8192  # elements (64 KB) that sgd_update steps together, so its scratch stays cached

# flat float64 vectors of one length, one block's scratch, the tuple of SgdBlock
# that tiles them in order, and name -> the shape its gradient must have
SgdState = namedtuple("SgdState", "theta velocity scratch blocks shapes")
# theta[k*SGD_BLOCK:(k+1)*SGD_BLOCK] (the last block shorter): its views of
# theta, velocity and scratch, and per parameter it overlaps a piece (view of
# scratch, name, None for the whole parameter in its shape, else the slice
# of the flattened parameter that the flat view holds)
SgdBlock = namedtuple("SgdBlock", "theta velocity scratch pieces")


def sgd_state(arrays):
    """SgdState for name -> array `arrays`, and name -> view of its `theta`.

    `theta` holds a float64 copy of the arrays back to back and `velocity`
    starts at zero; `scratch` is one block, min(SGD_BLOCK, theta.size)
    elements. The arrays themselves are never written.
    """
    theta = np.concatenate([np.ravel(a) for a in arrays.values()], dtype=np.float64)
    velocity = np.zeros_like(theta)
    scratch = np.empty(min(SGD_BLOCK, theta.size))
    shapes = {name: np.shape(a) for name, a in arrays.items()}
    spans, first = {}, 0  # name -> (first, last) range of theta
    for name, shape in shapes.items():
        spans[name] = first, first + math.prod(shape)
        first += math.prod(shape)
    blocks = []
    for start in range(0, theta.size, SGD_BLOCK):
        stop = min(start + SGD_BLOCK, theta.size)
        s, pieces = scratch[:stop - start], []
        for name, (first, last) in spans.items():
            lo, hi = max(first, start), min(last, stop)
            if (lo, hi) == (first, last):
                pieces.append((s[lo - start:hi - start].reshape(shapes[name]), name, None))
            elif lo < hi:
                pieces.append((s[lo - start:hi - start], name, slice(lo - first, hi - first)))
        blocks.append(SgdBlock(theta[start:stop], velocity[start:stop], s, tuple(pieces)))
    views = {name: theta[first:last].reshape(shapes[name])
             for name, (first, last) in spans.items()}
    return SgdState(theta, velocity, scratch, tuple(blocks), shapes), views


def sgd_update(state, grads, lr, momentum, weight_decay):
    """One SGD step in place over the flat vectors of `state`, allocating no
    array for C-ordered gradients (a cut piece of any other gradient reads a
    C-order copy of it).

    s = wd*theta + g; v = momentum*v + s; theta -= lr*v, block by block, so
    each element sees the same ops in the same order as over whole vectors.
    Every gradient's shape is checked first, so a mismatch raises before the
    velocity or theta is written.
    """
    for name, shape in state.shapes.items():
        if grads[name].shape != shape:
            raise ValueError(f"gradient shape {grads[name].shape} != parameter shape {shape}"
                             f" for {name!r}")
    for theta, v, s, pieces in state.blocks:
        np.multiply(theta, weight_decay, out=s)
        for slot, name, cut in pieces:
            g = grads[name]
            np.add(slot, g if cut is None else g.reshape(-1)[cut], out=slot)
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
    alive = np.arange(len(train))  # positions in `train` (only read) of the surviving rows
    ema = np.zeros(len(train))  # one score per row of `train`; a pruned row keeps its last
    epoch_log, prune_events = [], []
    total_updates = 0
    # confidences and the EMA feed only prune events, so scoring stops at the last one
    last_scored = max(config.prune.epochs, default=0) if config.prune is not None else 0

    # one loss graph for the whole run; each batch rebinds the x and y leaves
    graph = Graph()
    x = graph.leaf("x", param=False)
    y = graph.int_leaf("y")
    log_probs = graph.log_softmax(logits_graph(graph, x, params.n_layers))
    loss_node = total_loss(graph, log_probs, y, config.loss, n_classes)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # the loss check guards
        for epoch in range(1, config.max_epochs + 1):
            lr = lr_at_epoch(epoch, config)
            blocks = minibatches(alive, config.batch_size, epoch, config.seed)
            scoring = epoch <= last_scored
            if scoring:
                epoch_conf = np.full(len(alive), np.nan)  # by position in `alive`
            loss_sum = 0.0
            for batch_no, block in enumerate(blocks):
                feed["x"] = train.x[alive[block]]
                feed["y"] = train.y[alive[block]]
                loss_value = float(graph.forward(feed, root=loss_node))
                if not math.isfinite(loss_value):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}, batch {batch_no}")
                grads = graph.backward(root=loss_node)
                sgd_update(state, grads, lr, config.momentum, config.weight_decay)
                if scoring:
                    # exp(±0) is 1
                    epoch_conf[block] = np.exp(_fold(np.maximum, log_probs.value.T))
                loss_sum += loss_value * len(block)

            total_updates += len(alive)
            epoch_log.append(EpochStats(epoch, loss_sum / len(alive), len(alive)))
            if scoring:
                ema[alive] = update_ema(ema[alive], epoch_conf, config.prune.ema_factor)
                if epoch in config.prune.epochs:
                    keep = prune_using_ema(train.y[alive], train.ids[alive], ema[alive],
                                           n_classes, config.prune.percent)
                    removed = np.bincount(train.y[np.delete(alive, keep)], minlength=n_classes)
                    alive = alive[keep]
                    prune_events.append(PruneEvent(epoch, removed.tolist(), len(alive)))
    if not np.isfinite(state.theta).all():  # the last step's loss came before its update
        raise TrainingDiverged(f"non-finite parameters after epoch {config.max_epochs}")

    layers = range(params.n_layers)
    final_params = MlpParams(list(params.widths), [feed[f"w{i}"] for i in layers],
                             [feed[f"b{i}"] for i in layers])
    return RunResult(final_params, epoch_log, prune_events, total_updates,
                     time.perf_counter() - started, alive, ema)


@np.errstate(over="ignore", invalid="ignore")
def _finite_logits(params, batch):
    """forward_logits(params, batch), raising NonFiniteLogits unless every logit is finite."""
    logits = forward_logits(params, batch)
    if not np.isfinite(logits).all():
        raise NonFiniteLogits("the forward pass gives non-finite logits")
    return logits


def _check_temperature(temperature):
    """Raise ValueError, naming the value, unless `temperature` is a finite number > 0."""
    require_kind("number", temperature, "temperature")
    require(POSITIVE, temperature, "temperature")


def records_for(params, data, temperatures=(1.0,)):
    """One (confidence, correct) pair of float64 arrays per temperature, each
    a finite number > 0.

    The rows are forwarded once, block by block (mlp.row_blocks), and each
    temperature divides the same block logits, so no whole-set logits are built.
    """
    _check_classes(params, data)
    for t in temperatures:
        _check_temperature(t)
    n = len(data)
    records = [(np.empty(n), np.empty(n)) for _ in temperatures]
    for rows in row_blocks(n):
        logits = _finite_logits(params, data.x[rows])
        for t, (confidences, correct) in zip(temperatures, records):
            labels, confidences[rows] = predict(logits / t)
            correct[rows] = labels == data.y[rows]
    return records


def evaluate_model(params, data, n_bins, deltas):
    """Forward + predict the whole dataset, then assemble the calibration report."""
    if len(data) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    [(confidences, correct)] = records_for(params, data)
    return build_report(confidences, correct, n_bins, deltas)


def _nll_graph():
    """A graph whose root is losses.nll_loss of the float leaf "logits" at the
    int leaf "labels", and that logits leaf."""
    graph = Graph()
    x, y = graph.leaf("logits", param=False), graph.int_leaf("labels")
    nll_loss(graph, graph.log_softmax(x), y)
    return graph, x


def mean_nll(logits, labels, temperature=1.0):
    """Mean negative log-likelihood of softmax(logits / temperature) at `labels`,
    the temperature a finite number > 0: losses.nll_loss on a graph of its
    own, which raises GraphError unless the logits are (n, K) numbers, n >= 1,
    with one whole-number label in [0, K) per row."""
    _check_temperature(temperature)
    graph, x = _nll_graph()
    return float(graph.forward({"logits": _bind(x, logits) / temperature, "labels": labels}))


def fit_temperature(params, val):
    """Golden-section search for the temperature minimising validation NLL.

    The search runs over [TEMPERATURE_LO, TEMPERATURE_HI]. The final answer is
    compared against T=1 (the identity), so the returned temperature never
    scores worse than leaving the logits alone; exact ties resolve to the
    smaller temperature. Finite logits whose NLL is not finite once scaled
    raise NonFiniteLogits.
    """
    _check_classes(params, val)
    if len(val) == 0:
        raise ValueError("temperature fitting needs a nonempty validation set")
    return fit_temperature_on_logits(_finite_logits(params, val.x), val.y)


def fit_temperature_on_logits(logits, labels):
    graph, x = _nll_graph()  # mean_nll's graph, built once; each probe rebinds logits / t
    logits = _bind(x, logits)

    def nll(t):
        with np.errstate(over="ignore", invalid="ignore"):
            value = float(graph.forward({"logits": logits / t, "labels": labels}))
        if not math.isfinite(value):
            raise NonFiniteLogits(f"the validation NLL at temperature {t:g} is not finite")
        return value

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
