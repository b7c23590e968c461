"""Classification and auxiliary calibration losses as graph builders.

Every loss takes a log-probability node (the output of a log-softmax) plus
a node of integer targets (an int_leaf bound per batch) and returns a scalar
graph node, so gradients come from the autodiff module. Whatever depends on
the labels is an op of the targets node, and every batch average is taken by
an op (`mean`, `focal`, `confidence_gap`), so one built graph serves every
batch, including a short final one. Probabilities are always read back via
exp() of log-softmax output; no raw softmax of large logits anywhere.

Sign convention: the focal op carries the leading minus, so the loss value is
>= 0 and minimisation is meaningful.
"""

from dataclasses import dataclass

from .ranges import check, check_fields

FLSD_LOW_CONFIDENCE_GAMMA = 5.0
FLSD_HIGH_CONFIDENCE_GAMMA = 3.0


@dataclass
class AuxSpec:
    """Auxiliary calibration loss: kind, Huber transition alpha, weight lambda."""
    kind: str = "huber"
    alpha: float = 0.005
    weight: float = 10.0

    def __post_init__(self):
        check_fields(self, "loss.aux")


@dataclass
class LossSpec:
    """Which classification loss to train with, plus optional auxiliary term."""
    kind: str = "nll"
    gamma: float = 3.0        # focal only
    smoothing: float = 0.0    # label_smoothing only
    aux: AuxSpec = None

    def __post_init__(self):
        check_fields(self, "loss")


def nll_loss(g, log_probs, targets):
    """Mean negative log-likelihood of the target class: focal loss at gamma = 0."""
    return g.focal(log_probs, targets, 0.0, 0.0)


def focal_loss(g, log_probs, targets, gamma):
    """Mean of -(1 - p_target)^gamma * log p_target; NLL itself at gamma = 0."""
    check("loss.gamma", gamma)
    return g.focal(log_probs, targets, gamma, gamma)


def flsd_loss(g, log_probs, targets):
    """Focal loss whose gamma is chosen per sample on every forward pass:
    5 where the target probability is below 0.2, else 3."""
    return g.focal(log_probs, targets, FLSD_LOW_CONFIDENCE_GAMMA, FLSD_HIGH_CONFIDENCE_GAMMA)


def aux_huber_loss(g, log_probs, targets, alpha):
    """Huber of (mean confidence - mean accuracy) over the batch; the accuracy
    is piecewise constant, so only the confidences carry gradient."""
    check("loss.aux.alpha", alpha)
    return g.huber(g.confidence_gap(log_probs, targets), alpha)


def dca_aux_loss(g, log_probs, targets):
    """Absolute confidence-accuracy gap (L1 analogue of the Huber term)."""
    return g.absolute(g.confidence_gap(log_probs, targets))


def mdca_aux_loss(g, log_probs, targets, n_classes):
    """Classwise mean |mean predicted probability - empirical label frequency|."""
    freq = g.mean(g.one_hot(targets, n_classes))  # label counts / n, no gradient
    class_mean = g.mean(g.exp(log_probs))
    return g.mean(g.absolute(g.sub(class_mean, freq)))


def brier_loss(g, log_probs, targets, n_classes):
    """Squared error against the one-hot target, summed over classes, batch mean."""
    diff = g.sub(g.exp(log_probs), g.one_hot(targets, n_classes))
    return g.sum(g.mean(g.mul(diff, diff)))


def label_smoothing_loss(g, log_probs, targets, smoothing, n_classes):
    """Cross-entropy against (1 - eps) on the true class, eps/(K-1) elsewhere."""
    check("loss.smoothing", smoothing)
    soft = g.one_hot(targets, n_classes, on=1.0 - smoothing, off=smoothing / (n_classes - 1))
    return g.scale(g.sum(g.mean(g.mul(soft, log_probs))), -1.0)


# kind -> builder(g, log_probs, targets, spec, n_classes), one table per loss family
CLASSIFICATION_LOSSES = {
    "nll": lambda g, lp, t, spec, k: nll_loss(g, lp, t),
    "focal": lambda g, lp, t, spec, k: focal_loss(g, lp, t, spec.gamma),
    "flsd": lambda g, lp, t, spec, k: flsd_loss(g, lp, t),
    "brier": lambda g, lp, t, spec, k: brier_loss(g, lp, t, k),
    "label_smoothing": lambda g, lp, t, spec, k: label_smoothing_loss(g, lp, t,
                                                                      spec.smoothing, k),
}
AUX_LOSSES = {
    "huber": lambda g, lp, t, aux, k: aux_huber_loss(g, lp, t, aux.alpha),
    "dca": lambda g, lp, t, aux, k: dca_aux_loss(g, lp, t),
    "mdca": lambda g, lp, t, aux, k: mdca_aux_loss(g, lp, t, k),
}


def total_loss(g, log_probs, targets, spec, n_classes):
    """Classification loss plus weight * auxiliary loss.

    A zero weight (or no aux spec) builds the classification loss alone, so
    the degenerate case is bitwise identical to the plain loss.
    """
    cls = CLASSIFICATION_LOSSES[spec.kind](g, log_probs, targets, spec, n_classes)
    if spec.aux is None or spec.aux.weight == 0:
        return cls
    aux = AUX_LOSSES[spec.aux.kind](g, log_probs, targets, spec.aux, n_classes)
    return g.add(cls, g.scale(aux, spec.aux.weight))
