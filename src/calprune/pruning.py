"""EMA confidence tracking and classwise low-confidence pruning.

Every training instance carries an exponentially smoothed confidence score
e <- factor * c + (1 - factor) * e (starting from 0). At scheduled epochs the
lowest-scored fraction of each class is removed; pruned instances never
return. Both operations read plain arrays and return new ones.
"""

import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .ranges import check, check_fields, require_kind


@dataclass
class PruneSchedule:
    """How hard and when to prune: fraction per class, EMA factor, prune epochs."""
    percent: float
    ema_factor: float = 0.3
    epochs: frozenset = field(kw_only=True)

    def __post_init__(self):
        require_kind("array", self.epochs, "epochs")
        self.epochs = tuple(self.epochs)  # checked in the caller's order, then stored as a set
        check_fields(self, "prune")
        self.epochs = frozenset(self.epochs)


def prune_count(percent, n):
    """floor(percent/100 * n), evaluated in exact rational arithmetic.

    Fraction(percent) is the exact rational value of the IEEE double, so e.g.
    percent=30, n=10 yields 3 rather than the float artifact floor(2.999...).
    """
    return int(Fraction(percent) * n / 100)


def update_ema(scores, confidences, ema_factor):
    """The EMA `scores` with this epoch's confidences blended in.

    `confidences` holds one value in [0, 1] per score, by position; a NaN
    (an instance never visited this epoch) is an error.
    """
    check("prune.ema_factor", ema_factor)
    if ema_factor == 0:
        warnings.warn("ema factor 0 keeps all scores frozen forever", stacklevel=2)
    if confidences.shape != scores.shape:
        raise ValueError(f"got {confidences.shape} confidences for {len(scores)} instances")
    bad = np.flatnonzero(~((confidences >= 0.0) & (confidences <= 1.0)))
    if bad.size:
        raise ValueError(f"confidence {confidences[bad[0]]} at position {bad[0]} outside [0, 1]")
    return ema_factor * confidences + (1.0 - ema_factor) * scores


def prune_using_ema(labels, ids, scores, n_classes, percent):
    """Positions into `labels`, `ids` and `scores` (one value per row) of the rows
    left when each class loses its lowest-scored percent, ties to the lowest id
    first; survivors keep their order within a class, classes ascending."""
    check("prune.percent", percent)
    keep_parts = []
    for k in range(n_classes):
        positions = np.flatnonzero(labels == k)
        if positions.size == 0:
            raise ValueError(f"class {k} has no instances to prune from")
        order = np.lexsort((ids[positions], scores[positions]))
        survives = np.ones(positions.size, dtype=bool)
        survives[order[:prune_count(percent, positions.size)]] = False
        keep_parts.append(positions[survives])
    return np.concatenate(keep_parts)
