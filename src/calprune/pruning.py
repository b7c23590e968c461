"""EMA confidence tracking and classwise low-confidence pruning.

Every training instance carries an exponentially smoothed confidence score
e <- factor * c + (1 - factor) * e (starting from 0). At scheduled epochs the
lowest-scored fraction of each class is removed; pruned instances never
return. All operations are pure: they return new Datasets.
"""

import copy
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .ranges import check, check_fields


@dataclass
class PruneSchedule:
    """How hard and when to prune: fraction per class, EMA factor, prune epochs."""
    percent: float
    ema_factor: float = 0.3
    epochs: frozenset = field(kw_only=True)

    def __post_init__(self):
        self.epochs = frozenset(self.epochs)
        check_fields(self)


def prune_count(percent, n):
    """floor(percent/100 * n), evaluated in exact rational arithmetic.

    Fraction(percent) is the exact rational value of the IEEE double, so e.g.
    percent=30, n=10 yields 3 rather than the float artifact floor(2.999...).
    """
    return int(Fraction(percent) * n / 100)


def update_ema(dataset, confidences, ema_factor):
    """Blend this epoch's confidences into every instance's EMA score.

    `confidences` holds one value in [0, 1] per instance, by position; a NaN
    (an instance never visited this epoch) is an error.
    """
    check("prune.ema_factor", ema_factor)
    if ema_factor == 0:
        warnings.warn("ema factor 0 keeps all scores frozen forever", stacklevel=2)
    if confidences.shape != (len(dataset),):
        raise ValueError(f"got {confidences.shape} confidences for {len(dataset)} instances")
    bad = np.flatnonzero(~((confidences >= 0.0) & (confidences <= 1.0)))
    if bad.size:
        raise ValueError(f"confidence {confidences[bad[0]]} for id {dataset.ids[bad[0]]} "
                         "outside [0, 1]")
    out = copy.copy(dataset)  # a blend of in-range scores needs no re-check
    out.ema = ema_factor * confidences + (1.0 - ema_factor) * dataset.ema
    return out


def prune_using_ema(dataset, percent):
    """Remove the lowest-EMA percent of each class (ties: lowest original id first).

    Survivors keep their relative order within a class; classes are
    concatenated in ascending index order. Surviving EMA scores are untouched.
    """
    check("prune.percent", percent)
    keep_parts = []
    for k in range(dataset.n_classes):
        positions = np.flatnonzero(dataset.y == k)
        if positions.size == 0:
            raise ValueError(f"class {k} has no instances to prune from")
        removed = prune_count(percent, positions.size)
        order = np.lexsort((dataset.ids[positions], dataset.ema[positions]))
        survives = np.ones(positions.size, dtype=bool)
        survives[order[:removed]] = False
        keep_parts.append(positions[survives])
    keep = np.concatenate(keep_parts)
    out = copy.copy(dataset)  # a row subset of a checked record needs no re-check
    out.x, out.y, out.ids, out.ema = (a[keep] for a in (out.x, out.y, out.ids, out.ema))
    return out
