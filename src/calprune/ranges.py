"""The valid range of every constrained setting, each bound written once.

`SETTINGS` maps each config key to the dataclass field or function argument
it feeds and one rule: a predicate with the text that states it. Library
constructors and functions check their own arguments against it and raise
ValueError; `config.resolve_config` checks every key before any data is built.
"""

from collections import namedtuple
from math import inf
from numbers import Integral

Rule = namedtuple("Rule", "text test")
# `each`: the rule holds for every element of an array setting
Setting = namedtuple("Setting", "owner field rule each", defaults=(False,))


def _integer(low):
    return Rule(f"an integer >= {low}",
                lambda v: isinstance(v, Integral) and not isinstance(v, bool) and v >= low)


def _interval(low, high, brackets="[)"):
    """A number in the interval; an open bound at inf means finite, and NaN fails."""
    closed_low, closed_high = brackets[0] == "[", brackets[1] == "]"
    return Rule(f"in {brackets[0]}{low:g}, {high:g}{brackets[1]}",
                lambda v: ((low < v or closed_low and v == low)
                           and (v < high or closed_high and v == high)))


class _OneOf:
    """A kind in a table of calprune.losses, read when checked: losses
    imports this module, so the table does not exist yet at import."""

    def __init__(self, table):
        self.table = table

    def kinds(self):
        from . import losses
        return getattr(losses, self.table)

    @property
    def text(self):
        return "one of " + ", ".join(map(repr, self.kinds()))

    def test(self, value):
        return value in self.kinds()


COUNT, NON_NEGATIVE_INT = _integer(1), _integer(0)
POSITIVE, NON_NEGATIVE = _interval(0, inf, "()"), _interval(0, inf)

SETTINGS = {
    "dataset.classes": Setting("generate_gaussian_mixture", "n_classes", _integer(2)),
    "dataset.train_per_class": Setting("generate_gaussian_mixture", "per_class", COUNT),
    "dataset.test_per_class": Setting("generate_gaussian_mixture", "per_class", COUNT),
    "dataset.noise": Setting("generate_gaussian_mixture", "noise", _interval(0, 0.5)),
    # seeds numpy's SeedSequence, which takes no negative entropy
    "dataset.seed": Setting("build_datasets", "seed", NON_NEGATIVE_INT),
    "dataset.train_fraction": Setting("stratified_split", "train_fraction",
                                      _interval(0, 1, "()")),
    "model.hidden": Setting("model_widths", "hidden", COUNT, each=True),
    "train.max_epochs": Setting("TrainConfig", "max_epochs", COUNT),
    "train.batch_size": Setting("TrainConfig", "batch_size", COUNT),
    "train.learning_rate": Setting("TrainConfig", "learning_rate", POSITIVE),
    "train.lr_milestones": Setting("TrainConfig", "lr_milestones", COUNT, each=True),
    "train.lr_decay_factor": Setting("TrainConfig", "lr_decay_factor", POSITIVE),
    "train.momentum": Setting("TrainConfig", "momentum", _interval(0, 1)),
    "train.weight_decay": Setting("TrainConfig", "weight_decay", NON_NEGATIVE),
    "train.seed": Setting("TrainConfig", "seed", NON_NEGATIVE_INT),
    "loss.kind": Setting("LossSpec", "kind", _OneOf("CLASSIFICATION_LOSSES")),
    "loss.gamma": Setting("LossSpec", "gamma", NON_NEGATIVE),
    "loss.smoothing": Setting("LossSpec", "smoothing", _interval(0, 1)),
    "loss.aux.kind": Setting("AuxSpec", "kind", _OneOf("AUX_LOSSES")),
    "loss.aux.alpha": Setting("AuxSpec", "alpha", POSITIVE),
    "loss.aux.weight": Setting("AuxSpec", "weight", NON_NEGATIVE),
    "prune.percent": Setting("PruneSchedule", "percent", _interval(0, 100, "()")),
    "prune.ema_factor": Setting("PruneSchedule", "ema_factor", _interval(0, 1, "[]")),
    "prune.interval": Setting("build_prune_schedule", "interval", COUNT),
    # a set of epochs has no element order, so it is checked and named whole
    "prune.epochs": Setting("PruneSchedule", "epochs", Rule(
        f"a set of epochs, each {COUNT.text}", lambda v: all(map(COUNT.test, v)))),
    "prune.warmup_epochs": Setting("build_prune_schedule", "warmup_epochs", NON_NEGATIVE_INT),
    "eval.bins": Setting("TrainConfig", "n_bins", COUNT),
    "eval.deltas": Setting("TrainConfig", "eval_deltas", _interval(0, 1, "(]"), each=True),
}


def check(key, value, name=None, error=ValueError):
    """Raise `error` unless `value` passes the rule of config key `key`; the
    message names `name`, by default the field or argument the key feeds."""
    rule = SETTINGS[key].rule
    if not rule.test(value):
        raise error(f"{name or SETTINGS[key].field} must be {rule.text}, got {value!r}")


def check_setting(key, value, name, error=ValueError):
    """check() `value`, or each element of an array setting as `name[i]`."""
    if not SETTINGS[key].each:
        return check(key, value, name, error)
    for i, element in enumerate(value):
        check(key, element, f"{name}[{i}]", error)


def check_fields(obj):
    """check() every field of `obj` that a setting feeds, raising ValueError."""
    for key, setting in SETTINGS.items():
        if setting.owner == type(obj).__name__:
            check_setting(key, getattr(obj, setting.field), setting.field)
