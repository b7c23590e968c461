"""Every config key, written once: its default, JSON kind and valid range.

`SETTINGS` maps each config key to its default, the JSON kind it takes (for
an array, `[element kind]`), the dataclass field or function argument it
feeds and, for a constrained setting, one rule: a predicate with the text
that states it. Library constructors and functions check their own arguments
against it and raise ValueError; `config` builds its defaults from it and
checks every key before any data is built.
"""

import json
from collections import namedtuple
from collections.abc import Iterable
from math import inf
from numbers import Integral, Real

Rule = namedtuple("Rule", "text test")
# `each`: the rule holds for every element of an array setting, not the whole array
Setting = namedtuple("Setting", "default kind owner field rule each", defaults=(None, False))


def kind_of(value):
    """The JSON kind of `value`; a boolean is no integer, and any iterable
    but a string or a dict is an array."""
    for kind, types in (("null", type(None)), ("boolean", bool), ("integer", Integral),
                        ("number", Real), ("string", str), ("object", dict),
                        ("array", Iterable)):
        if isinstance(value, types):
            return kind
    return type(value).__name__


def _integer(low):
    return Rule(f"an integer >= {low}", lambda v: kind_of(v) == "integer" and v >= low)


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
        return "one of " + ", ".join(map(json.dumps, self.kinds()))

    def test(self, value):
        return value in self.kinds()


COUNT, NON_NEGATIVE_INT = _integer(1), _integer(0)
POSITIVE, NON_NEGATIVE = _interval(0, inf, "()"), _interval(0, inf)

SETTINGS = {
    "dataset.source": Setting("gaussian_mixture", "string", "build_datasets", "source"),
    "dataset.classes": Setting(2, "integer", "generate_gaussian_mixture", "n_classes",
                               _integer(2)),
    "dataset.train_per_class": Setting(500, "integer", "generate_gaussian_mixture",
                                       "per_class", COUNT),
    "dataset.test_per_class": Setting(250, "integer", "generate_gaussian_mixture",
                                      "per_class", COUNT),
    "dataset.noise": Setting(0.0, "number", "generate_gaussian_mixture", "noise",
                             _interval(0, 0.5)),
    # seeds numpy's SeedSequence, which takes no negative entropy
    "dataset.seed": Setting(0, "integer", "build_datasets", "seed", NON_NEGATIVE_INT),
    "dataset.train_fraction": Setting(0.9, "number", "stratified_split", "train_fraction",
                                      _interval(0, 1, "()")),
    "dataset.images": Setting(None, "string", "load_idx_pair", "images_path"),
    "dataset.labels": Setting(None, "string", "load_idx_pair", "labels_path"),
    "dataset.test_images": Setting(None, "string", "load_idx_pair", "images_path"),
    "dataset.test_labels": Setting(None, "string", "load_idx_pair", "labels_path"),
    "dataset.path": Setting(None, "string", "load_csv", "path"),
    "dataset.test_path": Setting(None, "string", "load_csv", "path"),
    "dataset.label_column": Setting(None, "string", "load_csv", "label_column"),
    "model.hidden": Setting([64, 64], ["integer"], "model_widths", "hidden", COUNT, True),
    "train.max_epochs": Setting(60, "integer", "TrainConfig", "max_epochs", COUNT),
    "train.batch_size": Setting(128, "integer", "TrainConfig", "batch_size", COUNT),
    "train.learning_rate": Setting(0.1, "number", "TrainConfig", "learning_rate", POSITIVE),
    "train.lr_milestones": Setting([80, 120], ["integer"], "TrainConfig", "lr_milestones",
                                   COUNT, True),
    "train.lr_decay_factor": Setting(0.1, "number", "TrainConfig", "lr_decay_factor",
                                     POSITIVE),
    "train.momentum": Setting(0.9, "number", "TrainConfig", "momentum", _interval(0, 1)),
    "train.weight_decay": Setting(5e-4, "number", "TrainConfig", "weight_decay",
                                  NON_NEGATIVE),
    "train.seed": Setting(1, "integer", "TrainConfig", "seed", NON_NEGATIVE_INT),
    "loss.kind": Setting("flsd", "string", "LossSpec", "kind",
                         _OneOf("CLASSIFICATION_LOSSES")),
    "loss.gamma": Setting(3.0, "number", "LossSpec", "gamma", NON_NEGATIVE),
    "loss.smoothing": Setting(0.0, "number", "LossSpec", "smoothing", _interval(0, 1)),
    "loss.aux.kind": Setting("huber", "string", "AuxSpec", "kind", _OneOf("AUX_LOSSES")),
    "loss.aux.alpha": Setting(0.005, "number", "AuxSpec", "alpha", POSITIVE),
    "loss.aux.weight": Setting(10.0, "number", "AuxSpec", "weight", NON_NEGATIVE),
    "prune.enabled": Setting(False, "boolean", "build_prune_schedule", "enabled"),
    "prune.percent": Setting(10.0, "number", "PruneSchedule", "percent",
                             _interval(0, 100, "()")),
    "prune.ema_factor": Setting(0.3, "number", "PruneSchedule", "ema_factor",
                                _interval(0, 1, "[]")),
    "prune.interval": Setting(5, "integer", "build_prune_schedule", "interval", COUNT),
    # a set of epochs has no element order, so its rule is checked and named whole
    "prune.epochs": Setting(None, ["integer"], "PruneSchedule", "epochs", Rule(
        f"a set of epochs, each {COUNT.text}", lambda v: all(map(COUNT.test, v)))),
    "prune.warmup_epochs": Setting(None, "integer", "build_prune_schedule",
                                   "warmup_epochs", NON_NEGATIVE_INT),
    "eval.bins": Setting(10, "integer", "build_report", "n_bins", COUNT),
    "eval.deltas": Setting([0.95, 0.99], ["number"], "build_report", "deltas",
                           _interval(0, 1, "(]"), True),
    "output_dir": Setting("runs/out", "string", "write_bundle", "out_dir"),
}


def _json(value):
    """`value` as JSON text (NaN as `NaN`), or its repr if it is not JSON."""
    try:
        return json.dumps(value)
    except (TypeError, ValueError):
        return repr(value)


def require(rule, value, name, error=ValueError):
    """Raise `error` naming `name` unless `value` passes `rule`."""
    if not rule.test(value):
        raise error(f"{name} must be {rule.text}, got {_json(value)}")


def _require_kind(kind, value, name, error):
    actual = kind_of(value)
    if actual != kind and (kind, actual) != ("number", "integer"):
        shown = "" if actual == "null" else " " + _json(value)
        raise error(f"{name} must be of type {kind}, got {actual}{shown}")


def check(key, value, name=None, error=ValueError):
    """Raise `error` unless `value` has the JSON kind of config key `key` and
    passes its rule; for an array setting `value` is one element. The
    message names `name`, by default the field or argument the key feeds."""
    setting = SETTINGS[key]
    name = name or setting.field
    array = isinstance(setting.kind, list)
    _require_kind(setting.kind[0] if array else setting.kind, value, name, error)
    if setting.rule and (setting.each or not array):
        require(setting.rule, value, name, error)


def check_setting(key, value, name=None, error=ValueError):
    """check() `value`, or each element of an array setting as `name[i]`;
    a key whose default is null also takes null."""
    setting = SETTINGS[key]
    name = name or setting.field
    if value is None and setting.default is None:
        return
    if not isinstance(setting.kind, list):
        return check(key, value, name, error)
    _require_kind("array", value, name, error)
    for i, element in enumerate(value):
        check(key, element, f"{name}[{i}]", error)
    if not setting.each:
        require(setting.rule, value, name, error)


def check_fields(obj):
    """check_setting() every field of `obj` that a setting feeds, raising ValueError."""
    for key, setting in SETTINGS.items():
        if setting.owner == type(obj).__name__:
            check_setting(key, getattr(obj, setting.field))
