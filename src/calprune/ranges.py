"""Every config key, written once: its default, JSON kind and valid range.

`SETTINGS` maps each config key to its default, the JSON kind it takes (for
an array, `[element kind]`) and, for a constrained setting, one rule: a
predicate with the text that states it. Library constructors and functions
check their own arguments against it and raise ValueError, naming the key's
last part or, where the argument it feeds is named otherwise, its `field`;
`config` builds its defaults from it and checks every key before any data is
built.
"""

import json
from collections import namedtuple
from collections.abc import Iterable
from dataclasses import fields
from importlib import import_module
from math import inf
from numbers import Integral, Real

Rule = namedtuple("Rule", "text test")
# `each`: the rule holds for every element of an array setting, not the whole array;
# `field`: the argument the key feeds, given only where it is not the key's last part
Setting = namedtuple("Setting", "default kind rule each field", defaults=(None, False, None))


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
    """A key of a table in a calprune module, read when checked: that module
    imports this one, so the table does not exist yet at import."""

    def __init__(self, module, table):
        self.module, self.table = module, table

    def kinds(self):
        return getattr(import_module(f"{__package__}.{self.module}"), self.table)

    @property
    def text(self):
        return "one of " + ", ".join(map(json.dumps, self.kinds()))

    def test(self, value):
        return value in self.kinds()


COUNT, NON_NEGATIVE_INT = _integer(1), _integer(0)
POSITIVE, NON_NEGATIVE = _interval(0, inf, "()"), _interval(0, inf)

SETTINGS = {
    "dataset.source": Setting("gaussian_mixture", "string", _OneOf("config", "SOURCES")),
    "dataset.classes": Setting(2, "integer", _integer(2), field="n_classes"),
    "dataset.train_per_class": Setting(500, "integer", COUNT, field="per_class"),
    "dataset.test_per_class": Setting(250, "integer", COUNT, field="per_class"),
    "dataset.noise": Setting(0.0, "number", _interval(0, 0.5)),
    # seeds numpy's SeedSequence, which takes no negative entropy
    "dataset.seed": Setting(0, "integer", NON_NEGATIVE_INT),
    "dataset.train_fraction": Setting(0.9, "number", _interval(0, 1, "()")),
    "dataset.images": Setting(None, "string", field="images_path"),
    "dataset.labels": Setting(None, "string", field="labels_path"),
    "dataset.test_images": Setting(None, "string", field="images_path"),
    "dataset.test_labels": Setting(None, "string", field="labels_path"),
    "dataset.path": Setting(None, "string"),
    "dataset.test_path": Setting(None, "string", field="path"),
    "dataset.label_column": Setting(None, "string"),
    "model.hidden": Setting([64, 64], ["integer"], COUNT, True),
    "train.max_epochs": Setting(60, "integer", COUNT),
    "train.batch_size": Setting(128, "integer", COUNT),
    "train.learning_rate": Setting(0.1, "number", POSITIVE),
    "train.lr_milestones": Setting([80, 120], ["integer"], COUNT, True),
    "train.lr_decay_factor": Setting(0.1, "number", POSITIVE),
    "train.momentum": Setting(0.9, "number", _interval(0, 1)),
    "train.weight_decay": Setting(5e-4, "number", NON_NEGATIVE),
    "train.seed": Setting(1, "integer", NON_NEGATIVE_INT),
    "loss.kind": Setting("flsd", "string", _OneOf("losses", "CLASSIFICATION_LOSSES")),
    "loss.gamma": Setting(3.0, "number", NON_NEGATIVE),
    "loss.smoothing": Setting(0.0, "number", _interval(0, 1)),
    "loss.aux.kind": Setting("huber", "string", _OneOf("losses", "AUX_LOSSES")),
    "loss.aux.alpha": Setting(0.005, "number", POSITIVE),
    "loss.aux.weight": Setting(10.0, "number", NON_NEGATIVE),
    "prune.enabled": Setting(False, "boolean"),
    "prune.percent": Setting(10.0, "number", _interval(0, 100, "()")),
    "prune.ema_factor": Setting(0.3, "number", _interval(0, 1, "[]")),
    "prune.interval": Setting(5, "integer", COUNT),
    # a set of epochs has no element order, so its rule is checked and named whole
    "prune.epochs": Setting(None, ["integer"], Rule(
        f"a set of epochs, each {COUNT.text}", lambda v: all(map(COUNT.test, v)))),
    "prune.warmup_epochs": Setting(None, "integer", NON_NEGATIVE_INT),
    "eval.bins": Setting(10, "integer", COUNT, field="n_bins"),
    "eval.deltas": Setting([0.95, 0.99], ["number"], _interval(0, 1, "(]"), True),
    "output_dir": Setting("runs/out", "string", field="out_dir"),
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


def require_kind(kind, value, name, error=ValueError):
    """Raise `error` naming `name` unless `value` has JSON kind `kind`; an
    integer passes as a number. The message shows `value` only if it is a
    scalar, so that a misplaced array or object of any size is not printed."""
    actual = kind_of(value)
    if actual != kind and (kind, actual) != ("number", "integer"):
        shown = "" if actual in ("null", "array", "object") else " " + _json(value)
        raise error(f"{name} must be of type {kind}, got {actual}{shown}")


def check(key, value, name=None, error=ValueError):
    """Raise `error` unless `value` has the JSON kind of config key `key` and
    passes its rule; for an array setting `value` is one element. The
    message names `name`, by default the field or argument the key feeds."""
    setting = SETTINGS[key]
    name = name or setting.field or key.rpartition(".")[2]
    array = isinstance(setting.kind, list)
    require_kind(setting.kind[0] if array else setting.kind, value, name, error)
    if setting.rule and (setting.each or not array):
        require(setting.rule, value, name, error)


def check_setting(key, value, name=None, error=ValueError):
    """check() `value`, or each element of an array setting as `name[i]`;
    a key whose default is null also takes null."""
    setting = SETTINGS[key]
    name = name or setting.field or key.rpartition(".")[2]
    if value is None and setting.default is None:
        return
    if not isinstance(setting.kind, list):
        return check(key, value, name, error)
    require_kind("array", value, name, error)
    for i, element in enumerate(value):
        check(key, element, f"{name}[{i}]", error)
    if not setting.each:
        require(setting.rule, value, name, error)


def check_fields(obj, section):
    """check_setting() each field of dataclass `obj` whose config key is
    `section.<field>`, raising ValueError."""
    for f in fields(obj):
        key = f"{section}.{f.name}"
        if key in SETTINGS:
            check_setting(key, getattr(obj, f.name))
