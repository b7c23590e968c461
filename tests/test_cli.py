"""Config schema strictness and the four CLI subcommands, run in-process."""

import base64
import importlib.util
import json
import math
import os
import re
import shlex
import shutil
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from calprune import cli, data, mlp, trainer
from calprune import config as config_module
from calprune.autodiff import Graph
from calprune.cli import main
from calprune.config import (ConfigError, DEFAULTS, OUTPUT_DIR_ENV,
                             build_datasets, build_prune_schedule, build_train_config,
                             load_config, model_widths, resolve_config)
from calprune.losses import AUX_LOSSES, CLASSIFICATION_LOSSES, AuxSpec, LossSpec, total_loss
from calprune.mlp import init_mlp, logits_graph, param_bindings, row_blocks
from calprune.ranges import SETTINGS

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
QUICKSTART = ROOT / "demos" / "quickstart_config.json"


def write_config(tmp_path, output_dir, name="config.json", **overrides):
    cfg = {
        "dataset": {"source": "gaussian_mixture", "classes": 2, "train_per_class": 30,
                    "test_per_class": 20, "noise": 0.1, "seed": 3},
        "model": {"hidden": [8]},
        "train": {"max_epochs": 5, "batch_size": 20, "learning_rate": 0.05,
                  "lr_milestones": [3], "seed": 2},
        "prune": {"enabled": True, "percent": 10.0, "interval": 2, "warmup_epochs": 0},
        "output_dir": str(output_dir),
    }
    for key, value in overrides.items():
        cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_defaults_match_reference_hyperparameters():
    assert DEFAULTS["loss"]["aux"]["alpha"] == 0.005
    assert DEFAULTS["loss"]["aux"]["weight"] == 10.0
    assert DEFAULTS["prune"]["ema_factor"] == 0.3
    assert DEFAULTS["prune"]["percent"] == 10.0
    assert DEFAULTS["prune"]["interval"] == 5
    assert DEFAULTS["eval"]["bins"] == 10
    assert DEFAULTS["train"]["learning_rate"] == 0.1
    assert DEFAULTS["train"]["momentum"] == 0.9
    assert DEFAULTS["train"]["weight_decay"] == 5e-4


def test_unknown_key_rejected_with_name():
    with pytest.raises(ConfigError, match="train.lerning_rate"):
        resolve_config({"train": {"lerning_rate": 0.1}})
    with pytest.raises(ConfigError, match="outputs"):
        resolve_config({"outputs": "x"})


def test_resolve_config_refuses_a_root_that_is_not_an_object():
    with pytest.raises(ConfigError, match="^config root must be a JSON object$"):
        resolve_config([1, 2])


def test_source_specific_keys_enforced():
    with pytest.raises(ConfigError, match="dataset.images"):
        resolve_config({"dataset": {"source": "gaussian_mixture", "images": "x"}})
    with pytest.raises(ConfigError, match="dataset.images"):
        resolve_config({"dataset": {"source": "idx_pair"}})


@pytest.mark.parametrize("loss, key, kind", [
    ({"gamma": 7}, "loss.gamma", "flsd"),
    ({"smoothing": 0.3}, "loss.smoothing", "flsd"),
    ({"kind": "focal", "smoothing": 0.3}, "loss.smoothing", "focal"),
    ({"kind": "label_smoothing", "gamma": 2}, "loss.gamma", "label_smoothing"),
    ({"kind": "nll", "smoothing": 0.1, "gamma": 2}, "loss.gamma", "nll"),
    ({"kind": "brier", "gamma": 0}, "loss.gamma", "brier"),
    ({"aux": {"kind": "dca", "alpha": 0.1}}, "loss.aux.alpha", "dca"),
    ({"kind": "focal", "gamma": 2, "aux": {"kind": "mdca", "alpha": 0.1}}, "loss.aux.alpha",
     "mdca"),
])
def test_loss_key_its_kind_does_not_read_is_refused(loss, key, kind):
    message = f'config key {key} does not apply to loss kind "{kind}"'
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        resolve_config({"loss": loss})


def test_loss_keys_are_range_checked_first_and_keep_their_defaults():
    """A range error names the key before the kind is asked whether it reads
    it; keys the kind reads resolve, and the resolved config keeps the default
    of every key the user did not set."""
    with pytest.raises(ConfigError, match=r"^config key loss.gamma must be in \[0, inf\), "
                                          r"got -1$"):
        resolve_config({"loss": {"gamma": -1}})
    with pytest.raises(ConfigError, match=r"^config key loss.aux.alpha must be in \(0, inf\), "
                                          r"got 0$"):
        resolve_config({"loss": {"aux": {"kind": "dca", "alpha": 0}}})
    for loss in ({"kind": "focal", "gamma": 2}, {"kind": "label_smoothing", "smoothing": 0.1},
                 {"aux": {"alpha": 0.1}}, {"aux": {"kind": "dca", "weight": 2.0}},
                 {"kind": "nll", "aux": None}):
        resolved = resolve_config({"loss": loss})["loss"]
        assert resolved["gamma"] == loss.get("gamma", 3.0), loss
        assert resolved["smoothing"] == loss.get("smoothing", 0.0), loss


def test_loss_kinds_take_exactly_the_keys_their_table_entries_name():
    """For every kind and every key that one kind of its table alone takes,
    resolve_config refuses the key exactly when the kind's entry does not name it."""
    assert not set(CLASSIFICATION_LOSSES) & set(AUX_LOSSES)
    for table, section in ((CLASSIFICATION_LOSSES, "loss"), (AUX_LOSSES, "loss.aux")):
        takers = {}
        for kind, (_, names) in table.items():
            for name in names:
                takers.setdefault(name, set()).add(kind)
        alone = [name for name, kinds in takers.items()
                 if len(kinds) == 1 and f"{section}.{name}" in SETTINGS]
        assert alone, section
        for kind, (_, names) in table.items():
            for name in alone:
                chosen = {"kind": kind, name: SETTINGS[f"{section}.{name}"].default}
                user = {"loss": chosen if section == "loss" else {"aux": chosen}}
                if name in names:
                    resolve_config(user)
                    continue
                message = f'config key {section}.{name} does not apply to loss kind "{kind}"'
                with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                    resolve_config(user)


def test_repeated_eval_delta_is_refused_before_any_work(tmp_path, monkeypatch, capsys):
    """Two equal deltas would print one subset metric name twice."""
    def never(*args, **kwargs):
        raise AssertionError("called although the config is invalid")

    monkeypatch.setattr(cli, "build_datasets", never)
    path = write_config(tmp_path, tmp_path / "out")
    assert main(["train", "--config", str(path), "--set", "eval.deltas=[0.95, 0.95]"]) == 2
    assert capsys.readouterr().err == "config error: config key eval.deltas[1] repeats 0.95\n"
    with pytest.raises(ConfigError, match=r"^config key eval.deltas\[2\] repeats 1.0$"):
        resolve_config({"eval": {"deltas": [1, 0.9, 1.0]}})
    assert resolve_config({"eval": {"deltas": [0.9, 0.95]}})["eval"]["deltas"] == [0.9, 0.95]
    assert not (tmp_path / "out").exists()


def test_resolved_dataset_section_holds_only_what_the_source_reads():
    """run.json records the resolved config, so a file source resolves the
    generator's keys to null, as the generator leaves the file keys null."""
    files = {"idx_pair": {"images": "a", "labels": "b", "test_images": "c", "test_labels": "d"},
             "csv": {"path": "a.csv", "test_path": "b.csv", "label_column": "y"}}
    idx, csv, csv_3 = (resolve_config({"dataset": {"source": source, **files[source], **extra}})
                       ["dataset"] for source, extra in (("idx_pair", {}), ("csv", {}),
                                                          ("csv", {"classes": 3})))
    generated = resolve_config({})["dataset"]
    for key in ("classes", "train_per_class", "test_per_class", "noise"):
        assert idx[key] is None and csv[key] is None, key
        assert generated[key] == DEFAULTS["dataset"][key], key
    assert csv_3["classes"] == 3 and csv_3["noise"] is None
    assert idx["images"] == "a" and idx["path"] is None and csv["images"] is None
    assert generated["path"] is None and generated["images"] is None


def test_config_value_types_checked(tmp_path, capsys):
    path = write_config(tmp_path, tmp_path / "out")
    assert main(["train", "--config", str(path), "--set", "train.batch_size=abc"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "train.batch_size" in err
    for bad in ({"train": {"max_epochs": 2.5}}, {"prune": {"enabled": 1}},
                {"eval": {"deltas": 0.95}}, {"model": {"hidden": None}}):
        with pytest.raises(ConfigError, match="must be of type"):
            resolve_config(bad)
    # an integer stands in for a number; a null-default key takes its declared type
    cfg = resolve_config({"train": {"learning_rate": 1}, "loss": {"aux": None},
                          "prune": {"epochs": [3, 6]}})
    assert cfg["train"]["learning_rate"] == 1 and cfg["loss"]["aux"] is None


@pytest.mark.parametrize("assignment, key, element", [
    ('train.lr_milestones=["a"]', "train.lr_milestones[0]", 'string "a"'),
    ("train.lr_milestones=[null]", "train.lr_milestones[0]", "null"),
    ('eval.deltas=["a"]', "eval.deltas[0]", 'string "a"'),
    ("eval.deltas=[true]", "eval.deltas[0]", "boolean true"),
    ("prune.epochs=5", "prune.epochs", "integer 5"),
    ('prune.epochs=["x"]', "prune.epochs[0]", 'string "x"'),
    ("prune.epochs=[2.5]", "prune.epochs[0]", "number 2.5"),
    ("prune.epochs=[true]", "prune.epochs[0]", "boolean true"),
    ('prune.warmup_epochs="x"', "prune.warmup_epochs", 'string "x"'),
    ("prune.warmup_epochs=2.5", "prune.warmup_epochs", "number 2.5"),
    ('model.hidden=["x"]', "model.hidden[0]", 'string "x"'),
    ("model.hidden=[2.5]", "model.hidden[0]", "number 2.5"),
    ("dataset.images=5", "dataset.images", "integer 5"),
])
def test_config_array_elements_and_null_defaults_typed(tmp_path, capsys, assignment, key,
                                                       element):
    path = write_config(tmp_path, tmp_path / "out")
    assert main(["train", "--config", str(path), "--set", assignment]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config key {key} must be of type")
    assert err.endswith(f"got {element}\n") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, code", [
    ("dataset", 2), ("train", 2), ("model", 2), ("eval", 2), ("loss", 2),
    ("prune", 2), ("loss.aux", 0)])
def test_null_section_rejected_unless_optional(tmp_path, capsys, section, code):
    """Only the optional section loss.aux may be switched off with null;
    pruning is switched off by prune.enabled alone."""
    path = write_config(tmp_path, tmp_path / "out")
    assert main(["train", "--config", str(path), "--set", f"{section}=null"]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert err.startswith(f"config error: config key {section} must be an object")
        assert not (tmp_path / "out").exists()
    else:
        assert (tmp_path / "out" / "checkpoint.json").exists()


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
@pytest.mark.parametrize("key, name", [
    ("train.learning_rate", "learning_rate"), ("train.weight_decay", "weight_decay"),
    ("train.lr_decay_factor", "lr_decay_factor"), ("loss.gamma", "gamma"),
    ("loss.aux.alpha", "huber alpha"), ("loss.aux.weight", "aux weight")])
def test_non_finite_float_settings_rejected(tmp_path, capsys, key, name, value):
    """Each case exits 2 naming its config key; `name` only labels the case."""
    path = write_config(tmp_path, tmp_path / "out")
    assert main(["train", "--config", str(path), "--set", f"{key}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config key {key} must ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_env_var_and_override_precedence(tmp_path, monkeypatch):
    path = write_config(tmp_path, tmp_path / "from_file")
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "from_env"))
    cfg = load_config(path)
    assert cfg["output_dir"] == str(tmp_path / "from_env")
    cfg = load_config(path, overrides=[f"output_dir={tmp_path / 'from_flag'}"])
    assert cfg["output_dir"] == str(tmp_path / "from_flag")


@pytest.mark.parametrize("how", ["env", "set"])
def test_config_root_not_an_object(tmp_path, monkeypatch, capsys, how):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    argv = ["train", "--config", str(path)]
    if how == "env":
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "out"))
    else:
        argv += ["--set", "train.max_epochs=2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "config error: config root must be a JSON object\n"


@pytest.mark.parametrize("text", [b'{"train": ', b'{"output_dir": "\xff"}'],
                         ids=["truncated", "not_utf8"])
def test_unreadable_config_names_its_path(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: invalid JSON: ") and "Traceback" not in err


@pytest.mark.parametrize("repeat, key", [
    ('"train": {"max_epochs": 2}, "train": {', '"train"'),
    ('"train": {"max_epochs": 2, ', '"max_epochs"'),
    ('"a\\"b\u00e9": 1, "a\\"b\u00e9": 2, "train": {', '"a\\"b\\u00e9"')],
    ids=["top_level", "nested", "escaped"])
def test_repeated_config_key_exits_2_naming_it(tmp_path, capsys, repeat, key):
    """A repeated key would silently drop the first value (or section). The
    key is printed as JSON, escapes and all."""
    out = tmp_path / "out"
    path = write_config(tmp_path, out)
    path.write_text(path.read_text().replace('"train": {', repeat, 1))
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ") and f"repeated key {key}" in err
    assert not out.exists()


def test_prune_schedule_resolution():
    def schedule(prune, train=None):
        cfg = resolve_config({"prune": {"enabled": True, **prune}, "train": train or {}})
        return build_prune_schedule(cfg)

    def epochs(prune, train=None):
        return schedule(prune, train).epochs

    # every interval-th epoch from the warmup on, below max_epochs: a prune at
    # max_epochs would follow the last update
    assert epochs({"interval": 5, "warmup_epochs": 20}) == frozenset(range(20, 60, 5))
    assert epochs({"interval": 5, "warmup_epochs": 0}, {"max_epochs": 12}) == {5, 10}
    # explicit epochs win over the interval and still sit behind the warmup gate
    assert epochs({"epochs": [5, 25], "warmup_epochs": 20}) == {25}
    assert epochs({"epochs": [7, 11], "warmup_epochs": 0}) == {7, 11}
    # the warmup defaults to the first LR milestone
    assert epochs({}, {"lr_milestones": [45, 30]}) == frozenset(range(30, 60, 5))
    assert epochs({}, {"lr_milestones": []}) == frozenset(range(5, 60, 5))
    assert build_prune_schedule(resolve_config({})) is None
    # no epoch left is no schedule, not an empty one: such a run scores no rows
    assert schedule({"warmup_epochs": 13}, {"max_epochs": 12}) is None
    assert schedule({"warmup_epochs": 12, "interval": 5}, {"max_epochs": 12}) is None
    assert schedule({"warmup_epochs": 10, "interval": 5}, {"max_epochs": 10}) is None
    assert schedule({"epochs": [12], "warmup_epochs": 0}, {"max_epochs": 12}) is None
    assert schedule({"epochs": [], "warmup_epochs": 0}) is None
    assert schedule({"epochs": [13], "warmup_epochs": 0}, {"max_epochs": 12}) is None


def test_quickstart_run_that_never_prunes_does_not_warn(tmp_path, capsys):
    """3 epochs end before the quickstart's warmup of 20, so batches of 16
    (< 10 * 4 classes) draw no pruning warning; pytest makes a warning an error."""
    out = tmp_path / "short"
    assert main(["train", "--config", str(QUICKSTART), "--set", "train.max_epochs=3",
                 "--set", "train.batch_size=16", "--set", f"output_dir={out}"]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((out / "run.json").read_text())["prune_events"] == []


@pytest.mark.parametrize("assignments, key", [
    (["prune.interval=0"], "prune.interval"),
    (["prune.warmup_epochs=-1"], "prune.warmup_epochs"),
    (["prune.epochs=[0]"], "prune.epochs[0]"),
    (["prune.epochs=[0, 4]", "prune.warmup_epochs=3"], "prune.epochs[0]"),
    (["prune.epochs=[4, 0]"], "prune.epochs[1]"),
])
def test_bad_prune_schedule_names_its_key(tmp_path, capsys, assignments, key):
    path = write_config(tmp_path, tmp_path / "out")
    argv = ["train", "--config", str(path)]
    for assignment in assignments:
        argv += ["--set", assignment]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config key {key} must ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# Each constrained numeric setting's range, stated here apart from
# calprune.ranges: "int" marks an integer; an open bound at inf means finite.
BOUNDS = {
    "dataset.classes": "int [2, inf)", "dataset.train_per_class": "int [1, inf)",
    "dataset.test_per_class": "int [1, inf)", "dataset.noise": "[0, 0.5)",
    "dataset.seed": "int [0, inf)", "dataset.train_fraction": "(0, 1)",
    "model.hidden": "int [1, inf)",
    "train.max_epochs": "int [1, 100000]", "train.batch_size": "int [1, inf)",
    "train.learning_rate": "(0, inf)", "train.lr_milestones": "int [1, inf)",
    "train.lr_decay_factor": "(0, inf)", "train.momentum": "[0, 1)",
    "train.weight_decay": "[0, inf)", "train.seed": "int [0, inf)",
    "loss.gamma": "[0, inf)", "loss.smoothing": "[0, 1)",
    "loss.aux.alpha": "(0, inf)", "loss.aux.weight": "[0, inf)",
    "prune.percent": "(0, 100)", "prune.ema_factor": "[0, 1]",
    "prune.interval": "int [1, inf)", "prune.epochs": "int [1, inf)",
    "prune.warmup_epochs": "int [0, inf)",
    "eval.bins": "int [1, 1000]", "eval.deltas": "(0, 1]",
}
# stand-ins for the null-default numeric keys, which DEFAULTS leaves null
NULL_DEFAULT_VALUES = {"prune.epochs": [5, 10], "prune.warmup_epochs": 0}
# the loss kind that reads each key only some kinds read, set beside it to resolve it
READING_KIND = {"loss.gamma": "focal", "loss.smoothing": "label_smoothing"}


def _numeric_settings(node=DEFAULTS, prefix=""):
    """(key, element index or None) for every numeric leaf and array element."""
    found = []
    for name, value in node.items():
        key = prefix + name
        value = NULL_DEFAULT_VALUES.get(key, value)
        if isinstance(value, dict):
            found += _numeric_settings(value, key + ".")
        elif isinstance(value, list):
            found += [(key, i) for i in range(len(value))]
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            found.append((key, None))
    return found


NUMERIC_SETTINGS = _numeric_settings()


def _parse_bounds(text):
    integer, low_bracket, low, high, high_bracket = re.fullmatch(
        r"(int )?([\[(])(\S+), (\S+)([\])])", text).groups()
    return bool(integer), float(low), low_bracket == "[", float(high), high_bracket == "]"


def _in_bounds(text, value):
    integer, low, low_closed, high, high_closed = _parse_bounds(text)
    if integer and not isinstance(value, int):
        return False
    return ((low < value or (low_closed and low == value))
            and (value < high or (high_closed and value == high)))


def _edge_values(text):
    """Each finite end of the bounds and its nearest neighbours on both sides."""
    integer, low, _, high, _ = _parse_bounds(text)
    if integer:  # integer settings have closed ends
        return [int(end) + step for end in (low, high) if math.isfinite(end)
                for step in (-1, 0, 1)]
    return [v for end in (low, high) if math.isfinite(end)
            for v in (math.nextafter(end, -math.inf), end, math.nextafter(end, math.inf))]


def _with_value(key, index, value):
    """The value of `key` with `value` in place (at `index` of its array)."""
    if index is None:
        return value
    node = DEFAULTS
    for part in key.split("."):
        node = node[part]
    array = list(NULL_DEFAULT_VALUES.get(key, node))
    array[index] = value
    return array


def _nested(key, value):
    for part in reversed(key.split(".")):
        value = {part: value}
    return value


def test_every_setting_is_walked():
    walked = {key for key, _ in NUMERIC_SETTINGS}
    assert walked == set(BOUNDS)
    kinds = {"dataset.source", "loss.kind", "loss.aux.kind"}
    assert walked | kinds == {key for key, setting in SETTINGS.items() if setting.rule}
    assert sorted(key for key, _ in _leaves()) == sorted(SETTINGS)  # one entry per leaf


@pytest.mark.parametrize("key, index", NUMERIC_SETTINGS,
                         ids=[key if i is None else f"{key}[{i}]" for key, i in NUMERIC_SETTINGS])
def test_out_of_range_setting_exits_2_naming_its_key(tmp_path, monkeypatch, capsys, key,
                                                     index):
    """Of 0, -1, NaN, Infinity, 1e308, 2.5 and the values at each end of the
    setting's bounds, each value outside the bounds makes train exit 2 naming
    the key (and element) before any data is built, and every other value
    resolves. Pruning is off, so the prune keys are checked although unused."""
    def never(*args, **kwargs):
        raise AssertionError("called although the config is invalid")

    monkeypatch.setattr(cli, "build_datasets", never)
    path = write_config(tmp_path, tmp_path / "out", prune={"enabled": False})
    element = "" if index is None else rf"\[{index}\]"
    for value in (0, -1, math.nan, math.inf, 1e308, 2.5, *_edge_values(BOUNDS[key])):
        setting = _with_value(key, index, value)
        if _in_bounds(BOUNDS[key], value):
            user = _nested(key, setting)
            if key in READING_KIND:
                user["loss"]["kind"] = READING_KIND[key]
            resolve_config(user)
            continue
        code = main(["train", "--config", str(path), "--set", f"{key}={json.dumps(setting)}"])
        err = capsys.readouterr().err
        assert code == 2, (value, err)
        assert re.match(rf"config error: config key {re.escape(key)}{element} must ", err), err
        assert "Traceback" not in err and not (tmp_path / "out").exists()


# The JSON kind each DEFAULTS leaf takes, read from its default and stated here
# for the null-default keys; `[kind]` is an array of that element kind.
NULL_DEFAULT_KINDS = {"prune.epochs": ["integer"], "prune.warmup_epochs": "integer", **{
    f"dataset.{key}": "string" for key in ("images", "labels", "test_images", "test_labels",
                                           "path", "test_path", "label_column")}}
KIND_VALUES = {"string": "x", "boolean": True, "integer": 3, "number": 2.5, "array": [],
               "object": {}, "null": None}


def _leaves(node=DEFAULTS, prefix=""):
    for name, value in node.items():
        if isinstance(value, dict):
            yield from _leaves(value, prefix + name + ".")
        else:
            yield prefix + name, value


def _default_kind(key, default):
    if default is None:
        return NULL_DEFAULT_KINDS[key]
    if isinstance(default, list):
        return [_default_kind(key, default[0])]
    return {bool: "boolean", int: "integer", float: "number", str: "string"}[type(default)]


def _element_indices(key, default):
    array = NULL_DEFAULT_VALUES.get(key, default)
    return range(len(array)) if isinstance(array, list) else []


TYPED_LEAVES = [(key, index) for key, default in _leaves()
                for index in [None, *_element_indices(key, default)]]


@pytest.mark.parametrize("key, index", TYPED_LEAVES,
                         ids=[key if i is None else f"{key}[{i}]" for key, i in TYPED_LEAVES])
def test_wrong_json_kind_exits_2_naming_its_key(tmp_path, monkeypatch, capsys, key, index):
    """Each JSON kind a leaf (or array element) does not take makes train exit 2
    naming the key (and element) before any data is built. An integer stands
    in for a number; null is taken only by a key whose default is null."""
    def never(*args, **kwargs):
        raise AssertionError("called although the config is invalid")

    monkeypatch.setattr(cli, "build_datasets", never)
    path = write_config(tmp_path, tmp_path / "out")
    default = dict(_leaves())[key]
    kind = _default_kind(key, default)
    name = key
    if index is not None:
        kind, name = kind[0], f"{key}[{index}]"
    taken = {"array" if isinstance(kind, list) else kind}
    taken |= {"integer"} if "number" in taken else set()
    taken |= {"null"} if default is None and index is None else set()
    for rejected in sorted(set(KIND_VALUES) - taken):
        value = KIND_VALUES[rejected]
        if index is not None:
            value = _with_value(key, index, value)
        code = main(["train", "--config", str(path), "--set", f"{key}={json.dumps(value)}"])
        err = capsys.readouterr().err
        assert code == 2, (rejected, err)
        assert err.startswith(f"config error: config key {name} must be of type "), err
        assert "Traceback" not in err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["loss.kind", "loss.aux.kind"])
def test_unknown_loss_kind_exits_2_naming_its_key(tmp_path, capsys, key):
    path = write_config(tmp_path, tmp_path / "out")
    assert main(["train", "--config", str(path), "--set", f"{key}=foo"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config key {key} must be one of ")
    assert err.endswith('got "foo"\n') and not (tmp_path / "out").exists()


def test_unknown_dataset_source_exits_2_before_any_data(tmp_path, monkeypatch, capsys):
    """dataset.source is checked like every other key, and the source-specific
    key errors print the source as JSON."""
    def never(*args, **kwargs):
        raise AssertionError("called although the config is invalid")

    monkeypatch.setattr(cli, "build_datasets", never)
    out = f"output_dir={tmp_path / 'out'}"
    path = write_config(tmp_path, tmp_path / "out")
    assert main(["train", "--config", str(path), "--set", "dataset.source=x"]) == 2
    assert capsys.readouterr().err == (
        'config error: config key dataset.source must be one of "gaussian_mixture", '
        '"idx_pair", "csv", got "x"\n')
    argv = ["train", "--config", str(QUICKSTART), "--set", out, "--set", "dataset.path=a.csv"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        'config error: config key dataset.path does not apply to source "gaussian_mixture"\n')
    with pytest.raises(ConfigError, match='^dataset source "idx_pair" requires config key '
                                          'dataset.images$'):
        resolve_config({"dataset": {"source": "idx_pair"}})
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 7.28 TiB for an array with shape (10, 10**11)"),
     "error: Unable to allocate 7.28 TiB for an array with shape (10, 10**11)\n"),
    (MemoryError(), "error: out of memory\n"),
    (OverflowError("cannot fit 'int' into an index-sized integer"),
     "error: cannot fit 'int' into an index-sized integer\n"),
], ids=["numpy_memory_error", "bare_memory_error", "overflow"])
def test_out_of_memory_and_overflow_exit_1_on_one_line(tmp_path, monkeypatch, capsys, error,
                                                       line):
    """A size too large to allocate or to index ends in one `error:` line."""
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "build_datasets", fail)
    path = write_config(tmp_path, tmp_path / "out")
    assert main(["train", "--config", str(path)]) == 1
    assert capsys.readouterr().err == line


def test_config_keys_print_as_json_on_one_line(tmp_path, capsys):
    """A key holding a newline is named on one stderr line, as JSON."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"train": {"max\nepochs": 2}, "output_dir": "out"}))
    assert main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err == 'config error: unknown config key: "train.max\\nepochs"\n'
    for assignment, message in [("a\nb", 'override "a\\nb" is not of the form key.path=value'),
                                ("output_dir.x\ny=1",
                                 'override "output_dir.x\\ny" descends through a non-object'),
                                # a --set value follows the config file's JSON rules
                                ('train={"max_epochs": 2, "max_epochs": 3}',
                                 'override "train": invalid JSON: repeated key "max_epochs"')]:
        assert main(["train", "--config", str(path), "--set", assignment]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


def test_readme_states_every_setting_range():
    """README's "Config file" defaults block is DEFAULTS with comments, and
    each key in ranges.SETTINGS has its own line whose comment states its rule."""
    section = (ROOT / "README.md").read_text().split("## Config file\n", 1)[1]
    block = section.split("```jsonc\n", 1)[1].split("```", 1)[0]
    assert json.loads(re.sub(r"//.*", "", block)) == DEFAULTS
    comments, sections = {}, []
    for line in block.splitlines():
        code, _, comment = line.partition("//")
        opened = re.match(r'\s*"(\w+)": (\{)?', code)
        if opened:
            comments[".".join([*sections, opened.group(1)])] = comment
            if opened.group(2) and "}" not in code:
                sections.append(opened.group(1))
        elif code.strip().startswith("}") and sections:
            sections.pop()
    for key, setting in SETTINGS.items():
        if setting.rule:
            assert setting.rule.text in comments.get(key, ""), key


def test_readme_config_errors_are_raised():
    """Each `--set <value>` example in README's "Config file" section, on the
    quickstart config, raises the ConfigError whose message README quotes."""
    section = (ROOT / "README.md").read_text().split("## Config file\n", 1)[1]
    text = " ".join(section.split("\n## ", 1)[0].split())
    examples = re.findall(r"`--set ([^`]+)`(?: on the quickstart config)? gives "
                          r"`(?:config error: |\.\.\. )?([^`]+)`", text)
    assert len(examples) == 11, examples
    for assignment, message in examples:
        with pytest.raises(ConfigError) as caught:
            load_config(ROOT / "demos" / "quickstart_config.json",
                        overrides=shlex.split(assignment), env={})
        assert str(caught.value).endswith(message), (assignment, str(caught.value))


def test_train_smoke_writes_bundle(tmp_path, capsys):
    out = tmp_path / "run1"
    path = write_config(tmp_path, out)
    assert main(["train", "--config", str(path)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["checkpoint.json", "confidence_histogram.csv",
                     "confidence_histogram.svg", "manifest.json",
                     "reliability.csv", "reliability.svg", "run.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["files"]) == [
        "confidence_histogram.csv", "confidence_histogram.svg",
        "reliability.csv", "reliability.svg", "run.json"]
    stdout = capsys.readouterr().out
    for key in ("ece ", "ece_s0.95 ", "frac_s0.95_pct ", "test_error_pct ",
                "auroc ", "sample_updates ", "sample_updates_full "):
        assert any(line.startswith(key) for line in stdout.splitlines()), key
    doc = json.loads((out / "run.json").read_text())
    assert doc["schema_version"] == 2
    assert sorted(doc["epochs"][0]) == ["epoch", "surviving", "train_loss"]
    assert len(doc["epochs"]) == 5
    assert doc["prune_events"]


def test_override_flag_beats_file(tmp_path):
    out = tmp_path / "run2"
    path = write_config(tmp_path, out)
    code = main(["train", "--config", str(path), "--set", "loss.aux.weight=3.5",
                 "--set", "train.max_epochs=2"])
    assert code == 0
    doc = json.loads((out / "run.json").read_text())
    assert doc["config"]["loss"]["aux"]["weight"] == 3.5
    assert len(doc["epochs"]) == 2


def test_unknown_config_key_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"trian": {}}))
    assert main(["train", "--config", str(path)]) == 2
    assert "trian" in capsys.readouterr().err


def test_existing_output_dir_fails(tmp_path):
    out = tmp_path / "run3"
    out.mkdir()
    path = write_config(tmp_path, out)
    assert main(["train", "--config", str(path)]) == 1


@pytest.fixture()
def trained(tmp_path):
    out = tmp_path / "trained"
    path = write_config(tmp_path, out)
    assert main(["train", "--config", str(path)]) == 0
    return path, out


def test_existing_output_dir_fails_before_any_work(trained, tmp_path, monkeypatch, capsys):
    """train, evaluate and report refuse an existing output directory before
    they build data, train or evaluate anything."""
    config_path, out = trained

    def never(*args, **kwargs):
        raise AssertionError("called although the output directory exists")

    for name in ("build_datasets", "train_with_pruning", "evaluate_model"):
        monkeypatch.setattr(cli, name, never)
    existing = tmp_path / "existing"
    existing.mkdir()
    for argv in (["train", "--config", str(config_path), "--set", f"output_dir={existing}"],
                 ["evaluate", "--config", str(config_path),
                  "--checkpoint", str(out / "checkpoint.json"), "--out", str(existing)],
                 ["report", "--run", str(out / "run.json"), "--out", str(existing)]):
        assert main(argv) == 1, argv[0]
        assert capsys.readouterr().err == f"error: output directory {existing} already exists\n"
    assert not any(existing.iterdir())


def test_bad_output_paths_fail_before_any_work(trained, tmp_path, monkeypatch, capsys):
    """train and evaluate refuse an output directory whose `.partial` staging
    path exists (a directory or a file) or that lies under a file, on one line
    naming both paths, before they build data; the user's files survive."""
    config_path, out = trained

    def never(*args, **kwargs):
        raise AssertionError("called although the output path is bad")

    monkeypatch.setattr(cli, "build_datasets", never)
    (tmp_path / "x.partial").mkdir()
    (tmp_path / "x.partial" / "mine.txt").write_text("mine")
    (tmp_path / "f.partial").write_text("mine")
    (tmp_path / "afile").write_text("mine")
    before = sorted(map(str, tmp_path.rglob("*")))
    reasons = {tmp_path / "x": f"{tmp_path / 'x.partial'} already exists",
               tmp_path / "f": f"{tmp_path / 'f.partial'} already exists",
               tmp_path / "afile" / "sub": f"{tmp_path / 'afile'} is not a directory"}
    for target, reason in reasons.items():
        for argv in (["train", "--config", str(config_path), "--set", f"output_dir={target}"],
                     ["evaluate", "--config", str(config_path),
                      "--checkpoint", str(out / "checkpoint.json"), "--out", str(target)]):
            assert main(argv) == 1, (argv[0], target)
            assert capsys.readouterr().err == f"error: output directory {target}: {reason}\n"
    assert sorted(map(str, tmp_path.rglob("*"))) == before
    assert (tmp_path / "x.partial" / "mine.txt").read_text() == "mine"
    assert (tmp_path / "f.partial").read_text() == "mine"
    assert (tmp_path / "afile").read_text() == "mine"


def test_subset_metric_names_tell_close_deltas_apart(trained, tmp_path, capsys):
    """A subset's metric names carry the repr of its delta, so two deltas that
    both read 1 at six significant digits print distinct names."""
    config_path, out = trained
    capsys.readouterr()
    assert main(["evaluate", "--config", str(config_path), "--checkpoint",
                 str(out / "checkpoint.json"), "--out", str(tmp_path / "eval"),
                 "--set", "eval.deltas=[0.9999999, 0.99999999]"]) == 0
    names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert names == ["ece", "ece_s0.9999999", "frac_s0.9999999_pct", "ece_s0.99999999",
                     "frac_s0.99999999_pct", "test_error_pct", "auroc"]


def test_library_warnings_print_as_one_line_each(tmp_path):
    """Under `python -W default`, the CLI prints each library warning as one
    `warning: <text>` line, with no source path or code line; in process,
    main leaves warnings.formatwarning as it found it."""
    path = write_config(tmp_path, tmp_path / "out")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "default", "-m", "calprune", "train",
                           "--config", str(path), "--set", "train.batch_size=16",
                           "--set", "prune.ema_factor=0"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ("warning: batch size 16 < 10*K=20: minibatches may not represent "
                           "every class while pruning\n"
                           "warning: ema factor 0 keeps all scores frozen forever\n")
    assert ".py:" not in proc.stderr
    formatwarning = warnings.formatwarning
    assert main(["report", "--run", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "report")]) == 1
    assert warnings.formatwarning is formatwarning


@pytest.mark.parametrize("assignment, key", [
    ("eval.bins=0", "eval.bins"),
    ("eval.bins=-3", "eval.bins"),
    ("eval.deltas=[2]", "eval.deltas[0]"),
    ("eval.deltas=[0.9, 0]", "eval.deltas[1]"),
    ("eval.deltas=[NaN]", "eval.deltas[0]"),
])
def test_bad_eval_settings_name_their_key_before_any_work(trained, tmp_path, monkeypatch,
                                                          capsys, assignment, key):
    """train, evaluate and calibrate reject an out-of-range eval.bins or
    eval.deltas entry at config load, before any data is built."""
    config_path, out = trained

    def never(*args, **kwargs):
        raise AssertionError("called although the config is invalid")

    monkeypatch.setattr(cli, "build_datasets", never)
    checkpoint = ["--checkpoint", str(out / "checkpoint.json")]
    common = ["--config", str(config_path), "--set", assignment]
    runs = [["train", *common, "--set", f"output_dir={tmp_path / 'run'}"],
            ["evaluate", *common, *checkpoint, "--out", str(tmp_path / "eval")],
            ["calibrate", *common, *checkpoint]]
    for argv in runs:
        assert main(argv) == 2, argv[0]
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: config key {key} must "), argv[0]
        assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "run").exists() and not (tmp_path / "eval").exists()


def test_evaluate_reproduces_training_report(trained, tmp_path):
    config_path, out = trained
    eval_out = tmp_path / "eval"
    code = main(["evaluate", "--config", str(config_path),
                 "--checkpoint", str(out / "checkpoint.json"),
                 "--out", str(eval_out)])
    assert code == 0
    run_doc = json.loads((out / "run.json").read_text())
    eval_doc = json.loads((eval_out / "report.json").read_text())
    assert eval_doc == run_doc["report"]


def test_evaluate_rejects_mismatched_features(trained, tmp_path, capsys):
    config_path, out = trained
    checkpoint = out / "checkpoint.json"
    code = main(["evaluate", "--config", str(config_path), "--checkpoint", str(checkpoint),
                 "--out", str(tmp_path / "bad_eval"),
                 "--set", "dataset.classes=3"])
    assert code == 1
    assert capsys.readouterr().err == ("error: gaussian_mixture test set: dataset declares 3 "
                                       f"classes, checkpoint {checkpoint} predicts 2\n")


def test_evaluate_empty_delta_list(trained, tmp_path):
    config_path, out = trained
    eval_out = tmp_path / "eval_nodeltas"
    code = main(["evaluate", "--config", str(config_path),
                 "--checkpoint", str(out / "checkpoint.json"),
                 "--out", str(eval_out), "--set", "eval.deltas=[]"])
    assert code == 0
    doc = json.loads((eval_out / "report.json").read_text())
    assert doc["subsets"] == []


def test_calibrate_prints_temperature(trained, capsys):
    config_path, out = trained
    code = main(["calibrate", "--config", str(config_path),
                 "--checkpoint", str(out / "checkpoint.json")])
    assert code == 0
    lines = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    assert float(lines["temperature"]) > 0
    assert "ece_before" in lines and "ece_after" in lines


def test_calibrate_forwards_each_split_once(trained, monkeypatch, capsys):
    """calibrate forwards the val rows once (temperature fit) and the test rows
    once (both ECEs), block by block, so a test set of 16384 rows or more is
    forwarded in row_blocks whose sizes sum to its length; its ece_before
    equals evaluate's ece."""
    config_path, out = trained
    forward = trainer.forward_logits
    forwarded = []

    def counting_forward(params, batch):
        forwarded.append(batch.shape[0])
        return forward(params, batch)

    monkeypatch.setattr(trainer, "forward_logits", counting_forward)
    for name, sets in (("small", []), ("large", ["--set", "dataset.test_per_class=20000"])):
        forwarded.clear()
        common = ["--config", str(config_path), "--checkpoint",
                  str(out / "checkpoint.json"), *sets]
        assert main(["calibrate", *common]) == 0
        calibrated = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
        _, val, test = build_datasets(load_config(config_path, overrides=sets[1::2], env={}))
        assert forwarded[0] == len(val)
        assert sum(forwarded[1:]) == len(test)
        assert forwarded[1:] == [rows.stop - rows.start for rows in row_blocks(len(test))]
        assert (len(forwarded) > 2) == (len(test) >= 16384) == (name == "large")
        assert main(["evaluate", *common, "--out", str(out.parent / f"eval_{name}")]) == 0
        evaluated = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
        assert calibrated["ece_before"] == evaluated["ece"]


def test_report_regenerates_artifacts(trained, tmp_path):
    config_path, out = trained
    report_out = tmp_path / "regen"
    code = main(["report", "--run", str(out / "run.json"), "--out", str(report_out)])
    assert code == 0
    for name in ("reliability.csv", "confidence_histogram.csv",
                 "reliability.svg", "confidence_histogram.svg"):
        assert (report_out / name).read_text() == (out / name).read_text()
    report_doc = json.loads((report_out / "report.json").read_text())
    assert report_doc == json.loads((out / "run.json").read_text())["report"]


DROP = object()  # marks a key deleted from run.json rather than given a value


class Merge(dict):
    """Fields merged into the run.json record at a key path, rather than one value."""


@pytest.mark.parametrize("path, value, key", [
    (("report",), DROP, 'run document lacks key "report"'),
    (("report", "subsets"), DROP, 'report lacks key "subsets"'),
    (("report", "bins", 0, "count"), DROP, 'report field bins[0] lacks key "count"'),
    (("report", "n"), DROP, 'report lacks key "n"\n'),
    (None, None, "run document must be of type object, got array\n"),
    (("report",), [1], "report must be of type object, got array\n"),
    (("report", "subsets"), 5, "report field subsets must be of type array, got integer 5\n"),
    (("report", "bins"), {"0": {}}, "report field bins must be of type array, got object\n"),
    (("report", "bins", 0), 1, "report field bins[0] must be of type object, got integer 1\n"),
    (("report", "bins", 0), [0, 0.1], "report field bins[0] must be of type object, got array\n"),
    (("report", "subsets", 1), "x",
     'report field subsets[1] must be of type object, got string "x"\n'),
    ("truncated", None, "invalid JSON"),
    (("report", "bins", 0, "count"), "x", "bins[0].count must be an integer"),
    (("report", "bins", 0, "count"), None, "bins[0].count must be an integer"),
    (("report", "bins", 0, "count"), True, "bins[0].count must be an integer"),
    (("report", "bins", 0, "lower"), "a", "bins[0].lower must be a number"),
    (("report", "bins", 9, "confidence"), "z", "bins[9].confidence must be a number or null"),
    (("report", "bins", 9, "accuracy"), [1], "bins[9].accuracy must be a number or null"),
    (("report", "n"), "x", "report field n must be an integer"),
    (("report", "n_bins"), 10.0, "report field n_bins must be an integer"),
    (("report", "ece"), False, "report field ece must be a number or null"),
    (("report", "auroc"), "0.5", "report field auroc must be a number or null"),
    (("report", "subsets", 0, "delta"), None, "subsets[0].delta must be a number"),
    (("report", "subsets", 0, "empty"), 0, "subsets[0].empty must be a boolean"),
    ("not_utf8", None, "invalid JSON"),
    (("report", "bins", 9, "count"), -5, "bins[9].count must be an integer >= 0, got -5"),
    (("report", "subsets", 0, "count"), -1, "subsets[0].count must be an integer >= 0"),
    (("report", "n_bins"), 0, "report field n_bins must be an integer >= 1, got 0"),
    (("report", "bins", 6, "confidence"), None,
     "bins[6] must have a null confidence and accuracy exactly when its count is 0"),
    (("report", "bins", 6, "count"), 0,
     "bins[6] must have a null confidence and accuracy exactly when its count is 0"),
    (("report", "n_bins"), 3, "report field n_bins must equal the number of bins, 10, got 3"),
    (("report", "n"), 0, "report field n must equal the sum of the bin counts"),
    (("report", "bins", 0, "lower"), float("nan"),
     "report field bins[0].lower must be a number in [0, 1], got NaN"),
    (("report", "bins", 9, "upper"), float("inf"), "bins[9].upper must be a number in [0, 1]"),
    (("report", "bins", 9, "upper"), 1.5, "bins[9].upper must be a number in [0, 1], got 1.5"),
    (("report", "bins", 6, "accuracy"), -0.5,
     "bins[6].accuracy must be a number or null in [0, 1], got -0.5"),
    (("report", "bins", 6, "confidence"), 1.25, "bins[6].confidence must be a number or null"),
    (("report", "bins", 0, "lower"), 0.9,
     "report field bins[0] must have lower 0.0 and upper 0.1, as one of 10 equispaced bins"),
    (("report", "ece"), float("nan"), "report field ece must be a number or null in [0, 1]"),
    (("report", "test_error_pct"), float("-inf"), "report field test_error_pct must be a number"),
    (("report", "subsets", 0, "fraction_pct"), float("inf"),
     "subsets[0].fraction_pct must be a number in [0, 100]"),
    (("report", "subsets", 0), Merge(count=0, ece=None, empty=False),
     "report field subsets[0] must have empty true and a null ece exactly when its count is 0"),
    (("report", "subsets", 0, "ece"), 0.1, "report field subsets[0] must have empty true"),
    (("report", "subsets", 1, "count"), 5, "report field subsets[1] must have empty true"),
    (("report", "bins", 0), Merge(lower=0.5, upper=0.6),
     "report field bins[0] must have lower 0.0 and upper 0.1, as one of 10 equispaced bins"),
    (("report", "bins", 5, "lower"), 0.55,
     "report field bins[5] must have lower 0.5 and upper 0.6, as one of 10"),
    (("report", "bins", 9, "upper"), 0.95,
     "report field bins[9] must have lower 0.9 and upper 1.0, as one of 10"),
    # two bins that tile [0, 1], but not at the edges the report is binned at
    (("report",), Merge(n=5, n_bins=2, bins=[
        {"lower": 0.0, "upper": 0.3, "count": 2, "confidence": 0.2, "accuracy": 0.5},
        {"lower": 0.3, "upper": 1.0, "count": 3, "confidence": 0.8, "accuracy": 1.0}]),
     "report field bins[0] must have lower 0.0 and upper 0.5, as one of 2 equispaced bins"),
    (("report", "n_bins"), 10 ** 15, "report field n_bins must equal the number of bins, 10, got"),
    (("report", "bins", 6, "confidence"), 0.99,
     "report field bins[6] must have a confidence in [0.6, 0.7], the bin's own range, got 0.99"),
    (("report", "subsets", 0), Merge(count=10 ** 6, ece=0.1, empty=False),
     "report field subsets[0] must have a count of at most n, "),
], ids=["no_report", "no_subsets", "bin_without_count", "no_n", "list_root", "report_array",
        "subsets_integer", "bins_object", "bin_integer", "bin_array", "subset_string", "truncated",
        "count_string", "count_null", "count_boolean", "lower_string", "confidence_string",
        "accuracy_list", "n_string", "n_bins_float", "ece_boolean", "auroc_string",
        "delta_null", "empty_integer", "not_utf8", "count_negative", "subset_count_negative",
        "n_bins_zero", "filled_bin_null_confidence", "empty_bin_with_confidence",
        "n_bins_not_len_bins", "n_not_sum_of_counts", "lower_nan", "upper_inf",
        "upper_above_one", "accuracy_negative", "confidence_above_one", "lower_above_upper",
        "ece_nan", "test_error_minus_inf", "fraction_inf", "subset_not_empty_at_count_0",
        "empty_subset_with_ece", "empty_subset_with_count", "first_bin_not_at_0",
        "gap_between_bins", "last_bin_short_of_1", "two_bins_off_edges", "n_bins_huge",
        "confidence_outside_its_bin", "subset_count_above_n"])
def test_report_malformed_run_exits_cleanly(trained, tmp_path, capsys, path, value, key):
    """`path` is the key path in run.json given `value` (DROP deletes it, a
    Merge updates the record there); None wraps the document in a list;
    "truncated" writes a document cut off after its first key and "not_utf8"
    one holding the byte 0xff."""
    config_path, out = trained
    doc = json.loads((out / "run.json").read_text())
    assert doc["report"]["bins"][6]["count"] and not doc["report"]["bins"][9]["count"]
    assert all(sub["empty"] for sub in doc["report"]["subsets"])
    if path is None:
        doc = [doc]
    elif path not in ("truncated", "not_utf8"):
        node = doc
        for step in path[:-1]:
            node = node[step]
        if value is DROP:
            del node[path[-1]]
        elif isinstance(value, Merge):
            node[path[-1]].update(value)
        else:
            node[path[-1]] = value
    bad = tmp_path / "bad_run.json"
    bad.write_bytes({"truncated": b'{"report": \n', "not_utf8": b'{"report": "\xff"}'}.get(
        path, json.dumps(doc).encode()))
    capsys.readouterr()
    code = main(["report", "--run", str(bad), "--out", str(tmp_path / "regen")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "bad_run.json" in err and key in err
    assert "Traceback" not in err
    assert not (tmp_path / "regen").exists()


def test_two_runs_identical_modulo_wall_clock(tmp_path):
    out = tmp_path / "det"
    path = write_config(tmp_path, out)
    assert main(["train", "--config", str(path)]) == 0
    a = tmp_path / "det_first"
    out.rename(a)
    assert main(["train", "--config", str(path)]) == 0
    b = out
    for name in ("reliability.csv", "confidence_histogram.csv", "reliability.svg",
                 "confidence_histogram.svg", "checkpoint.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    ma = json.loads((a / "manifest.json").read_text())["files"]
    mb = json.loads((b / "manifest.json").read_text())["files"]
    assert ma["run.json"]["stable_sha256"] == mb["run.json"]["stable_sha256"]
    for name in ma:
        if name != "run.json":
            assert ma[name] == mb[name]


def write_idx(directory, name, labels, seed, side=2):
    labels = np.asarray(labels, dtype=np.uint8)
    pixels = np.random.default_rng(seed).integers(0, 256, (len(labels), side, side),
                                                  dtype=np.uint8)
    images = directory / f"{name}-images.idx"
    images.write_bytes(struct.pack(">IIII", 0x803, len(labels), side, side) + pixels.tobytes())
    label_file = directory / f"{name}-labels.idx"
    label_file.write_bytes(struct.pack(">II", 0x801, len(labels)) + labels.tobytes())
    return str(images), str(label_file)


def test_idx_test_set_without_highest_class_trains(tmp_path):
    images, labels = write_idx(tmp_path, "train", np.repeat([0, 1, 2], 10), seed=0)
    test_images, test_labels = write_idx(tmp_path, "test", [0, 1, 1, 0], seed=1)
    config = {
        "dataset": {"source": "idx_pair", "images": images, "labels": labels,
                    "test_images": test_images, "test_labels": test_labels},
        "model": {"hidden": [4]},
        "train": {"max_epochs": 2, "batch_size": 8, "lr_milestones": []},
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "idx.json"
    path.write_text(json.dumps(config))
    assert main(["train", "--config", str(path)]) == 0
    assert json.loads((tmp_path / "out" / "run.json").read_text())["report"]["n"] == 4


@pytest.mark.parametrize("classes, code, recorded", [
    (None, 0, None), (3, 0, 3), (2, 1, 2)], ids=["counted", "declared", "too_few"])
def test_csv_class_count(tmp_path, capsys, classes, code, recorded):
    """Without dataset.classes a csv source counts its classes from the training
    labels (recorded as null); an explicit value declares the count."""
    rng = np.random.default_rng(0)
    for name, per_class in (("train", 10), ("test", 4)):
        labels = np.repeat([0, 1, 2], per_class)
        rows = [f"{a:.6f},{b:.6f},{y}" for (a, b), y in zip(rng.normal(size=(len(labels), 2)),
                                                       labels)]
        (tmp_path / f"{name}.csv").write_text("\n".join(["a,b,y", *rows]) + "\n")
    dataset = {"source": "csv", "path": str(tmp_path / "train.csv"),
               "test_path": str(tmp_path / "test.csv"), "label_column": "y"}
    if classes is not None:
        dataset["classes"] = classes
    path = tmp_path / "csv.json"
    path.write_text(json.dumps({"dataset": dataset, "model": {"hidden": [4]},
                                "train": {"max_epochs": 2, "batch_size": 8,
                                          "lr_milestones": []},
                                "output_dir": str(tmp_path / "out")}))
    assert load_config(path, env={})["dataset"]["classes"] == recorded
    assert main(["train", "--config", str(path)]) == code
    if code:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "out of range for declared 2 classes" in err
        return
    doc = json.loads((tmp_path / "out" / "run.json").read_text())
    assert doc["config"]["dataset"]["classes"] == recorded
    assert json.loads((tmp_path / "out" / "checkpoint.json").read_text())["widths"][-1] == 3


def _input_config(tmp_path, dataset):
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps({"dataset": dataset, "model": {"hidden": [4]},
                                "train": {"max_epochs": 1, "batch_size": 8,
                                          "lr_milestones": []},
                                "output_dir": str(tmp_path / "out")}))
    build_datasets(load_config(path, env={}))  # the uncorrupted inputs load
    return path


def _assert_input_error_names(tmp_path, capsys, config, bad_file):
    assert main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad_file) in err, err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_truncated_idx_file_names_its_path(tmp_path, capsys):
    """Each file of a valid train and test IDX pair, cut at every header
    offset and once inside its payload."""
    files = [*write_idx(tmp_path, "train", np.repeat([0, 1, 2], 4), seed=0),
             *write_idx(tmp_path, "test", [0, 1, 2, 0], seed=1)]
    config = _input_config(tmp_path, dict(zip(
        ("source", "images", "labels", "test_images", "test_labels"), ["idx_pair", *files])))
    for path, header_bytes in zip(map(Path, files), (16, 8, 16, 8)):
        whole = path.read_bytes()
        for size in [*range(header_bytes), (header_bytes + len(whole)) // 2]:
            path.write_bytes(whole[:size])
            _assert_input_error_names(tmp_path, capsys, config, path)
        path.write_bytes(whole)


def test_idx_header_claiming_more_than_the_file_names_its_path(tmp_path, capsys):
    """Three 0xFFFFFFFF image dimensions claim ~7.9e28 bytes: the claim is
    checked against the bytes in the file, and no read is sized by it."""
    files = [*write_idx(tmp_path, "train", np.repeat([0, 1, 2], 4), seed=0),
             *write_idx(tmp_path, "test", [0, 1, 2, 0], seed=1)]
    config = _input_config(tmp_path, dict(zip(
        ("source", "images", "labels", "test_images", "test_labels"), ["idx_pair", *files])))
    images = Path(files[0])
    whole = images.read_bytes()
    images.write_bytes(whole[:4] + struct.pack(">III", *[0xFFFFFFFF] * 3) + whole[16:])
    _assert_input_error_names(tmp_path, capsys, config, images)


def test_split_leaving_a_class_out_of_training_exits_1(tmp_path, capsys):
    """train_fraction 0.4 of class 1's 2 rows floors to 0: training would see
    class 0 alone, so the split names the training file and the class instead."""
    rows = [f"{v:.3f},{y}" for v, y in zip(np.linspace(-1, 1, 12), [0] * 10 + [1] * 2)]
    for name in ("train", "test"):
        (tmp_path / f"{name}.csv").write_text("\n".join(["a,y", *rows]) + "\n")
    path = tmp_path / "split.json"
    path.write_text(json.dumps({
        "dataset": {"source": "csv", "path": str(tmp_path / "train.csv"),
                    "test_path": str(tmp_path / "test.csv"), "label_column": "y",
                    "train_fraction": 0.4},
        "model": {"hidden": [4]},
        "train": {"max_epochs": 1, "batch_size": 8, "lr_milestones": []},
        "output_dir": str(tmp_path / "out")}))
    assert main(["train", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'train.csv'}: class 1 has 2 rows")
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_idx_labels_that_skip_a_class_exit_1_naming_the_labels_file(tmp_path, capsys):
    """A training label of 3 among 0s and 1s makes four classes, two of them
    empty; the split's error names the labels file."""
    files = [*write_idx(tmp_path, "train", [0] * 6 + [1] * 6, seed=0),
             *write_idx(tmp_path, "test", [0, 1, 1], seed=1)]
    config = _input_config(tmp_path, dict(zip(
        ("source", "images", "labels", "test_images", "test_labels"), ["idx_pair", *files])))
    write_idx(tmp_path, "train", [0] * 6 + [1] * 6 + [3], seed=0)
    assert main(["train", "--config", str(config)]) == 1
    assert capsys.readouterr().err == (f"error: {files[1]}: class 2 has 0 instance(s); "
                                       "need >= 2 to split\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad, labels_only", [
    ("nan", False), ("inf", False), ("-inf", False), ("1e400", False), ("", False),
    ("x", False), ("\xff", False), ("0.5", True), ("-1", True), ("3", True),
    ("1e20", True), ("-1e20", True)])
def test_corrupt_csv_cell_names_its_path(tmp_path, capsys, bad, labels_only):
    """Each cell of a valid 3-class train and test CSV, corrupted one at a
    time; "3" is a label out of range for the declared 3 classes, "1e20" and
    "-1e20" are whole labels beyond int64, and "\\xff" is written as the byte
    0xff, which is not UTF-8."""
    rows = {"train": [[f"{v:.3f}" for v in row] + [str(y)] for row, y in
                      zip(np.random.default_rng(0).normal(size=(6, 2)), [0, 1, 2] * 2)],
            "test": [["0.5", "-0.5", "1"], ["1.5", "0.0", "2"]]}

    def write(name, table):
        (tmp_path / f"{name}.csv").write_text(
            "\n".join(",".join(row) for row in [["a", "b", "y"], *table]) + "\n",
            encoding="latin-1")

    for name, table in rows.items():
        write(name, table)
    config = _input_config(tmp_path, {"source": "csv", "path": str(tmp_path / "train.csv"),
                                      "test_path": str(tmp_path / "test.csv"),
                                      "label_column": "y", "classes": 3})
    for name, table in rows.items():
        for r, row in enumerate(table):
            for c in [2] if labels_only else range(3):
                write(name, [[bad if (i, j) == (r, c) else cell for j, cell in enumerate(line)]
                             for i, line in enumerate(table)])
                _assert_input_error_names(tmp_path, capsys, config, tmp_path / f"{name}.csv")
        write(name, table)


@pytest.mark.parametrize("source", ["csv", "idx_pair"])
def test_one_class_training_labels_name_their_file(tmp_path, capsys, source):
    """A source whose training labels are all 0 counts one class; label
    smoothing, which divides by K - 1, is never reached."""
    if source == "csv":
        for name in ("train", "test"):
            rows = [f"{a:.3f},{b:.3f},0" for a, b in np.random.default_rng(0).normal(size=(8, 2))]
            (tmp_path / f"{name}.csv").write_text("\n".join(["a,b,y", *rows]) + "\n")
        dataset = {"source": "csv", "path": str(tmp_path / "train.csv"),
                   "test_path": str(tmp_path / "test.csv"), "label_column": "y"}
        bad = tmp_path / "train.csv"
    else:
        files = [*write_idx(tmp_path, "train", [0] * 8, seed=0),
                 *write_idx(tmp_path, "test", [0] * 4, seed=1)]
        dataset = dict(zip(("source", "images", "labels", "test_images", "test_labels"),
                           [source, *files]))
        bad = files[1]
    path = tmp_path / "one_class.json"
    path.write_text(json.dumps({"dataset": dataset, "model": {"hidden": [4]},
                                "train": {"max_epochs": 1, "batch_size": 8,
                                          "lr_milestones": []},
                                "loss": {"kind": "label_smoothing", "smoothing": 0.1},
                                "output_dir": str(tmp_path / "out")}))
    _assert_input_error_names(tmp_path, capsys, path, bad)


def test_diverging_training_exits_1_naming_its_training_file(tmp_path, capsys):
    """A feature cell of 1e308 overflows the first layer. The non-finite loss
    aborts training on one line naming the training file; numpy's overflow
    warning, an error under this suite's warning filter, never escapes."""
    rng = np.random.default_rng(0)
    rows = [f"{a:.3f},{b:.3f},{y}" for (a, b), y in zip(rng.normal(size=(60, 2)),
                                                         np.tile([0, 1, 2], 20))]
    train = tmp_path / "train.csv"
    train.write_text("\n".join(["a,b,y", "1e308," + rows[0].split(",", 1)[1], *rows[1:]]))
    (tmp_path / "test.csv").write_text("\n".join(["a,b,y", *rows]) + "\n")
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps({
        "dataset": {"source": "csv", "path": str(train),
                    "test_path": str(tmp_path / "test.csv"), "label_column": "y"},
        "model": {"hidden": [8]},
        "train": {"max_epochs": 2, "batch_size": 32, "lr_milestones": []},
        "output_dir": str(tmp_path / "out")}))
    assert main(["train", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(f"training aborted: {re.escape(str(train))}: non-finite loss at "
                        r"epoch 1, batch \d+\n", err), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scale, reason", [
    (1000.0, "non-finite parameters after epoch 1"),
    (1.0, "the forward pass gives non-finite logits"),
], ids=["parameters_overflow", "forward_overflows"])
def test_overflowing_last_step_exits_1_naming_its_training_file(tmp_path, capsys, scale,
                                                                reason):
    """One batch at learning rate 1e308. Its loss is finite, since it comes
    before the update; the update overflows the parameters (features x1000)
    or leaves them finite but too large for the test set's forward pass.
    Either way training aborts on one line naming the training file."""
    rng = np.random.default_rng(0)
    rows = [f"{a * scale:.3f},{b * scale:.3f},{y}"
            for (a, b), y in zip(rng.normal(size=(60, 2)), np.tile([0, 1, 2], 20))]
    train = tmp_path / "train.csv"
    train.write_text("\n".join(["a,b,y", *rows]) + "\n")
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({
        "dataset": {"source": "csv", "path": str(train), "test_path": str(train),
                    "label_column": "y"},
        "model": {"hidden": [8]},
        "train": {"max_epochs": 1, "batch_size": 64, "learning_rate": 1e308,
                  "lr_milestones": []},
        "loss": {"kind": "nll", "aux": None},
        "output_dir": str(tmp_path / "out")}))
    assert main(["train", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"training aborted: {train}: {reason}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("action", ["error", "always"])
@pytest.mark.parametrize("command", ["evaluate", "calibrate"])
def test_checkpoint_whose_forward_overflows_exits_1_naming_it(trained, tmp_path, capsys,
                                                               command, action):
    """A finite checkpoint whose weights and biases are scaled by 1e200 loads,
    but its forward pass overflows. evaluate and calibrate exit 1 on one line
    naming the checkpoint, with warnings raised as errors or shown, and
    neither emits a warning nor writes an output directory."""
    config_path, out = trained
    params = mlp.load_checkpoint(out / "checkpoint.json")
    huge = tmp_path / "huge_checkpoint.json"
    huge.write_text(mlp.checkpoint_text(mlp.MlpParams(
        params.widths, [w * 1e200 for w in params.weights],
        [b * 1e200 for b in params.biases])))
    argv = [command, "--config", str(config_path), "--checkpoint", str(huge)]
    if command == "evaluate":
        argv += ["--out", str(tmp_path / "eval")]
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        assert main(argv) == 1
    assert not caught
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: checkpoint {huge}: the forward pass gives "
                            "non-finite logits\n")
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("action", ["error", "always"])
def test_calibrate_on_finite_logits_whose_nll_overflows_exits_1_naming_it(trained, tmp_path,
                                                                          capsys, action):
    """A last layer that gives every row the finite logits (1e308, -1e308)
    passes the forward check, but the validation NLL overflows at T = 1 (the
    stratified split holds rows of class 1). calibrate exits 1 on one line
    naming the checkpoint, with warnings raised as errors or shown, and emits
    no warning."""
    config_path, out = trained
    params = mlp.load_checkpoint(out / "checkpoint.json")
    params.weights[-1][:] = 0.0
    params.biases[-1][:] = [1e308, -1e308]
    huge = tmp_path / "huge_checkpoint.json"
    huge.write_text(mlp.checkpoint_text(params))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        assert main(["calibrate", "--config", str(config_path), "--checkpoint", str(huge)]) == 1
    assert not caught
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"error: checkpoint {re.escape(str(huge))}: the validation NLL at "
                        r"temperature \S+ is not finite\n", captured.err)


def test_evaluate_on_finite_logits_whose_spread_overflows_exits_0(tmp_path, capsys):
    """A quickstart-shaped checkpoint whose last layer gives every row the
    finite logits (1e308, -1e308, 0, 0): shifting them by the row max
    overflows to -inf, whose exp is 0, so evaluate under `python -W error`
    prints its metrics, exits 0 and warns nothing. calibrate still stops on
    the validation NLL, which is not finite."""
    params = init_mlp([2, 64, 64, 4], seed=0)
    params.weights[-1][:] = 0.0
    params.biases[-1][:] = [1e308, -1e308, 0.0, 0.0]
    huge = tmp_path / "huge_checkpoint.json"
    huge.write_text(mlp.checkpoint_text(params))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "calprune", "evaluate",
                           "--config", str(QUICKSTART), "--checkpoint", str(huge),
                           "--out", str(tmp_path / "eval")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("ece ") and "test_error_pct " in proc.stdout
    assert (tmp_path / "eval" / "report.json").exists()
    assert main(["calibrate", "--config", str(QUICKSTART), "--checkpoint", str(huge)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: checkpoint {huge}: the validation NLL at temperature "
                            "3.85056 is not finite\n")


def write_csv(path, header, labels, seed):
    """A CSV with `header`; each column named y holds the label, the rest features."""
    rng = np.random.default_rng(seed)
    rows = [[str(y) if name == "y" else f"{rng.normal():.3f}" for name in header]
            for y in labels]
    path.write_text("\n".join(",".join(row) for row in [header, *rows]) + "\n")
    return str(path)


def _idx_dataset(tmp_path, test_labels, test_side=2):
    files = [*write_idx(tmp_path, "train", np.repeat([0, 1, 2], 4), seed=0),
             *write_idx(tmp_path, "test", test_labels, seed=1, side=test_side)]
    return dict(zip(("source", "images", "labels", "test_images", "test_labels"),
                    ["idx_pair", *files]))


def _csv_dataset(tmp_path, header, test_header):
    return {"source": "csv", "label_column": "y",
            "path": write_csv(tmp_path / "train.csv", header, np.repeat([0, 1, 2], 4), 0),
            "test_path": write_csv(tmp_path / "test.csv", test_header, [0, 1, 2, 0], 1)}


@pytest.mark.parametrize("dataset, bad_key, message", [
    (lambda tmp: _idx_dataset(tmp, []), "test_labels", "no data rows"),
    (lambda tmp: _csv_dataset(tmp, ["y"], ["y"]), "path", "no feature columns"),
    (lambda tmp: _idx_dataset(tmp, [0, 1, 2, 0], test_side=3), "test_images",
     "9 features per row, the training source has 4"),
    (lambda tmp: _csv_dataset(tmp, ["a", "y"], ["a", "b", "y"]), "test_path",
     "2 features per row, the training source has 1"),
    (lambda tmp: _csv_dataset(tmp, ["a", "y", "y"], ["a", "y"]), "path",
     "header names column 'y' more than once"),
], ids=["idx_test_without_rows", "csv_without_features", "idx_test_images_wider",
        "csv_test_wider", "csv_header_repeats_a_column"])
def test_unusable_source_exits_1_naming_its_file_before_any_epoch(tmp_path, capsys,
                                                                  monkeypatch, dataset,
                                                                  bad_key, message):
    """An input that no model could train or be scored on is rejected where
    the data is built, naming its file, and no epoch runs."""
    def never(*args, **kwargs):
        raise AssertionError("an epoch ran although an input is unusable")

    monkeypatch.setattr(cli, "train_with_pruning", never)
    dataset = dataset(tmp_path)
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps({"dataset": dataset, "model": {"hidden": [8]},
                                "train": {"max_epochs": 3, "batch_size": 8,
                                          "lr_milestones": []},
                                "output_dir": str(tmp_path / "out")}))
    assert main(["train", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {dataset[bad_key]}: {message}\n"
    assert not (tmp_path / "out").exists()


def _write_config(path, dataset, out):
    path.write_text(json.dumps({"dataset": dataset, "model": {"hidden": [4]},
                                "train": {"max_epochs": 2, "batch_size": 8,
                                          "lr_milestones": []},
                                "output_dir": str(out)}))
    return str(path)


def _trained_on_training_file(tmp_path, dataset):
    """A checkpoint trained on `dataset` with its training file(s) as the test file(s)."""
    tested = ({"test_images": dataset["images"], "test_labels": dataset["labels"]}
              if dataset["source"] == "idx_pair" else {"test_path": dataset["path"]})
    config = _write_config(tmp_path / "good.json", {**dataset, **tested}, tmp_path / "good")
    assert main(["train", "--config", config]) == 0
    return str(tmp_path / "good" / "checkpoint.json")


@pytest.mark.parametrize("dataset, bad_key, message", [
    (lambda tmp: _idx_dataset(tmp, [0, 1, 2, 0], test_side=3), "test_images",
     "9 features per row, checkpoint {} expects 4"),
    (lambda tmp: _csv_dataset(tmp, ["a", "y"], ["a", "b", "y"]), "test_path",
     "2 features per row, checkpoint {} expects 1"),
    (lambda tmp: _idx_dataset(tmp, [0, 1, 3, 0]), "test_labels",
     "label 3 out of range for declared 3 classes"),
], ids=["idx_test_images_wider", "csv_test_wider", "idx_test_label_beyond_checkpoint"])
def test_evaluate_names_the_test_file_its_checkpoint_cannot_score(tmp_path, capsys, dataset,
                                                                  bad_key, message):
    """evaluate reads the test source alone, so a test file that does not fit
    the checkpoint is named, with the checkpoint, and no bundle is written."""
    dataset = dataset(tmp_path)
    checkpoint = _trained_on_training_file(tmp_path, dataset)
    config = _write_config(tmp_path / "bad.json", dataset, tmp_path / "unused")
    capsys.readouterr()
    out = tmp_path / "eval"
    code = main(["evaluate", "--config", config, "--checkpoint", checkpoint, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {dataset[bad_key]}: {message.format(checkpoint)}\n"
    assert not out.exists()


@pytest.mark.parametrize("source", ["idx_pair", "csv"])
def test_evaluate_reads_no_training_source(tmp_path, monkeypatch, capsys, source):
    """With the training files deleted after training, evaluate asks its data
    build for the test split alone and writes the same report.json bytes,
    while calibrate and train exit 1 naming the missing file."""
    if source == "idx_pair":
        dataset = _idx_dataset(tmp_path, [0, 1, 2, 0])
        training = [dataset["images"], dataset["labels"]]
    else:
        dataset = _csv_dataset(tmp_path, ["a", "y"], ["a", "y"])
        training = [dataset["path"]]
    config = _write_config(tmp_path / "inputs.json", dataset, tmp_path / "out")
    assert main(["train", "--config", config]) == 0
    checkpoint = ["--checkpoint", str(tmp_path / "out" / "checkpoint.json")]
    evaluate = ["evaluate", "--config", config, *checkpoint, "--out"]
    assert main([*evaluate, str(tmp_path / "before")]) == 0
    for name in training:
        os.remove(name)
    build, requested = cli.build_datasets, []

    def spy(cfg, **kwargs):
        requested.append(kwargs["splits"])
        return build(cfg, **kwargs)

    monkeypatch.setattr(cli, "build_datasets", spy)
    assert main([*evaluate, str(tmp_path / "after")]) == 0
    assert requested == [("test",)]
    report = [(tmp_path / name / "report.json").read_bytes() for name in ("before", "after")]
    assert report[0] == report[1]
    capsys.readouterr()
    for argv in (["calibrate", "--config", config, *checkpoint],
                 ["train", "--config", config, "--set", f"output_dir={tmp_path / 'again'}"]):
        assert main(argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and training[0] in err, err
    assert not (tmp_path / "again").exists()


def test_each_command_decodes_only_the_idx_rows_it_reads(tmp_path, monkeypatch):
    """The pool is split on its labels before any pixel is decoded: train
    decodes the train and test rows, calibrate the val and test rows and
    evaluate the test rows, each once."""
    files = [*write_idx(tmp_path, "train", np.repeat([0, 1, 2], [4, 7, 5]), seed=0),
             *write_idx(tmp_path, "test", [0, 1, 2, 2, 1], seed=1)]
    dataset = dict(zip(("source", "images", "labels", "test_images", "test_labels"),
                       ["idx_pair", *files]))
    config = _write_config(tmp_path / "inputs.json", dataset, tmp_path / "out")
    train, val, test = build_datasets(load_config(config, env={}))
    assert (len(train), len(val), len(test)) == (13, 3, 5)
    decode, decoded = data.decode_pixels, []

    def counting(pixels):
        decoded.append(len(pixels))
        return decode(pixels)

    monkeypatch.setattr(data, "decode_pixels", counting)
    monkeypatch.setattr(config_module, "decode_pixels", counting)
    checkpoint = ["--checkpoint", str(tmp_path / "out" / "checkpoint.json")]
    for argv, rows in ((["train", "--config", config], [5, 13]),
                       (["calibrate", "--config", config, *checkpoint], [5, 3]),
                       (["evaluate", "--config", config, *checkpoint,
                         "--out", str(tmp_path / "eval")], [5])):
        decoded.clear()
        assert main(argv) == 0, argv[0]
        assert decoded == rows, argv[0]


def _nan_first_weight(doc):
    weight = doc["layers"][0]["weight"]
    values = np.frombuffer(base64.b64decode(weight["data"]), dtype="<f8").copy()
    values[0] = np.nan
    weight["data"] = base64.b64encode(values.tobytes()).decode("ascii")


@pytest.mark.parametrize("mutate", [
    lambda doc: doc["layers"].append(doc["layers"][-1]),
    lambda doc: doc.pop("widths"),
    lambda doc: doc.update(widths=[2.7, *doc["widths"][1:]]),
    _nan_first_weight,
], ids=["extra_layer", "no_widths", "fractional_width", "nan_weight"])
def test_evaluate_malformed_checkpoint_exits_cleanly(trained, tmp_path, capsys, mutate):
    config_path, out = trained
    doc = json.loads((out / "checkpoint.json").read_text())
    mutate(doc)
    bad = tmp_path / "bad_checkpoint.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["evaluate", "--config", str(config_path), "--checkpoint", str(bad),
                 "--out", str(tmp_path / "bad_eval")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "bad_checkpoint.json" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name, flag", [("checkpoint.json", "--checkpoint"), ("run.json", "--run")])
def test_repeated_key_in_a_run_file_exits_1(trained, tmp_path, capsys, name, flag):
    config_path, out = trained
    bad = tmp_path / f"repeated_{name}"
    bad.write_text((out / name).read_text().replace("{", '{"repeated": 0, "repeated": 1, ', 1))
    command = {"--checkpoint": ["evaluate", "--config", str(config_path)], "--run": ["report"]}
    capsys.readouterr()
    code = main([*command[flag], flag, str(bad), "--out", str(tmp_path / "bundle")])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith(f"error: {bad}: ") and 'repeated key "repeated"' in err
    assert not (tmp_path / "bundle").exists()


@pytest.mark.parametrize("command", ["evaluate", "calibrate"])
def test_version_1_checkpoint_exits_1(trained, tmp_path, capsys, command):
    """Version 1 stored each array as nested number lists; it is not read."""
    config_path, out = trained
    params = mlp.load_checkpoint(out / "checkpoint.json")
    old = tmp_path / "v1_checkpoint.json"
    old.write_text(json.dumps({
        "magic": "calprune-mlp", "version": 1, "widths": params.widths,
        "layers": [{"weight": w.tolist(), "bias": b.tolist()}
                   for w, b in zip(params.weights, params.biases)]}))
    argv = [command, "--config", str(config_path), "--checkpoint", str(old)]
    if command == "evaluate":
        argv += ["--out", str(tmp_path / "bundle")]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {old}: unsupported checkpoint version 1\n")


@pytest.mark.parametrize("name, encoding, code", [
    ("config.json", "utf-16", 2), ("config.json", "utf-32", 2),
    ("checkpoint.json", "utf-16", 1), ("checkpoint.json", "utf-8-sig", 0)])
def test_json_inputs_are_read_as_utf8(trained, tmp_path, capsys, name, encoding, code):
    """A UTF-16 or UTF-32 file, which json.loads would take from bytes by
    itself, is named as invalid; a UTF-8 byte order mark is skipped."""
    config_path, out = trained
    files = {"config.json": config_path, "checkpoint.json": out / "checkpoint.json"}
    path = tmp_path / f"{encoding}_{name}"
    path.write_text(files[name].read_text(), encoding=encoding)
    files[name] = path
    capsys.readouterr()
    bundle = tmp_path / "bundle"
    assert main(["evaluate", "--config", str(files["config.json"]),
                 "--checkpoint", str(files["checkpoint.json"]), "--out", str(bundle)]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == "" and bundle.is_dir()
        return
    prefix = "config error" if name == "config.json" else "error"
    assert err == (f"{prefix}: {path}: invalid JSON: 'utf-8' codec can't decode byte 0xff "
                   "in position 0: invalid start byte\n")
    assert not bundle.exists()


DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("flag, code, prefix", [
    ("--config", 2, "config error: {deep}: invalid JSON: "),
    ("--set", 2, 'config error: override "train.lr_milestones": invalid JSON: '),
    ("--checkpoint", 1, "error: {deep}: invalid JSON: "),
    ("--run", 1, "error: {deep}: invalid JSON: ")],
    ids=["config", "override", "checkpoint", "run"])
def test_deeply_nested_json_exits_with_one_line(tmp_path, capsys, flag, code, prefix):
    """100,000 nested arrays pass the parser's recursion limit. Each of the
    four JSON inputs gives one line naming its file or override key, never
    the value."""
    out, bundle = tmp_path / "out", tmp_path / "bundle"
    config_path = write_config(tmp_path, out)
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    argv = {"--config": ["train", "--config", str(deep)],
            "--set": ["train", "--config", str(config_path),
                      "--set", f"train.lr_milestones={DEEP_JSON}"],
            "--checkpoint": ["evaluate", "--config", str(config_path),
                             "--checkpoint", str(deep), "--out", str(bundle)],
            "--run": ["report", "--run", str(deep), "--out", str(bundle)]}[flag]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix.format(deep=deep)) and err.count("\n") == 1
    assert "[[" not in err and "Traceback" not in err
    assert not out.exists() and not bundle.exists()


def test_quickstart_checkpoint_bytes_deterministic(tmp_path):
    texts = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["train", "--config", str(QUICKSTART), "--set", f"output_dir={out}"]) == 0
        texts.append((out / "checkpoint.json").read_bytes())
    assert texts[0] == texts[1]
    assert json.loads(texts[0])["version"] == 2


def test_quickstart_checkpoint_invariant_to_blas_threads(tmp_path):
    """Quickstart-sized products round alike at 1 and 2 OpenBLAS threads, so the
    checkpoint bytes do not depend on the thread count (README "Determinism")."""
    texts = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "calprune", "train", "--config",
                               str(QUICKSTART), "--set", f"output_dir={out}"],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        texts.append((out / "checkpoint.json").read_bytes())
    assert texts[0] == texts[1]


# numpy's run-time dispatch targets above AVX2; disabling them moves its
# exp, log and power loops onto their AVX2 versions
SIMD_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
# AVX2 against AVX512 moved weights by at most 6.4e-16 on one AVX512 host; the
# tolerances allow a thousandfold that and no more than rounding
SIMD_ATOL, SIMD_RTOL = 1e-12, 1e-12


def assert_json_close(a, b, where):
    """Equal JSON values, except that floats may differ within the SIMD tolerances."""
    assert type(a) is type(b), where
    if isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            assert_json_close(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_json_close(x, y, f"{where}[{i}]")
    elif isinstance(a, float):
        assert a == pytest.approx(b, rel=SIMD_RTOL, abs=SIMD_ATOL), where
    else:
        assert a == b, where


def test_quickstart_simd_dispatch_moves_only_last_bits(tmp_path):
    """Quickstart `train` with numpy's AVX512 targets disabled may change the
    checkpoint bytes (README "Determinism"), but only in the last bits of the
    weights, epoch losses and report floats: prune events, the report's counts
    and stdout are identical."""
    from numpy._core import _multiarray_umath as umath
    disabled = [f for f in SIMD_TARGETS
                if f in umath.__cpu_dispatch__ and umath.__cpu_features__.get(f)]
    if not disabled:
        pytest.skip(f"numpy dispatches none of {', '.join(SIMD_TARGETS)} on this CPU")
    runs = []
    for name in ("native", "narrow"):
        out = tmp_path / name
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if name == "narrow":
            env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
        proc = subprocess.run([sys.executable, "-m", "calprune", "train", "--config",
                               str(QUICKSTART), "--set", f"output_dir={out}"],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((out / "run.json").read_text())
        stdout = [line for line in proc.stdout.splitlines() if not line.startswith("output_dir")]
        runs.append((doc, stdout, mlp.load_checkpoint(out / "checkpoint.json")))
    (doc_a, stdout_a, params_a), (doc_b, stdout_b, params_b) = runs
    assert stdout_a == stdout_b
    assert doc_a["prune_events"] == doc_b["prune_events"]
    assert_json_close(doc_a["report"], doc_b["report"], "report")
    assert doc_a["totals"]["sample_updates"] == doc_b["totals"]["sample_updates"]
    for a, b in zip(doc_a["epochs"], doc_b["epochs"], strict=True):
        assert (a["epoch"], a["surviving"]) == (b["epoch"], b["surviving"])
        assert a["train_loss"] == pytest.approx(b["train_loss"], rel=SIMD_RTOL, abs=SIMD_ATOL)
    assert params_a.widths == params_b.widths
    for a, b in zip(params_a.weights + params_a.biases, params_b.weights + params_b.biases):
        np.testing.assert_allclose(a, b, rtol=SIMD_RTOL, atol=SIMD_ATOL)


def test_config_reading_commands_show_the_same_config_flag_help(capsys):
    """train, evaluate and calibrate take --config and --set from one parent parser."""
    for command in ("train", "evaluate", "calibrate"):
        with pytest.raises(SystemExit) as exited:
            main([command, "--help"])
        assert exited.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "--config CONFIG JSON config path" in text, command
        assert (f"--set KEY.PATH=VALUE override a config value (beats the file and the "
                f"{OUTPUT_DIR_ENV} env var)") in text, command


def test_module_entry_point_runs_from_checkout(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = [sys.executable, "-m", "calprune"]
    proc = subprocess.run([*run, "--help"], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0 and proc.stdout.startswith("usage: calprune")
    proc = subprocess.run([*run, "report", "--run", str(tmp_path / "missing.json"),
                           "--out", str(tmp_path / "out")], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 1 and proc.stderr.startswith("error: ")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_benchmark_targets_resolve():
    """Every (module, attribute) the traced benchmark wraps must exist."""
    tracing = load_tracing()
    for owner, attr, _span in tracing.WRAPPED:
        assert hasattr(tracing._resolve(owner), attr), f"{owner}.{attr}"


def test_traced_benchmark_reads_graph_after_backward():
    """The traced benchmark's per-step graph counts work on a quickstart-shaped step."""
    params = init_mlp([2, 64, 64, 4], seed=1)
    rng = np.random.default_rng(0)
    g = Graph()
    x = g.leaf("x", param=False)
    log_probs = g.log_softmax(logits_graph(g, x, params.n_layers))
    spec = LossSpec(kind="flsd", aux=AuxSpec(kind="huber", alpha=0.005, weight=10.0))
    root = total_loss(g, log_probs, g.int_leaf("y"), spec, 4)
    bindings = param_bindings(params)
    bindings["y"] = rng.integers(0, 4, 128)
    bindings["x"] = rng.normal(size=(128, 2))
    g.forward(bindings, root=root)
    g.backward(root=root)
    stats = load_tracing().graph_stats(g, root)
    assert stats["nodes"] == 17  # 8 leaves (x, y and six parameters) and 9 ops
    assert 0 < stats["useful_adjoint_frac"] <= 1


def test_traced_training_sees_one_graph_shape_per_step():
    """The traced benchmark's wrappers around a quickstart-shaped run: graph_stats
    reads the int64 label leaf, every step has the same node count, and the
    traced run trains the same bits as the untraced one."""
    cfg = load_config(QUICKSTART, overrides=["train.max_epochs=3"])
    train, _, _ = build_datasets(cfg)
    config = build_train_config(cfg)
    widths = model_widths(cfg, train.x.shape[1], train.n_classes)
    plain = trainer.train_with_pruning(train, init_mlp(widths, config.seed), config)
    tracer = load_tracing().Tracer()
    restore = tracer.install()
    try:
        traced = trainer.train_with_pruning(train, init_mlp(widths, config.seed), config)
    finally:
        restore()
    assert len(tracer.steps) == 3 * -(-len(train) // config.batch_size)
    assert {step["nodes"] for step in tracer.steps} == {17}
    assert {step["ops"]["leaf"] for step in tracer.steps} == {8}  # x, y and six parameters
    for a, b in zip(plain.params.weights + plain.params.biases,
                    traced.params.weights + traced.params.biases):
        assert np.array_equal(a, b)


# A seeded sweep of malformed inputs. Each input kind the CLI reads (a CSV
# file, IDX images, IDX labels, a config, a checkpoint and a run.json) is
# mutated by truncation, a bit flip, an inserted or a deleted byte, and, in
# text files, a number swapped for an edge value.
SWEEP_SEED = 0
SWEEP_CASES_PER_INPUT = 20
EDGE_VALUES = ["0", "-1", "-0", "0.5", "1e308", "-1e308", "NaN", "Infinity", "null", "true",
               '"1"', "[]"]
# numbers under these keys set the run's length or size, so a swap could make
# a case run for minutes; under ema_factor, 0 warns by design
UNSWAPPED_KEYS = {"max_epochs", "batch_size", "hidden", "ema_factor"}
JSON_NUMBER = re.compile(r"(?<![\w.+-])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?(?![\w.])")
PRECEDING_KEY = re.compile(r'"(\w+)"\s*:[^":]*$')
DIAGNOSTIC_LINE = re.compile(r"(error|config error|training aborted): \S.*\n")
DOTTED_KEY = re.compile(r'\b[a-z_]+\.[A-Za-z_]+\b|unknown config key: "')
# a report or checkpoint diagnostic names the field it is about by its path
MALFORMED_RECORD = re.compile(r"malformed (report|checkpoint)")
FIELD_PATH = re.compile(r'bins\[|subsets\[|layers\[|"layers"|widths')
WARNS_BY_DESIGN = re.compile(r"batch size \d+ < 10\*K|ema factor 0 keeps")
RAW_PYTHON = re.compile(r"\b(PosixPath|frozenset|np\.\w+)\(")  # a repr, not a message


def _sweep_config(dataset):
    return {"dataset": dataset, "model": {"hidden": [4]},
            "train": {"max_epochs": 2, "batch_size": 20, "learning_rate": 0.05,
                      "lr_milestones": [1], "seed": 2},
            "prune": {"enabled": True, "percent": 10.0, "interval": 1, "warmup_epochs": 0},
            "output_dir": "out"}


@pytest.fixture()
def sweep_inputs(tmp_path, monkeypatch):
    """Clean inputs of every kind in `tmp_path/clean`, all named relative to it,
    so that no mutated path leads outside a case's directory."""
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    clean = tmp_path / "clean"
    clean.mkdir()
    train_labels, test_labels = np.repeat([0, 1], 24), np.repeat([0, 1], 6)
    write_csv(clean / "train.csv", ["a", "b", "y"], train_labels, seed=1)
    write_csv(clean / "test.csv", ["a", "b", "y"], test_labels, seed=2)
    write_idx(clean, "train", train_labels, seed=3)
    write_idx(clean, "test", test_labels, seed=4)
    (clean / "csv.json").write_text(json.dumps(_sweep_config(
        {"source": "csv", "path": "train.csv", "test_path": "test.csv", "label_column": "y"})))
    (clean / "idx.json").write_text(json.dumps(_sweep_config(
        {"source": "idx_pair", "images": "train-images.idx", "labels": "train-labels.idx",
         "test_images": "test-images.idx", "test_labels": "test-labels.idx"})))
    monkeypatch.chdir(clean)
    assert main(["train", "--config", "csv.json", "--set", "output_dir=run"]) == 0
    shutil.copy("run/checkpoint.json", "checkpoint.json")
    shutil.copy("run/run.json", "run.json")
    shutil.rmtree("run")
    return clean


# input kind -> (the files a case may mutate, one picked per case; CLI arguments);
# a checkpoint is mutated once for evaluate and once for calibrate
SWEEP_TARGETS = {
    "csv": (["train.csv", "test.csv"], ["train", "--config", "csv.json"]),
    "idx_images": (["train-images.idx", "test-images.idx"], ["train", "--config", "idx.json"]),
    "idx_labels": (["train-labels.idx", "test-labels.idx"], ["train", "--config", "idx.json"]),
    "config": (["csv.json"], ["train", "--config", "csv.json"]),
    "checkpoint": (["checkpoint.json"],
                   ["evaluate", "--config", "csv.json", "--checkpoint", "checkpoint.json",
                    "--out", "out"]),
    "run_json": (["run.json"], ["report", "--run", "run.json", "--out", "out"]),
    "checkpoint_calibrate": (["checkpoint.json"],
                             ["calibrate", "--config", "csv.json", "--checkpoint",
                              "checkpoint.json"]),
}


def _swap_number(data, rng):
    """`data` with one number outside UNSWAPPED_KEYS swapped for an edge value."""
    text = data.decode("utf-8")
    spans = [m.span() for m in JSON_NUMBER.finditer(text)
             if not ((key := PRECEDING_KEY.search(text[:m.start()]))
                     and key[1] in UNSWAPPED_KEYS)]
    start, stop = spans[rng.integers(len(spans))]
    return (text[:start] + EDGE_VALUES[rng.integers(len(EDGE_VALUES))]
            + text[stop:]).encode("utf-8")


def _mutate(data, rng, text):
    """One seeded mutation of `data`, and its name."""
    kinds = ["truncate", "flip", "insert", "delete"] + (["swap"] if text else [])
    kind = kinds[rng.integers(len(kinds))]
    if kind == "swap":
        return _swap_number(data, rng), kind
    at = int(rng.integers(len(data)))
    if kind == "truncate":
        return data[:at], kind
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ 1 << int(rng.integers(8))]) + data[at + 1:], kind
    if kind == "insert":
        return data[:at] + bytes([int(rng.integers(256))]) + data[at:], kind
    return data[:at] + data[at + 1:], kind


def test_every_seeded_malformed_input_exits_cleanly(sweep_inputs, tmp_path, monkeypatch,
                                                    capsys):
    """Each case runs main on a tiny model. It exits 0, or exits 1 or 2 with one
    diagnostic line that names the mutated file (for the config, a key or the
    file) and leaves no output directory; a malformed report or checkpoint
    diagnostic names a field path. No exception escapes main, and no warning
    but the two that calprune emits by design."""
    rng = np.random.default_rng(SWEEP_SEED)
    cases = [(kind, int(rng.integers(len(SWEEP_TARGETS[kind][0]))), int(rng.integers(2 ** 32)))
             for kind in SWEEP_TARGETS for _ in range(SWEEP_CASES_PER_INPUT)]
    assert len(cases) == 7 * SWEEP_CASES_PER_INPUT
    outcomes = []
    for number, (kind, which, seed) in enumerate(cases):
        case_dir = tmp_path / f"case{number}"
        shutil.copytree(sweep_inputs, case_dir)
        monkeypatch.chdir(case_dir)
        files, argv = SWEEP_TARGETS[kind]
        name = files[which]
        data, how = _mutate((case_dir / name).read_bytes(), np.random.default_rng(seed),
                            text=not name.endswith(".idx"))
        (case_dir / name).write_bytes(data)
        before = sorted(os.listdir(case_dir))
        tag = f"case {number}: {how} of {name}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except Exception as exc:  # any escape fails the case, naming it
                pytest.fail(f"{tag}: {type(exc).__name__} escaped main: {exc}")
        captured = capsys.readouterr()
        unexpected = [str(w.message) for w in caught if not WARNS_BY_DESIGN.match(str(w.message))]
        assert not unexpected, f"{tag}: warned {unexpected}"
        if code != 0:
            assert code in (1, 2), f"{tag}: exit {code}"
            assert DIAGNOSTIC_LINE.fullmatch(captured.err), f"{tag}: stderr {captured.err!r}"
            assert not RAW_PYTHON.search(captured.err), f"{tag}: stderr {captured.err!r}"
            named = DOTTED_KEY.search(captured.err) if kind == "config" else name in captured.err
            assert named, f"{tag}: {captured.err!r} names neither the file nor a key"
            if MALFORMED_RECORD.search(captured.err):
                assert FIELD_PATH.search(captured.err), f"{tag}: {captured.err!r} names no field"
            assert captured.out == "", tag
            assert sorted(os.listdir(case_dir)) == before, f"{tag}: left an output behind"
        outcomes.append(code)
    assert 0 in outcomes and set(outcomes) - {0}  # the sweep reaches both outcomes
