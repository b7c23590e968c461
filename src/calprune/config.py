"""Run configuration files: strict JSON schema, defaults, overrides.

Unknown keys are fatal (a silently ignored typo in a hyperparameter would
corrupt ablations). Defaults carry the recommended recipe: Huber alpha
0.005, aux weight 10, EMA factor 0.3, prune percent 10 every 5 epochs,
10 ECE bins, SGD at lr 0.1 with momentum 0.9 and weight decay 5e-4.
"""

import copy
import json
import os

from .data import (Dataset, _unique_keys, decode_pixels, generate_gaussian_mixture,
                   load_csv, read_idx_pair, read_json, split_positions)
from .losses import AUX_LOSSES, CLASSIFICATION_LOSSES, AuxSpec, LossSpec
from .pruning import PruneSchedule
from .ranges import SETTINGS, check
from .trainer import TrainConfig

OUTPUT_DIR_ENV = "CALPRUNE_OUTPUT_DIR"


class ConfigError(ValueError):
    """A config file problem, always naming the offending key."""


def _nested(settings):
    """The nested dict of every setting's default, sections in table order."""
    defaults = {}
    for key, setting in settings.items():
        *sections, leaf = key.split(".")
        node = defaults
        for section in sections:
            node = node.setdefault(section, {})
        node[leaf] = setting.default
    return defaults


DEFAULTS = _nested(SETTINGS)

# dataset source -> (keys it requires, keys it may also set), its keys the
# values ranges.SETTINGS lets dataset.source take; the keys in _ANY_SOURCE
# apply to every source, and any other dataset key is a typo
SOURCES = {
    "gaussian_mixture": (set(), {"classes", "train_per_class", "test_per_class", "noise"}),
    "idx_pair": ({"images", "labels", "test_images", "test_labels"}, set()),
    "csv": ({"path", "test_path", "label_column"}, {"classes"}),
}
_ANY_SOURCE = {"source", "seed", "train_fraction"}

def _merge_strict(defaults, user, prefix=""):
    """Merge `user` over `defaults`, checking every leaf against its
    ranges.SETTINGS entry; of the sections, only loss.aux takes None."""
    merged = copy.deepcopy(defaults)
    for key, value in user.items():
        path = f"{prefix}{key}"
        if key not in defaults:
            raise ConfigError(f"unknown config key: {json.dumps(path)}")
        if path not in SETTINGS:
            if value is None and path == "loss.aux":  # no auxiliary loss
                merged[key] = None
            elif not isinstance(value, dict):
                raise ConfigError(f"config key {path} must be an object")
            else:
                merged[key] = _merge_strict(defaults[key], value, prefix=path + ".")
        else:
            check(path, value, f"config key {path}", ConfigError)
            merged[key] = copy.deepcopy(value)
    return merged


def resolve_config(user):
    """Merge a user config dict over the documented defaults, strictly,
    checking every key the user sets against its ranges.SETTINGS entry, then
    against the dataset source or loss kind that must read it."""
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = _merge_strict(DEFAULTS, user)
    source = cfg["dataset"]["source"]
    required, optional = SOURCES[source]
    shown = json.dumps(source)
    user_dataset_keys = set(user.get("dataset", {}))
    stray = user_dataset_keys - required - optional - _ANY_SOURCE
    if stray:
        raise ConfigError(
            f"config key dataset.{sorted(stray)[0]} does not apply to source {shown}")
    missing = required - {k for k in user_dataset_keys if cfg["dataset"][k] is not None}
    if missing:
        raise ConfigError(
            f"dataset source {shown} requires config key dataset.{sorted(missing)[0]}")
    for key in cfg["dataset"].keys() - required - optional - _ANY_SOURCE:
        cfg["dataset"][key] = None  # the source does not read it
    if source == "csv" and "classes" not in user_dataset_keys:
        cfg["dataset"]["classes"] = None  # counted from the training labels
    # a loss key the user sets is refused if some kind of its section's table
    # takes it and the chosen kind does not; the resolved config keeps its default
    loss = user.get("loss", {})
    for path, table, user_keys, section in (
            ("loss", CLASSIFICATION_LOSSES, loss, cfg["loss"]),
            ("loss.aux", AUX_LOSSES, loss.get("aux") or {}, cfg["loss"]["aux"])):
        taken = {name for _, names in table.values() for name in names}
        stray = section and (taken & set(user_keys)) - set(table[section["kind"]][1])
        if stray:
            raise ConfigError(f"config key {path}.{sorted(stray)[0]} does not apply to "
                              f"loss kind {json.dumps(section['kind'])}")
    deltas = cfg["eval"]["deltas"]
    for i, delta in enumerate(deltas):
        if delta in deltas[:i]:
            raise ConfigError(f"config key eval.deltas[{i}] repeats {json.dumps(delta)}")
    return cfg


def load_config(path, overrides=(), env=None):
    """Read a JSON config file, apply the output-dir env var, then --set overrides."""
    user = read_json(path, ConfigError)
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    env = os.environ if env is None else env
    if env.get(OUTPUT_DIR_ENV):
        user["output_dir"] = env[OUTPUT_DIR_ENV]
    for assignment in overrides:
        user = _apply_override(user, assignment)
    return resolve_config(user)


def _apply_override(user, assignment):
    if "=" not in assignment:
        raise ConfigError(f"override {json.dumps(assignment)} is not of the form key.path=value")
    dotted, raw = assignment.split("=", 1)
    try:  # the config file's rules: a repeated key or deep nesting is an error
        value = json.loads(raw, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError:
        value = raw
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"override {json.dumps(dotted)}: invalid JSON: {exc}") from None
    keys = dotted.split(".")
    node = user
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override {json.dumps(dotted)} descends through a non-object")
    node[keys[-1]] = value
    return user


# ---- builders ---------------------------------------------------------------

def source_name(cfg, split):
    """The file the "train" or "test" rows are read from, or the generated set's name."""
    d = cfg["dataset"]
    prefix = "test_" if split == "test" else ""
    return d[prefix + "images"] or d[prefix + "path"] or f"{d['source']} {split} set"


def _read(d, split, n_classes=None):
    """The "train" or "test" source as (features, int64 labels, class count,
    decode), decode turning the features of the rows kept into float64 (IDX
    pixels stay uint8 until then); `n_classes` is as in build_datasets."""
    is_test = split == "test"
    prefix = "test_" if is_test else ""
    if d["source"] == "gaussian_mixture":
        data = generate_gaussian_mixture(d["classes"], d[split + "_per_class"],
                                         noise=d["noise"], seed=[d["seed"], int(is_test)])
    elif d["source"] == "idx_pair":
        return (*read_idx_pair(d[prefix + "images"], d[prefix + "labels"], n_classes),
                decode_pixels)
    else:
        data = load_csv(d[prefix + "path"], d["label_column"],
                        n_classes=d["classes"] or n_classes)
    return data.x, data.y, data.n_classes, lambda x: x


def build_datasets(cfg, splits=("train", "val", "test"), n_classes=None):
    """(train, validation, test) Datasets per the dataset section, with None
    for each split not named in `splits`.

    Train and validation split the training source and carry their positions
    in it as ids; that source is read only if one of them is named, and IDX
    pixels are decoded only for the rows a named split keeps. Without it,
    `n_classes` gives the class count of an IDX test source or a CSV one that
    declares none (default: counted from the test labels).
    """
    d = cfg["dataset"]
    pooled = "train" in splits or "val" in splits
    if pooled:
        x, y, n_classes, decode = _read(d, "train")
    train = val = test = None
    if "test" in splits:
        test_x, test_y, test_classes, test_decode = _read(d, "test", n_classes)
        test = Dataset(test_decode(test_x), test_y, test_classes)
        if pooled and test.x.shape[1] != x.shape[1]:
            raise ValueError(f"{source_name(cfg, 'test')}: {test.x.shape[1]} features per "
                             f"row, the training source has {x.shape[1]}")
    if pooled:
        try:
            positions = split_positions(y, n_classes, d["train_fraction"], seed=[d["seed"], 2])
        except ValueError as exc:  # name the labels that do not split
            raise ValueError(f"{d['labels'] or d['path'] or d['source']}: {exc}") from None
        train, val = (Dataset(decode(x[rows]), y[rows], n_classes, ids=rows)
                      if name in splits else None
                      for name, rows in zip(("train", "val"), positions))
    return train, val, test


def build_loss_spec(cfg):
    aux = cfg["loss"]["aux"]
    return LossSpec(**{**cfg["loss"], "aux": aux and AuxSpec(**aux)})


def build_prune_schedule(cfg):
    """The epochs below train.max_epochs to prune at, from the prune section,
    or None if pruning is disabled or no such epoch is left: a run that never
    prunes scores no rows. A prune at max_epochs would follow the last update,
    so no epoch would train on what it kept.

    Explicit `prune.epochs` win over every `prune.interval`-th epoch; epochs
    before `prune.warmup_epochs` (default: the first LR milestone) are dropped.
    """
    p = cfg["prune"]
    if not p["enabled"]:
        return None
    warmup = p["warmup_epochs"]
    if warmup is None:
        milestones = cfg["train"]["lr_milestones"]
        warmup = min(milestones) if milestones else 0
    last = cfg["train"]["max_epochs"]
    epochs = p["epochs"]
    if epochs is None:
        epochs = range(p["interval"], last, p["interval"])
    epochs = [e for e in epochs if warmup <= e < last]
    return PruneSchedule(p["percent"], p["ema_factor"], epochs=epochs) if epochs else None


def build_train_config(cfg):
    return TrainConfig(**cfg["train"], loss=build_loss_spec(cfg), prune=build_prune_schedule(cfg))


def model_widths(cfg, input_dim, n_classes):
    return [input_dim, *cfg["model"]["hidden"], n_classes]
