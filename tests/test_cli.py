"""Config schema strictness and the four CLI subcommands, run in-process."""

import importlib.util
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from calprune import trainer
from calprune.autodiff import Graph
from calprune.cli import main
from calprune.config import (ConfigError, DEFAULTS, OUTPUT_DIR_ENV, build_datasets,
                             build_prune_schedule, load_config, resolve_config)
from calprune.losses import AuxSpec, LossSpec, total_loss
from calprune.mlp import init_mlp, logits_graph, param_bindings

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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


def test_source_specific_keys_enforced():
    with pytest.raises(ConfigError, match="dataset.images"):
        resolve_config({"dataset": {"source": "gaussian_mixture", "images": "x"}})
    with pytest.raises(ConfigError, match="dataset.images"):
        resolve_config({"dataset": {"source": "idx_pair"}})


def test_config_value_types_checked(tmp_path, capsys):
    path = write_config(tmp_path, tmp_path / "out")
    assert main(["train", "--config", str(path), "--set", "train.batch_size=abc"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "train.batch_size" in err
    for bad in ({"train": {"max_epochs": 2.5}}, {"prune": {"enabled": 1}},
                {"eval": {"deltas": 0.95}}, {"model": {"hidden": None}}):
        with pytest.raises(ConfigError, match="must be of type"):
            resolve_config(bad)
    # an integer stands in for a number; keys defaulting to None take anything
    cfg = resolve_config({"train": {"learning_rate": 1}, "loss": {"aux": None},
                          "prune": {"epochs": [3, 6]}})
    assert cfg["train"]["learning_rate"] == 1 and cfg["loss"]["aux"] is None


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
@pytest.mark.parametrize("key, name", [
    ("train.learning_rate", "learning_rate"), ("train.weight_decay", "weight_decay"),
    ("train.lr_decay_factor", "lr_decay_factor"), ("loss.gamma", "gamma"),
    ("loss.aux.alpha", "huber alpha"), ("loss.aux.weight", "aux weight")])
def test_non_finite_float_settings_rejected(tmp_path, capsys, key, name, value):
    path = write_config(tmp_path, tmp_path / "out")
    assert main(["train", "--config", str(path), "--set", f"{key}={value}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err and "Traceback" not in err
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


def test_prune_schedule_resolution():
    cfg = resolve_config({"prune": {"enabled": True},
                          "train": {"lr_milestones": [30, 45]}})
    sched = build_prune_schedule(cfg)
    assert sched.warmup_epochs == 30  # defaults to the first LR milestone
    assert sched.interval == 5
    cfg = resolve_config({"prune": {"enabled": True, "epochs": [7, 11],
                                    "warmup_epochs": 0}})
    sched = build_prune_schedule(cfg)
    assert sched.interval is None
    assert sched.epochs == frozenset({7, 11})
    assert build_prune_schedule(resolve_config({})) is None


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
    code = main(["evaluate", "--config", str(config_path),
                 "--checkpoint", str(out / "checkpoint.json"),
                 "--out", str(tmp_path / "bad_eval"),
                 "--set", "dataset.classes=3"])
    assert code == 1
    assert "classes" in capsys.readouterr().err


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
    once (both ECEs); its ece_before equals evaluate's ece."""
    config_path, out = trained
    forward = trainer.forward_logits
    forwarded = []

    def counting_forward(params, batch):
        forwarded.append(batch.shape[0])
        return forward(params, batch)

    monkeypatch.setattr(trainer, "forward_logits", counting_forward)
    common = ["--config", str(config_path), "--checkpoint", str(out / "checkpoint.json")]
    assert main(["calibrate", *common]) == 0
    calibrated = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    _, val, test = build_datasets(load_config(config_path, env={}))
    assert forwarded == [len(val), len(test)]
    assert main(["evaluate", *common, "--out", str(out.parent / "eval_once")]) == 0
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


@pytest.mark.parametrize("drop, key", [
    (("report",), "'report'"),
    (("report", "subsets"), "'subsets'"),
    (("report", "bins", 0, "count"), "'count'"),
    (None, "'report'"),
    ("truncated", "invalid JSON"),
], ids=["no_report", "no_subsets", "bin_without_count", "list_root", "truncated"])
def test_report_malformed_run_exits_cleanly(trained, tmp_path, capsys, drop, key):
    """`drop` is the key path deleted from run.json; None wraps the document in a
    list; "truncated" writes a document cut off after its first key."""
    config_path, out = trained
    doc = json.loads((out / "run.json").read_text())
    if drop is None:
        doc = [doc]
    elif drop != "truncated":
        node = doc
        for step in drop[:-1]:
            node = node[step]
        del node[drop[-1]]
    bad = tmp_path / "bad_run.json"
    bad.write_text('{"report": \n' if drop == "truncated" else json.dumps(doc))
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


def write_idx(directory, name, labels, seed):
    labels = np.asarray(labels, dtype=np.uint8)
    pixels = np.random.default_rng(seed).integers(0, 256, (len(labels), 2, 2), dtype=np.uint8)
    images = directory / f"{name}-images.idx"
    images.write_bytes(struct.pack(">IIII", 0x803, len(labels), 2, 2) + pixels.tobytes())
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


@pytest.mark.parametrize("mutate", [
    lambda doc: doc["layers"].append(doc["layers"][-1]),
    lambda doc: doc.pop("widths"),
], ids=["extra_layer", "no_widths"])
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
    root = total_loss(g, log_probs, rng.integers(0, 4, 128), spec, 4)
    bindings = param_bindings(params)
    bindings["x"] = rng.normal(size=(128, 2))
    g.forward(bindings, root=root)
    g.backward(root=root)
    stats = load_tracing().graph_stats(g, root)
    assert stats["nodes"] == 34
    assert 0 < stats["useful_adjoint_frac"] <= 1
