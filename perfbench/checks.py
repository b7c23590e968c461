"""Output validation for one CLI command, written independently of calprune.

Each check returns a list of problems; an empty list means the command's
output is correct. Digests of the bytes each command wrote are returned so
the caller can require identical bytes from identical inputs.
"""

import csv
import hashlib
import json
import math
from pathlib import Path


def printed_metrics(stdout):
    """The CLI's `name value` lines as a dict of strings."""
    out = {}
    for line in stdout.splitlines():
        name, _, value = line.partition(" ")
        out[name] = value
    return out


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _stable_run_digest(text):
    doc = json.loads(text)
    doc.get("totals", {}).pop("wall_clock_seconds", None)
    return hashlib.sha256((json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()).hexdigest()


def check_manifest(out_dir):
    """Every manifested file exists and re-hashes to its recorded digest."""
    out_dir = Path(out_dir)
    problems = []
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    for name, entry in manifest.get("files", {}).items():
        path = out_dir / name
        if not path.is_file():
            problems.append(f"manifested file {name} missing")
            continue
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if len(data) != entry.get("bytes") or digest != entry.get("sha256"):
            problems.append(f"{name} does not match its manifest entry")
        stable = entry.get("stable_sha256")
        if stable is not None and _stable_run_digest(data.decode()) != stable:
            problems.append(f"{name} stable digest does not match its manifest entry")
    if not manifest.get("files"):
        problems.append("manifest lists no files")
    return problems


def ece_from_reliability_csv(path):
    """Sum over bins of count/n * |accuracy - mean confidence|."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if int(r["count"]) > 0]
    n = sum(int(r["count"]) for r in rows)
    return sum(int(r["count"]) / n * abs(float(r["accuracy"]) - float(r["mean_confidence"]))
               for r in rows)


def _check_ece(printed, out_dir):
    try:
        recomputed = ece_from_reliability_csv(Path(out_dir) / "reliability.csv")
        shown = float(printed["ece"])
    except (OSError, KeyError, ValueError) as exc:
        return [f"ece not checkable: {exc}"]
    # printed values carry six significant digits
    if abs(recomputed - shown) > 1e-5 * max(abs(shown), 1e-12):
        return [f"printed ece {shown} != {recomputed} recomputed from reliability.csv"]
    return []


def check_train(rc, stdout, out_dir, expected_updates):
    """Validate a `train` command; return (problems, digests, values)."""
    if rc != 0:
        return [f"exit status {rc}"], {}, {}
    printed = printed_metrics(stdout)
    problems = check_manifest(out_dir) + _check_ece(printed, out_dir)
    run_text = (Path(out_dir) / "run.json").read_text()
    run = json.loads(run_text)
    updates = run["totals"]["sample_updates"]
    if printed.get("sample_updates") != str(updates):
        problems.append(f"printed sample_updates {printed.get('sample_updates')} != {updates}")
    if updates != expected_updates:
        problems.append(f"sample_updates {updates} != closed form {expected_updates}")
    digests = {"checkpoint_sha256": _sha256(Path(out_dir) / "checkpoint.json"),
               "run_stable_sha256": _stable_run_digest(run_text)}
    values = {"ece": float(printed["ece"]), "test_error_pct": float(printed["test_error_pct"]),
              "final_train_loss": run["epochs"][-1]["train_loss"], "sample_updates": updates,
              "rows_removed": sum(sum(e["removed_per_class"]) for e in run["prune_events"])}
    return problems, digests, values


def check_evaluate(rc, stdout, out_dir, test_rows):
    """Validate an `evaluate` command; return (problems, digests, values)."""
    if rc != 0:
        return [f"exit status {rc}"], {}, {}
    printed = printed_metrics(stdout)
    problems = check_manifest(out_dir) + _check_ece(printed, out_dir)
    report = json.loads((Path(out_dir) / "report.json").read_text())
    if report["n"] != test_rows:
        problems.append(f"report covers {report['n']} rows, test set has {test_rows}")
    digests = {"eval_report_sha256": _sha256(Path(out_dir) / "report.json")}
    values = {"ece": float(printed["ece"]), "ece_text": printed["ece"],
              "test_error_pct": float(printed["test_error_pct"])}
    return problems, digests, values


def check_calibrate(rc, stdout, ece_text):
    """Validate a `calibrate` command against the `evaluate` run before it."""
    if rc != 0:
        return [f"exit status {rc}"], {}, {}
    printed = printed_metrics(stdout)
    problems = []
    try:
        temperature = float(printed["temperature"])
    except (KeyError, ValueError):
        return [f"no temperature printed: {stdout!r}"], {}, {}
    if not (math.isfinite(temperature) and temperature > 0):
        problems.append(f"temperature {temperature} is not finite and > 0")
    if printed.get("ece_before") != ece_text:
        problems.append(f"ece_before {printed.get('ece_before')} != evaluate's ece {ece_text}")
    digests = {"temperature": printed["temperature"], "ece_after": printed.get("ece_after")}
    return problems, digests, {"temperature": temperature}
