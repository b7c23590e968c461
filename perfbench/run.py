"""Benchmark of the calprune CLI, one workload per invocation.

    python3 perfbench/run.py --workload train_quickstart --seed 0 --seconds 25 --trace 0

Runs `calprune.cli.main(argv)` in this process, one command at a time (a
closed loop with a single caller), for `--seconds` seconds, validates every
command's output, and prints one JSON result as the last line of stdout.
`--trace 0` reports the end-to-end metrics of BENCHMARK.json; `--trace 1`
alternates untraced and traced sessions and reports the per-layer metrics.
perfbench/README.md describes the workloads and every metric.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
import speed
from tracing import OP_KINDS, Tracer, self_time_names, self_times, step_times

ROOT = Path(__file__).resolve().parent.parent
# Paths handed to the CLI are relative to ROOT (the working directory during a
# run), so run.json, which records them, has the same bytes in every checkout.
WORK_DIR = Path(".perfbench_work")    # every command's output lands below here
SPANS_DIR = Path(".perfbench_spans")  # traced runs write their spans here
SUBSEEDS = 7          # input sets per run; quality metrics are their median
IMPORT_REPEATS = 5    # fresh interpreters timed importing calprune.cli
HARD_STOP_S = 120.0   # start no session past this, so a run ends within 180 s
WORKLOADS = ("train_quickstart", "train_mnist_shaped", "eval_100k")


class ProgramMissing(Exception):
    """The checkout does not hold the program this benchmark measures."""


def import_cli():
    """Import calprune.cli from this checkout's src/, and only from there."""
    src = ROOT / "src"
    if not (src / "calprune" / "__init__.py").is_file():
        raise ProgramMissing(f"no calprune package under {src}")
    sys.path.insert(0, str(src))
    import calprune.cli
    if src.resolve() not in Path(calprune.cli.__file__).resolve().parents:
        raise ProgramMissing(f"calprune was imported from {calprune.cli.__file__}, not {src}")
    return calprune.cli


@dataclass
class Inputs:
    """One input set: a config plus the overrides every command gets."""
    offset: int
    config: str
    sets: list
    eval_sets: list = field(default_factory=list)  # evaluate/calibrate only
    checkpoint: str = None                         # trained at set-up
    expected_updates: int = None
    test_rows: int = None


class Bench:
    """Runs CLI commands, validates their output and keeps every measurement.

    Durations are kept twice: raw wall-clock seconds and seconds corrected
    for the host's speed at the time (see speed.py); metrics use the latter.
    """

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None
        self.attempted = 0
        self.failures = []
        self.digests = {}        # (offset, digest name) -> value seen first
        self.slowdowns = []      # host slowdown around each timed interval
        self.train_rates = []    # (raw, corrected) sample updates per second
        self.train_values = {}   # offset -> values of its first train command
        self.eval_values = {}    # offset -> values of its first evaluate command
        self.rows_removed = []   # per train command in a traced session

    def fresh_dir(self, name):
        """An empty directory WORK_DIR/name; the same name gives the same path."""
        path = WORK_DIR / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def timed(self, fn):
        """Run fn between two speed probes; return (result, raw s, corrected s)."""
        before = speed.probe_seconds()
        started = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - started
        factor = speed.slowdown(before, speed.probe_seconds())
        self.slowdowns.append(factor)
        return result, raw, raw / factor

    def command(self, argv):
        """Run one CLI command; return (raw s, corrected s, exit status, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        gc.collect()  # start each command from the clean heap of a new process

        def run():
            span = self.tracer.open("cli." + argv[0]) if self.tracer else None
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    return self.cli.main(argv)
            except SystemExit as exc:
                return exc.code
            except Exception:  # the loop must go on; the failure is counted and shown
                return "uncaught exception: " + traceback.format_exc(limit=-3)
            finally:
                if span is not None:
                    self.tracer.close(span)

        first_span = len(self.tracer.spans) if self.tracer else None
        rc, raw, corrected = self.timed(run)
        if self.tracer:  # the span clock leaves out the tracer's own bookkeeping
            _, start, end, _ = self.tracer.spans[first_span]
            corrected *= (end - start) / raw
            raw = end - start
        if rc != 0 and err.getvalue():
            rc = f"{rc} ({err.getvalue().strip()})"
        return raw, corrected, rc, out.getvalue()

    def record(self, label, offset, check, *args):
        """Validate one command's output; return the values it measured."""
        self.attempted += 1
        try:
            problems, digests, values = check(*args)
        except (OSError, ValueError, KeyError) as exc:
            problems, digests, values = [f"output unreadable: {exc!r}"], {}, {}
        for name, value in digests.items():
            seen = self.digests.setdefault((offset, name), value)
            if seen != value:
                problems.append(f"{name} {value} differs from {seen} on the same inputs")
        if problems:
            self.failures.append({"command": label, "offset": offset, "problems": problems})
        return values

    def train(self, inp, out_dir):
        """`calprune train` on one input set; return (raw s, corrected s, checkpoint)."""
        out_dir = Path(out_dir) / "train"
        raw, corrected, rc, stdout = self.command(
            ["train", "--config", inp.config, *_sets(inp.sets), "--set", f"output_dir={out_dir}"])
        if inp.expected_updates is None:
            inp.expected_updates = expected_updates(inp)
        values = self.record("train", inp.offset, checks.check_train, rc, stdout, out_dir,
                             inp.expected_updates)
        if not values:
            return raw, corrected, None
        updates = values["sample_updates"]
        self.train_rates.append((updates / raw, updates / corrected))
        self.train_values.setdefault(inp.offset, values)
        if self.tracer:
            self.rows_removed.append(values["rows_removed"])
        return raw, corrected, str(out_dir / "checkpoint.json")

    def evaluate_and_calibrate(self, inp, checkpoint, out_dir):
        """`evaluate` then `calibrate` on one checkpoint; return (raw s, corrected s)."""
        if inp.test_rows is None:
            inp.test_rows = test_rows(inp)
        common = ["--config", inp.config, "--checkpoint", checkpoint,
                  *_sets(inp.sets + inp.eval_sets)]
        out_dir = Path(out_dir) / "eval"
        raw_eval, eval_s, rc, stdout = self.command(["evaluate", *common, "--out", str(out_dir)])
        values = self.record("evaluate", inp.offset, checks.check_evaluate, rc, stdout,
                             out_dir, inp.test_rows)
        self.eval_values.setdefault(inp.offset, values)
        raw_cal, cal_s, rc, stdout = self.command(["calibrate", *common])
        self.record("calibrate", inp.offset, checks.check_calibrate, rc, stdout,
                    values.get("ece_text"))
        return raw_eval + raw_cal, eval_s + cal_s


def _sets(assignments):
    return [arg for a in assignments for arg in ("--set", a)]


# These helpers call calprune.config directly: the traced run wraps only the
# names that calprune.cli imported, so validation never shows up in a span.

def _datasets(inp, extra=()):
    from calprune import config
    cfg = config.load_config(inp.config, overrides=list(inp.sets) + list(extra), env={})
    return cfg, config.build_datasets(cfg)


def expected_updates(inp):
    """Closed-form sample updates from the train split's class sizes."""
    cfg, (train, _, _) = _datasets(inp)
    return inputs.expected_sample_updates(train.class_sizes(), cfg)


def test_rows(inp):
    _, (_, _, test) = _datasets(inp, inp.eval_sets)
    return len(test)


# ---- workloads ---------------------------------------------------------------
# Each builder makes one input set and returns it with its corrected set-up time.

def build_quickstart(bench, offset):
    return Inputs(offset, inputs.QUICKSTART_CONFIG, inputs.quickstart_sets(offset)), 0.0


def build_mnist_shaped(bench, offset):
    directory = bench.fresh_dir(f"inputs-{offset}")
    config, _, setup_s = bench.timed(lambda: inputs.write_mnist_shaped(directory, offset))
    return Inputs(offset, config, []), setup_s


def build_eval_100k(bench, offset):
    inp, _ = build_quickstart(bench, offset)
    inp.eval_sets = [f"dataset.test_per_class={inputs.EVAL_TEST_PER_CLASS}"]
    _, setup_s, inp.checkpoint = bench.train(inp, bench.fresh_dir(f"inputs-{offset}"))
    return inp, setup_s


BUILDERS = {"train_quickstart": build_quickstart,
            "train_mnist_shaped": build_mnist_shaped,
            "eval_100k": build_eval_100k}


def import_seconds(bench):
    """Median corrected time for a fresh interpreter to import calprune.cli."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-c", "import calprune.cli"]
    times = [bench.timed(lambda: subprocess.run(argv, env=env, check=True))[2]
             for _ in range(IMPORT_REPEATS)]
    return statistics.median(times)


def run_session(bench, inp):
    """One pass of the workload's commands; return a dict of its timings."""
    out_dir = bench.fresh_dir("session")
    try:
        raw = corrected = 0.0
        checkpoint = inp.checkpoint
        if checkpoint is None:
            raw, corrected, checkpoint = bench.train(inp, out_dir)
            if checkpoint is None:
                return {"raw": raw, "seconds": corrected, "eval_rate": None}
        raw_eval, eval_s = bench.evaluate_and_calibrate(inp, checkpoint, out_dir)
        return {"raw": raw + raw_eval, "seconds": corrected + eval_s,
                "eval_rate": (inp.test_rows / raw_eval, inp.test_rows / eval_s)}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


# ---- measurement -------------------------------------------------------------

def measure(bench, input_sets, seconds, process_start, traced):
    """Run sessions over the input sets in turn until `seconds` have passed.

    Every input set runs at least once and, untraced, one of them twice, so
    digests are compared within the run. With `traced`, each untraced
    session is followed by a traced one on the same inputs.
    """
    tracer = Tracer() if traced else None
    sessions = []
    deadline = time.perf_counter() + seconds
    at_least = len(input_sets) if traced else len(input_sets) + 1
    i = 0
    while (i < at_least or time.perf_counter() < deadline) \
            and time.perf_counter() - process_start < HARD_STOP_S:
        inp = input_sets[i % len(input_sets)]
        session = run_session(bench, inp)
        if traced:
            first_span, first_step = len(tracer.spans), len(tracer.steps)
            restore = tracer.install()
            bench.tracer = tracer
            try:
                session["traced"] = run_session(bench, inp)
            finally:
                bench.tracer = None
                restore()
            session["spans"] = [[name, start, end, None if parent is None else parent - first_span]
                                for name, start, end, parent in tracer.spans[first_span:]]
            session["steps"] = tracer.steps[first_step:]
        sessions.append(session)
        i += 1
    return sessions, tracer


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(bench, sessions, setup_s):
    evals = [v for v in bench.eval_values.values() if v]
    return {
        "setup_s": setup_s,
        "train_samples_per_s": _median([r[1] for r in bench.train_rates]),
        "eval_rows_per_s": _median([s["eval_rate"][1] for s in sessions if s["eval_rate"]]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_ece": _median([v["ece"] for v in evals]),
        "test_error_pct": _median([v["test_error_pct"] for v in evals]),
        "final_train_loss": _median([v["final_train_loss"] for v in bench.train_values.values()]),
    }


def layer_metrics(bench, sessions):
    """Per-layer metrics: medians over traced sessions of per-session values.

    Times are corrected for host speed with the traced session's slowdown.
    """
    per_session, step_ms = [], []
    for session in sessions:
        traced = session["traced"]
        scale = traced["seconds"] / traced["raw"] if traced["raw"] else 1.0
        values = {name: s * scale for name, s in self_times(session["spans"]).items()}
        durations = step_times(session["spans"])
        step_ms += [1e3 * d * scale for d in durations]
        steps = session["steps"]
        n = max(len(steps), 1)
        values["trainer.steps"] = len(durations)
        values["autodiff.nodes_per_step"] = sum(s["nodes"] for s in steps) / n
        values["autodiff.matmul_flops_per_step"] = sum(s["matmul_flops"] for s in steps) / n
        values["autodiff.wasted_matmul_flops_per_step"] = \
            sum(s["wasted_matmul_flops"] for s in steps) / n
        values["autodiff.adjoint_bytes_per_step"] = sum(s["adjoint_bytes"] for s in steps) / n
        values["autodiff.useful_adjoint_frac"] = sum(s["useful_adjoint_frac"] for s in steps) / n
        for op in OP_KINDS:
            values[f"autodiff.ops.{op}_per_step"] = sum(s["ops"][op] for s in steps) / n
        per_session.append(values)
    # a layer that never ran in this workload reports 0
    names = self_time_names() | {name for values in per_session for name in values}
    metrics = {name: _median([v.get(name, 0.0) for v in per_session]) for name in names}
    metrics["pruning.rows_removed"] = _median(bench.rows_removed)
    step_ms.sort()
    metrics["trainer.step_samples"] = len(step_ms)
    metrics["trainer.step_ms_p50"] = _quantile(step_ms, 0.50)
    metrics["trainer.step_ms_p95"] = _quantile(step_ms, 0.95)
    metrics["trace.overhead_frac"] = _median(
        [s["traced"]["seconds"] / s["seconds"] for s in sessions]) - 1.0
    self_total = sum(sum(self_times(s["spans"]).values()) for s in sessions)
    metrics["trace.coverage_frac"] = self_total / sum(s["traced"]["raw"] for s in sessions)
    return metrics


def _quantile(ordered, q):
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ---- environment and output ---------------------------------------------------

def _git_commit():
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None  # a checkout without .git


def _blas():
    import ctypes
    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libraries = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for path in sorted(libraries):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    getter = getattr(lib, symbol)
                    getter.restype = ctypes.c_int
                    blas["threads"] = getter()
                    return blas
    except OSError:
        pass
    return blas


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(args):
    import platform
    import numpy as np
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": _blas(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "git_commit": _git_commit(), "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="seed 0 starts from the checked-in quickstart config")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None):
    process_start = time.perf_counter()
    args = parse_args(argv)
    try:
        cli = import_cli()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if not (ROOT / inputs.QUICKSTART_CONFIG).is_file():
        print(f"perfbench: {inputs.QUICKSTART_CONFIG} is missing", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    os.environ.pop(cli.OUTPUT_DIR_ENV, None)
    os.chdir(ROOT)
    bench = Bench(cli)
    try:
        import_s = import_seconds(bench)
        input_sets, build_times = [], []
        for j in range(SUBSEEDS):
            inp, build_s = BUILDERS[args.workload](bench, SUBSEEDS * args.seed + j)
            input_sets.append(inp)
            build_times.append(build_s)
        sessions, tracer = measure(bench, input_sets, args.seconds, process_start, args.trace)
        if args.trace:
            metrics = layer_metrics(bench, sessions)
        else:
            metrics = end_to_end_metrics(bench, sessions,
                                         import_s + statistics.median(build_times))
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    problems = list(bench.failures)
    if args.trace:
        if abs(metrics["trace.coverage_frac"] - 1.0) > 1e-9:
            problems.append({"command": "trace", "problems": ["self times miss wall time"]})
        SPANS_DIR.mkdir(exist_ok=True)
        (SPANS_DIR / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"spans": tracer.spans}) + "\n")
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    detail = {
        "environment": environment(args),
        "sessions": len(sessions),
        "session_raw_s": [round(s["raw"], 6) for s in sessions],
        "host_slowdown": {"median": _median(bench.slowdowns),
                          "min": min(bench.slowdowns), "max": max(bench.slowdowns)},
        "raw_train_samples_per_s": _median([r[0] for r in bench.train_rates]),
        "raw_eval_rows_per_s": _median([s["eval_rate"][0] for s in sessions if s["eval_rate"]]),
        "digests": {f"{offset}:{name}": value
                    for (offset, name), value in sorted(bench.digests.items())},
        "failures": problems,
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
