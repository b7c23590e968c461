"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/summarize.py --runs 10 --out perfbench/baseline.json

For each workload, untraced runs on seeds 0..runs-1 give each end-to-end
metric's median, quartiles and spread: (q3 - q1) / median, the figure the
bounds in BENCHMARK.json are set against. One traced run on seed 0 gives the
per-layer metrics. Runs go one at a time, so they do not compete for CPUs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                           check=True).stdout.splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = {"runs": args.runs, "run_seconds": config["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in config["workloads"]):
        results = []
        for seed in range(args.runs):
            detail, result = run(workload, seed, config["run_seconds"], 0)
            doc.setdefault("environment", detail["environment"])
            results.append(result)
            print(workload, seed, result["correct"], result["failed"], flush=True)
        _, traced = run(workload, 0, config["run_seconds"], 1)
        doc["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in results + [traced]),
            "end_to_end": {
                m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in results])
                for m in config["end_to_end"]},
            "per_layer_seed0": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    for key in ("seed", "workload", "trace"):
        doc["environment"].pop(key, None)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
