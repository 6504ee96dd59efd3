"""Repeat the benchmark over seeds and record medians and spreads.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Run from the root of a source checkout.  For each workload in
BENCHMARK.json it makes one untraced run per seed (seeds 1..10) and then
one traced run, and records for every metric the median, the quartiles and
the spread: the distance between the quartiles as a share of the median,
which is what the bounds in BENCHMARK.json are compared with.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RAW_TIMES = ("wall_s", "setup_raw_s", "call_p50_ms")
SEEDS = range(1, 11)


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, check=False)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}")
    result = json.loads(done.stdout.splitlines()[-1])
    result["run_s"] = elapsed
    # the raw times run.py prints beside the reference-scaled metrics
    for line in done.stderr.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[0] in RAW_TIMES:
            result["metrics"][fields[0]] = {"value": float(fields[1]),
                                            "unit": fields[2]}
    return result


def _summarize(runs) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        entry = {"unit": runs[0]["metrics"][name]["unit"], "median": median,
                 "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3,
                         spread=(q3 - q1) / median if median else None)
        out[name] = entry
    return out


def _environment() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "not installed"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(), "cpu": cpu,
            "platform": platform.platform()}


def main() -> int:
    contract = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seconds = contract["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    record = {"environment": _environment(), "run_seconds": seconds,
              "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in contract["workloads"]):
        plain = [_run(workload, seed, seconds, 0) for seed in SEEDS]
        traced = [_run(workload, SEEDS[0], seconds, 1)]
        end_to_end = _summarize(plain)
        for name, entry in end_to_end.items():
            entry["bound"] = bounds.get(name)
            print(f"{workload:9s} {name:14s} median {entry['median']:10.4f} "
                  f"{entry['unit']:3s} spread {entry.get('spread', 0):.4f} "
                  f"(bound {entry['bound']})", file=sys.stderr)
        record["workloads"][workload] = {
            "failed": sum(r["failed"] for r in plain + traced),
            "attempted": sum(r["attempted"] for r in plain + traced),
            "correct": all(r["correct"] for r in plain + traced),
            "run_s": [r["run_s"] for r in plain + traced],
            "end_to_end": end_to_end,
            "per_layer": _summarize(traced),
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
