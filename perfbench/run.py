"""Benchmark of amoebadim, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from
./src.  It writes the workload's inputs from the seed (timed as set-up),
then runs the units of work of a pass round and round until S seconds have
gone, checks every answer against the value known from construction, prints
every metric with its unit on the error stream, and prints one JSON line on
standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with no
wrappers installed.  With --trace 1 they are the per-layer ones: one plain
pass, then traced passes; the layers are reported per traced pass, and the
difference of the two pass times as the tracing overhead.  Workloads,
metrics and the predictions they test are described in perfbench/README.md.
"""

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import inputs
from tracer import Tracer, empty_summary, merge

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

SETUP_REPEATS = 9
STARTUP_REPEATS = 5
CALL_TIMEOUT_S = 150
P90_MIN_CALLS = 100

CLI = "import sys; from amoebadim.cli import main; sys.exit(main(sys.argv[1:]))"

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_ref": ("ref", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Layers whose call count and self time are reported as NAME.calls, NAME.s;
# per traced pass, except `families`, which runs once per set-up.
COUNTED_LAYERS = (
    "rational_linalg.sum_rows", "rational_linalg.intersect_rows",
    "rational_linalg.complement_rows", "rational_linalg.canonicalize",
    "rational_linalg.sum_dim", "polyhedral.parse_complex",
    "polyhedral.dim_sum_with_subspace", "families",
    "estimator.log_jacobian", "estimator.svd", "estimator.parse",
    "roots.polynomial_roots",
)

PER_LAYER = {}
for _layer in COUNTED_LAYERS:
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
    PER_LAYER[f"{_layer}.s"] = ("s", "lower")
PER_LAYER.update({
    "rational_linalg.max_entry_bits": ("bits", "lower"),
    "subspace_search.closure.s": ("s", "lower"),
    "subspace_search.closure.incl_s": ("s", "lower"),
    "subspace_search.closure.subspaces": ("count", "lower"),
    "subspace_search.closure.complete_share": ("ratio", "higher"),
    "subspace_search.closure.fresh_per_sum": ("ratio", "higher"),
    "subspace_search.exhaustive.s": ("s", "lower"),
    "subspace_search.exhaustive.incl_s": ("s", "lower"),
    "subspace_search.exhaustive.calls": ("count", "lower"),
    "subspace_search.exhaustive.distinct_share": ("ratio", "higher"),
    "subspace_search.score.self_s": ("s", "lower"),
    "subspace_search.candidates": ("count", "lower"),
    "subspace_search.reduce_torus.s": ("s", "lower"),
    "subspace_search.value_sum": ("count", "lower"),
    "subspace_search.certified_share": ("ratio", "higher"),
    "estimator.estimate.self_s": ("s", "lower"),
    "estimator.sample_accept_share": ("ratio", "higher"),
    "cli.startup_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
})


# The host's speed drifts: the same computation has run up to 1.7x slower
# for minutes at a time.  So a fixed reference computation, independent of
# the package, is timed between units of work, at least REFERENCE_INTERVAL_S
# apart, and each time a unit takes is also given in multiples of the mean
# of the reference times taken just before and just after it.  The ratio
# cancels the drift; a change to the package moves it in full.
REFERENCE_INTERVAL_S = 0.25
# Set-up times are scaled the same way and turned back into seconds at this
# reference time, the median reference on the baseline's host.  So
# `setup_s` reads as seconds on that host, whatever the drift.
SETUP_REFERENCE_S = 0.0013


def _reference_kernel(matrices) -> int:
    """Fraction-free elimination of fixed integer matrices; their ranks."""
    rank = 0
    for matrix in matrices:
        rows = [list(r) for r in matrix]
        for col in range(8):
            pivot = next((r for r in rows if r[col]), None)
            if pivot is None:
                continue
            rows.remove(pivot)
            b = pivot[col]
            rows = [[x * b - y * r[col] for x, y in zip(r, pivot)]
                    for r in rows]
            rows = [[x // g for x in r] if (g := math.gcd(*r)) > 1 else r
                    for r in rows]
            rank += 1
    return rank


def reference_s() -> float:
    """Seconds of the reference computation: the fastest of five runs, so a
    single preemption does not count as drift."""
    rng = random.Random(0)
    matrices = [[[rng.randint(-9, 9) for _ in range(8)] for _ in range(8)]
                for _ in range(16)]
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        _reference_kernel(matrices)
        best = min(best, time.perf_counter() - start)
    return best


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


@dataclass
class Answer:
    """What one unit of work answered, read after the timing stopped."""

    failure: str | None = None
    values: list = field(default_factory=list)      # `value` of dim answers
    certified: list = field(default_factory=list)   # their `certified`
    samples_used: int = 0
    trials: int = 0
    rss_kb: int = 0
    trace: dict | None = None


@dataclass
class Measurement:
    """Units of work run one after another, and what they answered."""

    units: int
    durations: list    # per unit, the seconds of each time it ran
    around_s: list     # per unit, the reference time around each time it ran
    calls_per_pass: int
    call_s: list       # seconds of every call
    reference_s: list  # every reference time taken
    answers: list
    trace: dict | None

    @property
    def passes(self) -> float:
        return len(self.answers) / self.units

    @property
    def pass_s(self) -> float:
        """Time of one pass: the sum of each unit's mean time.  The host's
        speed drifts over seconds, so the mean over the whole run is
        steadier than a median of a few passes."""
        return sum(statistics.fmean(d) for d in self.durations)

    @property
    def pass_ref(self) -> float:
        """Time of one pass in multiples of the reference: the sum of each
        unit's mean time, each time divided by the reference time around
        it.  In paired runs the mean was steadier than the median or the
        fastest."""
        return sum(statistics.fmean(d / r for d, r in zip(ds, rs))
                   for ds, rs in zip(self.durations, self.around_s))

    @property
    def reference_mean_s(self) -> float:
        return statistics.fmean(self.reference_s)

    @property
    def failures(self) -> list:
        return [a.failure for a in self.answers if a.failure]


def check_call(call: dict, code: int, doc) -> str | None:
    """Compare one command's exit code and JSON answer with what the
    manifest expects; a message for the first mismatch, else None."""
    if code != 0:
        return f"exit code {code}, expected 0"
    if not isinstance(doc, dict):
        return "no JSON object on standard output"
    for key, want in call["expect"].items():
        if doc.get(key) != want:
            return f"{key} = {doc.get(key)!r}, expected {want!r}"
    return None


def check_corpus(item: dict, sigma, result, oracle) -> str | None:
    """The search's contract on one corpus complex: d <= lower_bound <=
    value <= min(2d, n), the witness attains the value, and for small n the
    value equals the exhaustive oracle's."""
    from amoebadim.subspace_search import objective

    n, d = item["n"], item["d"]
    if not d <= result.lower_bound <= result.value <= min(2 * d, n):
        return (f"bounds violated: d={d}, lower_bound={result.lower_bound},"
                f" value={result.value}, n={n}")
    attained = objective(sigma, result.witness_S)
    if attained != result.value:
        return f"witness attains {attained}, value is {result.value}"
    if oracle is not None and oracle.value != result.value:
        return f"value {result.value}, oracle {oracle.value}"
    return None


def spawn(argv, cwd, env, out_path: Path):
    """Run one child to completion with its standard output in `out_path`
    and its error stream beside it; (exit code, seconds, peak RSS in KiB)."""
    with open(out_path, "wb") as out, \
            open(out_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                stderr=err)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss


def _error_tail(out_path: Path) -> str:
    text = out_path.with_suffix(".err").read_text(errors="replace").strip()
    return text.splitlines()[-1] if text else ""


class ProcessWorkload:
    """One fresh `amoebadim` process per call, as a command-line user pays
    for it; no in-process cache carries from one call to the next."""

    def __init__(self, manifest: dict, in_dir: Path, env: dict, work: Path):
        self.units = manifest["calls"]
        self.in_dir = in_dir
        self.env = env
        self.work = work
        self.count = 0

    def tracing(self, total: dict):
        return nullcontext()  # each child traces itself; see `check`

    def run(self, call: dict, traced: bool):
        self.count += 1
        out = self.work / f"call{self.count}.out"
        trace_file = out.with_suffix(".trace")
        prefix = ([sys.executable, str(BENCH / "child.py"), str(trace_file)]
                  if traced else [sys.executable, "-c", CLI])
        code, elapsed, rss = spawn(prefix + call["argv"], self.in_dir,
                                   self.env, out)
        return elapsed, [elapsed], (call, out, code, rss, traced)

    def check(self, record) -> Answer:
        call, out, code, rss, traced = record
        answer = Answer(rss_kb=rss)
        try:
            doc = json.loads(out.read_text())
        except ValueError:
            doc = None
        problem = check_call(call, code, doc)
        if problem:
            answer.failure = (f"{' '.join(call['argv'])}: {problem} "
                              f"{_error_tail(out)}")
            return answer
        argv = call["argv"]
        if argv[0] == "dim":
            answer.values.append(doc["value"])
            answer.certified.append(doc["certified"])
        elif argv[0] == "estimate":
            answer.samples_used = doc["samples_used"]
            answer.trials = int(argv[argv.index("--trials") + 1])
        if traced:
            answer.trace = json.loads(out.with_suffix(".trace").read_text())
        return answer


class CorpusWorkload:
    """One process calling the library over a batch of complexes, the way a
    batch scan does: parse, search with the default strategy, and for small
    ambient dimension run the exhaustive oracle as well."""

    def __init__(self, manifest: dict):
        from amoebadim import polyhedral, subspace_search

        self.polyhedral = polyhedral
        self.search = subspace_search
        self.units = [(item, json.dumps(item["fan"]))
                      for item in manifest["complexes"]]

    @contextmanager
    def tracing(self, total: dict):
        tracer = Tracer()
        tracer.install()
        try:
            yield
        finally:
            tracer.uninstall()
            merge(total, tracer.summary())

    def run(self, unit, traced: bool):
        item, text = unit
        clock = time.perf_counter
        # attribute lookups at call time, so installed wrappers apply
        t0 = clock()
        sigma = self.polyhedral.parse_complex(text)
        result = self.search.amoeba_dim(sigma)
        t1 = clock()
        oracle = None
        if item["n"] <= inputs.ORACLE_MAX_AMBIENT:
            oracle = self.search.amoeba_dim(
                sigma, strategy=inputs.ORACLE_STRATEGY)
        t2 = clock()
        call_s = [t1 - t0, t2 - t1] if oracle else [t1 - t0]
        return t2 - t0, call_s, (item, sigma, result, oracle)

    def check(self, record) -> Answer:
        item, sigma, result, oracle = record
        problem = check_corpus(item, sigma, result, oracle)
        return Answer(failure=f"{item['fan']}: {problem}" if problem else None,
                      values=[result.value], certified=[result.certified])


def measure(workload, seconds: float, traced: bool) -> Measurement:
    """Run the workload's units in order, round and round, until `seconds`
    have gone and at least one whole pass is done; traced runs stop only
    at the end of a pass, so their counts can be given per pass.  Answers
    are checked after the clock and the tracer have stopped."""
    units = workload.units
    durations = [[] for _ in units]
    before = [[] for _ in units]  # index in `refs` of the last reference
    unit_calls = [0] * len(units)
    call_s = []
    refs = []
    records = []
    total = empty_summary() if traced else None
    start = time.perf_counter()
    sampled_at = -REFERENCE_INTERVAL_S
    done = 0
    with workload.tracing(total) if traced else nullcontext():
        while (done < len(units) or time.perf_counter() - start < seconds
               or (traced and done % len(units))):
            if time.perf_counter() - sampled_at >= REFERENCE_INTERVAL_S:
                refs.append(reference_s())
                sampled_at = time.perf_counter()
            k = done % len(units)
            elapsed, calls, record = workload.run(units[k], traced)
            durations[k].append(elapsed)
            before[k].append(len(refs) - 1)
            unit_calls[k] = len(calls)
            call_s.extend(calls)
            records.append(record)
            done += 1
    refs.append(reference_s())
    around = [[(refs[i] + refs[i + 1]) / 2 for i in b] for b in before]
    answers = [workload.check(r) for r in records]
    if traced:
        for answer in answers:
            if answer.trace:
                merge(total, answer.trace)
    return Measurement(len(units), durations, around, sum(unit_calls), call_s,
                       refs, answers, total)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _snapshot(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _spawn_checked(argv, work: Path, env: dict, name: str) -> float:
    """Run `python3 ARGV...` from the checkout root, which must succeed;
    its seconds."""
    log = work / f"{name}.out"
    code, elapsed, _ = spawn([sys.executable] + argv, ROOT, env, log)
    if code != 0:
        raise BenchError(f"{' '.join(argv)} exited {code}: "
                         f"{_error_tail(log)}")
    return elapsed


def set_up(workload: str, seed: int, work: Path, env: dict):
    """Write the inputs SETUP_REPEATS times, each in a fresh interpreter
    that imports the package; (median seconds scaled by the reference, see
    SETUP_REFERENCE_S, raw median seconds, manifest, input directory,
    whether every repeat wrote byte-identical files)."""
    dirs = [work / f"inputs{i}" for i in range(SETUP_REPEATS)]
    times, refs = [], [reference_s()]
    for i, d in enumerate(dirs):
        times.append(_spawn_checked([str(BENCH / "inputs.py"), workload,
                                     str(seed), str(d)], work, env,
                                    f"setup{i}"))
        refs.append(reference_s())
    first = _snapshot(dirs[0])
    identical = all(_snapshot(d) == first for d in dirs[1:])
    manifest = json.loads(first["manifest.json"])
    scaled = statistics.median(
        t / ((a + b) / 2) for t, a, b in zip(times, refs, refs[1:])) \
        * SETUP_REFERENCE_S
    return scaled, statistics.median(times), manifest, dirs[0], identical


def _quality(m: Measurement) -> dict:
    """Answer-quality figures per pass, from the answers themselves."""
    values = [v for a in m.answers for v in a.values]
    certified = [c for a in m.answers for c in a.certified]
    used = sum(a.samples_used for a in m.answers)
    trials = sum(a.trials for a in m.answers)
    return {
        "subspace_search.value_sum": sum(values) / m.passes,
        "subspace_search.certified_share":
            sum(certified) / len(certified) if certified else 0.0,
        "estimator.sample_accept_share": used / trials if trials else 0.0,
    }


def end_to_end_metrics(m: Measurement, setup_s: float,
                       in_process: bool) -> dict:
    if in_process:
        import resource

        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(a.rss_kb for a in m.answers)
    return {
        "setup_s": setup_s,
        "wall_ref": m.pass_ref,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer_metrics(plain: Measurement, traced: Measurement,
                      families_trace: dict, startup_s: float) -> dict:
    """Per-pass layer figures from the traced passes; the `families`
    generators' figures from one traced set-up."""
    total = traced.trace
    stats = total["stats"]
    passes = traced.passes

    def calls(key):
        return stats.get(key, [0, 0.0, 0.0])[0] / passes

    def incl(key):
        return stats.get(key, [0, 0.0, 0.0])[1] / passes

    def own(key):
        return stats.get(key, [0, 0.0, 0.0])[2] / passes

    metrics = {}
    for layer in COUNTED_LAYERS:
        metrics[f"{layer}.calls"] = calls(layer)
        metrics[f"{layer}.s"] = own(layer)
    generators = families_trace["stats"].get("families", [0, 0.0, 0.0])
    metrics["families.calls"] = generators[0]
    metrics["families.s"] = generators[2]
    closure = total["closure"]
    keys = total["exhaustive_keys"]
    keys_per_pass = len(keys) / passes
    traced_wall = traced.pass_s
    metrics.update({
        "rational_linalg.max_entry_bits": total["max_entry_bits"],
        "subspace_search.closure.s": own("subspace_search.closure"),
        "subspace_search.closure.incl_s": incl("subspace_search.closure"),
        "subspace_search.closure.subspaces": closure["subspaces"] / passes,
        "subspace_search.closure.complete_share":
            closure["complete"] / closure["calls"] if closure["calls"]
            else 0.0,
        "subspace_search.closure.fresh_per_sum":
            closure["added"] / closure["sums"] if closure["sums"] else 0.0,
        "subspace_search.exhaustive.s": own("subspace_search.exhaustive"),
        "subspace_search.exhaustive.incl_s":
            incl("subspace_search.exhaustive"),
        "subspace_search.exhaustive.calls": keys_per_pass,
        # every pass makes the same calls, so the distinct keys of all
        # passes are those of one
        "subspace_search.exhaustive.distinct_share":
            len({tuple(k) for k in keys}) / keys_per_pass if keys else 0.0,
        "subspace_search.score.self_s": own("subspace_search.score"),
        "subspace_search.candidates": total["candidates"] / passes,
        "subspace_search.reduce_torus.s": own("subspace_search.reduce_torus"),
        "estimator.estimate.self_s": own("estimator.estimate"),
        "cli.startup_s": startup_s,
        "cli.self_s": own("cli"),
        "trace.wall_s": traced_wall,
        # each pass time in reference units first, so host drift between
        # the plain and the traced passes does not count as overhead
        "trace.overhead_s": (traced_wall / traced.reference_mean_s
                             - plain.pass_s / plain.reference_mean_s)
        * statistics.fmean(plain.reference_s + traced.reference_s),
    })
    metrics.update(_quality(traced))
    shares = {
        "closure (incl)": incl("subspace_search.closure"),
        "exhaustive (incl)": incl("subspace_search.exhaustive"),
        "estimator+roots (self)": sum(
            own(k) for k in stats if k.startswith(("estimator.", "roots."))),
        "outside cli.main": traced_wall - incl("cli") if calls("cli")
        else 0.0,
    }
    for name, seconds in shares.items():
        print(f"  share of traced pass: {name:24s} "
              f"{seconds / traced_wall:6.1%}", file=sys.stderr)
    return metrics


def _report(metrics: dict, units: dict, extra: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6g} {units[name][0]}", file=sys.stderr)
    for name, text in extra.items():
        print(f"  {name:48s} {text}", file=sys.stderr)


def run(args, work: Path) -> dict:
    # One CPU for this process, the reference and every child, so the
    # reference times the CPU the work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = child_env()
    setup_s, setup_raw_s, manifest, in_dir, inputs_ok = set_up(
        args.workload, args.seed, work, env)
    in_process = args.workload == "corpus"
    if in_process:
        sys.path.insert(0, str(SRC))
        import amoebadim

        if not Path(amoebadim.__file__).resolve().is_relative_to(
                SRC.resolve()):
            raise BenchError(f"imported amoebadim from {amoebadim.__file__},"
                             f" not from {SRC}")
        workload = CorpusWorkload(manifest)
    else:
        workload = ProcessWorkload(manifest, in_dir, env, work)

    start = time.perf_counter()
    if args.trace:
        plain = measure(workload, 0.0, traced=False)
        traced = measure(workload, args.seconds - (time.perf_counter()
                                                   - start), traced=True)
        runs = [plain, traced]
    else:
        plain = measure(workload, args.seconds, traced=False)
        runs = [plain]
    failures = [f for m in runs for f in m.failures]
    attempted = sum(len(m.call_s) for m in runs)
    print(f"{args.workload} seed {args.seed}: "
          + ", ".join(f"{m.passes:.2f} {'traced' if m.trace else 'plain'} "
                      "passes" for m in runs)
          + f", {attempted} calls, {len(failures)} failed", file=sys.stderr)
    for failure in failures[:10]:
        print(f"  FAILED {failure}", file=sys.stderr)
    if not inputs_ok:
        print("  FAILED set-up repeats wrote different inputs",
              file=sys.stderr)
    extra = {
        "calls per pass": str(plain.calls_per_pass),
        "failed_share": f"{len(failures) / attempted:.6g}",
    }
    if args.trace:
        families_trace = work / "families.trace"
        _spawn_checked([str(BENCH / "inputs.py"), args.workload,
                        str(args.seed), str(work / "traced_inputs"),
                        str(families_trace)], work, env, "traced_setup")
        startup_s = 0.0 if in_process else statistics.median(
            _spawn_checked(["-c", "import amoebadim.cli"], work, env,
                           f"startup{i}") for i in range(STARTUP_REPEATS))
        metrics = per_layer_metrics(
            plain, traced, json.loads(families_trace.read_text()), startup_s)
        _report(metrics, PER_LAYER, extra)
    else:
        metrics = end_to_end_metrics(plain, setup_s, in_process)
        extra["wall_s"] = f"{plain.pass_s:.6g} s"
        extra["setup_raw_s"] = f"{setup_raw_s:.6g} s"
        extra["call_p50_ms"] = \
            f"{statistics.median(plain.call_s) * 1000.0:.6g} ms"
        extra["call samples"] = str(len(plain.call_s))
        extra["reference time"] = (
            f"{statistics.median(plain.reference_s) * 1000.0:.6g} ms median"
            f" of {len(plain.reference_s)}")
        if plain.calls_per_pass >= P90_MIN_CALLS:
            p90 = statistics.quantiles(plain.call_s, n=10)[-1] * 1000.0
            extra["call_p90_ms"] = f"{p90:.6g} ms"
        extra.update((k, f"{v:.6g}") for k, v in _quality(plain).items())
        _report(metrics, END_TO_END, extra)
    table = PER_LAYER if args.trace else END_TO_END
    return {
        "correct": inputs_ok and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": table[name][0]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "amoebadim" / "__init__.py").is_file():
        print(f"error: no amoebadim sources under {SRC}; run this from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
