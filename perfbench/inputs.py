"""Benchmark inputs, made from a workload name and a seed alone.

    python3 perfbench/inputs.py WORKLOAD SEED OUT_DIR [TRACE_FILE]

writes the workload's input files and `manifest.json` into OUT_DIR.  The
manifest lists every call of one pass with the answer it must give, known
from construction.  The same seed writes byte-identical files.  With
TRACE_FILE the run is traced and its summary written there.

The `families` fixtures are written by the package's own `gen` command, as
a user would make them; the corpus complexes and the varieties are written
here, independently of the package, so a change to the package cannot
change what the benchmark feeds it.
"""

import json
import random
import sys
from itertools import combinations
from pathlib import Path

WORKLOADS = ("families", "corpus", "sample")

CORPUS_SIZE = 60          # complexes per pass, a third each of n = 2, 3, 4
ORACLE_MAX_AMBIENT = 3    # corpus complexes this small also get the oracle
ORACLE_STRATEGY = "exhaustive(height=2)"
SAMPLE_TRIALS = 10000     # sampling outweighs process start-up on every call
VERIFY_SEED = "1"


def _implicit(n, *terms):
    return {"ambient_dim": n, "polynomial": {"terms": [
        {"coeff": [c, "0"], "exponents": list(e)} for c, e in terms]}}


def _monomial_map(m, *exponents):
    return {"domain_dim": m, "ambient_dim": len(exponents), "components": [
        {"terms": [{"coeff": ["1", "0"], "exponents": list(e)}]}
        for e in exponents]}


# name -> (document, --kind, rank = amoeba dimension)
VARIETIES = {
    "line2": (_implicit(2, ("1", (1, 0)), ("1", (0, 1)), ("1", (0, 0))),
              "implicit", 2),
    "plane3": (_implicit(3, ("1", (1, 0, 0)), ("1", (0, 1, 0)),
                         ("1", (0, 0, 1)), ("1", (0, 0, 0))),
               "implicit", 3),
    "moment": (_monomial_map(1, (1,), (2,)), "param", 1),
    "surface": (_monomial_map(2, (1, 0), (0, 1), (1, 1)), "param", 2),
    "hyperbola": (_implicit(2, ("1", (1, 1)), ("-1", (0, 0))),
                  "implicit", 1),
    "fermat_curve": (_implicit(2, ("1", (6, 0)), ("1", (0, 6)),
                               ("1", (0, 0))),
                     "implicit", 2),
    "fermat_surface": (_implicit(3, ("1", (6, 0, 0)), ("1", (0, 6, 0)),
                                 ("1", (0, 0, 6)), ("1", (0, 0, 0))),
                       "implicit", 3),
}

# The five fan/variety pairs of the acceptance check on `verify`.
VERIFY_PAIRS = (("h2", "line2"), ("h3", "plane3"), ("orb12", "moment"),
                ("orbsurf", "surface"), ("orbhyp", "hyperbola"))


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _plucker_fan() -> dict:
    """R^6 with axes indexed by the pairs {a,b} of {1..4}; cell i spans the
    three axes whose pair contains i.  The lattice closes at value 6 while
    the pairwise lower bound is 5."""
    pairs = list(combinations(range(1, 5), 2))
    cells = []
    for i in range(1, 5):
        rows = [[str(int(k == j)) for k in range(6)]
                for j, pair in enumerate(pairs) if i in pair]
        cells.append({"span": rows})
    return {"ambient_dim": 6, "cells": cells}


def _families(rng: random.Random, out: Path) -> list:
    from amoebadim.cli import main as amoebadim

    def gen(name, *params):
        code = amoebadim(["gen", *params, "--output", str(out / name)])
        if code != 0:
            raise RuntimeError(f"gen {' '.join(params)} exited {code}")

    for n in (2, 3, 4, 5):
        gen(f"h{n}.json", "hyperplane", str(n))
    gen("curve4.json", "curve", "4", "e2;e3;e4;0,-1,-1,-1")
    gen("curve4_e1.json", "torus_invariant", str(out / "curve4.json"), "e1")
    gen("curve3.json", "curve", "3", "e1;e2;e3;-1,-1,-1")
    gen("orbit4.json", "orbit", "4", "1,0,1,0;0,1,1,1")
    gen("h2xh2.json", "product", str(out / "h2.json"), str(out / "h2.json"))
    gen("orb12.json", "orbit", "2", "1,2")
    gen("orbsurf.json", "orbit", "3", "1,0,1;0,1,1")
    gen("orbhyp.json", "orbit", "2", "1,-1")
    _write_json(out / "plucker.json", _plucker_fan())
    calls = [{"argv": ["dim", f"h{n}.json"], "expect": {"value": n}}
             for n in (3, 4, 5)]
    calls += [
        {"argv": ["dim", "curve4_e1.json"], "expect": {"value": 3}},
        {"argv": ["dim", "curve3.json"], "expect": {"value": 2}},
        {"argv": ["dim", "orbit4.json"],
         "expect": {"value": 2, "certified": True}},
        {"argv": ["dim", "h2xh2.json"], "expect": {"value": 4}},
        {"argv": ["dim", "plucker.json"], "expect": {"value": 6}},
    ]
    for fan, variety in VERIFY_PAIRS:
        doc, kind, _ = VARIETIES[variety]
        _write_json(out / f"{variety}.json", doc)
        calls.append({"argv": ["verify", f"{fan}.json", f"{variety}.json",
                               "--kind", kind, "--seed", VERIFY_SEED],
                      "expect": {"verdict": "agree"}})
    rng.shuffle(calls)
    return calls


def _rank(rows) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            a = rows[r][col]
            if a:
                rows[r] = [x * top[col] - y * a for x, y in zip(rows[r], top)]
        rank += 1
    return rank


def corpus_complexes(seed: int) -> list:
    """Random pure complexes: n cycles through 2, 3, 4 so every pass costs
    about the same; d in [1, n-1], 1 to 3 cells, entries in [-2, 2]."""
    rng = random.Random(seed)
    out = []
    for i in range(CORPUS_SIZE):
        n = (2, 3, 4)[i % 3]
        d = rng.randint(1, n - 1)
        cells = []
        for _ in range(rng.randint(1, 3)):
            while True:
                rows = [[rng.randint(-2, 2) for _ in range(n)]
                        for _ in range(d)]
                if _rank(rows) == d:
                    break
            cells.append({"span": [[str(x) for x in r] for r in rows]})
        out.append({"n": n, "d": d,
                    "fan": {"ambient_dim": n, "cells": cells}})
    return out


def _sample(rng: random.Random, out: Path) -> list:
    calls = []
    for name, (doc, kind, rank) in VARIETIES.items():
        _write_json(out / f"{name}.json", doc)
        calls.append({"argv": ["estimate", f"{name}.json", "--kind", kind,
                               "--trials", str(SAMPLE_TRIALS),
                               "--seed", str(rng.randrange(2 ** 31))],
                      "expect": {"rank": rank}})
    rng.shuffle(calls)
    return calls


def write_inputs(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of one pass into `out` and return the manifest."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    if workload == "families":
        manifest = {"calls": _families(rng, out)}
    elif workload == "corpus":
        manifest = {"complexes": corpus_complexes(seed)}
    else:
        manifest = {"calls": _sample(rng, out)}
    manifest.update(workload=workload, seed=seed)
    _write_json(out / "manifest.json", manifest)
    return manifest


def main(argv) -> int:
    import amoebadim  # noqa: F401  (set-up time includes the import)

    workload, seed, out = argv[0], int(argv[1]), Path(argv[2])
    if len(argv) < 4:
        write_inputs(workload, seed, out)
        return 0
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        write_inputs(workload, seed, out)
    finally:
        tracer.uninstall()
        Path(argv[3]).write_text(json.dumps(tracer.summary()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
