"""Per-layer tracing of amoebadim, installed from outside the package.

`Tracer.install` replaces each function in `TARGETS` by a wrapper at every
module attribute that holds it: `subspace_search` imports `sum_rows` and
`intersect_rows` by name, `estimator` imports `polynomial_roots` and
`amoeba_dim`, and `cli` imports `amoeba_dim` and the parsers, so patching
only the defining module would miss those calls.  Each wrapper counts calls
and splits its elapsed time into self time and time spent in other wrapped
functions beneath it.  `uninstall` puts the originals back.

A summary is a plain dict whose numbers add up across processes (`merge`),
so a workload that runs one process per call sums the summaries its
children write.
"""

import functools
import importlib
import sys
import time

# (metric key, module, attribute).  Several functions may share a key; a
# dotted attribute names a method on a class.
TARGETS = (
    ("rational_linalg.sum_rows", "amoebadim.rational_linalg", "sum_rows"),
    ("rational_linalg.intersect_rows", "amoebadim.rational_linalg",
     "intersect_rows"),
    ("rational_linalg.complement_rows", "amoebadim.rational_linalg",
     "complement_rows"),
    ("rational_linalg.canonicalize", "amoebadim.rational_linalg",
     "canonicalize"),
    ("rational_linalg.sum_dim", "amoebadim.rational_linalg",
     "Subspace.sum_dim"),
    ("polyhedral.parse_complex", "amoebadim.polyhedral", "parse_complex"),
    ("polyhedral.dim_sum_with_subspace", "amoebadim.polyhedral",
     "dim_sum_with_subspace"),
    ("families", "amoebadim.families", "tropical_hyperplane"),
    ("families", "amoebadim.families", "orbit_subspace"),
    ("families", "amoebadim.families", "curve_fan"),
    ("families", "amoebadim.families", "torus_invariant"),
    ("subspace_search.closure", "amoebadim.subspace_search",
     "candidate_lattice"),
    ("subspace_search.exhaustive", "amoebadim.subspace_search",
     "exhaustive_candidates"),
    ("subspace_search.score", "amoebadim.subspace_search", "amoeba_dim"),
    ("subspace_search.reduce_torus", "amoebadim.subspace_search",
     "reduce_torus"),
    ("estimator.parse", "amoebadim.estimator", "parse_parametrization"),
    ("estimator.parse", "amoebadim.estimator", "parse_implicit"),
    ("estimator.estimate", "amoebadim.estimator", "estimate_rank"),
    ("estimator.estimate", "amoebadim.estimator", "estimate_rank_implicit"),
    ("estimator.log_jacobian", "amoebadim.estimator", "log_jacobian"),
    ("estimator.svd", "numpy.linalg", "svd"),
    ("roots.polynomial_roots", "amoebadim.roots", "polynomial_roots"),
    ("cli", "amoebadim.cli", "main"),
)

# Results these keys return are kept and read after tracing stops, so the
# counting does not land inside any timed span.
_KEPT = ("subspace_search.closure", "subspace_search.exhaustive",
         "subspace_search.score")


def _max_entry_bits(candidates):
    return max((abs(x).bit_length() for sub in candidates
                for row in sub.rows for x in row), default=0)


class Tracer:
    def __init__(self):
        self.stats = {}   # key -> [calls, inclusive s, self s]
        self.closure_sums = 0  # sum_rows calls made by the closure itself
        self.kept = {key: [] for key in _KEPT}
        self._stack = []  # [key, seconds spent in wrapped callees]
        self._patched = []

    def _wrap(self, key, fn):
        stack = self._stack
        record = self.stats.setdefault(key, [0, 0.0, 0.0])
        counts_closure_sums = key == "rational_linalg.sum_rows"
        kept = self.kept.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = stack[-1] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
                if caller is not None:
                    caller[1] += elapsed
                    if (counts_closure_sums
                            and caller[0] == "subspace_search.closure"):
                        self.closure_sums += 1
            if kept is not None:
                kept.append((args, result))
            return result

        return wrapper

    def install(self):
        for _, module_name, _ in TARGETS:
            importlib.import_module(module_name)
        package = [m for name, m in sorted(sys.modules.items())
                   if name == "amoebadim" or name.startswith("amoebadim.")]
        for key, module_name, attr in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self._wrap(key, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(key, original)
            holders = package if module_name.startswith("amoebadim") \
                else [module]
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, name, original, wrapper)

    def _patch(self, holder, name, original, wrapper):
        setattr(holder, name, wrapper)
        self._patched.append((holder, name, original))

    def uninstall(self):
        while self._patched:
            holder, name, original = self._patched.pop()
            setattr(holder, name, original)

    def summary(self) -> dict:
        """Additive counts and times; see `merge`."""
        closure_calls = closure_complete = subspaces = added = bits = 0
        for (sigma, *_), found in self.kept["subspace_search.closure"]:
            closure_calls += 1
            closure_complete += found.complete
            subspaces += len(found)
            seeds = {cell.rows for cell in sigma.cells}
            seeds.update(((), tuple(
                tuple(int(i == j) for j in range(sigma.ambient_dim))
                for i in range(sigma.ambient_dim))))
            added += len(found) - len(seeds)
            bits = max(bits, _max_entry_bits(found))
        keys = [list(args[:2]) for args, _ in
                self.kept["subspace_search.exhaustive"]]
        candidates = sum(result.candidates_evaluated for _, result in
                         self.kept["subspace_search.score"])
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "closure": {"calls": closure_calls, "complete": closure_complete,
                        "subspaces": subspaces, "added": added,
                        "sums": self.closure_sums},
            "max_entry_bits": bits,
            "exhaustive_keys": keys,
            "candidates": candidates,
        }


def empty_summary() -> dict:
    return Tracer().summary()


def merge(total: dict, part: dict) -> dict:
    """Add summary `part` into `total` in place and return `total`."""
    for key, (calls, incl, own) in part["stats"].items():
        slot = total["stats"].setdefault(key, [0, 0.0, 0.0])
        slot[0] += calls
        slot[1] += incl
        slot[2] += own
    for name, n in part["closure"].items():
        total["closure"][name] += n
    total["max_entry_bits"] = max(total["max_entry_bits"],
                                  part["max_entry_bits"])
    total["exhaustive_keys"].extend(part["exhaustive_keys"])
    total["candidates"] += part["candidates"]
    return total
