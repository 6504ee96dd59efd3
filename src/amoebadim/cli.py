"""Command-line front end.

Four commands: `dim` runs the combinatorial search on a fan file, `gen`
writes fan files for the built-in families, `estimate` runs the
numerical rank oracle on a parametrization or implicit hypersurface,
and `verify` runs both sides and compares.

Machine output is JSON on standard output (or --output PATH), nothing
else; diagnostics go to the error stream.  Exit codes: 0 success,
2 bad input or parameters, 3 resource-limit refusal, 4 every sample
rejected, 5 verify found a mismatch.  Reruns with the same inputs and
flags produce byte-identical output.

Each command imports the modules it runs, so `gen` and `dim` never
compile the estimator and `estimate` never compiles the exact search.
Each command also checks its own flags before it reads any input file.
"""

import argparse
import json
import re
import sys
from functools import cache
from pathlib import Path

_GEN_FAMILIES = ("hyperplane", "orbit", "curve", "torus_invariant", "product")


def _strategy_descriptor(args: argparse.Namespace) -> str | None:
    """The descriptor the strategy flags spell, checked by the search's
    own parser; None when no flag was given."""
    params = ",".join(f"{key}={value}" for key, value in
                      (("cap", args.cap), ("height", args.height))
                      if value is not None)
    if args.strategy is None:
        if params:
            raise ValueError("--cap and --height need an explicit --strategy")
        return None
    descriptor = f"{args.strategy}({params})" if params else args.strategy
    from .subspace_search import _parse_strategy

    _parse_strategy(descriptor)
    return descriptor


def _check_estimator_flags(args: argparse.Namespace) -> None:
    from .estimator import DEFAULT_TOL, DEFAULT_TRIALS, _check_estimator_params

    if args.trials is None:
        args.trials = DEFAULT_TRIALS
    if args.tol is None:
        args.tol = DEFAULT_TOL
    _check_estimator_params(args.trials, args.tol, args.seed)


_UNIT_VECTOR = re.compile(r"\s*(-?)e([0-9]+)\s*\Z")


def parse_vector_list(text: str, ambient_dim: int) -> tuple:
    """Read the `e1;e2;-1,-1,-1` vector syntax.

    Semicolons separate vectors; each one is either the shorthand `ek`
    (`-ek` for the negative) or comma-separated `parse_rational` entries.
    """
    from .rational_linalg import parse_rational

    vectors = []
    for chunk in text.split(";"):
        unit = _UNIT_VECTOR.match(chunk)
        if unit:
            k = int(unit.group(2))
            if not 1 <= k <= ambient_dim:
                raise ValueError(
                    f"e{k} does not exist in R^{ambient_dim}"
                )
            vec = [0] * ambient_dim
            vec[k - 1] = -1 if unit.group(1) else 1
            vectors.append(tuple(vec))
            continue
        parts = chunk.split(",")
        if len(parts) != ambient_dim:
            raise ValueError(
                f"vector {chunk.strip()!r} has {len(parts)} coordinates, "
                f"expected {ambient_dim}"
            )
        try:
            vectors.append(tuple(map(parse_rational, parts)))
        except ValueError as exc:
            raise ValueError(
                f"cannot read {chunk.strip()!r} as a rational vector"
            ) from exc
    return tuple(vectors)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        Path(output).write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write {output}: {exc}") from exc


def _emit_json(doc: dict, output: str | None) -> None:
    _emit(json.dumps(doc, indent=2) + "\n", output)


def _int_param(raw: str, what: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{what} must be an integer, got {raw!r}") from exc


def cmd_dim(args: argparse.Namespace) -> int:
    args.strategy = _strategy_descriptor(args)
    from .polyhedral import parse_complex
    from .subspace_search import amoeba_dim

    sigma = parse_complex(_read_text(args.fan))
    result = amoeba_dim(sigma, strategy=args.strategy)
    _emit_json(result.to_json_dict(), args.output)
    return 0


def _params_exactly(args: argparse.Namespace, count: int):
    if len(args.params) != count:
        raise ValueError(
            f"family {args.family} takes exactly {count} parameter(s), "
            f"got {len(args.params)}"
        )
    return args.params


def cmd_gen(args: argparse.Namespace) -> int:
    from .families import curve_fan, orbit_subspace, torus_invariant, \
        tropical_hyperplane
    from .polyhedral import format_complex, parse_complex, product
    from .rational_linalg import canonicalize

    family = args.family
    if family == "hyperplane":
        (raw_n,) = _params_exactly(args, 1)
        sigma = tropical_hyperplane(_int_param(raw_n, "ambient dimension"))
    elif family in ("orbit", "curve"):
        raw_n, raw_vectors = _params_exactly(args, 2)
        n = _int_param(raw_n, "ambient dimension")
        if n < 1:
            raise ValueError("ambient dimension must be positive")
        vectors = parse_vector_list(raw_vectors, n)
        build = orbit_subspace if family == "orbit" else curve_fan
        sigma = build(n, vectors)
    elif family == "torus_invariant":
        fan_path, raw_vectors = _params_exactly(args, 2)
        sigma0 = parse_complex(_read_text(fan_path))
        n = sigma0.ambient_dim
        sub = canonicalize(n, list(parse_vector_list(raw_vectors, n)))
        sigma = torus_invariant(sigma0, sub)
    elif family == "product":
        left_path, right_path = _params_exactly(args, 2)
        sigma = product(parse_complex(_read_text(left_path)),
                        parse_complex(_read_text(right_path)))
    else:
        raise ValueError(
            f"unknown family {family!r}; expected one of "
            + ", ".join(_GEN_FAMILIES)
        )
    _emit(format_complex(sigma) + "\n", args.output)
    return 0


def _read_variety(args: argparse.Namespace) -> tuple:
    """The variety file read as `--kind` says, and the estimator for it."""
    from .estimator import estimate_rank, estimate_rank_implicit, \
        parse_implicit, parse_parametrization

    text = _read_text(args.variety)
    if args.kind == "param":
        return parse_parametrization(text), estimate_rank
    return parse_implicit(text), estimate_rank_implicit


def cmd_estimate(args: argparse.Namespace) -> int:
    _check_estimator_flags(args)
    variety, run = _read_variety(args)
    estimate = run(variety, trials=args.trials, tol=args.tol, seed=args.seed)
    _emit_json(estimate.to_json_dict(), args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    _check_estimator_flags(args)
    args.strategy = _strategy_descriptor(args)
    # the exact side is compiled before the estimator loads numpy; the
    # other order leaves the process a larger peak resident set
    from .subspace_search import _checked_strategy, amoeba_dim
    from .estimator import _check_ambient, cross_check
    from .polyhedral import parse_complex

    sigma = parse_complex(_read_text(args.fan))
    variety, run = _read_variety(args)
    # refused here too, so a wrong pairing, cap or height fails unsampled
    _check_ambient(sigma, variety)
    _checked_strategy(sigma, args.strategy)
    estimate = run(variety, trials=args.trials, tol=args.tol, seed=args.seed)
    verdict = cross_check(amoeba_dim(sigma, args.strategy), estimate)
    _emit_json(verdict.to_json_dict(), args.output)
    return 0 if verdict.verdict == "agree" else 5


def _add_strategy_flags(sub):
    sub.add_argument("--strategy", choices=("lattice", "exhaustive"))
    sub.add_argument("--cap", type=int)
    sub.add_argument("--height", type=int)


def _add_estimator_flags(sub):
    sub.add_argument("--kind", choices=("param", "implicit"), required=True)
    # None until `_check_estimator_flags` fills in the estimator's defaults
    sub.add_argument("--trials", type=int)
    sub.add_argument("--tol", type=float)
    sub.add_argument("--seed", type=int, default=0)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then shared;
    it binds the `cmd_*` functions as they stand at that first call."""
    parser = argparse.ArgumentParser(
        prog="amoebadim",
        description="Dimension of amoebas from tropical data, two ways: "
                    "an exact combinatorial search and a numerical "
                    "sampling estimate.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    dim = commands.add_parser(
        "dim", help="combinatorial dimension of a fan file")
    dim.add_argument("fan", help="path to a fan file")
    _add_strategy_flags(dim)

    gen = commands.add_parser("gen", help="write fan files for the "
                                          "built-in families")
    gen.add_argument("family", help="one of " + ", ".join(_GEN_FAMILIES))
    gen.add_argument("params", nargs="*",
                     help="family parameters (see README)")

    estimate = commands.add_parser(
        "estimate", help="numerical rank of a sampled variety")
    estimate.add_argument("variety",
                          help="path to a parametrization or implicit file")
    _add_estimator_flags(estimate)

    verify = commands.add_parser(
        "verify", help="run both computations and compare")
    verify.add_argument("fan", help="path to a fan file")
    verify.add_argument("variety",
                        help="path to a parametrization or implicit file")
    _add_estimator_flags(verify)
    _add_strategy_flags(verify)

    for sub, run in ((dim, cmd_dim), (gen, cmd_gen),
                     (estimate, cmd_estimate), (verify, cmd_verify)):
        sub.set_defaults(run=run)
        sub.add_argument("--output", help="write the JSON here instead of "
                                          "standard output")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.run(args)
    except RuntimeError as exc:
        # a refusal carries its exit code; any other error propagates
        code = getattr(exc, "exit_code", None)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code
    except ValueError as exc:
        # covers fan/variety format errors, purity violations, bad
        # strategy descriptors, and parameter-range failures
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
