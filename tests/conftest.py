"""Shared test helpers: an independent naive-Fraction row reducer and a
meet through orthogonal complements, used as reference implementations,
small random generators for complexes and subspaces, the fixtures that
several test files build, an in-process command-line runner, and the
environment for child interpreters."""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from itertools import combinations
from math import gcd
from pathlib import Path

from amoebadim.rational_linalg import Subspace, canonicalize, complement_rows

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = Path(__file__).resolve().parent / "data"

# t ↦ (t, t²)
MOMENT_DOC = json.dumps({
    "domain_dim": 1, "ambient_dim": 2,
    "components": [
        {"terms": [{"coeff": ["1", "0"], "exponents": [1]}]},
        {"terms": [{"coeff": ["1", "0"], "exponents": [2]}]},
    ],
})


def implicit_doc(n: int, *terms) -> str:
    """An implicit-hypersurface document in R^n from (real coefficient,
    exponents) pairs."""
    return json.dumps({
        "ambient_dim": n,
        "polynomial": {"terms": [
            {"coeff": [c, "0"], "exponents": list(e)} for c, e in terms
        ]},
    })


# x + y + 1 in (C*)^2 and x + y + z + 1 in (C*)^3
LINE2_DOC = implicit_doc(2, ("1", (1, 0)), ("1", (0, 1)), ("1", (0, 0)))
PLANE3_DOC = implicit_doc(
    3, ("1", (1, 0, 0)), ("1", (0, 1, 0)), ("1", (0, 0, 1)), ("1", (0, 0, 0))
)

# Rational strings, each read once through Fraction and once through
# `parse_rational` and each caller that wraps it: the entries of
# `parse_vector_list` and `_coeff_to_float`.  The table pins the syntax
# and every caller's message for what it refuses.
RATIONAL_STRINGS = [
    "5", "1_000", " +3 ", "٣", "-0", "007", "1e3", "1e999", "3/4", "2/4",
    "1.5", "+-1", "", " ", "1/0", "1__0", "_1", "0x10", "1.5.2", "a/b",
    "3 / 4", "9" * 308, "9" * 400, "-" + "9" * 4000, "9" * 5000, "١٢/٤",
    "inf", "nan",
]


def short_id(value):
    """A parametrize id: pytest's own for a value of at most 12
    characters, else its first three characters and its length, so
    "9" * 5000 shows as "999...5000"."""
    text = str(value)
    return None if len(text) <= 12 else f"{text[:3]}...{len(text)}"


def run_cli(capsys, *argv):
    """`cli.main` on argv in this interpreter: (exit code, stdout, stderr)."""
    from amoebadim.cli import main

    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env() -> dict:
    """This environment with `src` first on PYTHONPATH: a child
    interpreter does not see the pytest `pythonpath` setting."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def reference_rref(rows, n):
    """Naive textbook RREF over Fraction.  Deliberately written without any
    code shared with the package internals."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivot_row = 0
    for col in range(n):
        target = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col] != 0:
                target = r
                break
        if target is None:
            continue
        mat[pivot_row], mat[target] = mat[target], mat[pivot_row]
        scale = mat[pivot_row][col]
        mat[pivot_row] = [x / scale for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return [row for row in mat[:pivot_row] if any(row)]


def reference_canonical(rows, n):
    """Reference canonical form: RREF then primitive-integer scaling."""
    out = []
    for row in reference_rref(rows, n):
        scale = 1
        for x in row:
            scale = scale * x.denominator // gcd(scale, x.denominator)
        ints = [int(x * scale) for x in row]
        g = 0
        for v in ints:
            g = gcd(g, v)
        lead = next(v for v in ints if v)
        if lead < 0:
            g = -g
        out.append(tuple(v // g for v in ints))
    return tuple(out)


def complement(sub: Subspace) -> tuple:
    """Canonical rows of the orthogonal complement of `sub`."""
    return complement_rows(sub.rows, sub.ambient_dim, sub.pivots)


def reference_meet(a: Subspace, b: Subspace) -> Subspace:
    """a ∩ b as (a⊥ + b⊥)⊥: a route to the meet through complements,
    independent of the Zassenhaus pass that `Subspace.intersect` takes."""
    n = a.ambient_dim
    join = canonicalize(n, complement(a) + complement(b))
    return canonicalize(n, complement(join))


def random_subspace(rng: random.Random, n: int, max_dim: int | None = None,
                    bound: int = 2) -> Subspace:
    if max_dim is None:
        max_dim = n
    k = rng.randint(0, max_dim)
    rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(k + 1)]
    sub = canonicalize(n, rows)
    while sub.dim > k:
        sub = canonicalize(n, list(sub.rows)[: sub.dim - 1])
    return sub


def random_unimodular(rng: random.Random, n: int, shears: int = 6):
    """Random determinant ±1 integer matrix built from elementary moves."""
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(shears):
        kind = rng.randint(0, 2)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            for col in range(n):
                mat[i][col] += c * mat[j][col]
        elif kind == 1:
            mat[i], mat[j] = mat[j], mat[i]
        else:
            mat[i] = [-x for x in mat[i]]
    return mat


def apply_matrix(mat, vec):
    return [sum(m * v for m, v in zip(row, vec)) for row in mat]


def transform_subspace(sub: Subspace, mat) -> Subspace:
    return canonicalize(sub.ambient_dim, [apply_matrix(mat, r) for r in sub.rows])


def random_pure_complex(rng: random.Random, n: int, num_cells: int = 3,
                        d: int | None = None, bound: int = 2):
    """Random SpanComplex, pure of dimension d by construction."""
    from amoebadim.polyhedral import SpanComplex

    if d is None:
        d = rng.randint(0, n)
    cells = []
    guard = 0
    while len(cells) < num_cells and guard < 300:
        guard += 1
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(d)]
        sub = canonicalize(n, rows)
        if sub.dim == d:
            cells.append(sub)
    if not cells:
        cells = [canonicalize(n, [])]
    return SpanComplex(n, cells)


def transform_complex(sigma, mat):
    from amoebadim.polyhedral import SpanComplex

    return SpanComplex(
        sigma.ambient_dim, [transform_subspace(c, mat) for c in sigma.cells]
    )


def plucker():
    """The golden Plücker fan in R^6: four coordinate 3-spaces, any two
    meeting in an axis.  The pairwise bound stops at 5; the propagation
    bound reaches the value, 6."""
    from amoebadim.polyhedral import parse_complex

    return parse_complex((DATA / "plucker.fan.json").read_text())


def coordinate_fan(n: int, *cells: str):
    """The coordinate subspaces of R^n spanned by the axes each string
    names, as cells: "013" spans e0, e1 and e3."""
    from amoebadim.polyhedral import SpanComplex

    axes = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return SpanComplex(n, [canonicalize(n, [axes[int(a)] for a in cell])
                           for cell in cells])


def open_fan():
    """The coordinate 3-spaces 345, 045, 023 and 013 of R^6.  {0} and
    R^6 score 6, the value the search returns, but the pairwise and the
    propagation bound both stop at 5, so the search builds the closure
    (14 members, a fixpoint).  The minimum is 5, attained by
    span(e0, e3, e4), which the closure misses."""
    return coordinate_fan(6, "345", "045", "023", "013")


def span(n: int, *gens) -> Subspace:
    return canonicalize(n, list(gens))


def hyperplane(n: int):
    """The tropical hyperplane fan in R^n, built by hand: the spans of the
    (n − 1)-subsets of e_1, ..., e_n, −(e_1 + ... + e_n).  The same fan as
    `families.tropical_hyperplane(n)`, without relying on it."""
    from amoebadim.polyhedral import SpanComplex

    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append((-1,) * n)
    return SpanComplex(n, [span(n, *p) for p in combinations(rays, n - 1)])


def curve_fan3():
    """The rays e_1, e_2, e_3 and −(e_1 + e_2 + e_3) of R^3 as cells."""
    from amoebadim.polyhedral import SpanComplex

    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    return SpanComplex(3, [span(3, r) for r in rays])


def seeded_complex(seed: int, max_n: int, cells: tuple):
    """`random.Random(seed)`, then n in [1, max_n], then a random pure
    complex in R^n asked for between cells[0] and cells[1] cells.
    Returns (rng, n, sigma), the rng ready for further draws."""
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    return rng, n, random_pure_complex(rng, n, num_cells=rng.randint(*cells))


def seeded_case(seed: int, max_n: int, cells: tuple):
    """`seeded_complex`, then a random subspace of R^n: (rng, n, sigma, sub)."""
    rng, n, sigma = seeded_complex(seed, max_n, cells)
    return rng, n, sigma, random_subspace(rng, n)
