"""Shared test helpers: an independent naive-Fraction row reducer used as a
reference implementation, small random generators for complexes and
subspaces, and the environment for child interpreters."""

from __future__ import annotations

import os
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

from amoebadim.rational_linalg import Subspace, canonicalize

SRC = Path(__file__).resolve().parent.parent / "src"


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
