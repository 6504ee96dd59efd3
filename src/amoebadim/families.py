"""Generators for the standard example complexes.

Everything here emits a plain SpanComplex; none of it knows about
polynomials or Newton polytopes.  The hyperplane family models the
generic situation where the complex is the full codimension-one
skeleton, so no coefficient data is taken or checked.
"""

from itertools import combinations

from .polyhedral import PurityError, SpanComplex
from .rational_linalg import Subspace, canonicalize


def tropical_hyperplane(n: int) -> SpanComplex:
    """The fan of a tropical hyperplane in R^n.

    Cells are the spans of all (n-1)-element subsets of the n+1
    generators e_1, ..., e_n, e_0 = -(e_1 + ... + e_n).  That is the
    codimension-one skeleton of the fan over the boundary of a simplex,
    which is what a polynomial with full simplex support and generic
    coefficients tropicalizes to.
    """
    if n < 2:
        raise ValueError("tropical hyperplane needs ambient dimension >= 2")
    gens = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    gens.append((-1,) * n)
    return SpanComplex(
        n, [canonicalize(n, list(p)) for p in combinations(gens, n - 1)]
    )


def orbit_subspace(n: int, vectors) -> SpanComplex:
    """Single-cell complex spanned by the given independent vectors."""
    vectors = [tuple(v) for v in vectors]
    cell = canonicalize(n, vectors)
    if cell.dim != len(vectors):
        raise ValueError("orbit generators must be linearly independent")
    return SpanComplex(n, [cell])


def curve_fan(n: int, rays) -> SpanComplex:
    """One-dimensional fan with the given rays, deduplicated.

    Two rays spanning the same line collapse to one cell.
    """
    rays = [tuple(r) for r in rays]
    if not rays:
        raise ValueError("a curve fan needs at least one ray")
    cells = []
    for i, ray in enumerate(rays):
        if not any(ray):
            raise ValueError(f"ray {i} is zero")
        cells.append(canonicalize(n, [ray]))
    return SpanComplex(n, cells)


def torus_invariant(sigma0: SpanComplex, sub: Subspace) -> SpanComplex:
    """Complex stable under translation by `sub`: Minkowski-sum every cell.

    The result must again be pure.  Raises PurityError naming the
    offending cells when the summed spans do not all have the same
    dimension (this genuinely happens: a subspace can lie inside some
    cells and not others).
    """
    summed = [cell.sum(sub) for cell in sigma0.cells]
    dims = {c.dim for c in summed}
    if len(dims) > 1:
        top = max(dims)
        bad = [i for i, c in enumerate(summed) if c.dim != top]
        detail = ", ".join(
            f"cell {i} (dim {summed[i].dim})" for i in bad
        )
        raise PurityError(
            f"Minkowski sum is impure: result dimensions {sorted(dims)}; "
            f"below the top dimension: {detail}",
            offending=bad,
        )
    return SpanComplex(sigma0.ambient_dim, summed, sigma0.labels)
