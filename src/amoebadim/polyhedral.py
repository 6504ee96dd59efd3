"""Pure polyhedral complexes in the span model.

A complex is stored as the set of direction spans of its maximal cells,
nothing else: the dimension formulas downstream depend on the cells only
through those spans.  All cells must share one dimension (purity); input
that violates this is rejected, not repaired.
"""

from __future__ import annotations

import json

from .frozen import Frozen
from .rational_linalg import Subspace, _check_ambient, canonicalize, \
    direct_sum


class ComplexFormatError(ValueError):
    """Malformed fan file."""


class PurityError(ValueError):
    """Cells of unequal dimension, either in input or after a Minkowski sum."""

    def __init__(self, message: str, offending=()):
        super().__init__(message)
        self.offending = tuple(offending)


def _check_ambient_dim(n) -> None:
    """Refuse an ambient dimension that is not a nonnegative int."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ComplexFormatError('"ambient_dim" must be an integer')
    if n < 0:
        raise ComplexFormatError("ambient_dim < 0")


class SpanComplex(Frozen):
    """Pure complex given by the spans of its maximal cells.

    The constructor is the only way in, and it checks and normalizes:
    ambient_dim must be an int n >= 0, every cell must live in R^n and
    all cells must share one dimension, which becomes `dim`; duplicate
    cells merge (keeping a label if any copy has one) and the cells are
    sorted canonically.  `labels` is one string or None per cell, or None
    for no labels; they take no part in equality.
    """

    __slots__ = ("ambient_dim", "cells", "labels")
    _fields = ("ambient_dim", "cells", "labels")
    _compare = ("ambient_dim", "cells")

    def __init__(self, ambient_dim: int, cells, labels=None):
        _check_ambient_dim(ambient_dim)
        cells = list(cells)
        if not cells:
            raise ComplexFormatError("a complex needs at least one cell")
        if labels is None:
            labels = [None] * len(cells)
        elif isinstance(labels, str):
            raise ComplexFormatError("labels must be a sequence, not a string")
        elif len(labels) != len(cells):
            raise ComplexFormatError("one label per cell, or none at all")
        for i, label in enumerate(labels):
            if label is not None and not isinstance(label, str):
                raise ComplexFormatError(f"cell {i}: label must be a string")
        for cell in cells:
            if cell.ambient_dim != ambient_dim:
                raise ComplexFormatError(
                    f"cell ambient {cell.ambient_dim} != {ambient_dim}"
                )
        d = cells[0].dim
        bad = [i for i, c in enumerate(cells) if c.dim != d]
        if bad:
            dims = sorted({c.dim for c in cells})
            raise PurityError(
                f"impure complex: cell dimensions {dims} "
                f"(cells {bad} disagree with cell 0)",
                offending=bad,
            )
        merged: dict = {}
        for cell, label in zip(cells, labels):
            if cell not in merged or (merged[cell] is None and label is not None):
                merged[cell] = label
        ordered = sorted(merged, key=Subspace.sort_key)
        self._store(ambient_dim, tuple(ordered),
                    tuple(merged[c] for c in ordered))

    @property
    def dim(self) -> int:
        return self.cells[0].dim


def parse_complex(text: str) -> SpanComplex:
    """Parse the fan file format.

    ``{"ambient_dim": n, "cells": [{"span": [[rationals...], ...],
    "label": optional}, ...]}`` with rationals as JSON integers or exact
    strings ("p", "p/q", "1.5").
    The complex dimension is inferred from the spans and checked for
    purity, never declared.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ComplexFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ComplexFormatError("top level must be an object")
    n = doc.get("ambient_dim")
    _check_ambient_dim(n)
    raw_cells = doc.get("cells")
    if not isinstance(raw_cells, list) or not raw_cells:
        raise ComplexFormatError('"cells" must be a nonempty list')
    cells = []
    labels = []
    for i, raw in enumerate(raw_cells):
        if not isinstance(raw, dict) or "span" not in raw:
            raise ComplexFormatError(f'cell {i} needs a "span" key')
        rows = raw["span"]
        if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
            raise ComplexFormatError(f'cell {i}: "span" must be a list of rows')
        try:
            cells.append(canonicalize(n, rows))
        except ValueError as exc:
            raise ComplexFormatError(f"cell {i}: {exc}") from exc
        labels.append(raw.get("label"))
    return SpanComplex(n, cells, labels)


def format_complex(sigma: SpanComplex) -> str:
    """Serialize back to the fan file format (deterministic)."""
    cells = []
    for cell, label in zip(sigma.cells, sigma.labels):
        entry: dict = {
            "span": [[str(x) for x in row] for row in cell.rows]
        }
        if label is not None:
            entry["label"] = label
        cells.append(entry)
    return json.dumps({"ambient_dim": sigma.ambient_dim, "cells": cells},
                      indent=2)


def dim_sum_with_subspace(sigma: SpanComplex, sub: Subspace) -> int:
    """dim(S + Sigma) = max over cells C of dim(<C> + S).

    The Minkowski sum of a subspace with a pure complex is again a pure
    complex whose cells are the summed spans, so its dimension is the
    largest summed-span dimension.
    """
    _check_ambient(sigma, sub)
    return _max_cell_sum(sigma.cells, sub, sigma.ambient_dim)[0]


def _max_cell_sum(cells, sub: Subspace, stop: int) -> tuple:
    """Largest dim(<C> + S) over the cells, scanned in order, and the
    first cell attaining it (None when that is 0); the scan ends once the
    running maximum reaches `stop`, so a result of at least `stop` only
    says the maximum is that large."""
    s = len(sub.rows)
    best, first = 0, None
    for cell in cells:
        if len(cell.rows) >= s:
            got = cell.sum_dim(sub.rows)
        else:
            got = sub.sum_dim(cell.rows)
        if got > best:
            best, first = got, cell
            if best >= stop:
                break
    return best, first


def product(sigma1: SpanComplex, sigma2: SpanComplex) -> SpanComplex:
    """Block-embedded product: cells are all direct sums <C1> (+) <C2>."""
    cells = [direct_sum(c1, c2) for c1 in sigma1.cells for c2 in sigma2.cells]
    return SpanComplex(sigma1.ambient_dim + sigma2.ambient_dim, cells)
