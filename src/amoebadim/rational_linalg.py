"""Exact rational linear algebra with canonical subspaces.

Everything combinatorial in this package reduces to row operations over Q.
A subspace of R^n is stored in a canonical form: the reduced row echelon
basis, with each row rescaled to a primitive integer vector (gcd of entries
1, leading entry positive).  Two Subspace values are equal iff their stored
rows are equal, which makes deduplication a set lookup.

Every reduction goes through one kernel, `sum_rows`: canonical bases,
sums, dimensions of sums and (by the Zassenhaus trick at double width)
intersections.  It eliminates fraction-free over Python integers: rows
are cleared of denominators up front and kept primitive after every
update.  This is observationally identical to naive elimination over
Fraction (the test suite checks that on random inputs) but several times
faster, which matters because the subspace search performs hundreds of
thousands of row reductions.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cache
from math import gcd, lcm

from .frozen import Frozen, parse_rational


def _int_rows(rows: Iterable) -> list:
    """Clear denominators row by row (row spans are scale-invariant)."""
    if not isinstance(rows, Iterable):
        raise ValueError(f"generators {rows!r} are not a list of rows")
    out = []
    for row in rows:
        if isinstance(row, (str, bytes)):  # characters are not entries
            raise ValueError(f"row {row!r} is a string, not a list")
        if not isinstance(row, Iterable):
            raise ValueError(f"row {row!r} is not a list")
        fr = [parse_rational(x) for x in row]
        l = lcm(*(x.denominator for x in fr))
        out.append([int(x * l) for x in fr])
    return out


def sum_rows(ech_pairs, rows, ambient_dim: int, _dim_only: bool = False):
    """Canonical rows of an echelon basis joined with extra integer rows,
    or None when the extra rows add nothing.

    `ech_pairs` are the (pivot, row) pairs of a canonical basis, as
    `Subspace.ech_pairs` gives them, so only the incoming rows need
    elimination, and the closing back-elimination touches just the pivot
    columns they added.
    With `_dim_only` the result is the dimension of the joined span,
    which the forward pass already knows, and the back pass is skipped.
    A nonzero reduced row that brings the rank to n returns at once (n,
    or the shared rows of R^n): R^n has one canonical basis, so its
    normalization, its insertion, the rows after it and the back pass
    could not change the answer.
    This is the package's only elimination loop; every other reduction
    calls it.
    """
    n = ambient_dim
    ech = list(ech_pairs)
    m = len(ech)
    if m == n:
        return n if _dim_only else None
    new_pos: list = []
    for row in rows:
        for pc, prow in ech:
            a = row[pc]
            if a:
                b = prow[pc]
                row = [x * b - y * a for x, y in zip(row, prow)]
        pc = -1
        for i, x in enumerate(row):
            if x:
                pc = i
                break
        if pc < 0:
            continue
        if m + 1 == n:
            return n if _dim_only else Subspace.full(n).rows
        g = gcd(*row)
        if row[pc] < 0:
            g = -g
        if g != 1:
            row = [x // g for x in row]
        lo = 0
        while lo < m and ech[lo][0] < pc:
            lo += 1
        if new_pos:
            new_pos = [q + 1 if q >= lo else q for q in new_pos]
        new_pos.append(lo)
        ech.insert(lo, (pc, row))
        m += 1
    if _dim_only:
        return m
    if not new_pos:
        return None
    for p in sorted(new_pos, reverse=True):
        pc, prow = ech[p]
        b = prow[pc]
        for k in range(p):
            kpc, krow = ech[k]
            a = krow[pc]
            if a:
                krow = [x * b - y * a for x, y in zip(krow, prow)]
                g = gcd(*krow)
                if g != 1:
                    krow = [x // g for x in krow]
                ech[k] = (kpc, krow)
    return tuple(tuple(r) for _, r in ech)


def _pivots_of(rows) -> tuple:
    """Column index of each canonical row's leading entry."""
    return tuple(next(i for i, x in enumerate(r) if x) for r in rows)


def _check_ambient(a, b) -> None:
    """Refuse two subspaces or complexes from different ambient spaces."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError(
            f"ambient mismatch: {a.ambient_dim} vs {b.ambient_dim}"
        )


def _checked_rows(rows: Iterable, ambient_dim: int) -> tuple:
    """The rows as a tuple, refused unless each has ambient_dim entries;
    the check sits at the Subspace methods and canonicalize, outside
    sum_rows' loop."""
    rows = tuple(rows)
    for r in rows:
        if len(r) != ambient_dim:
            raise ValueError(
                f"row length {len(r)} != ambient {ambient_dim}"
            )
    return rows


class Subspace(Frozen):
    """A rational linear subspace of R^n in canonical basis form.

    `rows` holds the canonical basis as integer tuples (see module
    docstring); it is empty for the zero subspace.  The constructor trusts
    its rows and checks nothing: the package passes it only rows already
    in canonical form (`sum_rows` output, or rows taken or zero-padded
    from a canonical basis), and a check would re-run the elimination on
    every search candidate.  Other rows go through canonicalize.

    The hash and the pivots are derived on first use and kept in slots,
    not in an instance dict: a search result or a parsed complex kept in
    bulk holds these objects by the thousand.
    """

    __slots__ = ("ambient_dim", "rows", "_hash", "_pivots")
    _fields = ("ambient_dim", "rows")

    def __init__(self, ambient_dim: int, rows: tuple):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_pivots", None)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    @cache
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    @cache
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, tuple(
            tuple(1 if j == i else 0 for j in range(ambient_dim))
            for i in range(ambient_dim)
        ))

    @classmethod
    def of(cls, ambient_dim: int, rows: tuple) -> "Subspace":
        """The subspace with these canonical rows, as the shared {0} or
        R^n instance when it is one of those."""
        if not rows:
            return cls.zero(ambient_dim)
        if len(rows) == ambient_dim:
            return cls.full(ambient_dim)
        return cls(ambient_dim, rows)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.ambient_dim, self.rows))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def pivots(self) -> tuple:
        """Column index of each basis row's leading entry."""
        piv = self._pivots
        if piv is None:
            piv = _pivots_of(self.rows)
            object.__setattr__(self, "_pivots", piv)
        return piv

    @property
    def ech_pairs(self):
        """(pivot, row) pairs ready to seed an elimination, one pass."""
        return zip(self.pivots, self.rows)

    def sum(self, other: "Subspace") -> "Subspace":
        """self + other: `self` itself when other adds nothing, else
        `other` itself, without elimination, when self is {0} or other is
        R^n.  Raises ValueError for a row whose length is not ambient_dim."""
        _check_ambient(self, other)
        n = self.ambient_dim
        rows = _checked_rows(other.rows, n)
        if (not self.rows and rows) or len(rows) == n > self.dim:
            return other
        out = sum_rows(self.ech_pairs, rows, n)
        return self if out is None else Subspace.of(n, out)

    def intersect(self, other: "Subspace") -> "Subspace":
        return self.sum_intersect(other)[1]

    def sum_intersect(self, other: "Subspace") -> tuple:
        """(self + other, self ∩ other) in one pass.

        The sum comes from `sum`, and the dimension count gives the meet
        as {0}, self or other whenever it is one of those; only a proper
        meet costs a Zassenhaus elimination.
        """
        n = self.ambient_dim
        total = self.sum(other)
        ds = total.dim
        di = self.dim + other.dim - ds
        if di == 0:
            return total, Subspace.zero(n)
        if di == self.dim:
            return total, self
        if di == other.dim:
            return total, other
        return total, Subspace(n, intersect_rows(self.rows, other.rows, n,
                                                 self.pivots))

    def sum_dim(self, rows: Iterable) -> int:
        """dim(self + span(rows)); the hot path of the dimension search.
        Raises ValueError for a row whose length is not ambient_dim."""
        n = self.ambient_dim
        return sum_rows(self.ech_pairs, _checked_rows(rows, n), n,
                        _dim_only=True)

    def sort_key(self) -> tuple:
        return (len(self.rows), self.rows)


def canonicalize(ambient_dim: int, generators) -> Subspace:
    """Canonical Subspace spanned by the given rational rows; an empty
    generator set gives the zero subspace."""
    if not isinstance(ambient_dim, int) or isinstance(ambient_dim, bool):
        raise ValueError('"ambient_dim" must be an integer')
    if ambient_dim < 0:
        raise ValueError("ambient_dim < 0")
    int_rows = _checked_rows(_int_rows(generators), ambient_dim)
    return Subspace.of(ambient_dim, sum_rows((), int_rows, ambient_dim) or ())


def intersect_rows(rows_a, rows_b, ambient_dim: int, pivots_a) -> tuple:
    """Canonical basis rows of span(rows_a) ∩ span(rows_b), for canonical
    rows_a with pivot columns `pivots_a`.

    Zassenhaus trick: reduce the rows [a|a] and [b|0] at width 2n.  The
    [a|a] rows are already reduced, so they seed the echelon.  In the
    canonical result, the rows whose left half vanishes are exactly those
    with a pivot in the right half, and their right halves are the
    canonical basis of the intersection.
    """
    n = ambient_dim
    seed = [(p, tuple(r) * 2) for p, r in zip(pivots_a, rows_a)]
    zero = (0,) * n
    rows = sum_rows(seed, [tuple(r) + zero for r in rows_b], 2 * n) or ()
    return tuple(r[n:] for r in rows if not any(r[:n]))


def complement_rows(rows, ambient_dim: int, pivots) -> tuple:
    """Canonical basis rows of the orthogonal complement of span(rows).

    The rows must already be canonical, with pivot columns `pivots`, so
    those columns are cleared everywhere else and each free column yields
    one integer kernel vector by back-substitution: put the lcm of the
    pivot entries in the free slot and solve each pivot coordinate
    independently.  No rows leave every column free, giving R^n's unit
    vectors; n rows leave none, giving no rows.
    """
    n = ambient_dim
    leads = [r[p] for r, p in zip(rows, pivots)]
    big = lcm(*leads)
    taken = set(pivots)
    out = []
    for f in range(n):
        if f in taken:
            continue
        v = [0] * n
        v[f] = big
        for r, p, l in zip(rows, pivots, leads):
            x = r[f]
            if x:
                v[p] = -x * (big // l)
        out.append(v)
    return sum_rows((), out, n) or ()


def direct_sum(a: Subspace, b: Subspace) -> Subspace:
    """Block-diagonal sum inside R^(n_a + n_b).

    Padding canonical rows with zeros keeps pivots ordered, rows primitive
    and pivot columns clear, so the result is built directly.
    """
    na, nb = a.ambient_dim, b.ambient_dim
    rows = tuple(r + (0,) * nb for r in a.rows)
    rows += tuple((0,) * na + r for r in b.rows)
    return Subspace(na + nb, rows)
