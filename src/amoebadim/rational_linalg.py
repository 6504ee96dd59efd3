"""Exact rational linear algebra with canonical subspaces.

Everything combinatorial in this package reduces to row operations over Q.
A subspace of R^n is stored in a canonical form: the reduced row echelon
basis, with each row rescaled to a primitive integer vector (gcd of entries
1, leading entry positive).  Two Subspace values are equal iff their stored
rows are equal, which makes deduplication a set lookup.

Every reduction goes through one kernel, `sum_rows`: canonical bases,
sums, dimensions of sums, membership and (by the Zassenhaus trick at
double width) intersections.  It eliminates fraction-free over Python
integers: rows are cleared of denominators up front and kept primitive
after every update.  This is observationally identical to naive
elimination over Fraction (the test suite checks that on random inputs)
but several times faster, which matters because the subspace search
performs hundreds of thousands of row reductions.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

_FULL_CACHE: dict = {}
_ZERO_CACHE: dict = {}

Vector = Sequence  # rational entries: int, Fraction, or "p/q" strings


def parse_rational(text) -> Fraction:
    """Parse "p" or "p/q" (q > 0 after reduction). Accepts ints unchanged,
    but not booleans."""
    if isinstance(text, (int, Fraction)) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"not a rational: {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _int_rows(rows: Iterable[Vector]) -> list:
    """Clear denominators row by row (row spans are scale-invariant)."""
    out = []
    for row in rows:
        fr = [parse_rational(x) for x in row]
        l = 1
        for x in fr:
            d = x.denominator
            l = l * d // gcd(l, d)
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
    This is the package's only elimination loop; every other reduction
    calls it.
    """
    n = ambient_dim
    ech = list(ech_pairs)
    m = len(ech)
    new_pos: list = []
    for row in rows:
        if m == n:
            break
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
    if m == n:
        return Subspace.full(n).rows
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


@dataclass(frozen=True, slots=True)
class Subspace:
    """A rational linear subspace of R^n in canonical basis form.

    `rows` holds the canonical basis as integer tuples (see module
    docstring); it is empty for the zero subspace.  The constructor trusts
    its rows and checks nothing: the package passes it only rows already
    in canonical form (`sum_rows` output, or rows taken or zero-padded
    from a canonical basis), and a check would re-run the elimination on
    every search candidate.  Other rows go through canonicalize/span.

    The hash, the pivots and the complement are derived on first use and
    kept in slots, not in an instance dict: a search result or a parsed
    complex kept in bulk holds these objects by the thousand.
    """

    ambient_dim: int
    rows: tuple
    _hash: int | None = field(default=None, init=False, repr=False,
                              compare=False)
    _pivots: tuple | None = field(default=None, init=False, repr=False,
                                  compare=False)
    _orth: Subspace | None = field(default=None, init=False, repr=False,
                                   compare=False)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        sub = _ZERO_CACHE.get(ambient_dim)
        if sub is None:
            sub = _ZERO_CACHE[ambient_dim] = cls(ambient_dim, ())
        return sub

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        sub = _FULL_CACHE.get(ambient_dim)
        if sub is None:
            rows = tuple(
                tuple(1 if j == i else 0 for j in range(ambient_dim))
                for i in range(ambient_dim)
            )
            sub = cls(ambient_dim, rows)
            _FULL_CACHE[ambient_dim] = sub
        return sub

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
            piv = tuple(next(i for i, x in enumerate(r) if x)
                        for r in self.rows)
            object.__setattr__(self, "_pivots", piv)
        return piv

    @property
    def ech_pairs(self):
        """(pivot, row) pairs ready to seed an elimination, one pass."""
        return zip(self.pivots, self.rows)

    @property
    def orth(self) -> "Subspace":
        """Orthogonal complement, cached with the back link to self.

        Complements turn meets into joins: A ∩ B = (A⊥ + B⊥)⊥, a route
        to an intersection independent of the Zassenhaus pass that
        `sum_intersect` takes.
        """
        o = self._orth
        if o is None:
            o = Subspace(self.ambient_dim, complement_rows(
                self.rows, self.ambient_dim, self.pivots))
            object.__setattr__(o, "_orth", self)
            object.__setattr__(self, "_orth", o)
        return o

    @classmethod
    def span(cls, ambient_dim: int, generators: Iterable[Vector]) -> "Subspace":
        return canonicalize(ambient_dim, generators)

    def is_zero(self) -> bool:
        return not self.rows

    def is_full(self) -> bool:
        return len(self.rows) == self.ambient_dim

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"ambient mismatch: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return self.sum_with_rows(other.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        return self.sum_intersect(other)[1]

    def sum_intersect(self, other: "Subspace") -> tuple:
        """(self + other, self ∩ other) in one pass.

        Degenerate and nested cases are answered without elimination; the
        general case does one elimination for the sum and, only when the
        intersection is proper, one Zassenhaus elimination for it.
        """
        self._check_ambient(other)
        n = self.ambient_dim
        if not self.rows or other.dim == n:
            return other, self
        if not other.rows or self.dim == n:
            return self, other
        if self.rows == other.rows:
            return self, self
        total = self.sum_with_rows(other.rows)
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

    def sum_with_rows(self, rows: Iterable) -> "Subspace":
        """Span of this subspace plus extra integer rows (fast path: this
        basis is already reduced, only the new rows get eliminated)."""
        out = sum_rows(self.ech_pairs, rows, self.ambient_dim)
        return self if out is None else Subspace.of(self.ambient_dim, out)

    def sum_dim(self, rows: Iterable) -> int:
        """dim(self + span(rows)); the hot path of the dimension search."""
        return sum_rows(self.ech_pairs, rows, self.ambient_dim,
                        _dim_only=True)

    def contains(self, vector: Vector) -> bool:
        """Membership test: true iff the vector lies in the subspace."""
        row = _int_rows([vector])[0]
        if len(row) != self.ambient_dim:
            raise ValueError(
                f"vector length {len(row)} != ambient {self.ambient_dim}"
            )
        return sum_rows(self.ech_pairs, (row,), self.ambient_dim,
                        _dim_only=True) == self.dim

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return self.sum_dim(other.rows) == self.dim

    def sort_key(self) -> tuple:
        return (len(self.rows), self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_zero():
            return f"Subspace({self.ambient_dim}, zero)"
        return f"Subspace({self.ambient_dim}, {list(map(list, self.rows))})"


def canonicalize(ambient_dim: int, generators) -> Subspace:
    """Canonical Subspace spanned by the given rational rows; an empty
    generator set gives the zero subspace."""
    if ambient_dim < 0:
        raise ValueError("ambient_dim < 0")
    int_rows = _int_rows(generators)
    for r in int_rows:
        if len(r) != ambient_dim:
            raise ValueError(
                f"generator length {len(r)} != ambient {ambient_dim}"
            )
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
    independently.
    """
    n = ambient_dim
    k = len(rows)
    if k == 0:
        return Subspace.full(n).rows
    if k == n:
        return ()
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
    return sum_rows((), out, n)


def direct_sum(a: Subspace, b: Subspace) -> Subspace:
    """Block-diagonal sum inside R^(n_a + n_b).

    Padding canonical rows with zeros keeps pivots ordered, rows primitive
    and pivot columns clear, so the result is built directly.
    """
    na, nb = a.ambient_dim, b.ambient_dim
    rows = tuple(r + (0,) * nb for r in a.rows)
    rows += tuple((0,) * na + r for r in b.rows)
    return Subspace(na + nb, rows)
