import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amoebadim import rational_linalg
from amoebadim.rational_linalg import (
    Subspace,
    canonicalize,
    complement_rows,
    intersect_rows,
    parse_rational,
    sum_rows,
)

from conftest import RATIONAL_STRINGS, child_env, complement, \
    reference_canonical, reference_meet, reference_rref, short_id


def rref(n, rows):
    """Canonical basis rows divided by their leading entries."""
    out = []
    for row in canonicalize(n, rows).rows:
        lead = next(x for x in row if x)
        out.append(tuple(Fraction(x, lead) for x in row))
    return tuple(out)


entries = st.integers(min_value=-9, max_value=9)


@st.composite
def int_matrix(draw, max_n=5, max_rows=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=0, max_value=max_rows))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=k, max_size=k))
    return n, rows


@st.composite
def matrix_and_rows(draw, max_rows, max_extra):
    """(n, rows, extra): an int_matrix case and up to max_extra more rows
    of its width; a tuple, so `@example` can pin a case."""
    n, rows = draw(int_matrix(max_rows=max_rows))
    extra = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                          max_size=max_extra))
    return n, rows, extra


# cases whose extra rows complete R^n before the last of them, which
# random draws at n = 4 and 5 seldom give
COMPLETED_EARLY = [
    (4, [[1, 0, 2, 0], [0, 3, 0, 1]],
     [[0, 0, 1, 0], [2, 0, 0, -4], [1, 1, 1, 1]]),
    (5, [[1, 1, 0, 0, 0], [0, 0, 2, 0, 1], [0, 1, 0, 1, 0]],
     [[1, 0, 0, 0, 0], [0, 0, 0, 3, -6], [9, -9, 0, 1, 2]]),
    (4, [[0, 2, 0, 0]],
     [[1, 0, 0, 0], [0, 0, -1, 1], [0, 0, 5, 0], [3, 0, 0, 7]]),
    (5, [[1, 0, 0, 0, 1], [0, 1, 0, 0, 1], [0, 0, 0, 1, 1]],
     [[2, 2, 0, 0, 4], [0, 0, 1, 0, 0], [0, 0, 0, 2, -1], [0, 5, 5, 5, 0]]),
]


class TestRref:
    """The canonical basis is the reduced row echelon form with each row
    rescaled to a primitive integer vector."""

    def test_diagonal_scaling(self):
        assert rref(2, [[2, 0], [0, 3]]) == ((1, 0), (0, 1))

    def test_dependent_rows_collapse(self):
        assert rref(2, [[1, 2], [2, 4]]) == ((1, 2),)

    def test_row_swap(self):
        assert rref(2, [[0, 1], [1, 0]]) == ((1, 0), (0, 1))

    def test_fractional_entries(self):
        assert rref(2, [["1/2", "1/3"]]) == ((1, Fraction(2, 3)),)

    @settings(max_examples=300)
    @given(int_matrix())
    def test_matches_reference_on_random_input(self, case):
        """The fraction-free path and a naive Fraction elimination must be
        observationally identical."""
        n, rows = case
        got = rref(n, rows)
        want = tuple(tuple(r) for r in reference_rref(rows, n))
        assert got == want


class TestCanonicalize:
    def test_spanning_pair(self):
        sub = canonicalize(3, [(2, 0, 0), (1, 1, 0)])
        assert sub.rows == ((1, 0, 0), (0, 1, 0))

    def test_empty_generators_give_zero(self):
        sub = canonicalize(2, [])
        assert sub.dim == 0

    def test_rational_entries_clear_to_primitive(self):
        sub = canonicalize(2, [("1/2", "1/3")])
        assert sub.rows == ((3, 2),)
        assert canonicalize(2, [("1/2", 1)]) == canonicalize(2, [(1, 2)])

    def test_column_mismatch_rejected(self):
        with pytest.raises(ValueError):
            canonicalize(3, [(1, 0)])
        with pytest.raises(ValueError):
            canonicalize(2, [[1, 0, 0]])

    def test_negative_ambient_rejected(self):
        with pytest.raises(ValueError):
            canonicalize(-1, [])

    @pytest.mark.parametrize("n", [2.0, True, "2", None])
    def test_non_integer_ambient_rejected(self, n):
        # refused alike with one generator or a spanning pair
        for generators in ([[1, 0]], [[1, 0], [0, 1]]):
            with pytest.raises(ValueError, match="must be an integer"):
                canonicalize(n, generators)

    @settings(max_examples=300)
    @given(int_matrix())
    def test_matches_reference(self, case):
        n, rows = case
        assert canonicalize(n, rows).rows == reference_canonical(rows, n)

    @settings(max_examples=200)
    @given(int_matrix(max_n=4, max_rows=4), st.randoms(use_true_random=False))
    def test_invariant_under_row_operations(self, case, rnd):
        """Same row span -> same canonical basis."""
        n, rows = case
        base = canonicalize(n, rows)
        mixed = [list(r) for r in rows]
        rnd.shuffle(mixed)
        for _ in range(4):
            if len(mixed) >= 2:
                i, j = rnd.randrange(len(mixed)), rnd.randrange(len(mixed))
                if i != j:
                    c = rnd.choice([-2, -1, 1, 2, 3])
                    mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
        assert canonicalize(n, mixed).rows == base.rows

    @settings(max_examples=200)
    @given(int_matrix())
    def test_idempotent(self, case):
        n, rows = case
        once = canonicalize(n, rows)
        assert canonicalize(n, once.rows).rows == once.rows

    @settings(max_examples=200)
    @given(int_matrix())
    def test_canonical_row_structure(self, case):
        """Rows primitive with positive lead, strictly increasing pivots,
        zeros above and below every pivot."""
        from math import gcd

        n, rows = case
        sub = canonicalize(n, rows)
        pivots = []
        for row in sub.rows:
            lead = next(i for i, x in enumerate(row) if x)
            g = 0
            for x in row:
                g = gcd(g, x)
            assert g == 1 and row[lead] > 0
            pivots.append(lead)
        assert pivots == sorted(set(pivots))
        for i, row in enumerate(sub.rows):
            for j, p in enumerate(pivots):
                if i != j:
                    assert row[p] == 0


class TestSumIntersect:
    def test_direct_sum(self):
        got = canonicalize(3, [(1, 0, 0)]).sum(canonicalize(3, [(0, 1, 0)]))
        assert got.rows == ((1, 0, 0), (0, 1, 0))

    def test_sum_with_zero_is_identity(self):
        u = canonicalize(3, [(1, 2, 3)])
        assert u.sum(Subspace.zero(3)) == u

    def test_sum_adding_nothing_returns_self(self):
        # reduce_torus tells a vector that grows nothing by `is`
        u = canonicalize(3, [(1, 2, 3), (0, 1, 1)])
        for other in (Subspace.zero(3), canonicalize(3, [(2, 5, 7)]), u):
            assert u.sum(other) is u

    def test_lines_spanning_plane(self):
        assert canonicalize(2, [(1, 1)]).sum(canonicalize(2, [(1, -1)])) \
            == Subspace.full(2)

    def test_sum_takes_no_meet(self, monkeypatch):
        # two planes in R^4 that meet in the line of (1, 1, 1, 1): their
        # sum needs one elimination, not the Zassenhaus one of the meet
        def refuse(*args, **kwargs):
            raise AssertionError("intersect_rows was called")

        monkeypatch.setattr(rational_linalg, "intersect_rows", refuse)
        u = canonicalize(4, [(1, 1, 0, 0), (0, 0, 1, 1)])
        v = canonicalize(4, [(1, 1, 1, 1), (1, 0, 0, 0)])
        assert u.sum(v) == canonicalize(4, [(1, 0, 0, 0), (0, 1, 0, 0),
                                    (0, 0, 1, 1)])

    def test_intersect_coordinate_planes(self):
        got = canonicalize(3, [(1, 0, 0), (0, 1, 0)]).intersect(
            canonicalize(3, [(1, 0, 0), (0, 0, 1)]))
        assert got.rows == ((1, 0, 0),)

    def test_intersect_with_full_is_identity(self):
        u = canonicalize(3, [(1, 2, 3), (0, 1, 1)])
        assert u.intersect(Subspace.full(3)) == u

    def test_skew_planes_meet_in_diagonal(self):
        got = canonicalize(3, [(1, 1, 0), (0, 0, 1)]).intersect(
            canonicalize(3, [(1, 0, 0), (0, 1, 1)]))
        assert got.rows == ((1, 1, 1),)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_trivial_results_are_the_shared_instances(self, n):
        # `Subspace.of` alone decides when a result is {0} or R^n
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        assert canonicalize(n, identity) is Subspace.full(n)
        assert canonicalize(n, []) is Subspace.zero(n)
        axis = canonicalize(n, [identity[0]])
        diagonal = canonicalize(n, [[1] * n])
        if n > 1:
            assert axis.intersect(diagonal) is Subspace.zero(n)
        assert canonicalize(n, identity[1:]).sum(diagonal) is Subspace.full(n)

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            canonicalize(2, [(1, 0)]).sum(canonicalize(3, [(1, 0, 0)]))
        with pytest.raises(ValueError):
            canonicalize(2, [(1, 0)]).intersect(canonicalize(3, [(1, 0, 0)]))

    def test_row_length_mismatch_rejected(self):
        # a hand-built basis whose rows are too short for its ambient
        short = Subspace(3, ((0, 1),))
        with pytest.raises(ValueError, match="row length 2 != ambient 3"):
            canonicalize(3, [(1, 0, 0)]).sum(short)

    @settings(max_examples=400)
    @given(matrix_and_rows(max_rows=4, max_extra=4))
    def test_rank_nullity(self, case):
        n, rows, other = case
        u = canonicalize(n, rows)
        v = canonicalize(n, other)
        total, meet = u.sum_intersect(v)
        assert total.dim + meet.dim == u.dim + v.dim
        assert total.sum(u) == total and total.sum(v) == total
        assert meet.intersect(u) == meet and meet.intersect(v) == meet
        assert u.sum(v) == v.sum(u)
        assert u.intersect(v) == v.intersect(u)
        # a subspace with itself: the very instance, twice
        total, meet = u.sum_intersect(u)
        assert total is u and meet is u


class TestComplement:
    def test_axis_line(self):
        assert complement(canonicalize(3, [(1, 0, 0)])) == \
            ((0, 1, 0), (0, 0, 1))

    def test_diagonal_line(self):
        assert complement(canonicalize(3, [(1, 1, 1)])) == \
            ((1, 0, -1), (0, 1, -1))

    def test_scaled_pivots(self):
        assert complement(canonicalize(3, [(2, 0, 1), (0, 3, 1)])) == \
            ((3, 2, -6),)

    def test_zero_and_full(self):
        assert complement(Subspace.zero(3)) == Subspace.full(3).rows
        assert complement(Subspace.full(3)) == ()
        assert complement_rows((), 2, ()) == ((1, 0), (0, 1))
        assert complement_rows(Subspace.full(2).rows, 2, (0, 1)) == ()

    def test_derived_bases_are_cached(self):
        u = canonicalize(4, [(1, 2, 3, 4), (0, 1, 0, 1)])
        assert u.pivots == (0, 1)
        assert u.pivots is u.pivots
        assert u == Subspace(4, u.rows)  # caches take no part in equality

    @settings(max_examples=300)
    @given(int_matrix())
    def test_complement_properties(self, case):
        """dim + codim = n, every cross pairing orthogonal, and together
        the two bases span everything; that pins the complement down."""
        n, rows = case
        u = canonicalize(n, rows)
        w = complement(u)
        assert u.dim + len(w) == n
        for r in u.rows:
            for s in w:
                assert sum(x * y for x, y in zip(r, s)) == 0
        assert canonicalize(n, u.rows + w) == Subspace.full(n)
        assert complement(canonicalize(n, w)) == u.rows

    @settings(max_examples=300)
    @given(matrix_and_rows(max_rows=4, max_extra=4))
    def test_meet_via_complements(self, case):
        n, rows, other = case
        u = canonicalize(n, rows)
        v = canonicalize(n, other)
        assert reference_meet(u, v) == u.intersect(v)


class TestSumRows:
    def test_growth(self):
        u = canonicalize(3, [(1, 0, 0)])
        assert sum_rows(u.ech_pairs, ((0, 1, 0),), 3) == ((1, 0, 0), (0, 1, 0))

    def test_contained_rows_return_none(self):
        u = canonicalize(3, [(1, 0, 0), (0, 1, 0)])
        assert sum_rows(u.ech_pairs, ((2, 3, 0),), 3) is None

    def test_growth_to_full(self):
        u = canonicalize(2, [(1, 1)])
        assert sum_rows(u.ech_pairs, ((1, -1),), 2) == ((1, 0), (0, 1))

    def test_row_completing_the_space_returns_at_once(self):
        # (0, 1, -1) completes R^3 in the middle of the list; the row
        # after it is left unread
        u = canonicalize(3, [(1, 0, 0)])
        rows = iter([(2, 0, 0), (0, 1, 1), (0, 1, -1), (5, 7, 9)])
        assert sum_rows(u.ech_pairs, rows, 3) is Subspace.full(3).rows
        assert next(rows) == (5, 7, 9)

    def test_row_completing_the_space_counts_n(self):
        u = canonicalize(4, [(1, 0, 0, 1), (0, 1, 0, 0)])
        rows = [(0, 0, 2, 0), (1, 0, 0, 0), (3, 3, 3, 3)]
        assert u.sum_dim(rows) == 4

    def test_row_completing_the_space_is_not_normalized(self, monkeypatch):
        plane = canonicalize(3, [(1, 0, 0), (0, 1, 0)])
        calls = []
        real = rational_linalg.gcd

        def counting_gcd(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(rational_linalg, "gcd", counting_gcd)
        assert sum_rows(plane.ech_pairs, ((1, 1, 2),), 3) \
            is Subspace.full(3).rows
        assert calls == []

    @settings(max_examples=300)
    @given(matrix_and_rows(max_rows=3, max_extra=3))
    @example(COMPLETED_EARLY[0])
    @example(COMPLETED_EARLY[1])
    def test_agrees_with_subspace_sum(self, case):
        n, rows, extra = case
        u = canonicalize(n, rows)
        got = sum_rows(u.ech_pairs, [tuple(r) for r in extra], n)
        want = u.sum(canonicalize(n, extra))
        if got is None:
            assert want == u
        else:
            assert got == want.rows


class TestIntersectRows:
    def test_trivial_meets(self):
        a = canonicalize(3, [(1, 2, 3)])
        assert intersect_rows(a.rows, (), 3, a.pivots) == ()
        assert intersect_rows((), a.rows, 3, ()) == ()
        assert intersect_rows(a.rows, a.rows, 3, a.pivots) == a.rows
        full = Subspace.full(2)
        assert intersect_rows(full.rows, full.rows, 2, full.pivots) \
            == full.rows

    @settings(max_examples=300)
    @given(matrix_and_rows(max_rows=4, max_extra=4))
    def test_matches_dual_route(self, case):
        """Zassenhaus at double width against (A⊥ + B⊥)⊥; the b rows need
        not be canonical."""
        n, rows, other = case
        u = canonicalize(n, rows)
        want = reference_meet(u, canonicalize(n, other)).rows
        assert intersect_rows(u.rows, other, n, u.pivots) == want


def contains(u, vec):
    """Membership the way the package tests it: adding the vector leaves
    the dimension unchanged."""
    return u.sum_dim([list(vec)]) == u.dim


class TestMembership:
    def test_axis_membership(self):
        assert contains(canonicalize(2, [(1, 0)]), (3, 0))
        assert not contains(canonicalize(2, [(1, 0)]), (0, 1))

    def test_rational_multiple(self):
        # a rational vector enters through canonicalize
        line = canonicalize(2, [("1/2", 1)])
        assert contains(canonicalize(2, [(1, 2)]), line.rows[0])
        assert not contains(canonicalize(2, [(1, 3)]), line.rows[0])

    def test_zero_vector_everywhere(self):
        assert contains(Subspace.zero(3), (0, 0, 0))
        assert not contains(Subspace.zero(3), (1, 0, 0))

    def test_full_space_contains_everything(self):
        for vec in ((1, -7, 0), (0, 0, 0), (0, 0, 5)):
            assert contains(Subspace.full(3), vec)

    @settings(max_examples=300)
    @given(int_matrix(max_n=4, max_rows=3), st.lists(entries, min_size=1, max_size=4))
    def test_membership_iff_orthogonal_to_complement(self, case, vec):
        n, rows = case
        vec = vec[:n] + [0] * (n - len(vec))
        u = canonicalize(n, rows)
        orthogonal = all(sum(x * y for x, y in zip(vec, w)) == 0
                         for w in complement(u))
        assert contains(u, vec) == orthogonal
        assert contains(u, vec) == (u.sum(canonicalize(n, [vec])).dim == u.dim)


class TestSumDim:
    @settings(max_examples=300)
    @given(matrix_and_rows(max_rows=4, max_extra=4))
    @example(COMPLETED_EARLY[2])
    @example(COMPLETED_EARLY[3])
    def test_matches_dimension_of_the_sum(self, case):
        # sum_dim stops after the forward pass; the count must still be
        # the rank of the reduced sum
        n, rows, other = case
        u = canonicalize(n, rows)
        assert u.sum_dim(other) == len(reference_canonical(rows + other, n))

    @pytest.mark.parametrize("row", [(0, 1), (0, 1, 0, 5)])
    def test_row_length_mismatch_rejected(self, row):
        with pytest.raises(ValueError, match=f"row length {len(row)}"):
            canonicalize(3, [(1, 0, 0)]).sum_dim([row])
        with pytest.raises(ValueError, match=f"row length {len(row)}"):
            canonicalize(3, [(1, 0, 0), row])

    def test_rows_may_be_any_iterable(self):
        line = canonicalize(3, [(1, 0, 0)])
        assert line.sum_dim(r for r in [(0, 2, 0)]) == 2


class TestSerialization:
    def test_integer_form(self):
        assert parse_rational("5") == 5

    def test_fraction_form(self):
        assert parse_rational("-1/3") == Fraction(-1, 3)

    def test_reduction_on_parse(self):
        assert parse_rational("2/4") == Fraction(1, 2)

    def test_rejects_garbage(self):
        for bad in ("", "1/0", "a/b", "1.5.2", None, [1], True, False):
            with pytest.raises(ValueError):
                parse_rational(bad)

    @given(st.fractions())
    def test_round_trip(self, q):
        assert parse_rational(str(q)) == q

    @pytest.mark.parametrize("text", RATIONAL_STRINGS, ids=short_id)
    def test_reads_what_fraction_reads(self, text):
        # integer strings skip Fraction; nothing else may change
        try:
            expected = Fraction(text.strip())
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ValueError) as refused:
                parse_rational(text)
            assert str(refused.value) == f"not a rational: {text!r}"
            return
        got = parse_rational(text)
        assert got == expected
        assert type(got) is (Fraction if "/" in text or "." in text
                             or "e" in text else int)

    def test_integers_and_fractions_pass_unchanged(self):
        half = Fraction(1, 2)
        assert parse_rational(7) == 7 and type(parse_rational(7)) is int
        assert parse_rational(half) is half


class TestMatrixShape:
    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            canonicalize(2, [[1, 2], [1]])

    def test_empty_needs_cols(self):
        # an empty generator set takes its ambient dimension from the caller
        assert canonicalize(3, []) == Subspace.zero(3)
        assert canonicalize(0, []).rows == ()

    def test_subspace_helpers(self):
        assert Subspace.full(3).dim == 3
        assert Subspace.zero(3).rows == ()
        u = canonicalize(3, [(0, 2, 4)])
        assert u.rows == ((0, 1, 2),)
        assert u.sum_dim(Subspace.zero(3).rows) == u.dim
        assert Subspace.full(3).sum_dim(u.rows) == 3
        assert u.sum_dim(Subspace.full(3).rows) != u.dim

    def test_public_surface(self):
        # a new public name on Subspace is a deliberate edit here
        public = sorted(k for k in vars(Subspace) if not k.startswith("_"))
        assert public == [
            "ambient_dim", "dim", "ech_pairs", "full", "intersect", "of",
            "pivots", "rows", "sort_key", "sum", "sum_dim", "sum_intersect",
            "zero",
        ]


def test_dim_path_imports_no_typing(tmp_path):
    # -S: no site, whose .pth files may load typing themselves
    script = f"""
import sys
from amoebadim.cli import main
fan, out = {str(tmp_path / "h3.json")!r}, {str(tmp_path / "out.json")!r}
assert main(["gen", "hyperplane", "3", "--output", fan]) == 0
assert main(["dim", fan, "--output", out]) == 0
assert "amoebadim.rational_linalg" in sys.modules
assert "typing" not in sys.modules
"""
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
