import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amoebadim import rational_linalg
from amoebadim.rational_linalg import (
    Subspace,
    canonicalize,
    complement_rows,
    format_rational,
    intersect_rows,
    parse_rational,
    sum_rows,
)

from conftest import child_env, reference_canonical, reference_rref


def span(n, rows):
    return canonicalize(n, rows)


def rref(n, rows):
    """Canonical basis rows divided by their leading entries."""
    out = []
    for row in span(n, rows).rows:
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
        sub = span(3, [(2, 0, 0), (1, 1, 0)])
        assert sub.rows == ((1, 0, 0), (0, 1, 0))

    def test_empty_generators_give_zero(self):
        sub = span(2, [])
        assert sub.is_zero() and sub.dim == 0

    def test_rational_entries_clear_to_primitive(self):
        sub = span(2, [("1/2", "1/3")])
        assert sub.rows == ((3, 2),)

    def test_column_mismatch_rejected(self):
        with pytest.raises(ValueError):
            span(3, [(1, 0)])
        with pytest.raises(ValueError):
            canonicalize(2, [[1, 0, 0]])

    def test_negative_ambient_rejected(self):
        with pytest.raises(ValueError):
            canonicalize(-1, [])

    @settings(max_examples=300)
    @given(int_matrix())
    def test_matches_reference(self, case):
        n, rows = case
        assert span(n, rows).rows == reference_canonical(rows, n)

    @settings(max_examples=200)
    @given(int_matrix(max_n=4, max_rows=4), st.randoms(use_true_random=False))
    def test_invariant_under_row_operations(self, case, rnd):
        """Same row span -> same canonical basis."""
        n, rows = case
        base = span(n, rows)
        mixed = [list(r) for r in rows]
        rnd.shuffle(mixed)
        for _ in range(4):
            if len(mixed) >= 2:
                i, j = rnd.randrange(len(mixed)), rnd.randrange(len(mixed))
                if i != j:
                    c = rnd.choice([-2, -1, 1, 2, 3])
                    mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
        assert span(n, mixed).rows == base.rows

    @settings(max_examples=200)
    @given(int_matrix())
    def test_idempotent(self, case):
        n, rows = case
        once = span(n, rows)
        assert span(n, once.rows).rows == once.rows

    @settings(max_examples=200)
    @given(int_matrix())
    def test_canonical_row_structure(self, case):
        """Rows primitive with positive lead, strictly increasing pivots,
        zeros above and below every pivot."""
        from math import gcd

        n, rows = case
        sub = span(n, rows)
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
        got = span(3, [(1, 0, 0)]).sum(span(3, [(0, 1, 0)]))
        assert got.rows == ((1, 0, 0), (0, 1, 0))

    def test_sum_with_zero_is_identity(self):
        u = span(3, [(1, 2, 3)])
        assert u.sum(Subspace.zero(3)) == u

    def test_lines_spanning_plane(self):
        assert span(2, [(1, 1)]).sum(span(2, [(1, -1)])).is_full()

    def test_sum_takes_no_meet(self, monkeypatch):
        # two planes in R^4 that meet in the line of (1, 1, 1, 1): their
        # sum needs one elimination, not the Zassenhaus one of the meet
        def refuse(*args, **kwargs):
            raise AssertionError("intersect_rows was called")

        monkeypatch.setattr(rational_linalg, "intersect_rows", refuse)
        u = span(4, [(1, 1, 0, 0), (0, 0, 1, 1)])
        v = span(4, [(1, 1, 1, 1), (1, 0, 0, 0)])
        assert u.sum(v) == span(4, [(1, 0, 0, 0), (0, 1, 0, 0),
                                    (0, 0, 1, 1)])

    def test_intersect_coordinate_planes(self):
        got = span(3, [(1, 0, 0), (0, 1, 0)]).intersect(span(3, [(1, 0, 0), (0, 0, 1)]))
        assert got.rows == ((1, 0, 0),)

    def test_intersect_with_full_is_identity(self):
        u = span(3, [(1, 2, 3), (0, 1, 1)])
        assert u.intersect(Subspace.full(3)) == u

    def test_skew_planes_meet_in_diagonal(self):
        got = span(3, [(1, 1, 0), (0, 0, 1)]).intersect(span(3, [(1, 0, 0), (0, 1, 1)]))
        assert got.rows == ((1, 1, 1),)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_trivial_results_are_the_shared_instances(self, n):
        # `Subspace.of` alone decides when a result is {0} or R^n
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        assert canonicalize(n, identity) is Subspace.full(n)
        assert canonicalize(n, []) is Subspace.zero(n)
        axis, diagonal = span(n, [identity[0]]), span(n, [[1] * n])
        if n > 1:
            assert axis.intersect(diagonal) is Subspace.zero(n)
        assert span(n, identity[1:]).sum(diagonal) is Subspace.full(n)

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            span(2, [(1, 0)]).sum(span(3, [(1, 0, 0)]))
        with pytest.raises(ValueError):
            span(2, [(1, 0)]).intersect(span(3, [(1, 0, 0)]))

    @settings(max_examples=400)
    @given(int_matrix(max_n=5, max_rows=4), st.data())
    def test_rank_nullity(self, case, data):
        n, rows = case
        other = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                   min_size=0, max_size=4))
        u = span(n, rows)
        v = span(n, other)
        total, meet = u.sum_intersect(v)
        assert total.dim + meet.dim == u.dim + v.dim
        assert total.sum(u) == total and total.sum(v) == total
        assert meet.intersect(u) == meet and meet.intersect(v) == meet
        assert u.sum(v) == v.sum(u)
        assert u.intersect(v) == v.intersect(u)


class TestComplement:
    def test_axis_line(self):
        assert span(3, [(1, 0, 0)]).orth.rows == ((0, 1, 0), (0, 0, 1))

    def test_diagonal_line(self):
        assert span(3, [(1, 1, 1)]).orth.rows == ((1, 0, -1), (0, 1, -1))

    def test_scaled_pivots(self):
        got = span(3, [(2, 0, 1), (0, 3, 1)]).orth
        assert got.rows == ((3, 2, -6),)

    def test_zero_and_full(self):
        assert Subspace.zero(3).orth.is_full()
        assert Subspace.full(3).orth.is_zero()
        assert complement_rows((), 2, ()) == ((1, 0), (0, 1))
        assert complement_rows(Subspace.full(2).rows, 2, (0, 1)) == ()

    def test_cached_involution(self):
        u = span(4, [(1, 2, 3, 4), (0, 1, 0, 1)])
        assert u.orth.orth is u

    def test_derived_bases_are_cached(self):
        u = span(4, [(1, 2, 3, 4), (0, 1, 0, 1)])
        assert u.pivots == (0, 1)
        assert u.pivots is u.pivots
        assert u.orth is u.orth
        assert u == Subspace(4, u.rows)  # caches take no part in equality

    @settings(max_examples=300)
    @given(int_matrix())
    def test_complement_properties(self, case):
        """dim + codim = n, every cross pairing orthogonal, and together
        the two bases span everything; that pins the complement down."""
        n, rows = case
        u = span(n, rows)
        w = u.orth
        assert u.dim + w.dim == n
        for r in u.rows:
            for s in w.rows:
                assert sum(x * y for x, y in zip(r, s)) == 0
        assert span(n, u.rows + w.rows).is_full()
        assert w.orth is u

    @settings(max_examples=300)
    @given(int_matrix(max_n=5, max_rows=4), st.data())
    def test_meet_via_complements(self, case, data):
        n, rows = case
        other = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                   min_size=0, max_size=4))
        u = span(n, rows)
        v = span(n, other)
        assert u.orth.sum(v.orth).orth == u.intersect(v)


class TestSumRows:
    def test_growth(self):
        u = span(3, [(1, 0, 0)])
        assert sum_rows(u.ech_pairs, ((0, 1, 0),), 3) == ((1, 0, 0), (0, 1, 0))

    def test_contained_rows_return_none(self):
        u = span(3, [(1, 0, 0), (0, 1, 0)])
        assert sum_rows(u.ech_pairs, ((2, 3, 0),), 3) is None

    def test_growth_to_full(self):
        u = span(2, [(1, 1)])
        assert sum_rows(u.ech_pairs, ((1, -1),), 2) == ((1, 0), (0, 1))

    @settings(max_examples=300)
    @given(int_matrix(max_n=5, max_rows=3), st.data())
    def test_agrees_with_subspace_sum(self, case, data):
        n, rows = case
        extra = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                   min_size=0, max_size=3))
        u = span(n, rows)
        got = sum_rows(u.ech_pairs, [tuple(r) for r in extra], n)
        want = u.sum(span(n, extra))
        if got is None:
            assert want == u
        else:
            assert got == want.rows


class TestIntersectRows:
    def test_trivial_meets(self):
        a = span(3, [(1, 2, 3)])
        assert intersect_rows(a.rows, (), 3, a.pivots) == ()
        assert intersect_rows((), a.rows, 3, ()) == ()
        assert intersect_rows(a.rows, a.rows, 3, a.pivots) == a.rows
        full = Subspace.full(2)
        assert intersect_rows(full.rows, full.rows, 2, full.pivots) \
            == full.rows

    @settings(max_examples=300)
    @given(int_matrix(max_n=5, max_rows=4), st.data())
    def test_matches_dual_route(self, case, data):
        """Zassenhaus at double width against (A⊥ + B⊥)⊥; the b rows need
        not be canonical."""
        n, rows = case
        other = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                   min_size=0, max_size=4))
        u = span(n, rows)
        want = u.orth.sum(span(n, other).orth).orth.rows
        assert intersect_rows(u.rows, other, n, u.pivots) == want


class TestContains:
    def test_axis_membership(self):
        assert span(2, [(1, 0)]).contains((3, 0))
        assert not span(2, [(1, 0)]).contains((0, 1))

    def test_rational_multiple(self):
        assert span(2, [(1, 2)]).contains(("1/2", 1))

    def test_zero_vector_everywhere(self):
        assert Subspace.zero(3).contains((0, 0, 0))
        assert not Subspace.zero(3).contains((1, 0, 0))

    def test_full_space_contains_everything(self):
        assert Subspace.full(3).contains(("1/2", -7, 0))
        with pytest.raises(ValueError):
            Subspace.full(3).contains((1, 0))

    @settings(max_examples=300)
    @given(int_matrix(max_n=4, max_rows=3), st.lists(entries, min_size=1, max_size=4))
    def test_membership_iff_sum_dim_unchanged(self, case, vec):
        n, rows = case
        vec = vec[:n] + [0] * (n - len(vec))
        u = span(n, rows)
        line = span(n, [vec])
        assert u.contains(vec) == (u.sum(line).dim == u.dim)


class TestSumDim:
    @settings(max_examples=300)
    @given(int_matrix(max_n=5, max_rows=4), st.data())
    def test_matches_dimension_of_the_sum(self, case, data):
        # sum_dim stops after the forward pass; the count must still be
        # the rank of the reduced sum
        n, rows = case
        other = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                   min_size=0, max_size=4))
        u = span(n, rows)
        assert u.sum_dim(other) == len(reference_canonical(rows + other, n))


class TestSerialization:
    def test_integer_form(self):
        assert format_rational(Fraction(5)) == "5"
        assert parse_rational("5") == 5

    def test_fraction_form(self):
        assert format_rational(Fraction(-2, 6)) == "-1/3"
        assert parse_rational("-1/3") == Fraction(-1, 3)

    def test_reduction_on_parse(self):
        assert parse_rational("2/4") == Fraction(1, 2)

    def test_rejects_garbage(self):
        for bad in ("", "1/0", "a/b", "1.5.2", None, [1], True, False):
            with pytest.raises(ValueError):
                parse_rational(bad)

    @given(st.fractions())
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q


class TestMatrixShape:
    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            span(2, [[1, 2], [1]])

    def test_empty_needs_cols(self):
        # an empty generator set takes its ambient dimension from the caller
        assert span(3, []) == Subspace.zero(3)
        assert span(0, []).rows == ()

    def test_subspace_helpers(self):
        assert Subspace.full(3).dim == 3
        assert Subspace.zero(3).rows == ()
        u = span(3, [(0, 2, 4)])
        assert u.rows == ((0, 1, 2),)
        assert u.contains_subspace(Subspace.zero(3))
        assert Subspace.full(3).contains_subspace(u)
        assert not u.contains_subspace(Subspace.full(3))


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
