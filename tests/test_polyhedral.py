import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amoebadim.families import torus_invariant
from amoebadim.polyhedral import (
    ComplexFormatError,
    PurityError,
    SpanComplex,
    dim_sum_with_subspace,
    format_complex,
    parse_complex,
    product,
)
from amoebadim.rational_linalg import Subspace, canonicalize
from amoebadim.subspace_search import amoeba_dim

from conftest import curve_fan3, hyperplane, random_pure_complex, \
    random_unimodular, seeded_case, span, transform_complex, \
    transform_subspace


def cellwise_invariant(sigma, sub):
    """S lies in every cell span (a sufficient condition for S + |Σ| = |Σ|)."""
    return all(cell.sum(sub) == cell for cell in sigma.cells)


class TestParse:
    def test_single_cell(self):
        sigma = parse_complex(json.dumps({
            "ambient_dim": 3,
            "cells": [{"span": [["1", "0", "0"], ["0", "1", "0"]]}],
        }))
        assert sigma.ambient_dim == 3
        assert sigma.dim == 2
        assert len(sigma.cells) == 1
        assert sigma.cells[0] == span(3, (1, 0, 0), (0, 1, 0))

    def test_purity_rejected(self):
        text = json.dumps({
            "ambient_dim": 3,
            "cells": [
                {"span": [["1", "0", "0"]]},
                {"span": [["1", "0", "0"], ["0", "1", "0"]]},
            ],
        })
        with pytest.raises(PurityError):
            parse_complex(text)

    def test_dedup_same_span(self):
        sigma = parse_complex(json.dumps({
            "ambient_dim": 2,
            "cells": [
                {"span": [["1", "0"], ["0", "1"]]},
                {"span": [["2", "0"], ["0", "1"]]},
            ],
        }))
        assert len(sigma.cells) == 1

    def test_dependent_rows_collapse(self):
        sigma = parse_complex(json.dumps({
            "ambient_dim": 3,
            "cells": [
                {"span": [["1", "0", "0"], ["0", "1", "0"], ["1", "1", "0"]]},
                {"span": [["1", "0", "0"], ["0", "0", "1"]]},
            ],
        }))
        assert sigma.dim == 2
        assert len(sigma.cells) == 2

    def test_rational_entries(self):
        sigma = parse_complex(json.dumps({
            "ambient_dim": 2,
            "cells": [{"span": [["1/2", "1/3"]]}],
        }))
        assert sigma.cells[0] == span(2, ("1/2", "1/3"))
        assert sigma.cells[0].rows == ((3, 2),)

    def test_malformed_json(self):
        with pytest.raises(ComplexFormatError):
            parse_complex("{not json")

    def test_top_level_not_object(self):
        with pytest.raises(ComplexFormatError):
            parse_complex("[1, 2]")

    def test_empty_cell_list(self):
        with pytest.raises(ComplexFormatError):
            parse_complex('{"ambient_dim": 2, "cells": []}')

    def test_negative_ambient(self):
        with pytest.raises(ComplexFormatError):
            parse_complex('{"ambient_dim": -1, "cells": [{"span": []}]}')

    def test_ambient_must_be_int(self):
        for bad in ('"3"', "true", "null", "2.5"):
            with pytest.raises(ComplexFormatError):
                parse_complex(
                    '{"ambient_dim": %s, "cells": [{"span": [["1"]]}]}' % bad
                )

    def test_missing_span(self):
        with pytest.raises(ComplexFormatError):
            parse_complex('{"ambient_dim": 2, "cells": [{"label": "a"}]}')

    def test_span_must_be_list_of_rows(self):
        with pytest.raises(ComplexFormatError,
                           match='cell 0: "span" must be a list of rows'):
            parse_complex('{"ambient_dim": 2, "cells": [{"span": [1, 2]}]}')

    def test_bad_entry(self):
        with pytest.raises(ComplexFormatError):
            parse_complex(
                '{"ambient_dim": 2, "cells": [{"span": [["1", "x"]]}]}'
            )

    def test_row_length_mismatch(self):
        with pytest.raises(ComplexFormatError):
            parse_complex('{"ambient_dim": 3, "cells": [{"span": [["1", "0"]]}]}')

    def test_boolean_entries_rejected(self):
        # JSON true/false are not rationals, although Python's bool is an int
        for bad in ("[[true, false]]", '[["1", false]]'):
            with pytest.raises(ComplexFormatError):
                parse_complex('{"ambient_dim": 2, "cells": [{"span": %s}]}'
                              % bad)

    def test_label_kept(self):
        sigma = parse_complex(json.dumps({
            "ambient_dim": 2,
            "cells": [
                {"span": [["0", "1"]], "label": "up"},
                {"span": [["1", "0"]], "label": "right"},
            ],
        }))
        # cells are reordered canonically, labels travel with their cell
        assert sigma.labels == ("up", "right")
        assert sigma.cells == (span(2, (0, 1)), span(2, (1, 0)))

    def test_label_must_be_string(self):
        with pytest.raises(ComplexFormatError):
            parse_complex(
                '{"ambient_dim": 2, "cells": [{"span": [["1", "0"]], "label": 7}]}'
            )

    def test_round_trip(self):
        sigma = hyperplane(3)
        assert parse_complex(format_complex(sigma)) == sigma

    def test_round_trip_labels(self):
        sigma = parse_complex(json.dumps({
            "ambient_dim": 2,
            "cells": [{"span": [["1", "0"]], "label": "a"},
                      {"span": [["0", "1"]]}],
        }))
        again = parse_complex(format_complex(sigma))
        assert again == sigma
        assert again.labels == sigma.labels

    @given(st.lists(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3).filter(any),
        min_size=1, max_size=5,
    ))
    def test_round_trip_random_lines(self, vectors):
        sigma = SpanComplex(3, [span(3, v) for v in vectors])
        assert parse_complex(format_complex(sigma)) == sigma


class TestSpanComplex:
    def test_cells_sorted_and_deduped(self):
        a = span(2, (0, 1))
        b = span(2, (1, 0))
        sigma = SpanComplex(2, [a, b, a])
        assert sigma.cells == (a, b)

    def test_ambient_mismatch(self):
        with pytest.raises(ComplexFormatError):
            SpanComplex(3, [span(2, (1, 0))])

    @pytest.mark.parametrize("n", [1.0, True, "1", None])
    def test_non_integer_ambient(self, n):
        # format_complex would write a file parse_complex refuses
        with pytest.raises(ComplexFormatError,
                           match='"ambient_dim" must be an integer'):
            SpanComplex(n, [span(1, (1,))])

    def test_negative_ambient(self):
        with pytest.raises(ComplexFormatError, match="ambient_dim < 0"):
            SpanComplex(-1, [Subspace(-1, ())])

    def test_label_count_mismatch(self):
        with pytest.raises(ComplexFormatError):
            SpanComplex(2, [span(2, (1, 0))], labels=["a", "b"])

    def test_label_must_be_string(self):
        # what format_complex writes, parse_complex must read back
        with pytest.raises(ComplexFormatError, match="cell 0: label"):
            SpanComplex(2, [span(2, (1, 0))], labels=[5])

    def test_labels_string_refused(self):
        # a string is a sequence of one-letter labels; it must not be
        # split across the cells
        with pytest.raises(ComplexFormatError, match="not a string"):
            SpanComplex(2, [span(2, (1, 0)), span(2, (0, 1))], labels="ab")

    def test_constructor_without_labels_keeps_cells(self):
        # `labels` defaults to None; the complex must still serialize its
        # cells and survive a Minkowski sum.
        a, b = span(2, (0, 1)), span(2, (1, 0))  # canonical order
        sigma = SpanComplex(2, (a, b))
        assert sigma.labels == (None, None)
        assert parse_complex(format_complex(sigma)).cells == (a, b)
        summed = torus_invariant(sigma, span(2, (1, 1)))
        assert summed.cells == (Subspace.full(2),)

    def test_constructor_refuses_impure_cells(self):
        line = span(2, (1, 0))
        with pytest.raises(PurityError) as exc_info:
            SpanComplex(2, (line, Subspace.full(2), span(2, (0, 1))))
        assert exc_info.value.offending == (1,)

    def test_constructor_refuses_empty_cells(self):
        with pytest.raises(ComplexFormatError, match="at least one cell"):
            SpanComplex(2, ())

    def test_constructor_sorts_cells(self):
        a, b, c = span(2, (0, 1)), span(2, (1, -1)), span(2, (1, 0))
        sigma = SpanComplex(2, [c, a, b], labels=["c", "a", "b"])
        assert sigma == SpanComplex(2, [a, b, c])
        assert sigma.cells == (a, b, c)
        assert sigma.labels == ("a", "b", "c")

    def test_constructor_merges_duplicates_keeping_label(self):
        a, b = span(2, (0, 1)), span(2, (1, 0))
        sigma = SpanComplex(2, [a, b, a], labels=[None, None, "a"])
        assert sigma.cells == (a, b)
        assert sigma.labels == ("a", None)
        assert sigma.dim == 1

    def test_line_built_directly_scores_one(self):
        result = amoeba_dim(SpanComplex(2, (span(2, (1, 0)),)))
        assert (result.value, result.lower_bound) == (1, 1)
        assert result.certified

    def test_zero_dim_complex(self):
        sigma = SpanComplex(2, [Subspace.zero(2)])
        assert sigma.dim == 0
        assert len(sigma.cells) == 1

    def test_public_surface(self):
        # a new public name on SpanComplex is a deliberate edit here; the
        # complex is no container, its cells are read through `cells`
        public = sorted(k for k in vars(SpanComplex) if not k.startswith("_"))
        assert public == ["ambient_dim", "cells", "dim", "labels"]
        assert not {"__iter__", "__len__"} & set(vars(SpanComplex))


class TestDimSum:
    def test_with_zero_subspace(self):
        assert dim_sum_with_subspace(hyperplane(3), Subspace.zero(3)) == 2

    def test_with_transversal_line(self):
        # e1 misses the span(e2,e3) cell, so that cell's sum already fills R^3
        assert dim_sum_with_subspace(hyperplane(3), span(3, (1, 0, 0))) == 3

    def test_with_full_space(self):
        assert dim_sum_with_subspace(curve_fan3(), Subspace.full(3)) == 3

    def test_line_inside_every_cell(self):
        sigma = SpanComplex(
            3, [span(3, (1, 1, 1), (1, 0, 0)), span(3, (1, 1, 1), (0, 1, 0))]
        )
        assert dim_sum_with_subspace(sigma, span(3, (1, 1, 1))) == 2

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            dim_sum_with_subspace(hyperplane(3), Subspace.zero(2))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_bounds(self, seed):
        _, n, sigma, sub = seeded_case(seed, 5, cells=(1, 4))
        val = dim_sum_with_subspace(sigma, sub)
        assert max(sigma.dim, sub.dim) <= val <= min(n, sigma.dim + sub.dim)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_subspace(self, seed):
        rng, n, sigma, small = seeded_case(seed, 5, cells=(1, 4))
        extra = [rng.randint(-2, 2) for _ in range(n)]
        big = small.sum(span(n, extra))
        assert dim_sum_with_subspace(sigma, small) <= dim_sum_with_subspace(
            sigma, big
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_per_cell_maximum(self, seed):
        _, n, sigma, sub = seeded_case(seed, 4, cells=(1, 4))
        expected = max(cell.sum(sub).dim for cell in sigma.cells)
        assert dim_sum_with_subspace(sigma, sub) == expected


class TestMinkowski:
    def test_zero_is_identity(self):
        sigma = curve_fan3()
        assert torus_invariant(sigma, Subspace.zero(3)) == sigma

    def test_pure_sum_with_dedup(self):
        sigma = SpanComplex(2, [span(2, (1, 0)), span(2, (0, 1))])
        out = torus_invariant(sigma, span(2, (1, 1)))
        assert out.dim == 2
        assert len(out.cells) == 1
        assert out.cells[0] == Subspace.full(2)

    def test_impure_sum_rejected(self):
        # (1,1,1) lies in span(e_i, -e1-e2-e3) for each i, so those three
        # summed cells stay two-dimensional while the coordinate planes grow
        # to fill R^3.  The sum is impure and must be refused, naming the
        # cells left behind.
        sigma = hyperplane(3)
        with pytest.raises(PurityError) as exc_info:
            torus_invariant(sigma, span(3, (1, 1, 1)))
        offending = exc_info.value.offending
        assert offending == (3, 4, 5)
        low = [sigma.cells[i] for i in offending]
        assert low == [
            span(3, (1, 0, 0), (0, 1, 1)),
            span(3, (1, 0, 1), (0, 1, 0)),
            span(3, (1, 1, 0), (0, 0, 1)),
        ]

    def test_impure_message_names_cells(self):
        with pytest.raises(PurityError, match="cell 3"):
            torus_invariant(hyperplane(3), span(3, (1, 1, 1)))

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            torus_invariant(curve_fan3(), Subspace.zero(4))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_dim_matches_dim_sum(self, seed):
        _, n, sigma, sub = seeded_case(seed, 5, cells=(1, 4))
        try:
            out = torus_invariant(sigma, sub)
        except PurityError:
            return
        assert out.dim == dim_sum_with_subspace(sigma, sub)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_idempotent_and_invariant(self, seed):
        _, n, sigma, sub = seeded_case(seed, 5, cells=(1, 4))
        try:
            once = torus_invariant(sigma, sub)
        except PurityError:
            return
        assert cellwise_invariant(once, sub)
        assert torus_invariant(once, sub) == once


class TestCellwiseInvariant:
    def test_diagonal_line(self):
        sigma = SpanComplex(
            3, [span(3, (1, 1, 1), (1, 0, 0)), span(3, (1, 1, 1), (0, 1, 0))]
        )
        assert cellwise_invariant(sigma, span(3, (1, 1, 1)))

    def test_hyperplane_skeleton_is_not(self):
        assert not cellwise_invariant(hyperplane(3), span(3, (1, 1, 1)))

    def test_zero_always(self):
        assert cellwise_invariant(hyperplane(3), Subspace.zero(3))

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            cellwise_invariant(hyperplane(3), Subspace.zero(4))


class TestProduct:
    def test_curve_times_curve(self):
        rays = [(1, 0), (0, 1), (-1, -1)]
        curve = SpanComplex(2, [span(2, r) for r in rays])
        out = product(curve, curve)
        assert out.ambient_dim == 4
        assert out.dim == 2
        assert len(out.cells) == 9
        # same nine planes out of an independent construction
        expected = {
            canonicalize(4, [list(a) + [0, 0], [0, 0] + list(b)])
            for a in rays for b in rays
        }
        assert set(out.cells) == expected

    def test_dims_and_ambient_add(self):
        left = hyperplane(3)
        right = SpanComplex(2, [span(2, (1, 0)), span(2, (0, 1))])
        out = product(left, right)
        assert out.ambient_dim == 5
        assert out.dim == left.dim + right.dim
        assert len(out.cells) == len(left.cells) * len(right.cells)

    def test_single_cells_give_direct_sum(self):
        left = SpanComplex(2, [span(2, (1, 2))])
        right = SpanComplex(3, [span(3, (0, 1, 1))])
        out = product(left, right)
        assert out.cells == (
            canonicalize(5, [[1, 2, 0, 0, 0], [0, 0, 0, 1, 1]]),
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_cells_are_canonical(self, seed):
        rng = random.Random(seed)
        left = random_pure_complex(rng, rng.randint(1, 3), num_cells=2)
        right = random_pure_complex(rng, rng.randint(1, 3), num_cells=2)
        out = product(left, right)
        for cell in out.cells:
            rebuilt = canonicalize(out.ambient_dim, list(cell.rows))
            assert rebuilt == cell


class TestUnimodularEquivariance:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_dim_sum_invariant(self, seed):
        rng, n, sigma, sub = seeded_case(seed, 4, cells=(1, 3))
        mat = random_unimodular(rng, n)
        assert dim_sum_with_subspace(
            transform_complex(sigma, mat), transform_subspace(sub, mat)
        ) == dim_sum_with_subspace(sigma, sub)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_minkowski_equivariant(self, seed):
        rng, n, sigma, sub = seeded_case(seed, 4, cells=(1, 3))
        mat = random_unimodular(rng, n)
        try:
            plain = torus_invariant(sigma, sub)
        except PurityError:
            with pytest.raises(PurityError):
                torus_invariant(
                    transform_complex(sigma, mat), transform_subspace(sub, mat)
                )
            return
        assert torus_invariant(
            transform_complex(sigma, mat), transform_subspace(sub, mat)
        ) == transform_complex(plain, mat)
