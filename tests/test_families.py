import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amoebadim.cli import main
from amoebadim.families import (
    curve_fan,
    orbit_subspace,
    torus_invariant,
    tropical_hyperplane,
)
from amoebadim.polyhedral import PurityError, parse_complex
from amoebadim.rational_linalg import Subspace
from amoebadim.subspace_search import amoeba_dim

from conftest import hyperplane, random_subspace, reference_canonical, span


class TestTropicalHyperplane:
    def test_n2_is_three_lines(self):
        sigma = tropical_hyperplane(2)
        assert sigma.dim == 1
        assert [c.rows for c in sigma.cells] == [
            ((0, 1),), ((1, 0),), ((1, 1),),
        ]

    def test_n3_six_distinct_planes(self):
        sigma = tropical_hyperplane(3)
        assert sigma.dim == 2
        assert [c.rows for c in sigma.cells] == [
            ((0, 1, 0), (0, 0, 1)),
            ((1, 0, 0), (0, 0, 1)),
            ((1, 0, 0), (0, 1, 0)),
            ((1, 0, 0), (0, 1, 1)),
            ((1, 0, 1), (0, 1, 0)),
            ((1, 1, 0), (0, 0, 1)),
        ]

    @pytest.mark.parametrize("n,count", [(2, 3), (3, 6), (4, 10), (5, 15)])
    def test_counts_match_subset_count(self, n, count):
        sigma = tropical_hyperplane(n)
        assert len(sigma.cells) == count == comb(n + 1, n - 1)
        assert sigma.dim == n - 1
        # the tests' hand-built copy is the same fan
        assert hyperplane(n).cells == sigma.cells

    def test_dedup_removes_nothing(self):
        # independent enumeration of the generator subsets
        n = 4
        gens = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        gens.append((-1,) * n)
        forms = {reference_canonical(list(p), n)
                 for p in combinations(gens, n - 1)}
        assert {c.rows for c in tropical_hyperplane(n).cells} == forms

    @pytest.mark.parametrize("n", [1, 0, -2])
    def test_too_small(self, n):
        with pytest.raises(ValueError):
            tropical_hyperplane(n)

    def test_dimension_values(self):
        assert amoeba_dim(tropical_hyperplane(2)).value == 2
        assert amoeba_dim(tropical_hyperplane(3)).value == 3
        assert amoeba_dim(tropical_hyperplane(4),
                          strategy="lattice(cap=10000)").value == 4


class TestOrbitSubspace:
    def test_line(self):
        sigma = orbit_subspace(2, [(1, 2)])
        assert len(sigma.cells) == 1
        assert sigma.cells[0] == span(2, (1, 2))

    def test_plane(self):
        sigma = orbit_subspace(3, [(1, 0, 0), (0, 1, 0)])
        assert sigma.cells[0] == span(3, (1, 0, 0), (0, 1, 0))

    def test_full_line_ambient_one(self):
        sigma = orbit_subspace(1, [(1,)])
        assert sigma.cells[0] == Subspace.full(1)

    def test_dependent_generators_rejected(self):
        with pytest.raises(ValueError):
            orbit_subspace(2, [(1, 2), (2, 4)])
        with pytest.raises(ValueError):
            orbit_subspace(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])

    def test_rational_generators(self):
        from fractions import Fraction

        sigma = orbit_subspace(2, [(Fraction(1, 2), Fraction(3, 2))])
        assert sigma.cells[0] == span(2, (1, 3))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_always_certified(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        sub = random_subspace(rng, n)
        if sub.dim == 0:
            return
        res = amoeba_dim(orbit_subspace(n, sub.rows))
        assert res.value == sub.dim
        assert res.certified


class TestCurveFan:
    def test_four_rays(self):
        sigma = curve_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
        assert len(sigma.cells) == 4
        assert sigma.dim == 1

    def test_dedup_parallel_rays(self):
        sigma = curve_fan(2, [(1, 0), (2, 0)])
        assert len(sigma.cells) == 1
        assert sigma.cells[0] == span(2, (1, 0))

    def test_opposite_rays_collapse(self):
        assert len(curve_fan(2, [(1, 1), (-1, -1)]).cells) == 1

    def test_zero_ray_rejected(self):
        with pytest.raises(ValueError, match="ray 1"):
            curve_fan(2, [(1, 0), (0, 0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            curve_fan(2, [])

    def test_matches_hyperplane_in_the_plane(self):
        assert curve_fan(2, [(1, 0), (0, 1), (-1, -1)]) == \
            tropical_hyperplane(2)


class TestTorusInvariant:
    def test_zero_subspace_is_identity(self):
        sigma = tropical_hyperplane(3)
        assert torus_invariant(sigma, Subspace.zero(3)) == sigma

    def test_embedded_tropical_line_plus_axis(self):
        sigma0 = curve_fan(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
        out = torus_invariant(sigma0, span(3, (0, 0, 1)))
        assert [c.rows for c in out.cells] == [
            ((0, 1, 0), (0, 0, 1)),
            ((1, 0, 0), (0, 0, 1)),
            ((1, 1, 0), (0, 0, 1)),
        ]

    def test_shifted_curve_in_r4(self):
        sigma0 = curve_fan(4, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                               (0, -1, -1, -1)])
        out = torus_invariant(sigma0, span(4, (1, 0, 0, 0)))
        assert [c.rows for c in out.cells] == [
            ((1, 0, 0, 0), (0, 0, 0, 1)),
            ((1, 0, 0, 0), (0, 0, 1, 0)),
            ((1, 0, 0, 0), (0, 1, 0, 0)),
            ((1, 0, 0, 0), (0, 1, 1, 1)),
        ]
        line = span(4, (1, 0, 0, 0))
        assert all(c.sum_dim(line.rows) == c.dim for c in out.cells)

    def test_purity_violation_propagates(self):
        with pytest.raises(PurityError):
            torus_invariant(tropical_hyperplane(3), span(3, (1, 1, 1)))

    def test_dimension_adds_on_stable_complexes(self):
        sigma0 = curve_fan(4, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                               (0, -1, -1, -1)])
        sub = span(4, (1, 0, 0, 0))
        base = amoeba_dim(sigma0).value
        assert amoeba_dim(torus_invariant(sigma0, sub)).value == \
            sub.dim + base

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_result_is_cellwise_invariant(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        rays = [v for v in (tuple(rng.randint(-2, 2) for _ in range(n))
                            for _ in range(rng.randint(1, 3))) if any(v)]
        if not rays:
            rays = [tuple(1 if j == 0 else 0 for j in range(n))]
        sigma0 = curve_fan(n, rays)
        sub = random_subspace(rng, n)
        try:
            out = torus_invariant(sigma0, sub)
        except PurityError:
            return
        assert all(c.sum_dim(sub.rows) == c.dim for c in out.cells)
        assert out.dim == sigma0.cells[0].sum(sub).dim


class TestFamilySpec:
    """A family named on the command line, with its parameters, builds the
    same complex as the library builder."""

    @staticmethod
    def gen(capsys, *argv):
        code = main(["gen", *argv])
        out = capsys.readouterr().out
        return code, parse_complex(out) if code == 0 else None

    def test_build_hyperplane(self, capsys):
        assert self.gen(capsys, "hyperplane", "3") == \
            (0, tropical_hyperplane(3))

    def test_build_orbit(self, capsys):
        assert self.gen(capsys, "orbit", "2", "1,2") == \
            (0, orbit_subspace(2, [(1, 2)]))

    def test_build_curve(self, capsys):
        rays = [(1, 0), (0, 1), (-1, -1)]
        assert self.gen(capsys, "curve", "2", "e1;e2;-1,-1") == \
            (0, curve_fan(2, rays))

    def test_unknown_family(self, capsys):
        assert main(["gen", "moment_map", "2"]) == 2
        assert "unknown family" in capsys.readouterr().err

    def test_bad_ambient(self, capsys):
        for argv in (("hyperplane", "0"), ("orbit", "0", "1"),
                     ("curve", "0", "1")):
            assert main(["gen", *argv]) == 2
            assert "dimension" in capsys.readouterr().err

    def test_vectors_normalized_to_tuples(self):
        assert curve_fan(2, [[1, 0], [0, 1]]) == curve_fan(2, [(1, 0), (0, 1)])
        assert orbit_subspace(2, [[1, 2]]) == orbit_subspace(2, [(1, 2)])
