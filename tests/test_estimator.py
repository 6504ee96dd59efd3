import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import amoebadim.estimator as estimator
from amoebadim.estimator import (
    BLOCK,
    CrossCheckResult,
    DegreeLimitError,
    EstimatorError,
    ImplicitHypersurface,
    Parametrization,
    RankEstimate,
    VarietyFormatError,
    _MAX_DEGREE,
    _Monomials,
    _Streams,
    cross_check,
    estimate_rank,
    estimate_rank_implicit,
    log_jacobian,
    parse_implicit,
    parse_parametrization,
)
from amoebadim.families import curve_fan, orbit_subspace, tropical_hyperplane
from amoebadim.rational_linalg import canonicalize
from amoebadim.roots import polynomial_roots
from amoebadim.subspace_search import amoeba_dim

from conftest import RATIONAL_STRINGS, short_id


def param(m, n, *components):
    return Parametrization(m, n, tuple(tuple(c) for c in components))


def values_at(polys, nvars, *points):
    """Values (B, P) of the polynomials `polys` at the points."""
    return _Monomials(polys, nvars).evaluate(
        np.array(points, dtype=complex))[0]


def jacobians(phi, *points):
    """log_jacobian of phi at the points: matrices and rejection codes."""
    return log_jacobian(_Monomials(phi.components, phi.domain_dim),
                        np.array(points, dtype=complex))


def reference_log_jacobian(phi, z):
    """log_jacobian written as a loop over terms and coordinates."""
    rows = []
    for terms in phi.components:
        value = 0j
        grad = [0j] * len(z)
        for coeff, exponents in terms:
            v = coeff
            for zj, e in zip(z, exponents):
                v *= complex(zj) ** e
            value += v
            for j, e in enumerate(exponents):
                grad[j] += v * e / z[j]
        row = []
        for g in grad:
            q = g / value
            row.extend((q.real, -q.imag))
        rows.append(row)
    return np.array(rows)


# (t, t^2)
MOMENT = param(1, 2, [(1, (1,))], [(1, (2,))])
# (t, t^2, t^3)
MOMENT3 = param(1, 3, [(1, (1,))], [(1, (2,))], [(1, (3,))])
# (t, 1 - t)
LINE = param(1, 2, [(1, (1,))], [(1, (0,)), (-1, (1,))])
# (t, u, t*u)
SURFACE = param(2, 3, [(1, (1, 0))], [(1, (0, 1))], [(1, (1, 1))])

# x + y + 1
LINE_IMPL = ImplicitHypersurface(2, ((1, (1, 0)), (1, (0, 1)), (1, (0, 0))))
# x + y + z + 1
PLANE_IMPL = ImplicitHypersurface(
    3, ((1, (1, 0, 0)), (1, (0, 1, 0)), (1, (0, 0, 1)), (1, (0, 0, 0)))
)
# x*y - 1
HYPERBOLA = ImplicitHypersurface(2, ((1, (1, 1)), (-1, (0, 0))))


class TestParametrizationType:
    def test_component_count_must_match(self):
        with pytest.raises(VarietyFormatError):
            param(1, 2, [(1, (1,))])

    def test_empty_component(self):
        with pytest.raises(VarietyFormatError):
            param(1, 2, [(1, (1,))], [])

    def test_exponent_length(self):
        with pytest.raises(VarietyFormatError):
            param(2, 1, [(1, (1,))])

    def test_non_integer_exponent(self):
        with pytest.raises(VarietyFormatError):
            param(1, 1, [(1, (1.5,))])
        with pytest.raises(VarietyFormatError):
            param(1, 1, [(1, (True,))])

    def test_bad_dims(self):
        with pytest.raises(VarietyFormatError):
            param(0, 1, [(1, ())])
        with pytest.raises(VarietyFormatError):
            Parametrization(True, 1, (((1, (1,)),),))

    def test_non_finite_coefficient(self):
        with pytest.raises(VarietyFormatError):
            param(1, 1, [(float("inf"), (1,))])
        with pytest.raises(VarietyFormatError):
            param(1, 1, [(10**400, (1,))])

    def test_exponent_beyond_int64(self):
        param(1, 1, [(1, (2**63 - 1,))])
        with pytest.raises(VarietyFormatError):
            param(1, 1, [(1, (2**63,))])
        with pytest.raises(VarietyFormatError):
            param(1, 1, [(1, (-2**63 - 1,))])

    def test_laurent_exponents_allowed(self):
        p = param(1, 1, [(1, (-3,))])
        assert values_at(p.components, 1, [2])[0, 0] == \
            pytest.approx(2 ** -3)

    def test_evaluate(self):
        assert values_at(LINE.components, 1, [2 + 0j]).tolist() == \
            [[2 + 0j, -1 + 0j]]


class TestImplicitType:
    def test_needs_two_terms(self):
        with pytest.raises(VarietyFormatError):
            ImplicitHypersurface(2, ((1, (1, 1)),))

    def test_no_negative_exponents(self):
        with pytest.raises(VarietyFormatError):
            ImplicitHypersurface(2, ((1, (1, -1)), (1, (0, 0))))

    def test_evaluate(self):
        assert values_at((HYPERBOLA.terms,), 2, [2, 0.5]).tolist() == [[0]]
        assert values_at((LINE_IMPL.terms,), 2, [1, 1]).tolist() == [[3]]


class TestLogJacobian:
    def test_identity_map(self):
        ident = param(1, 1, [(1, (1,))])
        matrices, reasons = jacobians(ident, [1], [2])
        assert matrices.tolist() == [[[1.0, 0.0]], [[0.5, -0.0]]]
        assert reasons.tolist() == [0, 0]

    def test_line_at_real_point_drops_rank(self):
        mat = jacobians(LINE, [2])[0][0]
        assert mat.tolist() == [[0.5, -0.0], [1.0, 0.0]]
        assert np.linalg.matrix_rank(mat) == 1

    def test_line_at_complex_point(self):
        mat = jacobians(LINE, [1 + 1j])[0][0]
        assert np.allclose(mat, [[0.5, 0.5], [0.0, 1.0]])
        assert np.linalg.matrix_rank(mat) == 2

    def test_moment_curve_rows_proportional(self):
        mat = jacobians(MOMENT, [0.3 - 1.2j])[0][0]
        assert np.allclose(mat[1], 2 * mat[0])

    def test_shape_interleaves_real_imaginary(self):
        assert jacobians(SURFACE, [1 + 1j, 2 - 1j])[0].shape == (1, 3, 4)

    def test_zero_coordinate_rejected(self):
        # at 0 both components vanish too, and code 1 comes first
        assert jacobians(MOMENT, [0], [1], [math.inf])[1].tolist() == \
            [1, 0, 2]

    def test_vanishing_component_rejected(self):
        shifted = param(1, 1, [(1, (1,)), (-1, (0,))])  # t - 1
        assert jacobians(shifted, [2], [1])[1].tolist() == [0, 3]


class TestEstimateRank:
    def test_moment_curve(self):
        est = estimate_rank(MOMENT, trials=20, tol=1e-8, seed=1)
        assert est.rank == 1
        assert est.samples_used == 20
        assert est.per_sample_ranks == (1,) * 20

    def test_line(self):
        est = estimate_rank(LINE, trials=20, seed=1)
        assert est.rank == 2

    def test_surface(self):
        est = estimate_rank(SURFACE, trials=20, seed=1)
        assert est.rank == 2
        assert est.rank <= min(3, 2 * 2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            estimate_rank(MOMENT, trials=0)
        with pytest.raises(ValueError):
            estimate_rank(MOMENT, tol=0.0)
        with pytest.raises(ValueError):
            estimate_rank(MOMENT, tol=1.0)

    def test_boolean_parameters_rejected(self):
        # bool is an int subclass, but True samples are not a count
        with pytest.raises(ValueError):
            estimate_rank(MOMENT, trials=True)
        with pytest.raises(ValueError):
            estimate_rank(MOMENT, tol=True)
        # a seed must name one reproducible run: no bool, float, OS
        # entropy (None) or negative number
        for seed in (True, 1.5, None, -1):
            with pytest.raises(ValueError, match="seed"):
                estimate_rank(MOMENT, seed=seed)
            with pytest.raises(ValueError, match="seed"):
                estimate_rank_implicit(HYPERBOLA, seed=seed)

    def test_deterministic(self):
        a = estimate_rank(MOMENT, trials=20, seed=7)
        b = estimate_rank(MOMENT, trials=20, seed=7)
        assert a == b
        assert a.per_sample_gaps == b.per_sample_gaps

    def test_trials_extend_instead_of_reshuffling(self):
        short = estimate_rank(LINE, trials=10, seed=3)
        long = estimate_rank(LINE, trials=40, seed=3)
        assert long.per_sample_ranks[:10] == short.per_sample_ranks
        assert long.rank >= short.rank

    def test_degenerate_map_rejects_everything(self):
        zero = param(1, 1, [(0, (1,))])
        with pytest.raises(EstimatorError, match="rejected"):
            estimate_rank(zero, trials=5, seed=1)

    def test_scale_invariance_of_ranks(self):
        scaled = param(
            1, 2, [((5 - 3j), (1,))], [((5 - 3j), (0,)), ((-5 + 3j), (1,))]
        )
        a = estimate_rank(LINE, trials=20, seed=11)
        b = estimate_rank(scaled, trials=20, seed=11)
        assert a.per_sample_ranks == b.per_sample_ranks

    @pytest.mark.parametrize("components,expected", [
        # single-term components: rank is the dimension of the exponent span
        ([[(2, (3, -1))], [(1, (1, 1))], [(1, (2, 0))]], None),
        ([[(1, (2,))], [(1, (4,))]], None),
        ([[(1, (1, 0))], [(1j, (0, 1))], [(1, (1, 1))]], None),
    ])
    def test_torus_orbit_rank_matches_exponent_span(self, components,
                                                    expected):
        m = len(components[0][0][1])
        phi = param(m, len(components), *components)
        exponents = [terms[0][1] for terms in components]
        exact = canonicalize(m, exponents).dim
        est = estimate_rank(phi, trials=10, seed=2)
        assert est.rank == exact

    def test_gap_is_wide_on_clean_instances(self):
        est = estimate_rank(MOMENT, trials=20, seed=1)
        assert est.singular_value_gap > 1e8
        assert len(est.per_sample_gaps) == est.samples_used


class TestEstimateRankImplicit:
    def test_plane_curve(self):
        est = estimate_rank_implicit(LINE_IMPL, trials=20, seed=1)
        assert est.rank == 2
        assert est.samples_used == 20

    def test_surface_in_three_variables(self):
        est = estimate_rank_implicit(PLANE_IMPL, trials=20, seed=1)
        assert est.rank == 3

    def test_hyperbola_is_an_orbit(self):
        for seed in (1, 2, 3):
            est = estimate_rank_implicit(HYPERBOLA, trials=20, seed=seed)
            assert est.rank == 1

    def test_quadratic_specialization(self):
        # x + y^2 + 1: the root finder has to handle degree two
        f = ImplicitHypersurface(2, ((1, (1, 0)), (1, (0, 2)), (1, (0, 0))))
        est = estimate_rank_implicit(f, trials=20, seed=1)
        assert est.rank == 2
        assert est.samples_used == 20

    def test_double_root_locus(self):
        # (y - 1)^2: the variety is the line y = 1, log image is a line
        f = ImplicitHypersurface(2, ((1, (0, 2)), (-2, (0, 1)), (1, (0, 0))))
        est = estimate_rank_implicit(f, trials=20, seed=1)
        assert est.rank == 1

    @pytest.mark.parametrize("terms", [
        ((1, (1, 0)), (1, (0, 0))),
        ((1, (1, 1)), (1, (0, 1))),
        ((1, (2, 0)), (1, (1, 0))),
        ((1, (2, 1)), (1, (1, 1))),
    ], ids=["x_plus_1", "y_times_x_plus_1", "x_times_x_plus_1",
            "xy_times_x_plus_1"])
    def test_polynomial_without_last_variable(self, terms):
        # each vanishes on the line x = -1 of the torus: the monomial
        # factor is divided out and x is solved for
        est = estimate_rank_implicit(ImplicitHypersurface(2, terms),
                                     trials=50, seed=1)
        assert est.per_sample_ranks == (1,) * 50

    def test_shared_monomial_rejects_all(self):
        # 2xy + 3xy = 5xy and xy - xy = 0: no isolated zeros in the torus
        for coeffs in ((2, 3), (1, -1)):
            f = ImplicitHypersurface(
                2, tuple((c, (1, 1)) for c in coeffs))
            with pytest.raises(EstimatorError, match="rejected"):
                estimate_rank_implicit(f, trials=5, seed=1)

    def test_roots_out_of_range_rejected(self):
        # 1e7 x - y: y = 1e7 x leaves [1e-6, 1e6] unless |x| <= 0.1
        f = ImplicitHypersurface(2, ((1e7, (1, 0)), (-1, (0, 1))))
        est = estimate_rank_implicit(f, trials=50, seed=1)
        assert est.samples_used == 9
        assert est.per_sample_ranks == (1,) * 9

    def test_deterministic(self):
        a = estimate_rank_implicit(LINE_IMPL, trials=15, seed=9)
        b = estimate_rank_implicit(LINE_IMPL, trials=15, seed=9)
        assert a == b

    def test_rank_bound(self):
        est = estimate_rank_implicit(PLANE_IMPL, trials=10, seed=4)
        assert est.rank <= min(3, 2 * 2)

    def test_huge_degree_refused(self):
        # y^1000000 - 1 would need a (BLOCK, 1000001) coefficient array
        huge = ImplicitHypersurface(2, ((1, (0, 10 ** 6)), (-1, (0, 0))))
        with pytest.raises(DegreeLimitError, match="degree 1000000 in x2"):
            estimate_rank_implicit(huge)
        assert DegreeLimitError.exit_code == 3

    def test_degree_limit_counts_the_solved_variable(self):
        # x y^(MAX + 5) - y^5: the limit applies after y^5 is divided out,
        # and y^(MAX + 1) - x is one over it
        top = _MAX_DEGREE
        at_limit = ImplicitHypersurface(
            2, ((1, (1, top + 5)), (-1, (0, 5))))
        assert estimate_rank_implicit(at_limit, trials=4, seed=1).rank == 1
        over = ImplicitHypersurface(2, ((1, (0, top + 1)), (-1, (1, 0))))
        with pytest.raises(DegreeLimitError):
            estimate_rank_implicit(over)


class TestBlockedSampling:
    """Samples are processed in blocks of BLOCK, but sample k always gets
    child k of the seed sequence and its own arithmetic."""

    # two whole blocks and a partial third
    TRIALS = 2 * BLOCK + 88

    VARIETIES = [
        pytest.param(estimate_rank, MOMENT, id="moment"),
        pytest.param(estimate_rank, SURFACE, id="surface"),
        pytest.param(estimate_rank_implicit, HYPERBOLA, id="hyperbola"),
        # (y - 1)^2: Durand-Kerner on a double root
        pytest.param(estimate_rank_implicit, ImplicitHypersurface(
            2, ((1, (0, 2)), (-2, (0, 1)), (1, (0, 0)))), id="double_root"),
        pytest.param(estimate_rank_implicit, ImplicitHypersurface(
            2, ((1, (6, 0)), (1, (0, 6)), (1, (0, 0)))), id="fermat_curve"),
        # 1e7 x - y: most samples rejected
        pytest.param(estimate_rank_implicit, ImplicitHypersurface(
            2, ((1e7, (1, 0)), (-1, (0, 1)))), id="mostly_rejected"),
    ]

    @pytest.mark.parametrize("estimate,variety", VARIETIES)
    def test_prefix_across_block_boundaries(self, estimate, variety):
        long = estimate(variety, trials=self.TRIALS, seed=5)
        for k in (1, BLOCK - 1, BLOCK + 1, self.TRIALS):
            try:
                short = estimate(variety, trials=k, seed=5)
            except EstimatorError:
                continue  # k samples, all of them rejected
            used = short.samples_used
            assert long.per_sample_ranks[:used] == short.per_sample_ranks
            assert long.per_sample_gaps[:used] == short.per_sample_gaps

    @pytest.mark.parametrize("block", [1, 7, 256])
    @pytest.mark.parametrize("estimate,variety", VARIETIES)
    def test_estimate_does_not_depend_on_block_size(self, estimate, variety,
                                                    block, monkeypatch):
        shipped = estimate(variety, trials=300, seed=5)
        monkeypatch.setattr(estimator, "BLOCK", block)
        blocked = estimate(variety, trials=300, seed=5)
        assert blocked == shipped
        # equality leaves the gaps out
        assert blocked.per_sample_gaps == shipped.per_sample_gaps

    def test_sample_k_uses_child_k(self):
        # the seed contract, spelled out: sample k draws log radii, then
        # angles, from child k of SeedSequence(seed)
        long = estimate_rank(MOMENT, trials=self.TRIALS, seed=5)
        children = np.random.SeedSequence(5).spawn(self.TRIALS)
        for k in (0, BLOCK - 1, BLOCK, self.TRIALS - 1):
            rng = np.random.default_rng(children[k])
            radius = np.exp(rng.uniform(-3.0, 3.0, 1))
            angle = rng.uniform(0.0, 2.0 * math.pi, 1)
            z = radius * np.cos(angle) + 1j * (radius * np.sin(angle))
            sigma = np.linalg.svd(jacobians(MOMENT, z)[0][0],
                                  compute_uv=False)
            assert long.per_sample_gaps[k] == sigma[0] / sigma[1]

    def test_implicit_sample_k_picks_its_root_with_child_k(self):
        # (y - x)(y + x - 1): a sample has rank 1 on the root y = x and
        # rank 2 on y = 1 - x, so its rank tells which usable root it
        # picked with child k's integers()
        product = ImplicitHypersurface(2, ((1, (0, 2)), (-1, (0, 1)),
                                           (-1, (2, 0)), (1, (1, 0))))
        trials = BLOCK + 88
        long = estimate_rank_implicit(product, trials=trials, seed=5)
        assert long.samples_used == trials
        assert set(long.per_sample_ranks) == {1, 2}
        children = np.random.SeedSequence(5).spawn(trials)
        for k in range(trials):
            rng = np.random.default_rng(children[k])
            radius = np.exp(rng.uniform(-3.0, 3.0))
            x = radius * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            roots = polynomial_roots(np.array([[x - x ** 2, -1, 1]]))[0][0]
            usable = roots[(abs(roots) >= 1e-6) & (abs(roots) <= 1e6)]
            y = usable[rng.integers(len(usable))]
            rank = 1 if abs(y - x) < abs(y - (1 - x)) else 2
            assert long.per_sample_ranks[k] == rank

    @pytest.mark.parametrize("seed", [
        0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 1,
        # more run entropy than the 4-word pool holds: 5 and 6 words
        2 ** 128, 2 ** 160 + 12345,
    ])
    def test_streams_match_numpy_generators(self, seed):
        # row k of _Streams against default_rng(child k): log radii, then
        # angles, then integers(high), then a uniform pair that shows
        # where each row's stream stopped
        count = 64
        small = np.array([1 + k % 8 for k in range(count)])
        # a quarter of the first draws fail Lemire's test here, so redraws
        # take the buffered high half and, when that fails too, a fresh
        # 64-bit output
        near = np.full(count, 3 * 2 ** 30 + 1)
        threshold = 2 ** 32 % int(near[0])
        redraws = {"buffered": 0, "fresh": 0}
        for start in (0, 256, 9984):
            children = np.random.SeedSequence(seed).spawn(start + count)
            for width in (1, 2, 3):
                for highs in (small, near):
                    streams = _Streams(seed, start, count)
                    radii = streams.uniform(-3.0, 3.0, width)
                    angles = streams.uniform(0.0, 2.0 * math.pi, width)
                    picks = streams.integers(highs)
                    after = streams.uniform(0.0, 1.0, 2)
                    for k in range(count):
                        rng = np.random.default_rng(children[start + k])
                        assert radii[k].tolist() == \
                            rng.uniform(-3.0, 3.0, width).tolist()
                        assert angles[k].tolist() == \
                            rng.uniform(0.0, 2.0 * math.pi, width).tolist()
                        assert picks[k] == rng.integers(highs[k])
                        assert after[k].tolist() == \
                            rng.uniform(0.0, 1.0, 2).tolist()
                        if highs is near:
                            raw = np.random.PCG64(children[start + k]) \
                                .random_raw(2 * width + 1)[-1]
                            low, high = int(raw) & 0xFFFFFFFF, int(raw) >> 32
                            if low * int(near[0]) % 2 ** 32 < threshold:
                                redraws["buffered"] += 1
                                if high * int(near[0]) % 2 ** 32 < threshold:
                                    redraws["fresh"] += 1
        assert redraws["buffered"] > 0 and redraws["fresh"] > 0

    def test_no_per_sample_generators(self, monkeypatch):
        # every block draws through _Streams; numpy's generators stay
        # the tests' reference only
        def refuse(*args, **kwargs):
            raise AssertionError("a numpy generator was built")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(np.random, "Generator", refuse)
        assert estimate_rank(SURFACE, trials=600, seed=5).samples_used == 600
        assert estimate_rank_implicit(HYPERBOLA, trials=600, seed=5).rank == 1

    def test_kernels_are_looked_up_under_their_module_names(self,
                                                            monkeypatch):
        # a caller that wraps roots.polynomial_roots or
        # estimator.log_jacobian, as a tracer does, sees one call per block
        import amoebadim.roots as roots

        trials = self.TRIALS
        implicit = estimate_rank_implicit(HYPERBOLA, trials=trials, seed=5)
        parametric = estimate_rank(SURFACE, trials=trials, seed=5)
        calls = []

        def counted(name, kernel):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return kernel(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(roots, "polynomial_roots",
                            counted("roots", roots.polynomial_roots))
        monkeypatch.setattr(estimator, "log_jacobian",
                            counted("jacobian", estimator.log_jacobian))
        assert estimate_rank_implicit(HYPERBOLA, trials=trials, seed=5) \
            .per_sample_ranks == implicit.per_sample_ranks
        assert calls == ["roots"] * 3
        calls.clear()
        assert estimate_rank(SURFACE, trials=trials, seed=5) \
            .per_sample_ranks == parametric.per_sample_ranks
        assert calls == ["jacobian"] * 3

    def test_log_jacobian_matches_the_term_loop(self):
        # the exponent-matrix kernel against the per-term loop it replaced:
        # numpy's complex power and division round unlike Python's
        laurent = param(2, 3, [(2, (3, -1)), (1j, (0, 2))], [(1, (1, 1))],
                        [(1, (2, 0)), (-1, (0, 0)), (0.5, (-1, 1))])
        rng = np.random.default_rng(3)
        for phi in (SURFACE, LINE, laurent):
            m = phi.domain_dim
            for _ in range(20):
                z = rng.normal(size=m) + 1j * rng.normal(size=m)
                want = reference_log_jacobian(phi, z)
                assert np.allclose(jacobians(phi, z)[0][0], want,
                                   rtol=1e-12, atol=1e-12)


class TestRankEstimateType:
    def test_json_shape(self):
        est = estimate_rank(MOMENT, trials=5, seed=1)
        doc = est.to_json_dict()
        assert list(doc) == [
            "rank", "samples_used", "singular_value_gap", "per_sample_ranks",
        ]
        assert json.dumps(doc)  # finite floats only
        assert doc["per_sample_ranks"] == [1] * 5

    def test_infinite_gap_becomes_null(self):
        est = RankEstimate(2, 3, math.inf, (2, 2, 2), ambient_dim=3)
        assert est.to_json_dict()["singular_value_gap"] is None

    def test_gaps_excluded_from_equality(self):
        a = RankEstimate(1, 1, 2.0, (1,), ambient_dim=2,
                         per_sample_gaps=(2.0,))
        b = RankEstimate(1, 1, 2.0, (1,), ambient_dim=2,
                         per_sample_gaps=(3.0,))
        assert a == b


class TestCrossCheck:
    def test_hyperplane_against_implicit_plane(self):
        est = estimate_rank_implicit(PLANE_IMPL, trials=20, seed=1)
        out = cross_check(amoeba_dim(tropical_hyperplane(3)), est)
        assert out == CrossCheckResult(3, 3, True, "agree")

    def test_orbit_against_moment_curve(self):
        est = estimate_rank(MOMENT, trials=20, seed=1)
        out = cross_check(amoeba_dim(orbit_subspace(2, [(1, 2)])), est)
        assert out == CrossCheckResult(1, 1, True, "agree")

    def test_tropical_line_against_line(self):
        est = estimate_rank(LINE, trials=20, seed=1)
        fan = curve_fan(2, [(1, 0), (0, 1), (-1, -1)])
        out = cross_check(amoeba_dim(fan), est)
        assert out == CrossCheckResult(2, 2, True, "agree")

    def test_hyperbola_pair(self):
        est = estimate_rank_implicit(HYPERBOLA, trials=20, seed=1)
        out = cross_check(amoeba_dim(orbit_subspace(2, [(1, -1)])), est)
        assert out == CrossCheckResult(1, 1, True, "agree")

    def test_deliberate_mismatch(self):
        est = estimate_rank(MOMENT3, trials=20, seed=1)
        out = cross_check(amoeba_dim(tropical_hyperplane(3)), est)
        assert out.verdict == "mismatch"
        assert (out.combinatorial, out.numerical) == (3, 1)

    def test_ambient_dimensions_must_match(self):
        # a fan in R^3 against the moment curve in (C*)^2
        est = estimate_rank(MOMENT, trials=20, seed=1)
        assert est.ambient_dim == 2
        with pytest.raises(ValueError, match=r"R\^3 but the variety in "
                                             r"\(C\*\)\^2"):
            cross_check(amoeba_dim(tropical_hyperplane(3)), est)

    def test_json_shape(self):
        doc = CrossCheckResult(2, 2, False, "agree").to_json_dict()
        assert list(doc) == [
            "combinatorial", "numerical", "certified", "verdict",
        ]


PARAM_DOC = """{
  "domain_dim": 1,
  "ambient_dim": 2,
  "components": [
    {"terms": [{"coeff": ["1", "0"], "exponents": [1]}]},
    {"terms": [{"coeff": ["1", "0"], "exponents": [0]},
               {"coeff": ["-1", "0"], "exponents": [1]}]}
  ]
}"""

IMPLICIT_DOC = """{
  "ambient_dim": 2,
  "polynomial": {"terms": [
    {"coeff": ["1", "0"], "exponents": [1, 1]},
    {"coeff": ["-1", "0"], "exponents": [0, 0]}
  ]}
}"""


def with_key(doc, key, value):
    """The variety document doc with its top-level key set to value."""
    return json.dumps({**json.loads(doc), key: value})


def fraction_coeff(raw):
    """A coefficient entry read as `_coeff_to_float` read it through
    Fraction: its float, or the (error class, message) it raised."""
    from fractions import Fraction

    try:
        return float(Fraction(raw) if isinstance(raw, str) else raw)
    except (ValueError, ZeroDivisionError):
        return (VarietyFormatError,
                f"t: cannot read {raw!r} as a rational number")
    except OverflowError:
        return VarietyFormatError, "t: coefficient entry out of the float range"


def read_coeff(raw):
    try:
        return estimator._coeff_to_float(raw, "t")
    except VarietyFormatError as exc:
        return type(exc), str(exc)


class TestCoefficientEntries:
    @pytest.mark.parametrize("raw", RATIONAL_STRINGS + [3, -2, 1.5, 10 ** 400],
                             ids=short_id)
    def test_reads_what_fraction_reads(self, raw):
        assert read_coeff(raw) == fraction_coeff(raw)

    @given(st.integers(-2 ** 1100, 2 ** 1100))
    def test_integer_strings_round_as_fraction_does(self, k):
        assert read_coeff(str(k)) == fraction_coeff(str(k))


class TestParsers:
    def test_parametrization_round_trip(self):
        phi = parse_parametrization(PARAM_DOC)
        assert phi == LINE

    def test_implicit_round_trip(self):
        h = parse_implicit(IMPLICIT_DOC)
        assert h == HYPERBOLA

    def test_rational_string_coefficients(self):
        doc = PARAM_DOC.replace('"coeff": ["1", "0"]',
                                '"coeff": ["3/4", "-1/2"]', 1)
        phi = parse_parametrization(doc)
        assert phi.components[0][0][0] == complex(0.75, -0.5)

    def test_numeric_coefficients_accepted(self):
        doc = PARAM_DOC.replace('["1", "0"]', '[1, 0.5]', 1)
        phi = parse_parametrization(doc)
        assert phi.components[0][0][0] == complex(1, 0.5)

    @pytest.mark.parametrize("mangle,message", [
        (lambda d: d[:-2], "not valid JSON"),               # truncated JSON
        (lambda d: "[" + d + "]", "top level must be an object"),
        (lambda d: d.replace('"domain_dim": 1,', ""),       # missing key
         "missing keys: domain_dim"),
        (lambda d: d.replace('"domain_dim": 1', '"domain_dim": true'),
         "domain_dim must be a positive integer"),
        (lambda d: d.replace('"domain_dim": 1', '"domain_dim": 0'),
         "domain_dim must be a positive integer"),
        (lambda d: d.replace('"exponents": [1]', '"exponents": [1, 2]'),
         "component 0: term 0 has 2 exponents, expected 1"),
        (lambda d: d.replace('"exponents": [1]', '"exponents": [1.5]'),
         "component 0: non-integer exponent"),
        (lambda d: d.replace('["1", "0"]', '["1"]', 1),
         'component 0: term 0 needs "coeff": [re, im]'),
        (lambda d: d.replace('["1", "0"]', '["1/0", "0"]', 1),
         "component 0 term 0: cannot read '1/0' as a rational number"),
        (lambda d: d.replace('["1", "0"]', '["one", "0"]', 1),
         "component 0 term 0: cannot read 'one' as a rational number"),
        (lambda d: d.replace('["1", "0"]', '[true, "0"]', 1),
         "component 0 term 0: coefficient entry must be a number"),
        (lambda d: d.replace('["1", "0"]', '[1e999, "0"]', 1),
         "component 0: term 0 coefficient not finite"),
        (lambda d: d.replace('"terms": [{"coeff": ["1", "0"], '
                             '"exponents": [1]}]', '"terms": []'),
         "component 0 has no terms"),
        (lambda d: with_key(d, "components", {}),
         '"components" must be a list'),
        (lambda d: with_key(d, "components", [[]]),
         "component 0 must be an object"),
    ])
    def test_malformed_parametrization(self, mangle, message):
        with pytest.raises(VarietyFormatError, match=re.escape(message)):
            parse_parametrization(mangle(PARAM_DOC))

    @pytest.mark.parametrize("mangle,message", [
        (lambda d: d.replace('"ambient_dim": 2,', ""),
         "missing keys: ambient_dim"),
        (lambda d: with_key(d, "polynomial", [
            {"coeff": [1, 0], "exponents": [1, 0]}]),
         '"polynomial" must be an object'),
        (lambda d: d.replace('"exponents": [1, 1]', '"exponents": [1, -1]'),
         "polynomial: negative exponent in a polynomial"),
        (lambda d: d.replace(',\n    {"coeff": ["-1", "0"], '
                             '"exponents": [0, 0]}', ""),
         "a polynomial with fewer than two terms has no zeros in the torus"),
        (lambda d: with_key(d, "polynomial", {"terms": {}}),
         'polynomial: "terms" must be a list'),
        (lambda d: with_key(d, "polynomial", {"terms": [1]}),
         "polynomial: term 0 must be an object"),
        (lambda d: with_key(d, "polynomial", {"terms": [{"coeff": [1, 0]}]}),
         'polynomial: term 0 needs an "exponents" list'),
    ])
    def test_malformed_implicit(self, mangle, message):
        with pytest.raises(VarietyFormatError, match=re.escape(message)):
            parse_implicit(mangle(IMPLICIT_DOC))

    def test_component_count_checked(self):
        doc = PARAM_DOC.replace('"ambient_dim": 2', '"ambient_dim": 3')
        with pytest.raises(VarietyFormatError):
            parse_parametrization(doc)

    def test_laurent_exponents_allowed_in_parametrization(self):
        doc = PARAM_DOC.replace('"exponents": [1]', '"exponents": [-2]', 1)
        phi = parse_parametrization(doc)
        assert phi.components[0][0][1] == (-2,)
