import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amoebadim.roots import NO_CONVERGENCE, ZERO_POLYNOMIAL, polynomial_roots


def solve(coeffs):
    """The roots of one polynomial as a tuple, padding dropped, and its
    status."""
    roots, status = polynomial_roots([coeffs])
    row = roots[0]
    return tuple(row[~np.isnan(row)].tolist()), int(status[0])


def horner(coeffs, x):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class TestPolynomialRoots:
    def test_linear(self):
        assert solve([4, 2]) == ((-2 + 0j,), 0)

    def test_quadratic_real(self):
        assert solve([-1, 0, 1]) == ((-1 + 0j, 1 + 0j), 0)

    def test_quadratic_complex(self):
        r, _ = solve([1, 0, 1])
        assert cmath.isclose(r[0], -1j, abs_tol=1e-10)
        assert cmath.isclose(r[1], 1j, abs_tol=1e-10)

    def test_origin_roots_split_off_exactly(self):
        assert solve([0, 0, 0, 1]) == ((0j, 0j, 0j), 0)
        r, _ = solve([0, 0, -1, 0, 1])  # x^2 (x^2 - 1)
        assert r[:1] == (-1 + 0j,)
        assert r[1:3] == (0j, 0j)
        assert r[3:] == (1 + 0j,)

    def test_quartic_with_known_roots(self):
        # (x-1)(x-2)(x-3)(x-4)
        r, _ = solve([24, -50, 35, -10, 1])
        for got, want in zip(r, (1, 2, 3, 4)):
            assert cmath.isclose(got, want, rel_tol=1e-9)

    def test_double_root_converges(self):
        r, status = solve([1, -2, 1])
        assert status == 0 and len(r) == 2
        for got in r:
            assert abs(got - 1) < 1e-6

    def test_constant_has_no_roots(self):
        assert solve([5]) == ((), 0)
        assert solve([5, 0, 0]) == ((), 0)

    def test_zero_polynomial_rejected(self):
        assert solve([0, 0]) == ((), ZERO_POLYNOMIAL)
        assert solve([0]) == ((), ZERO_POLYNOMIAL)

    def test_leading_coefficient_scaling(self):
        a, _ = solve([24, -50, 35, -10, 1])
        b, _ = solve([-72, 150, -105, 30, -3])
        for x, y in zip(a, b):
            assert cmath.isclose(x, y, rel_tol=1e-9)

    def test_deterministic(self):
        coeffs = [3 - 1j, 2, 0, 1 + 2j]
        assert solve(coeffs) == solve(coeffs)

    def test_budget_exhaustion_is_loud(self, monkeypatch):
        monkeypatch.setattr("amoebadim.roots._MAX_ITER", 2)
        assert solve([24, -50, 35, -10, 1]) == ((), NO_CONVERGENCE)

    @pytest.mark.parametrize("c", [1, -2, 3 + 4j, -0.5j, 1e-3 - 2j])
    @pytest.mark.parametrize("d", range(1, 7))
    def test_binomial_converges_in_one_sweep(self, monkeypatch, d, c):
        # the starts are the roots of c + t^d, so one sweep confirms them
        monkeypatch.setattr("amoebadim.roots._MAX_ITER", 1)
        coeffs = [c] + [0] * (d - 1) + [1]
        roots, status = solve(coeffs)
        assert status == 0 and len(roots) == d
        base = (-c) ** (1 / d)
        for k in range(d):
            want = base * cmath.exp(2j * cmath.pi * k / d)
            miss = min(abs(got - want) for got in roots)
            assert miss <= 8 * np.finfo(float).eps * abs(want)

    @pytest.mark.parametrize("real_roots", [
        (1, -1, 2, -2), (1, 2, 3, 4, 5, 6), (-1, -2, -3, -4, -5, -6)])
    def test_real_rows_with_real_roots_converge(self, real_roots):
        # a real row with real starts could stall on a symmetric
        # configuration; these rows get no more real starts than real roots
        coeffs = [1]
        for x in real_roots:  # multiply by (t - x), low order first
            coeffs = [a - x * b for a, b in zip([0] + coeffs, coeffs + [0])]
        roots, status = solve(coeffs)
        assert status == 0
        for got, want in zip(roots, sorted(real_roots)):
            assert cmath.isclose(got, want, rel_tol=1e-9)

    @given(st.lists(
        st.complex_numbers(min_magnitude=0.1, max_magnitude=5,
                           allow_nan=False, allow_infinity=False),
        min_size=2, max_size=6,
    ))
    @settings(max_examples=60, deadline=None)
    def test_residuals_vanish(self, coeffs):
        if all(c == 0 for c in coeffs):
            return
        roots, status = solve(coeffs)
        if status:
            return  # clustered random roots may legitimately stall
        scale = max(abs(c) for c in coeffs)
        for r in roots:
            assert abs(horner(coeffs, r)) < 1e-6 * max(1.0, scale) \
                * max(1.0, abs(r)) ** (len(coeffs) - 1)

    @given(st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_root_count_matches_degree(self, degree):
        coeffs = [0j] * degree + [1 + 0j]
        coeffs[0] = -1 + 0j
        assert len(solve(coeffs)[0]) == degree
