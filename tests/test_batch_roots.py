import cmath

import numpy as np
import pytest

from amoebadim.roots import ZERO_POLYNOMIAL, polynomial_roots


class Stalled(ArithmeticError):
    """The scalar iteration found no roots."""


def reference_roots(coeffs, tol=1e-12, max_iter=200):
    """Durand-Kerner one polynomial at a time, in plain Python complex
    arithmetic: the scalar loop polynomial_roots vectorizes."""
    cs = [complex(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("zero polynomial")
    origin = 0
    while cs[0] == 0:
        cs.pop(0)
        origin += 1
    degree = len(cs) - 1
    if degree == 0:
        return (0j,) * origin
    cs = [c / cs[-1] for c in cs]
    base = (-cs[0]) ** (1 / degree)
    roots = [base * cmath.exp(2j * cmath.pi * k / degree)
             for k in range(degree)]
    for _ in range(max_iter):
        worst = 0.0
        for i in range(degree):
            r = roots[i]
            denom = 1 + 0j
            for j in range(degree):
                if j != i:
                    denom *= r - roots[j]
            if denom == 0:
                raise Stalled("coincident iterates")
            value = 0j
            for c in reversed(cs):
                value = value * r + c
            step = value / denom
            roots[i] = r - step
            worst = max(worst, abs(step))
        if worst <= tol * max(1.0, max(abs(r) for r in roots)):
            return tuple(sorted([0j] * origin + roots,
                                key=lambda z: (z.real, z.imag)))
    raise Stalled("no convergence")


def random_batch(seed, count=200, width=7):
    """Random polynomials with exact zeros sprinkled in, so the batch mixes
    degrees, roots at the origin and zero polynomials."""
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(count, width)) + 1j * rng.normal(
        size=(count, width))
    coeffs[rng.random((count, width)) < 0.25] = 0
    coeffs[::50] = 0
    return coeffs


class TestBatchRoots:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rows_match_the_scalar_loop(self, seed):
        # the same iteration in a different order of float operations:
        # roots agree to a tolerance, success and failure exactly
        coeffs = random_batch(seed)
        roots, status = polynomial_roots(coeffs)
        for row, code, got in zip(coeffs, status, roots):
            try:
                want = reference_roots(row)
            except ValueError:
                assert code == ZERO_POLYNOMIAL
                continue
            except Stalled:
                assert code != 0
                continue
            assert code == 0
            got = got[~np.isnan(got)]
            assert len(got) == len(want)
            assert np.allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_rows_do_not_depend_on_the_batch(self):
        coeffs = random_batch(4)
        roots, status = polynomial_roots(coeffs)
        for k in (0, 1, 77, 199):
            alone, code = polynomial_roots(coeffs[k:k + 1])
            assert code[0] == status[k]
            assert np.array_equal(alone[0], roots[k], equal_nan=True)

    def test_padding_and_status(self):
        roots, status = polynomial_roots([[2, 1, 0], [0, 0, 0], [0, -1, 1]])
        assert status.tolist() == [0, ZERO_POLYNOMIAL, 0]
        assert roots[0, 0] == -2 and np.isnan(roots[0, 1])
        assert np.isnan(roots[1]).all()
        assert roots[2].tolist() == [0j, 1 + 0j]
