"""Simultaneous-iteration root finding for small univariate polynomials.

Durand-Kerner is enough here: the polynomials come from specializing a
multivariate one at a random point, so degrees are tiny and clustered
roots are not the regime we care about.  Callers treat a convergence
failure as a rejected sample, not a fatal error.

`polynomial_roots` solves a whole block of polynomials at once, vectorized
over the batch axis.  Each polynomial keeps its own starting points, its
own Gauss-Seidel sweep and its own stopping rule, and is frozen once it
has converged, so its roots do not depend on the other polynomials in the
batch.

Each row starts on the circle of its binomial part `t^d + a0`: its d
iterates begin at the d-th roots of `-a0`.  A row is monic, so the
product of its roots has modulus `|a0|` and `|a0|^(1/d)` is their
geometric-mean modulus; for a binomial (every linear row, every Fermat
specialization) the starts are the roots themselves and one sweep
confirms them.  These starts do not stall on real rows the way a real
starting configuration can: a real row never gets more real starts than
it has real roots, and the Gauss-Seidel order, which updates one iterate
at a time, breaks any exact conjugate symmetry among the others.
"""

import numpy as np

# Status codes of `polynomial_roots`; 0 means the roots were found.
ZERO_POLYNOMIAL, COINCIDENT, NOT_FINITE, NO_CONVERGENCE = 1, 2, 3, 4

_TOL = 1e-12
_MAX_ITER = 200


def _durand_kerner(monic):
    """Roots of each row of `monic` (B, d+1), low order first, leading 1.

    Returns the (B, d) iterates and a status per row.  The initial guesses
    are the roots of the row's binomial part, `(-a0)^(1/d)·e^(2πik/d)` for
    k = 0..d-1: distinct because `a0 != 0` once `x^lo` is split off, on
    the circle of the roots' geometric-mean modulus, and exact for a
    binomial row.
    """
    count, degree = monic.shape[0], monic.shape[1] - 1
    unit = np.exp(2j * np.pi * np.arange(degree) / degree)
    roots = (-monic[:, :1]) ** (1 / degree) * unit
    status = np.full(count, NO_CONVERGENCE, dtype=np.int8)
    live = np.arange(count)
    for _ in range(_MAX_ITER):
        if live.size == 0:
            break
        r = roots[live]
        cs = monic[live]
        coincident = np.zeros(live.size, dtype=bool)
        worst = np.zeros(live.size)
        scale = np.ones(live.size)
        for i in range(degree):
            ri = r[:, i]
            denom = np.ones(live.size, dtype=complex)
            for j in range(degree):
                if j != i:
                    denom = denom * (ri - r[:, j])
            coincident |= denom == 0
            value = np.zeros(live.size, dtype=complex)
            for k in range(degree, -1, -1):
                value = value * ri + cs[:, k]
            step = value / denom
            r[:, i] = ri - step
            worst = np.maximum(worst, np.abs(step))
        for i in range(degree):
            scale = np.maximum(scale, np.abs(r[:, i]))
        roots[live] = r
        done = np.where(coincident, COINCIDENT,
                        np.where(np.isnan(worst) | np.isnan(scale),
                                 NOT_FINITE,
                                 np.where(worst <= _TOL * scale, 0, -1)))
        status[live[done >= 0]] = done[done >= 0]
        live = live[done < 0]
    return roots, status


def polynomial_roots(coeffs):
    """All complex roots of each row of `coeffs` (B, k+1), low order first.

    Returns `(roots, status)`.  `roots` is (B, k): each row holds the
    row's roots sorted by real part, then imaginary, followed by NaN
    padding where exact zero high-order coefficients lowered the degree.
    A factor x**s is split off first, so roots at the origin come out
    exact.  `status` is 0 where the roots were found, else one of
    ZERO_POLYNOMIAL, COINCIDENT, NOT_FINITE or NO_CONVERGENCE; such rows
    hold no roots.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    count, width = coeffs.shape
    roots = np.full((count, max(width - 1, 0)), np.nan, dtype=complex)
    status = np.zeros(count, dtype=np.int8)
    nonzero = coeffs != 0
    any_term = nonzero.any(axis=1)
    status[~any_term] = ZERO_POLYNOMIAL
    low = nonzero.argmax(axis=1)
    high = width - 1 - nonzero[:, ::-1].argmax(axis=1)
    rows = np.flatnonzero(any_term)
    for lo, hi in sorted(set(zip(low[rows].tolist(), high[rows].tolist()))):
        group = rows[(low[rows] == lo) & (high[rows] == hi)]
        roots[group, :lo] = 0
        if hi > lo:
            part = coeffs[group, lo:hi + 1]
            with np.errstate(all="ignore"):
                found, status[group] = _durand_kerner(part / part[:, -1:])
            roots[group, lo:hi] = found
    roots[status != 0] = np.nan
    return np.sort(roots, axis=1), status
