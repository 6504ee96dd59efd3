"""Floating-point rank oracle for the log image of a sampled variety.

The combinatorial search gives one number; this module produces the same
number a completely different way, by sampling points of an explicitly
given variety and ranking the Jacobian of coordinatewise log|.|.  At a
generic point that rank is the dimension of the log image, so the
estimator returns the max over samples: rank can only drop on a measure
zero locus, never jump.

Samples are processed in blocks of BLOCK.  Sample k still draws, in a
fixed order, exactly the numbers that np.random.default_rng(child k of
SeedSequence(seed)) would give it, but one vectorized pass (_Streams)
computes them for the whole block: the seeding and the PCG64 generators
of numpy, emulated in 64-bit integer arrays.  A block's points go
through one exponent-matrix evaluation (and, for an implicit input, one
batched Durand-Kerner solve), and the block's Jacobians are ranked by
one stacked SVD.  Every operation is elementwise per sample, so a
sample's numbers do not depend on where it sits in a block, and the
first k samples of any run are those of a run of k trials.

Everything here is double precision on purpose.  The module never
certifies anything; cross_check reports disagreement instead of hiding
it, and an unlucky run shows up as a mismatch verdict, not a wrong
silent answer.

`cross_check(result, estimate)` compares the `SearchResult` of the exact
search with a `RankEstimate`; the caller runs the search, so this module
imports nothing from the exact side.  numpy (and `roots`) are imported by
the kernels that use them, so the exact side never loads them either.
"""

from __future__ import annotations

import json
import math

from .frozen import Frozen, parse_rational

DEFAULT_TRIALS = 20
DEFAULT_TOL = 1e-8
_LOG_WINDOW = 3.0
_ROOT_MIN, _ROOT_MAX = 1e-6, 1e6
# samples generated, evaluated and ranked together: every block pays the
# same row-independent cost (about a hundred small numpy calls), and a
# larger block holds more memory at once; see the README
BLOCK = 1024
# largest degree of the solved variable of an implicit input, after the
# monomial factor is divided out.  A block holds a (BLOCK, degree + 1)
# complex array, and Durand-Kerner's time grows fast with the degree: a
# block of 1024 samples of a dense polynomial took 0.07 s at degree 16,
# 0.30 s at 32, 0.75 s at 48, 1.4 s at 64 and 2.9 s at 96 (shared 2-vCPU
# host), so 10,000 trials at degree 64 take about 14 s.
_MAX_DEGREE = 64

# numpy's SeedSequence (pool of 4 words, hash and mix constants) and the
# multiplier of its PCG64 generator, see _Streams
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32 = 0xFFFFFFFF
_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1  # exponents live in an int64 matrix


class VarietyFormatError(ValueError):
    """Malformed parametrization or implicit-hypersurface input."""


class EstimatorError(RuntimeError):
    """No sample survived; the estimate does not exist."""

    exit_code = 4


class DegreeLimitError(RuntimeError):
    """An implicit degree refused before any work; the CLI exits
    `exit_code`."""

    exit_code = 3


def _check_dim(label, value):
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise VarietyFormatError(f"{label} must be a positive integer")


def _check_terms(terms, nvars, what, laurent):
    cooked = []
    for t, (coeff, exponents) in enumerate(terms):
        try:
            coeff = complex(coeff)
        except OverflowError as exc:
            raise VarietyFormatError(
                f"{what}: term {t} coefficient out of the float range"
            ) from exc
        if not (math.isfinite(coeff.real) and math.isfinite(coeff.imag)):
            raise VarietyFormatError(f"{what}: term {t} coefficient not finite")
        exponents = tuple(exponents)
        if len(exponents) != nvars:
            raise VarietyFormatError(
                f"{what}: term {t} has {len(exponents)} exponents, "
                f"expected {nvars}"
            )
        for e in exponents:
            if not isinstance(e, int) or isinstance(e, bool):
                raise VarietyFormatError(f"{what}: non-integer exponent")
            if not _INT64_MIN <= e <= _INT64_MAX:
                raise VarietyFormatError(
                    f"{what}: term {t} exponent out of the int64 range"
                )
            if not laurent and e < 0:
                raise VarietyFormatError(
                    f"{what}: negative exponent in a polynomial"
                )
        cooked.append((coeff, exponents))
    return tuple(cooked)


class Parametrization(Frozen):
    """Map (C*)^m -> C^n with Laurent-polynomial components.

    Each component is a tuple of (complex coefficient, integer exponent
    vector of length domain_dim) pairs.
    """

    _fields = ("domain_dim", "ambient_dim", "components")

    def __init__(self, domain_dim: int, ambient_dim: int, components: tuple):
        _check_dim("domain_dim", domain_dim)
        _check_dim("ambient_dim", ambient_dim)
        comps = tuple(components)
        if len(comps) != ambient_dim:
            raise VarietyFormatError(
                f"expected {ambient_dim} components, got {len(comps)}"
            )
        cooked = []
        for i, terms in enumerate(comps):
            terms = tuple(terms)
            if not terms:
                raise VarietyFormatError(f"component {i} has no terms")
            cooked.append(
                _check_terms(terms, domain_dim, f"component {i}",
                             laurent=True)
            )
        self._store(domain_dim, ambient_dim, tuple(cooked))


class ImplicitHypersurface(Frozen):
    """Zero locus of one polynomial, sampled inside the torus.

    A single-term polynomial never vanishes on (C*)^n, so at least two
    terms are required.
    """

    _fields = ("ambient_dim", "terms")

    def __init__(self, ambient_dim: int, terms: tuple):
        _check_dim("ambient_dim", ambient_dim)
        terms = tuple(terms)
        if len(terms) < 2:
            raise VarietyFormatError(
                "a polynomial with fewer than two terms has no zeros in "
                "the torus"
            )
        self._store(ambient_dim, _check_terms(terms, ambient_dim,
                                              "polynomial", laurent=False))


class RankEstimate(Frozen):
    """Generic numerical rank plus the evidence it rests on.

    `singular_value_gap` is the worst ratio across accepted samples
    between the last kept singular value and the first discarded one;
    infinite when every sample's cut fell to exact zeros (or off the end
    of the spectrum).  `per_sample_gaps` keeps the individual ratios for
    diagnostics; it does not participate in equality.  `ambient_dim` is
    the n of the sampled variety's (C*)^n, which cross_check matches
    against the fan; it is not part of the JSON document.
    """

    _fields = ("rank", "samples_used", "singular_value_gap",
               "per_sample_ranks", "ambient_dim", "per_sample_gaps")
    _compare = _fields[:-1]

    def __init__(self, rank: int, samples_used: int,
                 singular_value_gap: float, per_sample_ranks: tuple,
                 ambient_dim: int, per_sample_gaps: tuple = ()):
        self._store(rank, samples_used, singular_value_gap,
                    per_sample_ranks, ambient_dim, per_sample_gaps)

    def to_json_dict(self) -> dict:
        gap = self.singular_value_gap
        return {
            "rank": self.rank,
            "samples_used": self.samples_used,
            "singular_value_gap": None if math.isinf(gap) else gap,
            "per_sample_ranks": list(self.per_sample_ranks),
        }


class CrossCheckResult(Frozen):
    _fields = ("combinatorial", "numerical", "certified", "verdict")

    def __init__(self, combinatorial: int, numerical: int, certified: bool,
                 verdict: str):
        self._store(combinatorial, numerical, certified, verdict)

    def to_json_dict(self) -> dict:
        return dict(zip(self._fields, self._args(self)))


class _Monomials:
    """Polynomials in m variables, evaluated through one exponent matrix.

    The terms of all polynomials are stacked: `coeffs` (T,), `exponents`
    (T, m), and `owners`, the polynomial each term belongs to.  Everything
    is elementwise over a batch of points (B, m), term after term, with
    no reduction and no complex matrix product: those pick their float
    kernel by array shape, and a sample's value must not depend on the
    size of the batch it is evaluated in.
    """

    def __init__(self, polys, nvars):
        import numpy as np

        terms = [(p, c, e) for p, poly in enumerate(polys) for c, e in poly]
        self.count = len(polys)
        self.owners = [p for p, _, _ in terms]
        self.coeffs = np.array([c for _, c, _ in terms], dtype=complex)
        self.exponents = np.array(
            [e for _, _, e in terms], dtype=np.int64).reshape(len(terms), nvars)

    def evaluate(self, z):
        """Values (B, P) of every polynomial at every point, and their
        complex partials (B, P, m), which need nonzero coordinates."""
        import numpy as np

        values = np.zeros((len(z), self.count), dtype=complex)
        partials = np.zeros(values.shape + (z.shape[1],), dtype=complex)
        with np.errstate(all="ignore"):
            for owner, coeff, exponents in zip(self.owners, self.coeffs,
                                               self.exponents):
                used = np.flatnonzero(exponents)
                v = np.full(len(z), coeff)
                for j in used:
                    v = v * z[:, j] ** exponents[j]
                values[:, owner] = values[:, owner] + v
                for j in used:
                    partials[:, owner, j] = (partials[:, owner, j]
                                             + v * exponents[j] / z[:, j])
        return values, partials


def log_jacobian(poly: _Monomials, z):
    """Jacobians of log|phi| at the points z (B, m), phi the n polynomials
    of `poly`, and a rejection code per point.

    Each Jacobian is a real n x 2m matrix with columns (Re z_1, Im z_1,
    ...).  Differentiating log|phi_i| through the Cauchy-Riemann equations
    gives d/dRe(z_j) = Re(q), d/dIm(z_j) = -Im(q) with
    q = (d phi_i/d z_j)/phi_i.  A point gets the first code that applies:
    0 usable, 1 a zero coordinate, 2 a non-finite coordinate, 3 a
    component vanishes at the point, 4 a non-finite derivative entry.
    """
    import numpy as np

    values, partials = poly.evaluate(z)
    with np.errstate(all="ignore"):
        q = partials / values[:, :, None]
    reasons = np.select([(z == 0).any(axis=1), ~np.isfinite(z).all(axis=1),
                         (values == 0).any(axis=1),
                         ~np.isfinite(q).all(axis=(1, 2))], [1, 2, 3, 4])
    matrices = np.empty(q.shape[:2] + (2 * q.shape[2],))
    matrices[:, :, 0::2] = q.real
    matrices[:, :, 1::2] = -q.imag
    return matrices, reasons


def _hash(value, const, mult):
    """SeedSequence's hash of a 32-bit word (an int, or a uint64 array of
    them) and the hash constant that follows."""
    value = value ^ const
    const = const * mult & _M32
    value = value * const & _M32
    return value ^ (value >> 16), const


def _mix(x, y):
    x = (_MIX_L * x - _MIX_R * y) & _M32
    return x ^ (x >> 16)


def _mix_in(pool, word, const):
    """The pool after SeedSequence mixes one more entropy word into each
    of its words, and the hash constant reached."""
    mixed = []
    for x in pool:
        hashed, const = _hash(word, const, _MULT_A)
        mixed.append(_mix(x, hashed))
    return mixed, const


def _seed_pool(seed):
    """The pool of SeedSequence(seed) before a spawn key is mixed in, and
    the hash constant reached: the run entropy's 32-bit words, padded
    with zeros to the pool size, mixed as numpy mixes them.  Taking the
    pool from numpy instead would import numpy.random, about 6 MB of
    resident memory per process."""
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL - len(words))
    pool, const = [], _INIT_A
    for word in words[:_POOL]:
        word, const = _hash(word, const, _MULT_A)
        pool.append(word)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                hashed, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], hashed)
    for word in words[_POOL:]:
        pool, const = _mix_in(pool, word, const)
    return pool, const


def _add128(hi, lo, b_hi, b_lo):
    """(hi, lo) + (b_hi, b_lo) mod 2**128, in uint64 limbs."""
    low = lo + b_lo
    return hi + b_hi + (low < lo), low


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's LCG step, state * _PCG_MULT + inc mod 2**128, in uint64
    limbs; the high word of lo * (low limb of the multiplier) comes from
    32-bit halves."""
    m_hi, m_lo = _PCG_MULT >> 64, _PCG_MULT & (2 ** 64 - 1)
    a0, a1 = lo & _M32, lo >> 32
    b0, b1 = m_lo & _M32, m_lo >> 32
    p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    carry = p11 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    low = (mid << 32) | (p00 & _M32)
    return _add128(carry + hi * m_lo + lo * m_hi, low, inc_hi, inc_lo)


class _Streams:
    """The generators np.random.default_rng(child) of the children start,
    ..., start + count - 1 of SeedSequence(seed), one row each, advanced
    together.

    Seeding follows SeedSequence.spawn, generate_state(4, np.uint64) and
    PCG64's set-seed; every 128-bit quantity is kept as two uint64 limbs.
    The draws are those of Generator.uniform and Generator.integers, so
    each row gets exactly its child's numbers.  Spawn keys are taken to
    be single words (below 2**32).
    """

    def __init__(self, seed, start, count):
        import numpy as np

        pool, const = _seed_pool(seed)
        pool, _ = _mix_in(pool, np.arange(start, start + count,
                                          dtype=np.uint64), const)
        const, words = _INIT_B, []
        for i in range(8):
            word, const = _hash(pool[i % _POOL], const, _MULT_B)
            words.append(word)
        # initstate, then initseq, each high limb first; a limb is two
        # 32-bit words, the low one first
        s_hi, s_lo, q_hi, q_lo = (words[i] | words[i + 1] << 32
                                  for i in range(0, 8, 2))
        self.inc_hi = q_hi << 1 | q_lo >> 63
        self.inc_lo = q_lo << 1 | 1
        # from state 0: step, add initstate, step
        self.hi, self.lo = _pcg_step(*_add128(self.inc_hi, self.inc_lo,
                                              s_hi, s_lo),
                                     self.inc_hi, self.inc_lo)
        self.buffer = np.zeros(count, dtype=np.uint64)
        self.buffered = np.zeros(count, dtype=bool)

    def _next64(self, rows=slice(None)):
        """The next 64-bit output (XSL-RR) of each given row."""
        hi, lo = _pcg_step(self.hi[rows], self.lo[rows],
                           self.inc_hi[rows], self.inc_lo[rows])
        self.hi[rows], self.lo[rows] = hi, lo
        x, rot = hi ^ lo, hi >> 58
        return x >> rot | x << ((64 - rot) & 63)

    def _next32(self, rows):
        """The next 32-bit output of each given row: the low half of a
        fresh 64-bit output, whose high half the following call returns."""
        buffered = self.buffered[rows]
        words = self.buffer[rows]
        fresh = rows[~buffered]
        out = self._next64(fresh)
        words[~buffered] = out & _M32
        self.buffer[fresh] = out >> 32
        self.buffered[rows] = ~buffered
        return words

    def uniform(self, low, high, count):
        """(rows, count): uniform(low, high, count) of every row, each
        draw low + (high - low) * (top 53 bits of an output) / 2**53."""
        import numpy as np

        bits = np.empty((len(self.lo), count), dtype=np.uint64)
        for j in range(count):
            bits[:, j] = self._next64()
        return low + (high - low) * ((bits >> 11) * 2.0 ** -53)

    def integers(self, high):
        """integers(high) of every row, for each row's high up to 2**32
        (Lemire's method on 32-bit outputs); a row whose high is 0 or 1
        draws nothing and gets 0."""
        import numpy as np

        high = np.asarray(high, dtype=np.uint64)
        picks = np.zeros(len(high), dtype=np.int64)
        rows = np.flatnonzero(high > 1)
        high = high[rows]
        threshold = (2 ** 32 - high) % high
        while len(rows):
            m = self._next32(rows) * high
            ok = (m & _M32) >= threshold
            picks[rows[ok]] = m[ok] >> 32
            rows, high, threshold = rows[~ok], high[~ok], threshold[~ok]
        return picks


def _sample_coordinates(streams: _Streams, count):
    """(B, count) points r e^{i theta}, one row per stream, each drawing
    its log radii and then its angles."""
    import numpy as np

    log_radii = streams.uniform(-_LOG_WINDOW, _LOG_WINDOW, count)
    angles = streams.uniform(0.0, 2.0 * math.pi, count)
    radii = np.exp(log_radii)
    z = np.empty(radii.shape, dtype=complex)
    z.real = radii * np.cos(angles)
    z.imag = radii * np.sin(angles)
    return z


def _ranks_and_gaps(matrices: np.ndarray, tol: float):
    """Numerical rank and singular value gap of each matrix of a stack,
    from one stacked SVD."""
    import numpy as np

    count = matrices.shape[0]
    if count == 0 or 0 in matrices.shape[1:]:
        return np.zeros(count, dtype=int), np.full(count, math.inf)
    sigma = np.linalg.svd(matrices, compute_uv=False)
    with np.errstate(invalid="ignore"):
        ranks = np.count_nonzero(sigma / sigma[:, :1] > tol, axis=1)
    rows = np.arange(count)
    kept = sigma[rows, np.maximum(ranks - 1, 0)]
    dropped = sigma[rows, np.minimum(ranks, sigma.shape[1] - 1)]
    split = (ranks > 0) & (ranks < sigma.shape[1]) & (dropped > 0.0)
    gaps = np.full(count, math.inf)
    gaps[split] = kept[split] / dropped[split]
    return ranks, gaps


def _check_estimator_params(trials, tol, seed):
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise ValueError("trials must be a positive integer")
    try:
        tol_ok = not isinstance(tol, bool) and 0.0 < tol < 1.0
    except TypeError:  # a tol that does not compare with floats
        tol_ok = False
    if not tol_ok:
        raise ValueError("tol must lie strictly between 0 and 1")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError("seed must be a non-negative integer")


def _estimate(block_matrices, ambient_dim, trials, tol, seed) -> RankEstimate:
    """Run `block_matrices` on blocks of streams and rank what it keeps.

    Sample k always draws the numbers of child k of SeedSequence(seed),
    whatever block it falls in.  The caller has checked the parameters.
    """
    ranks = []
    gaps = []
    for start in range(0, trials, BLOCK):
        streams = _Streams(seed, start, min(BLOCK, trials - start))
        block_ranks, block_gaps = _ranks_and_gaps(block_matrices(streams),
                                                  tol)
        ranks += block_ranks.tolist()
        gaps += block_gaps.tolist()
    if not ranks:
        raise EstimatorError(f"all {trials} samples were rejected")
    return RankEstimate(
        rank=max(ranks),
        samples_used=len(ranks),
        singular_value_gap=min(gaps),
        per_sample_ranks=tuple(ranks),
        ambient_dim=ambient_dim,
        per_sample_gaps=tuple(gaps),
    )


def estimate_rank(phi: Parametrization, trials: int = DEFAULT_TRIALS,
                  tol: float = DEFAULT_TOL, seed: int = 0) -> RankEstimate:
    """Generic rank of the log Jacobian over `trials` random points.

    Coordinates are drawn as r e^{i theta} with log r uniform on the
    window [-3, 3]; each sample gets its own child of the seed sequence,
    so the first k samples of any run agree with a run of k trials and
    results do not depend on evaluation order.  Samples are evaluated
    and ranked in blocks of BLOCK.
    """
    _check_estimator_params(trials, tol, seed)
    poly = _Monomials(phi.components, phi.domain_dim)

    def block_matrices(streams):
        matrices, reasons = log_jacobian(
            poly, _sample_coordinates(streams, phi.domain_dim))
        return matrices[reasons == 0]

    return _estimate(block_matrices, phi.ambient_dim, trials, tol, seed)


def _solved_form(h: ImplicitHypersurface):
    """The terms of h divided by their largest common monomial factor,
    and the last variable that still occurs in them.

    The division leaves the zero set in the torus unchanged, and a
    polynomial in which no variable occurs is a constant there (its
    samples are then all rejected).
    """
    n = h.ambient_dim
    low = [min(e[j] for _, e in h.terms) for j in range(n)]
    terms = [(c, tuple(a - b for a, b in zip(e, low))) for c, e in h.terms]
    occurring = [j for j in range(n) if any(e[j] for _, e in terms)]
    return terms, occurring[-1] if occurring else n - 1


def estimate_rank_implicit(h: ImplicitHypersurface,
                           trials: int = DEFAULT_TRIALS,
                           tol: float = DEFAULT_TOL,
                           seed: int = 0) -> RankEstimate:
    """Like estimate_rank, for a hypersurface given by one polynomial.

    The polynomial is first divided by its largest monomial factor, and
    the last variable x_k that still occurs is the one solved for (x_n
    whenever there is a constant term).  Per sample the other n-1
    coordinates are drawn at random, x_k is solved for (picking one
    usable root at random), and the composed Jacobian of log|.|
    restricted to the graph is ranked.  The chain rule contributes
    dx_k/dx_j = -f_j/f_k to the bottom row; the other rows are the
    diagonal 1/x_i pattern of the free coordinates.  A degree in x_k
    above _MAX_DEGREE raises DegreeLimitError before any work.
    """
    _check_estimator_params(trials, tol, seed)
    n = h.ambient_dim
    terms, solved = _solved_form(h)
    degree = max(e[solved] for _, e in terms)
    if degree > _MAX_DEGREE:
        raise DegreeLimitError(
            f"implicit input refused: degree {degree} in x{solved + 1} "
            f"(at most {_MAX_DEGREE} is solved for)"
        )

    import numpy as np

    from .roots import polynomial_roots

    free = [j for j in range(n) if j != solved]
    poly = _Monomials((terms,), n)
    # f(x, t) as a polynomial in t = x_solved: one polynomial in the free
    # coordinates per power of t that occurs
    by_power = {}
    for coeff, exponents in terms:
        by_power.setdefault(exponents[solved], []).append(
            (coeff, tuple(exponents[j] for j in free)))
    powers = sorted(by_power)
    specialize = _Monomials([by_power[p] for p in powers], n - 1)
    diagonal = np.arange(n - 1)

    def block_matrices(streams):
        xs = _sample_coordinates(streams, n - 1)
        coeffs = np.zeros((len(xs), powers[-1] + 1), dtype=complex)
        coeffs[:, powers] = specialize.evaluate(xs)[0]
        # a row whose root finding failed holds only NaN: no usable root
        roots, _ = polynomial_roots(coeffs)
        usable = (np.abs(roots) >= _ROOT_MIN) & (np.abs(roots) <= _ROOT_MAX)
        counts = usable.sum(axis=1)
        # the pick-th usable root of each row that has one, in row order
        picks = streams.integers(counts)
        last = roots[usable & (usable.cumsum(axis=1) == picks[:, None] + 1)]
        xs = xs[counts > 0]
        _, partials = poly.evaluate(np.insert(xs, solved, last, axis=1))
        partials = partials[:, 0]
        fk = partials[:, solved]
        with np.errstate(all="ignore"):
            bottom = -(partials[:, free] / fk[:, None]) / last[:, None]
            inverse = 1 / xs
        critical = (fk == 0) | ~np.isfinite(fk)
        ok = ~critical & np.isfinite(bottom).all(axis=1)
        matrices = np.zeros((len(xs), n, 2 * (n - 1)))
        matrices[:, diagonal, 2 * diagonal] = inverse.real
        matrices[:, diagonal, 2 * diagonal + 1] = -inverse.imag
        matrices[:, n - 1, 0::2] = bottom.real
        matrices[:, n - 1, 1::2] = -bottom.imag
        return matrices[ok]

    return _estimate(block_matrices, n, trials, tol, seed)


def _check_ambient(space, variety) -> None:
    """Refuse a fan (or a subspace of its R^n) and a variety, or an
    estimate of one, from different ambient spaces: the amoeba of a
    variety in (C*)^n lives in R^n."""
    if variety.ambient_dim != space.ambient_dim:
        raise ValueError(
            f"the fan lives in R^{space.ambient_dim} but the variety in "
            f"(C*)^{variety.ambient_dim}"
        )


def cross_check(result: SearchResult,
                estimate: RankEstimate) -> CrossCheckResult:
    """Compare the combinatorial value of a search with a numerical estimate.

    Raises ValueError when the searched fan and the sampled variety live
    in different ambient spaces.  Beyond that, the caller vouches that the
    fan belongs to the sampled variety; under that assumption the two
    numbers must agree, and a mismatch means a wrong input pairing, an
    unlucky sampling run, or a capped search that missed the optimum.
    Nothing is averaged away: both numbers and the certification flag are
    reported as they are.
    """
    _check_ambient(result.witness_S, estimate)
    verdict = "agree" if result.value == estimate.rank else "mismatch"
    return CrossCheckResult(
        combinatorial=result.value,
        numerical=estimate.rank,
        certified=result.certified,
        verdict=verdict,
    )


def _coeff_to_float(raw, where):
    """A coefficient entry as a float: a JSON float as it is, an int or a
    string as `parse_rational` reads it."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
        raise VarietyFormatError(f"{where}: coefficient entry must be a number")
    try:
        # an int or a Fraction rounds to float correctly
        return float(raw if isinstance(raw, float) else parse_rational(raw))
    except ValueError as exc:
        raise VarietyFormatError(
            f"{where}: cannot read {raw!r} as a rational number"
        ) from exc
    except OverflowError as exc:
        raise VarietyFormatError(
            f"{where}: coefficient entry out of the float range"
        ) from exc


def _parse_terms(raw_terms, where):
    if not isinstance(raw_terms, list):
        raise VarietyFormatError(f'{where}: "terms" must be a list')
    terms = []
    for t, raw in enumerate(raw_terms):
        if not isinstance(raw, dict):
            raise VarietyFormatError(f"{where}: term {t} must be an object")
        pair = raw.get("coeff")
        if not isinstance(pair, list) or len(pair) != 2:
            raise VarietyFormatError(
                f'{where}: term {t} needs "coeff": [re, im]'
            )
        re = _coeff_to_float(pair[0], f"{where} term {t}")
        im = _coeff_to_float(pair[1], f"{where} term {t}")
        exponents = raw.get("exponents")
        if not isinstance(exponents, list):
            raise VarietyFormatError(
                f'{where}: term {t} needs an "exponents" list'
            )
        terms.append((complex(re, im), tuple(exponents)))
    return terms


def _load_document(text, expected_keys):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise VarietyFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise VarietyFormatError("top level must be an object")
    missing = [k for k in expected_keys if k not in doc]
    if missing:
        raise VarietyFormatError("missing keys: " + ", ".join(missing))
    return doc


def parse_parametrization(text: str) -> Parametrization:
    """Read the parametrization file format (see README)."""
    doc = _load_document(text, ("domain_dim", "ambient_dim", "components"))
    raw_components = doc["components"]
    if not isinstance(raw_components, list):
        raise VarietyFormatError('"components" must be a list')
    components = []
    for i, raw in enumerate(raw_components):
        if not isinstance(raw, dict):
            raise VarietyFormatError(f"component {i} must be an object")
        components.append(_parse_terms(raw.get("terms"), f"component {i}"))
    return Parametrization(doc["domain_dim"], doc["ambient_dim"],
                           tuple(components))


def parse_implicit(text: str) -> ImplicitHypersurface:
    """Read the implicit-hypersurface file format (see README)."""
    doc = _load_document(text, ("ambient_dim", "polynomial"))
    raw_poly = doc["polynomial"]
    if not isinstance(raw_poly, dict):
        raise VarietyFormatError('"polynomial" must be an object')
    terms = _parse_terms(raw_poly.get("terms"), "polynomial")
    return ImplicitHypersurface(doc["ambient_dim"], tuple(terms))
