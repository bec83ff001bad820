"""Riemann zeta and its derivative for complex arguments, via Euler-Maclaurin.

The evaluation is the classical one: a truncated Dirichlet sum, the integral
term N^(1-s)/(s-1), the half-term N^(-s)/2, and Bernoulli-number corrections,

    zeta(s) ~ sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2
              + sum_{k=1}^{M} B_{2k}/(2k)! * (s)_{2k-1} * N^(-s-2k+1),

where (s)_m = s(s+1)...(s+m-1).  The derivative is the term-by-term analytic
derivative of the same expansion (no finite differences).

Truncation parameters come from em_params: N is at least max(10, |Im s|),
and M is the smallest correction order whose first omitted term falls below
the accuracy target.  Bernoulli numbers are computed once, exactly, as
rationals, then fixed to binary64.

One evaluator serves a batch of points (zeta_batch); zeta, zeta_prime and
zeta_with_prime are its batch of one.  The Dirichlet sums use complete
multiplicativity.  A table holds n^-s for 1 <= n < N at every point of a
batch: a prime p takes one complex exp, exp(-s log p), and a composite n is
the product of the entries of its smallest prime factor p and of its
cofactor n / p.  The table is filled one dyadic range [2^j, 2^(j+1)) at a
time, so the cofactor (at most n / 2) is ready when n is reached.  A point's
sum, and the log-weighted sum of its derivative, is numpy's pairwise sum of
its own N - 1 entries in increasing n, so no value depends on the other
points of its batch.  A batch holds points of increasing N and at most
_BATCH table entries (512 KiB with its work buffer).  The Euler-Maclaurin
remainder is added point by point.

The error estimate attached to each result is the magnitude of the first
omitted Bernoulli correction (times the classical tail factor) plus an
allowance for accumulated rounding, EPS (6 + (|Im s| + 2) log N) times the
absolute size of the sum, whose Dirichlet part sum n^-sigma (and sum
n^-sigma log n for the derivative) does not depend on Im s and is read from
one table of running sums per sigma.  The allowance grows with |Im s| for
the phases: a direct exp(-s log n) errs in phase by about |Im s| log n eps.
A product of Omega(n) <= log2 n rounded prime factors errs by the sum
of their phase errors |Im s| log p eps, which add up to the same
|Im s| log n eps; its Omega(n) exps and products add a few eps each, a term
of the order of the 2 log N that the allowance carries beside |Im s| log N.
It is a documented heuristic, not a certified enclosure; the test suite
validates it against independent high-precision oracles up to |Im s| =
2838.8, the largest height the residue build evaluates.

Good for |Im s| up to 1e4.  All functions are pure and safe to call
concurrently.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

#: Largest supported |Im s|; accuracy degrades and N grows beyond this.
SUPPORTED_IM_MAX = 1.0e4

#: Smallest supported Re s; far left of the critical strip is out of scope.
SUPPORTED_RE_MIN = -10.0

#: Default absolute accuracy target for em_params.
DEFAULT_TARGET_EPS = 1.0e-12

#: Corrections use B_2 .. B_58; the estimate of the omitted term uses B_60.
MAX_M = 29

#: binary64 machine epsilon.
EPS = float(np.finfo(np.float64).eps)

#: Entries of n^-s in one batch's table; the table and its work buffer of the
#: same size hold 2 * 16 * _BATCH bytes = 512 KiB (a single point with N above
#: _BATCH takes a table of its own size).
_BATCH = 2 ** 14


def _bernoulli_table(count: int) -> list[float]:
    """B_{2k} for k = 0..count, exact rational recurrence fixed to float."""
    top = 2 * count
    frac = [Fraction(0)] * (top + 1)
    frac[0] = Fraction(1)
    for m in range(1, top + 1):
        acc = Fraction(0)
        binom = 1  # C(m+1, j), starting at j = 0
        for j in range(m):
            acc += binom * frac[j]
            binom = binom * (m + 1 - j) // (j + 1)
        frac[m] = -acc / (m + 1)
    return [float(frac[2 * k]) for k in range(count + 1)]


#: B_{2k} for k = 0..30 (B_0 .. B_60).
BERNOULLI_2K = _bernoulli_table(MAX_M + 1)

#: B_{2k} / (2k)! for k = 0..30.
_COEFF = [BERNOULLI_2K[k] / math.factorial(2 * k) for k in range(MAX_M + 2)]


@dataclass(frozen=True)
class ComplexValue:
    """A complex result with an absolute error estimate."""

    re: float
    im: float
    err: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise ValueError(f"non-finite components ({self.re}, {self.im})")
        if not (self.err >= 0.0 and math.isfinite(self.err)):
            raise ValueError(f"error estimate must be finite and >= 0, got {self.err}")

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)


def _check_argument(s: complex) -> complex:
    s = complex(s)
    if s == 1:
        raise ValueError("zeta has a pole at s = 1")
    if abs(s.imag) > SUPPORTED_IM_MAX:
        raise ValueError(
            f"|Im s| = {abs(s.imag)} exceeds the supported height {SUPPORTED_IM_MAX}"
        )
    if s.real < SUPPORTED_RE_MIN:
        raise ValueError(
            f"Re s = {s.real} below the supported minimum {SUPPORTED_RE_MIN}"
        )
    return s


def _tail_factor(sigma: float, M: int, s: complex) -> float:
    """Classical factor relating the remainder to the first omitted term."""
    denom = sigma + 2 * M + 1
    if denom <= 0.0:
        return 10.0
    return abs(s + 2 * M + 1) / denom


def em_params(s: complex, target_eps: float = DEFAULT_TARGET_EPS) -> tuple[int, int]:
    """Truncation parameters (N, M) for the Euler-Maclaurin evaluation at s.

    Deterministic rule: start from N = max(10, ceil(|Im s|)); pick the
    smallest M <= MAX_M whose first omitted correction is estimated below
    target_eps; if no M suffices, double N and retry.

    Args:
        s: evaluation point
        target_eps: positive accuracy target for the truncation error

    Returns:
        (N, M) with N >= max(10, ceil(|Im s|)) and 1 <= M <= MAX_M.
    """
    if not target_eps > 0.0:
        raise ValueError(f"target_eps must be > 0, got {target_eps}")
    s = complex(s)
    N = max(10, math.ceil(abs(s.imag)))
    while True:
        # The first omitted correction is estimated with the guard
        # prod_{j <= 2M} (|s + j| + 1) in place of |(s)_{2M+1}|, so the estimate
        # cannot vanish at s = 0 (where the value corrections are exactly zero
        # but the derivative corrections are not); the overestimate only pushes
        # M up.  The guard gains the factors j = 2M - 1, 2M for each M.
        rising = abs(s) + 1.0
        for M in range(1, MAX_M + 1):
            for j in (2 * M - 1, 2 * M):
                rising *= abs(complex(s.real + j, s.imag)) + 1.0
            omitted = abs(_COEFF[M + 1]) * rising * N ** (-s.real - 2 * M - 1)
            if omitted * _tail_factor(s.real, M, s) <= target_eps:
                return N, M
        if N > 2 ** 24:
            return N, MAX_M
        N *= 2


def _factor_plan(length: int) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The primes below length, and each n's smallest prime factor and cofactor.

    Returns (primes as a list, the same as an index array, their logs, fac,
    cof), where n = fac[n] * cof[n] for 0 < n < length: a composite's
    smallest prime factor p and its cofactor n / p <= n / 2, or n and 1 for
    a prime (and 1 and 1 for n = 1).  The sieve is small and runs on Python
    lists, which keeps numpy's masked-indexing code out of a short run's
    resident set.
    """
    spf = list(range(length))
    for p in range(2, math.isqrt(length - 1) + 1):
        if spf[p] == p:
            for m in range(p * p, length, p):
                if spf[m] == m:
                    spf[m] = p
    primes = [n for n in range(2, length) if spf[n] == n]
    return (
        primes,
        np.array(primes, dtype=np.intp),
        np.log(np.array(primes, dtype=np.float64)),
        np.array(spf, dtype=np.intp),
        np.array([n // p if p else 0 for n, p in enumerate(spf)], dtype=np.intp),
    )


def _dirichlet_table(
    s: np.ndarray, plan: tuple, logs: np.ndarray, table: np.ndarray, work: np.ndarray
) -> None:
    """Fill table[i, n] = n^(-s_i) and work[i, n] = log(n) n^(-s_i), 0 < n < length.

    table and work have a row per point and `length` columns.  Each prime
    takes one exp; then each dyadic range [lo, 2 lo) takes the products of
    the columns fac[n] and cof[n], which are the prime itself and 1, or
    columns below lo.
    """
    plist, primes, logp, fac, cof = plan
    length = table.shape[1]
    count = bisect.bisect_left(plist, length)
    phase = work[:, :count]
    np.multiply(-s[:, None], logp[:count], out=phase)
    np.exp(phase, out=phase)
    table[:, 0] = 0.0
    table[:, 1:2] = 1.0
    table[:, primes[:count]] = phase
    lo = 2
    while lo < length:
        hi = min(length, 2 * lo)
        a, b = work[:, : hi - lo], work[:, hi - lo : 2 * (hi - lo)]
        np.take(table, fac[lo:hi], axis=1, out=a, mode="clip")
        np.take(table, cof[lo:hi], axis=1, out=b, mode="clip")
        np.multiply(a, b, out=table[:, lo:hi])
        lo *= 2
    # on real views, so that logs is not cast to complex through a buffer
    np.multiply(
        table.view(np.float64).reshape(*table.shape, 2),
        logs[:length, None],
        out=work.view(np.float64).reshape(*work.shape, 2),
    )


def _em_batch(
    points: list[complex], params: list[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Euler-Maclaurin values and s-derivatives with error estimates.

    Point i is evaluated with its own (N, M) = params[i], and its entries do
    not depend on the other points: its Dirichlet sums are numpy's pairwise
    sums of its own table row over 1 <= n < N, in increasing n.  The points
    fill tables in batches of increasing N, each of at most _BATCH entries
    (a single point may exceed it).  Returns the arrays (z, dz, err_z, err_dz).
    """
    N = [n for n, _ in params]
    top = max(N)
    plan = _factor_plan(top)
    logs = np.zeros(top)
    np.log(np.arange(1, top, dtype=np.float64), out=logs[1:])

    sums = np.empty((2, len(points)), dtype=np.complex128)
    order = sorted(range(len(points)), key=N.__getitem__)
    size = max(min(_BATCH, len(points) * top), top)
    table_buf = np.empty(size, dtype=np.complex128)
    work_buf = np.empty(size, dtype=np.complex128)
    start = 0
    while start < len(order):
        stop = start + 1
        while stop < len(order) and (stop + 1 - start) * N[order[stop]] <= _BATCH:
            stop += 1
        batch = order[start:stop]
        shape = (len(batch), N[batch[-1]])
        table = table_buf[: shape[0] * shape[1]].reshape(shape)
        work = work_buf[: shape[0] * shape[1]].reshape(shape)
        batch_s = np.array([points[i] for i in batch], dtype=np.complex128)
        _dirichlet_table(batch_s, plan, logs, table, work)
        for row, i in enumerate(batch):
            sums[:, i] = np.add.reduce(table[row, 1 : N[i]]), np.add.reduce(work[row, 1 : N[i]])
        start = stop

    # The gamma-independent sums of the rounding allowance, sum_{n<N} n^-sigma
    # and sum_{n<N} n^-sigma log n, from one table of running sums per sigma.
    sizes = {}
    for sigma in {s.real for s in points}:
        w = np.exp(-sigma * logs[: max(n for s, n in zip(points, N) if s.real == sigma)])
        w[0] = 0.0
        sizes[sigma] = (np.cumsum(w), np.cumsum(logs[: w.size] * w))

    z = np.empty(len(points), dtype=np.complex128)
    dz = np.empty_like(z)
    err_z = np.empty(len(points))
    err_dz = np.empty_like(err_z)
    for i, (s, (n, m)) in enumerate(zip(points, params)):
        abs_d, abs_dd = sizes[s.real]
        z[i], dz[i], err_z[i], err_dz[i] = _em_tail(
            s, n, m, sums[0, i].item(), -sums[1, i].item(), abs_d[n - 1].item(), abs_dd[n - 1].item()
        )
    return z, dz, err_z, err_dz


def _em_tail(
    s: complex,
    N: int,
    M: int,
    dirichlet: complex,
    d_dirichlet: complex,
    abs_dirichlet: float,
    abs_d_dirichlet: float,
) -> tuple[complex, complex, float, float]:
    """Add the Euler-Maclaurin remainder to the Dirichlet sums at s; estimate the errors."""
    sigma = s.real
    logN = math.log(N)

    # Integral term N^(1-s)/(s-1) and half-term N^(-s)/2.
    Npow_1ms = cmath.exp((1 - s) * logN)
    integral = Npow_1ms / (s - 1)
    d_integral = -integral * (logN + 1 / (s - 1))
    Npow_ms = cmath.exp(-s * logN)
    half = 0.5 * Npow_ms
    d_half = -logN * half

    # Bernoulli corrections: coeff_k * (s)_{2k-1} * N^(-s-2k+1), k = 1..M,
    # with the rising factorial and its derivative extended incrementally.
    corr = 0j
    d_corr = 0j
    abs_corr = 0.0
    p = s  # (s)_1
    dp = 1 + 0j
    Nfac = Npow_ms / N  # N^(-s-1)
    Nstep = 1.0 / (N * N)
    for k in range(1, M + 1):
        c = _COEFF[k]
        term = c * p * Nfac
        corr += term
        d_corr += c * (dp - p * logN) * Nfac
        abs_corr += abs(term)
        # extend (s)_{2k-1} -> (s)_{2k+1} for the next k
        for j in (2 * k - 1, 2 * k):
            dp = dp * (s + j) + p
            p = p * (s + j)
        Nfac *= Nstep

    z = dirichlet + integral + half + corr
    dz = d_dirichlet + d_integral + d_half + d_corr

    # First omitted correction (k = M+1) and its derivative magnitude.
    omit = abs(_COEFF[M + 1]) * abs(p) * N ** (-sigma - 2 * M - 1)
    fac = _tail_factor(sigma, M, s)
    trunc_z = omit * fac
    trunc_dz = abs(_COEFF[M + 1]) * (abs(dp) + abs(p) * logN) * N ** (-sigma - 2 * M - 1) * fac

    # Rounding allowance (module docstring); the constants are deliberately
    # generous.
    round_scale = EPS * (6.0 + (abs(s.imag) + 2.0) * logN)
    scale_z = abs_dirichlet + abs(integral) + abs(half) + abs_corr
    scale_dz = abs_d_dirichlet + abs(d_integral) + abs(d_half) + abs(d_corr)
    err_z = trunc_z + round_scale * scale_z
    err_dz = trunc_dz + round_scale * scale_dz
    return z, dz, err_z, err_dz



def _em_evaluate(
    s: complex, N: int, M: int
) -> tuple[complex, complex, float, float]:
    """Euler-Maclaurin value and s-derivative with error estimates.

    The batch of one of _em_batch.  Returns (z, dz, err_z, err_dz).
    """
    z, dz, err_z, err_dz = (a.item() for a in _em_batch([complex(s)], [(N, M)]))
    return z, dz, err_z, err_dz


def zeta(s: complex) -> ComplexValue:
    """Riemann zeta at complex s (s != 1, |Im s| <= SUPPORTED_IM_MAX).

    The truncation targets DEFAULT_TARGET_EPS (see em_params).

    Args:
        s: evaluation point

    Returns:
        ComplexValue with the value and a heuristic absolute error estimate.
    """
    return zeta_with_prime(s)[0]


def zeta_prime(s: complex) -> ComplexValue:
    """Derivative of Riemann zeta at complex s, same expansion and target as zeta."""
    return zeta_with_prime(s)[1]


def zeta_with_prime(s: complex) -> tuple[ComplexValue, ComplexValue]:
    """Value and derivative in one pass, same target as zeta; cheaper when both are needed."""
    z, dz, err_z, err_dz = (a.item() for a in zeta_batch([s]))
    return ComplexValue(z.real, z.imag, err_z), ComplexValue(dz.real, dz.imag, err_dz)


def zeta_batch(points) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """zeta and zeta' with their error estimates at a sequence of points, in one pass.

    Each point gets its own em_params truncation, and its entries equal
    zeta_with_prime at that point bit for bit, whatever else is in the
    batch.  Every point is checked before any is evaluated.

    Args:
        points: evaluation points, each s != 1 with |Im s| <= SUPPORTED_IM_MAX

    Returns:
        Arrays (z, dz, err_z, err_dz) with one entry per point: the complex
        values of zeta and zeta' and their heuristic absolute error estimates.
    """
    points = [_check_argument(s) for s in points]
    if not points:
        return np.empty(0, complex), np.empty(0, complex), np.empty(0), np.empty(0)
    return _em_batch(points, [em_params(s) for s in points])
