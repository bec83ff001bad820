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

The error estimate attached to each result is the magnitude of the first
omitted Bernoulli correction (times the classical tail factor) plus an
allowance for accumulated rounding, which grows with |Im s|.  It is a
documented heuristic, not a certified enclosure; the test suite validates it
against independent high-precision oracles.

Good for |Im s| up to 1e4.  All functions are pure and safe to call
concurrently.
"""

from __future__ import annotations

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


def _em_evaluate(
    s: complex, N: int, M: int
) -> tuple[complex, complex, float, float]:
    """Euler-Maclaurin value and s-derivative with error estimates.

    Returns (z, dz, err_z, err_dz).
    """
    sigma = s.real
    logN = math.log(N)

    # Dirichlet sum over n = 1 .. N-1 and its derivative (-log n weights).
    n = np.arange(1, N, dtype=np.float64)
    logs = np.log(n)
    npow = np.exp(-s * logs)
    dirichlet = complex(npow.sum())
    d_dirichlet = complex(-(logs * npow).sum())
    abs_dirichlet = float(np.abs(npow).sum())
    abs_d_dirichlet = float((logs * np.abs(npow)).sum())

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

    # Rounding allowance: per-term relative error of exp(-s log n) grows with
    # |Im s| * log N; the constants are deliberately generous.
    round_scale = EPS * (6.0 + (abs(s.imag) + 2.0) * logN)
    scale_z = abs_dirichlet + abs(integral) + abs(half) + abs_corr
    scale_dz = abs_d_dirichlet + abs(d_integral) + abs(d_half) + abs(d_corr)
    err_z = trunc_z + round_scale * scale_z
    err_dz = trunc_dz + round_scale * scale_dz
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
    s = _check_argument(s)
    N, M = em_params(s)
    z, dz, err_z, err_dz = _em_evaluate(s, N, M)
    return ComplexValue(z.real, z.imag, err_z), ComplexValue(dz.real, dz.imag, err_dz)
