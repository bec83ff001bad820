"""Independent high-precision oracles used by the tests.

Everything here is deliberately implemented apart from the package code:
the zeta oracle goes through the alternating (eta) series with Borwein
acceleration on mpmath arithmetic, and running-sum oracles accumulate in
50-digit software floats.  The package must agree with these within its own
reported error bounds; the oracles never import package numerics beyond the
exact integer Liouville values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

_LOG_BASE = math.log(3.0 + math.sqrt(8.0))


@lru_cache(maxsize=64)
def _borwein_d(n: int) -> tuple[int, ...]:
    """Exact Borwein coefficients d_0..d_n for the accelerated eta series."""
    acc = Fraction(0)
    ds = []
    term = Fraction(1)
    for i in range(n + 1):
        if i == 0:
            term = Fraction(math.factorial(n - 1), math.factorial(n)) if n > 0 else Fraction(1)
        else:
            # t_i / t_{i-1} = 4 * (n+i-1) * (n-i+1) / ((2i)(2i-1))
            term *= Fraction(4 * (n + i - 1) * (n - i + 1), (2 * i) * (2 * i - 1))
        acc += term
        d = acc * n
        assert d.denominator == 1
        ds.append(int(d))
    return tuple(ds)


def eta_zeta(s, target_digits: int = 50):
    """zeta(s) through the alternating series eta(s)/(1 - 2^(1-s)).

    Valid for Re(s) >= 1/2, s != 1.  Uses Borwein's Chebyshev-accelerated
    form of the eta sum with exact integer coefficients; the number of terms
    and the working precision grow with |Im s| so the classical error bound

        |eta error| <= 3 (1 + 2|t|) e^(pi |t| / 2) / (3 + sqrt 8)^n

    lands below 10^-target_digits.

    Returns:
        (value, err) where value is an mpmath mpc and err a float bound on
        the absolute error of the zeta value.
    """
    s = mp.mpc(s)
    sigma, t = float(s.real), abs(float(s.imag))
    if sigma < 0.5:
        raise ValueError("eta oracle requires Re(s) >= 1/2")
    if s == 1:
        raise ValueError("pole at s = 1")
    need = target_digits * math.log(10.0) + math.pi * t / 2.0 + math.log(3.0 * (1.0 + 2.0 * t))
    n = max(8, math.ceil(need / _LOG_BASE) + 2)
    d = _borwein_d(n)
    work_dps = int(10 + target_digits + 0.7656 * n + 2 * math.log10(n))
    with mp.workdps(work_dps):
        ssum = mp.mpc(0)
        for k in range(n):
            term = mp.mpf(d[k] - d[n]) * mp.power(k + 1, -s)
            ssum = ssum - term if k % 2 else ssum + term
        denom = 1 - mp.power(2, 1 - s)
        value = -ssum / (mp.mpf(d[n]) * denom)
        # classical bound, in log space to dodge float overflow at large |t|
        log_eta_err = (
            math.log(3.0 * (1.0 + 2.0 * t)) + math.pi * t / 2.0 - n * _LOG_BASE
        )
        log_err = log_eta_err - math.log(abs(complex(denom)))
        err = math.exp(log_err) if log_err > -700 else 0.0
        return +value, float(err + 10.0 ** (-work_dps + 5))


def mp_zeta(s, dps: int = 30):
    """mpmath's own zeta (independent implementation), at dps digits."""
    with mp.workdps(dps):
        return +mp.zeta(mp.mpc(s))


def mp_zeta_prime(s, dps: int = 30):
    """mpmath's own zeta derivative, at dps digits."""
    with mp.workdps(dps):
        return +mp.zeta(mp.mpc(s), derivative=1)


def hp_running_sums(lam_values, alpha: float, dps: int = 50):
    """Yield (n, L(n, alpha)) at dps digits for n = 1, 2, ... .

    lam_values is an iterable of exact +1/-1 Liouville values starting at
    n = 1 (the package sieve output is acceptable here: the sieve is
    validated against trial division separately, and this oracle only
    consumes its exact integers).
    """
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        acc = mp.mpf(0)
        for n, lam in enumerate(lam_values, start=1):
            if alpha == 0.0:
                acc += int(lam)
            elif alpha == 1.0:
                acc += mp.mpf(int(lam)) / n
            elif alpha == 0.5:
                acc += int(lam) / mp.sqrt(n)
            else:
                acc += int(lam) * mp.power(n, -a)
            yield n, acc


EPS = 2.0 ** -52


def term_error_constant(alpha: float, n_hi: int) -> float:
    """K(alpha) of partial_sum's bound: 1 at alpha = 1/2 and 1, else 2 + 2 alpha max(1, ln n_hi)."""
    if alpha in (0.5, 1.0):
        return 1.0
    return 2.0 + 2.0 * alpha * max(1.0, math.log(n_hi))


def carried_bound_increment(alpha: float, n_hi: int, weight_sum: float) -> float:
    """What folding a block of n <= n_hi, whose weights 1/n^alpha sum to weight_sum, adds to err_bound.

    partial_sum's module docstring: eps * (K(alpha) + 4) * block_abs_sum,
    and nothing at alpha = 0, where every block sum is exact.
    """
    if alpha == 0.0:
        return 0.0
    return EPS * (term_error_constant(alpha, n_hi) + 4.0) * weight_sum


# Frozen reference values, computed with the oracles above at >= 40 digits.
ZETA_HALF = -1.4603545088095868129
ZETA_2 = 1.6449340668482264365
ZETA_4 = 1.0823232337111381915
ZETA_PRIME_0 = -0.91893853320467274178
ZETA_PRIME_2 = -0.9375482543158437537
PI2_OVER_15 = 0.65797362673929057459
PI4_OVER_105 = 0.92770562889526130701
EULER_GAMMA = 0.57721566490153286061
GAMMA_1 = 14.13472514173469379
GAMMA_2 = 21.022039638771554993
GAMMA_3 = 25.010857580145688763
ZETA_1_P_2I_GAMMA1 = complex(1.836735353402834188, -0.65119759652226867248)
R0_AT_0 = -0.6847652360899365231
R0_AT_HALF = -0.39525722105110783603
R0_AT_3_QUARTERS = 2.3695304721798730462
R0_AT_1 = 0.6847652360899365231
R1_AT_0 = complex(-0.077622764247235060667, -0.1554080896227112506)
R1_AT_HALF = complex(-0.083120150579985450701, -0.15266227166484932807)
L_16_HALF = 0.002544434709796509745283957
L_17_HALF = -0.2399911903265364637736225
