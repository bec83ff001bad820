"""Riemann zeta and its derivative for complex arguments, via Euler-Maclaurin.

The evaluation is the classical one: a truncated Dirichlet sum, the integral
term N^(1-s)/(s-1), the half-term N^(-s)/2, and Bernoulli-number corrections,

    zeta(s) ~ sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2
              + sum_{k=1}^{M} B_{2k}/(2k)! * (s)_{2k-1} * N^(-s-2k+1),

where (s)_m = s(s+1)...(s+m-1).  The derivative is the term-by-term analytic
derivative of the same expansion (no finite differences).

Truncation parameters come from em_params: N is at least
max(10, |Im s| / pi), and M is the smallest correction order whose first
omitted term falls below the accuracy target.  Why pi: |B_2k| / (2k)! is
about 2 (2 pi)^-2k, so each further correction is smaller than the one
before by about (|s| / 2 pi N)^2, which is 1/4 at N = |Im s| / pi
(1/(4 pi^2) at N = |Im s|).  The corrections are rows of one batched
remainder, while the Dirichlet table takes N entries per point and is most
of the cost, so the smaller N wins although M rises (to at most 24 at the
residue build's points).  At N = |Im s| / (2 pi) the corrections stop
shrinking and N has to double.  The tail factor (Backlund's bound) holds
for any N with sigma + 2M + 1 > 0.  B_0 .. B_60 are stored as binary64
literals, the exact rationals rounded (the tests rebuild them from the
exact recurrence).

One evaluator serves a batch of points (zeta_batch); zeta, zeta_prime and
zeta_with_prime are its batch of one.  Each step is an array operation over
the batch, and none lets a point's entries depend on the other points:

- Truncation.  One running product per point gives the guard of every
  order M (em_params), and each point takes its first M that meets the
  target; only points that no M serves go round the N-doubling loop.
- Dirichlet sums, by complete multiplicativity.  A table holds n^-s for
  1 <= n < N at every point: a prime p takes one complex exp,
  exp(-s log p), and a composite n is the product of the entries of its
  smallest prime factor p and of its cofactor n / p.  The factors, the
  cofactors and log n are built per call, up to the largest N, from the
  primes of primes_upto.  The table is filled one dyadic range
  [2^j, 2^(j+1)) at a time, so the cofactor (at most n / 2) is ready when
  n is reached.  A table holds points of increasing N and at
  most _BATCH entries (512 KiB with its log-weighted twin).  A point's sum,
  and the log-weighted sum of its derivative, is one np.add.reduceat
  segment of its own row, [1, N), which reduceat sums on its own.
- Remainder.  The integral term, the half-term and the corrections
  k = 1..K, K the batch's largest M, are the rows of one array with a
  column per point, and so are their derivatives.  A point's terms are
  added in that order by running sums down its column, read at its own M,
  so the rows past its M never enter its sums.

The points are taken _POINTS at a time, which bounds the arrays of the
truncation rule and the remainder.

The error estimate attached to each result is the magnitude of the first
omitted Bernoulli correction (times the classical tail factor) plus an
allowance for accumulated rounding, EPS (6 + (|Im s| + 2) log N) times the
absolute size of the sum: the magnitudes of the remainder's terms, plus the
Dirichlet part sum n^-sigma (sum n^-sigma log n for the derivative), which
does not depend on Im s and is read from one table of running sums per
sigma.  The allowance grows with |Im s| for the phases: a direct
exp(-s log n) errs in phase by about |Im s| log n eps.
A product of Omega(n) <= log2 n rounded prime factors errs by the sum
of their phase errors |Im s| log p eps, which add up to the same
|Im s| log n eps; its Omega(n) exps and products add a few eps each, a term
of the order of the 2 log N that the allowance carries beside |Im s| log N.
It is a documented heuristic, not a certified enclosure; the test suite
validates it against independent high-precision oracles up to |Im s| =
9999, at the residue build's points (up to 2838.8) and above them.

Good for |Im s| <= 1e4 and -10 <= Re s <= 1e5; other points and non-finite
ones are rejected.  All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .liouville import primes_upto

#: Largest supported |Im s|; accuracy degrades and N grows beyond this.
SUPPORTED_IM_MAX = 1.0e4

#: Smallest supported Re s; far left of the critical strip is out of scope.
SUPPORTED_RE_MIN = -10.0

#: Largest supported Re s; em_params's guard (2 MAX_M + 1 factors) overflows from ~1.6e5.
SUPPORTED_RE_MAX = 1.0e5

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

#: Points evaluated together.  Their truncation rule and remainder work on
#: arrays of a row per order or per term and a column per point, so this
#: bounds those arrays: at most 2 MAX_M + 6 = 64 complex rows, 96 KiB each.
#: For the residue build's 2,000 points (M <= 24), 96-point batches keep its
#: peak allocation near 1 MiB, the Dirichlet table's 512 KiB included, and
#: 128 or 256 points were no faster.
_POINTS = 96


#: B_{2k} for k = 0..30 (B_0 .. B_60): the exact rationals rounded to binary64
#: (TestBernoulli rebuilds them from the exact recurrence).
BERNOULLI_2K = [
    1.0, 0.16666666666666666, -0.03333333333333333, 0.023809523809523808,
    -0.03333333333333333, 0.07575757575757576, -0.2531135531135531, 1.1666666666666667,
    -7.092156862745098, 54.971177944862156, -529.1242424242424, 6192.123188405797,
    -86580.25311355312, 1425517.1666666667, -27298231.067816094, 601580873.9006424,
    -15116315767.092157, 429614643061.1667, -13711655205088.332, 488332318973593.2,
    -1.9296579341940068e+16, 8.416930475736826e+17, -4.0338071854059454e+19, 2.1150748638081993e+21,
    -1.2086626522296526e+23, 7.500866746076964e+24, -5.038778101481069e+26, 3.6528776484818122e+28,
    -2.849876930245088e+30, 2.3865427499683627e+32, -2.1399949257225335e+34,
]

#: B_{2k} / (2k)! for k = 0..30, read-only.
_COEFF = np.array([BERNOULLI_2K[k] / math.factorial(2 * k) for k in range(MAX_M + 2)])
_COEFF.flags.writeable = False


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
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise ValueError(f"s = {s} is not finite")
    if s == 1:
        raise ValueError("zeta has a pole at s = 1")
    if abs(s.imag) > SUPPORTED_IM_MAX:
        raise ValueError(f"|Im s| = {abs(s.imag)} exceeds the supported height {SUPPORTED_IM_MAX}")
    if s.real < SUPPORTED_RE_MIN:
        raise ValueError(f"Re s = {s.real} below the supported minimum {SUPPORTED_RE_MIN}")
    if s.real > SUPPORTED_RE_MAX:
        raise ValueError(f"s = {s}: Re s above the supported maximum {SUPPORTED_RE_MAX}")
    return s


def _tail_factor(sigma, M, s):
    """Classical factor relating the remainder to the first omitted term, elementwise.

    It is |s + 2M + 1| / (sigma + 2M + 1), or 10 where the denominator is not
    positive.
    """
    denom = sigma + 2 * M + 1
    out = np.full(np.shape(denom), 10.0)
    return np.divide(np.hypot(denom, np.imag(s)), denom, out=out, where=denom > 0.0)


def em_params(s: complex, target_eps: float = DEFAULT_TARGET_EPS) -> tuple[int, int]:
    """Truncation parameters (N, M) for the Euler-Maclaurin evaluation at s.

    Deterministic rule: start from N = max(10, ceil(|Im s| / pi)); pick the
    smallest M <= MAX_M whose first omitted correction is estimated below
    target_eps; if no M suffices, double N and retry.  From N = |Im s| / pi
    on, each further correction is about (|s| / 2 pi N)^2 <= 1/4 of the one
    before (module docstring).  At target 1e-12 and Re s >= -1, N doubles
    at most once, and only below |Im s| = 44, where the floor is 10 to 14
    and the shifts s + j, j <= 2M, of the rising factorial are not small
    beside s; further left N^-Re(s) grows, and N may double at any height.
    The batch of one of _em_params_batch, which applies the rule to every
    point of a batch.

    Args:
        s: evaluation point
        target_eps: positive accuracy target for the truncation error

    Returns:
        (N, M) with N >= max(10, ceil(|Im s| / pi)) and 1 <= M <= MAX_M.
    """
    N, M, _ = _em_params_batch(np.array([complex(s)]), target_eps)
    return int(N[0]), int(M[0])


#: The orders M = 1..MAX_M, the shifts j = 0..2 MAX_M of the guard, and the
#: magnitudes |B_{2M+2} / (2M+2)!| of the first omitted corrections.
_ORDERS = np.arange(1.0, MAX_M + 1)
_SHIFTS = np.arange(2.0 * MAX_M + 1)
_OMITTED = np.abs(_COEFF[2:])


def _em_params_batch(s: np.ndarray, target_eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The em_params rule at every point of the complex array s.

    The first omitted correction at order M is estimated with the guard
    (|s| + 1) prod_{1 <= j <= 2M} (|s + j| + 1) in place of |(s)_{2M+1}|, so
    the estimate cannot vanish at s = 0 (where the value corrections are
    exactly zero but the derivative corrections are not); the overestimate
    only pushes M up.  One running product over j gives the guard of every
    M, read at j = 2M.  Every point enters the N-doubling loop at its floor
    with M = MAX_M, and leaves it at the first N that some M <= MAX_M serves.

    Returns:
        Arrays (N, M, and the classical tail factor at M).
    """
    if not target_eps > 0.0:
        raise ValueError(f"target_eps must be > 0, got {target_eps}")
    sigma = s.real[:, None]
    guard = np.hypot(sigma + _SHIFTS, s.imag[:, None])
    guard += 1.0
    np.multiply.accumulate(guard, axis=1, out=guard)
    omitted = _OMITTED * guard[:, 2::2]
    expo = -sigma - 2 * _ORDERS - 1
    fac = _tail_factor(sigma, _ORDERS, s[:, None])
    N = np.maximum(10.0, np.ceil(np.abs(s.imag) / math.pi))
    M = np.full(s.size, MAX_M)
    rows = np.arange(s.size)
    while rows.size:  # where no M serves, double N, or stop above 2^24 with M = MAX_M
        ok = omitted[rows] * N[rows, None] ** expo[rows] * fac[rows] <= target_eps
        hit = ok.any(axis=1)
        M[rows[hit]] = ok[hit].argmax(axis=1) + 1
        rows = rows[~hit & (N[rows] <= 2 ** 24)]
        N[rows] *= 2
    return N.astype(np.int64), M, fac[np.arange(s.size), M - 1]


def _factor_plan(length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The primes below length, their logs, each n's smallest prime factor and cofactor, and log n.

    Returns (primes, log primes, fac, cof, logs), where n = fac[n] * cof[n]
    for 0 < n < length: a composite's smallest prime factor p and its
    cofactor n / p <= n / 2, or n and 1 for a prime (and 1 and 1 for n = 1);
    logs[n] = log n, and 0 at n = 0.  The sieving primes come from
    primes_upto, taken in decreasing order so that the smallest writes last.
    """
    n = np.arange(length)
    fac = n.copy()
    for p in primes_upto(math.isqrt(length - 1))[::-1].tolist():
        fac[p * p :: p] = p
    primes = np.flatnonzero(fac[2:] == n[2:]) + 2
    cof = n // np.maximum(fac, 1)
    logs = np.log(np.maximum(n, 1), dtype=np.float64)
    return primes, logs[primes], fac, cof, logs


def _dirichlet_table(s: np.ndarray, plan: tuple, table: np.ndarray, work: np.ndarray) -> None:
    """Fill table[i, n] = n^(-s_i) and work[i, n] = log(n) n^(-s_i), 0 < n < length.

    table and work have a row per point and `length` columns.  Each prime
    takes one exp; then each dyadic range [lo, 2 lo) takes the products of
    the columns fac[n] and cof[n], which are the prime itself and 1, or
    columns below lo.
    """
    primes, logp, fac, cof, logs = plan
    length = table.shape[1]
    count = primes.searchsorted(length)
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
        table.take(fac[lo:hi], axis=1, out=a, mode="clip")
        table.take(cof[lo:hi], axis=1, out=b, mode="clip")
        np.multiply(a, b, out=table[:, lo:hi])
        lo *= 2
    # on real views, so that logs is not cast to complex through a buffer
    np.multiply(
        table.view(np.float64).reshape(*table.shape, 2),
        logs[:length, None],
        out=work.view(np.float64).reshape(*work.shape, 2),
    )


def _em_batch(
    s: np.ndarray, N: np.ndarray, M: np.ndarray, fac: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Euler-Maclaurin values and s-derivatives with error estimates.

    Point i is evaluated with its own (N[i], M[i]) and tail factor fac[i]
    (_tail_factor at M[i]), and its entries do not depend on the other
    points: its Dirichlet sums reduce its own table row over 1 <= n < N[i],
    one np.add.reduceat segment each.  The points fill tables in batches of
    increasing N, each of at most _BATCH entries (a single point may exceed
    it).  Returns the arrays (z, dz, err_z, err_dz).
    """
    Ns = N.tolist()
    order = sorted(range(len(Ns)), key=Ns.__getitem__)
    top = Ns[order[-1]]
    plan = _factor_plan(top)
    logs = plan[-1]

    # Each batch's table of n^-s and its log-weighted twin share one buffer.
    sums = np.empty((2, len(Ns)), dtype=np.complex128)
    buf = np.empty((2, max(min(_BATCH, len(Ns) * top), top)), dtype=np.complex128)
    start = 0
    while start < len(order):
        stop = start + 1
        while stop < len(order) and (stop + 1 - start) * Ns[order[stop]] <= _BATCH:
            stop += 1
        batch = order[start:stop]
        rows, width = len(batch), Ns[batch[-1]]
        tables = buf[:, : rows * width]
        _dirichlet_table(s[batch], plan, *tables.reshape(2, rows, width))
        # Row r's segment is [r width + 1, r width + N); the last row's runs to
        # the end of the table, its width being its own N.
        bounds = [b for r, i in enumerate(batch) for b in (r * width + 1, r * width + Ns[i])]
        sums[:, batch] = np.add.reduceat(tables, bounds[:-1], axis=1)[:, ::2]
        start = stop
    sums[1] *= -1  # zeta' sums -log(n) n^-s

    # The gamma-independent sizes of those sums for the rounding allowance,
    # sum_{n<N} n^-sigma and sum_{n<N} n^-sigma log n, from one table of
    # running sums per sigma.
    sizes = np.empty((2, len(Ns)))
    running = np.empty((2, top))
    for sigma in set(s.real.tolist()):
        rows = s.real == sigma
        np.multiply(-sigma, logs[:top], out=running[0])
        np.exp(running[0], out=running[0])
        running[0, 0] = 0.0
        np.multiply(running[0], logs[:top], out=running[1])
        running.cumsum(axis=1, out=running)
        sizes[:, rows] = running[:, N[rows] - 1]
    return _em_tail(s, N, M, fac, sums, sizes)


#: The exponents 1 - 2k of N in the k-th correction, k = 1..MAX_M + 1, and
#: the rows of the value and the derivative in a term's pair.
_ODD_POWERS = -np.arange(1.0, 2.0 * MAX_M + 2, 2.0)[:, None]
_PAIR = np.array([[0], [1]])

#: A factor s + j of a rising factorial smaller than this counts as 0, so
#: that its reciprocal cannot overflow.
_NEGLIGIBLE = 1.0e-150


def _em_tail(
    s: np.ndarray,
    N: np.ndarray,
    M: np.ndarray,
    fac: np.ndarray,
    sums: np.ndarray,
    sizes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Add the Euler-Maclaurin remainder to the Dirichlet sums at every point; estimate the errors.

    sums holds each point's Dirichlet sums for zeta and zeta' (rows 0 and 1)
    and sizes the sums of the magnitudes of their terms.  The remainder's
    terms are the rows of one array: the integral term, the half-term and
    the Bernoulli corrections k = 1..K+1, K the batch's largest M, each as a
    value and a derivative, and each N^-s times a coefficient.  A point's
    terms are added down its column in that order, as running sums read at
    its own M, so its entries do not depend on the other points.
    """
    size = s.size
    N = N.astype(np.float64)
    logN = np.log(N)
    inv = 1 / (s - 1)
    K = max(M.tolist())

    # (s)_{2k+1} = prod_{j <= 2k} (s + j), k = 0..K, and its derivative
    # (s)_{2k+1} sum_{j <= 2k} 1 / (s + j), from running products and sums
    # over j.  A factor of size below _NEGLIGIBLE (s that close to a
    # non-positive integer) counts as 0: it is left out of both, and from it
    # on the value is 0 and the derivative is the product of the other
    # factors, each at least about 1 in size.  That moves the value by at most
    # _NEGLIGIBLE times their product, and the derivative by a relative
    # 1e-149 at most.
    shifted = np.add.outer(_SHIFTS[: 2 * K + 1], s)
    zero = np.abs(shifted) < _NEGLIGIBLE
    np.copyto(shifted, 1.0, where=zero)
    rising = shifted.cumprod(axis=0)
    inverse = 1.0 / shifted
    np.copyto(inverse, 0.0, where=zero)
    d_rising = rising * inverse.cumsum(axis=0)
    after = np.logical_or.accumulate(zero, axis=0)
    np.copyto(d_rising, rising, where=after)
    np.copyto(rising, 0.0, where=after)
    rising, d_rising = rising[::2], d_rising[::2]

    # Row j holds the coefficients of N^-s in the j-th term and in its
    # derivative, before the derivative of N^-s itself: N/(s-1) and
    # -N/(s-1)^2 for the integral term, 1/2 and 0 for the half-term, then
    # B_2k/(2k)! N^(1-2k) times (s)_{2k-1} and (s)'_{2k-1}, k = 1..K+1.
    terms = np.empty((K + 3, 2, size), dtype=np.complex128)
    terms[0, 0] = N * inv
    terms[0, 1] = -inv * terms[0, 0]
    terms[1, 0] = 0.5
    terms[1, 1] = 0.0
    scale = _COEFF[1 : K + 2, None] * N ** _ODD_POWERS[: K + 1]
    np.multiply(rising, scale, out=terms[2:, 0])
    np.multiply(d_rising, scale, out=terms[2:, 1])
    # Flat indices of row M + 1, the last that a point sums, for its value and
    # its derivative; row M + 2 is its first omitted correction (k = M + 1).
    last = ((M + 1) * 2 + _PAIR) * size + np.arange(size)
    Npow = np.exp(-s * logN)  # N^-s
    # The first omitted correction times the classical tail factor, and the
    # same bound on its derivative.
    err = np.abs(terms.take(last + 2 * size)) * (fac * np.abs(Npow))
    err[1] += err[0] * logN
    terms[:, 1] -= terms[:, 0] * logN
    terms *= Npow

    value = sums + terms.cumsum(axis=0).take(last)
    # The rounding allowance (module docstring), whose constants are
    # deliberately generous.
    sizes = sizes + np.abs(terms).cumsum(axis=0).take(last)
    err += EPS * (6.0 + (np.abs(s.imag) + 2.0) * logN) * sizes
    return value[0], value[1], err[0], err[1]


def _em_evaluate(
    s: complex, N: int, M: int
) -> tuple[complex, complex, float, float]:
    """Euler-Maclaurin value and s-derivative with error estimates.

    The batch of one of _em_batch.  Returns (z, dz, err_z, err_dz).
    """
    s = np.array([complex(s)])
    M = np.array([M])
    out = _em_batch(s, np.array([N]), M, _tail_factor(s.real, M, s))
    return tuple(a.item() for a in out)


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
    s = np.array(points, dtype=np.complex128)
    parts = []
    for lo in range(0, s.size, _POINTS):
        part = s[lo : lo + _POINTS]
        parts.append(_em_batch(part, *_em_params_batch(part, DEFAULT_TARGET_EPS)))
    return parts[0] if len(parts) == 1 else tuple(np.concatenate(a) for a in zip(*parts))
