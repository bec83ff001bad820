"""Residues at the zeta zeros and the smoothed auxiliary trigonometric polynomial.

For an exponent alpha in [0, 1] and a frequency cutoff T, the polynomial is

    A(u) = r0(alpha) + 2 Re sum_{0 < gamma_n < T} r_n (1 - gamma_n / T) e^{i gamma_n u},

where the constant term is

    r0(alpha) = 1 / ((1 - 2 alpha) zeta(1/2))        for 0 <= alpha < 1/2 and alpha = 1,
                1 / ((1 - 2 alpha) zeta(1/2)) + 1    for 1/2 < alpha < 1,
                euler_gamma / zeta(1/2)              for alpha = 1/2,

and the oscillating coefficients are the residues

    r_n = zeta(1 + 2 i gamma_n) / ((1/2 - alpha + i gamma_n) zeta'(1/2 + i gamma_n)),

assuming all zeros are simple.  residue_batch evaluates the residues of a
sequence of ordinates, and their error estimates, as arrays from one
zeta.zeta_batch call over the points 1/2 + i gamma_n and 1 + 2 i gamma_n;
residue_rn is its batch of one.  AuxPolynomial keeps the terms as read-only
arrays from the build to the scan, and derives their weights from T.

The triangular factor (1 - gamma_n / T) is the Fejer-style smoothing weight;
it lies in (0, 1] and decreases with gamma_n.  Large positive values of A(u)
suggest sign failures of the weighted running sums near X = e^u, which is
why the scanner records e^u alongside each extremum.

Caveats, deliberate and documented: the alpha = 1/2 constant term keeps only
the leading-order residue euler_gamma / zeta(1/2); a full expansion of the
underlying double pole would add a zeta'(1/2)-dependent contribution.  For
1/2 < alpha < 1 the "+1" from the pole at the origin is folded into the same
constant even though the two contributions decay differently in u.  Both
choices follow the classical construction as printed.

Grid scans use a blocked phase table.  With c_n = 2 w_n r_n (w_n the
smoothing weight), step h and block heads u_k spaced R = _BLOCK grid points
apart, the R points u_k + j h of a block satisfy

    A(u_k + j h) = r0 + Re sum_n E[j, n] V[n, k],
    E[j, n] = exp(i gamma_n j h),   V[n, k] = c_n exp(i gamma_n u_k),

so E is built once per scan and the heads of a chunk of grid points cost
one complex matrix product.  Every phase comes straight from an exponential,
so nothing drifts along the grid.

Error of a scanned value against the exact A(u) at the reported grid point
u (a binary64 number; the stored ordinates are taken as exact), with
eps = 2^-52 and N terms:

    |computed - A(u)| <= sum_n 2 w_n residue_err_n
                         + eps * sum_n 2 w_n |r_n| (3 gamma_n u + N + 5)
                         + eps |r0|.

- Residues: each r_n is known to within residue_err_n, which moves the
  n-th term by at most 2 w_n residue_err_n.
- Phases: a grid point is fl(u_lo + fl(m h)), two roundings of nonnegative
  numbers, so it lies within eps (u_lo + m h) of its exact value.  The head
  u_k, the offset fl(j h) and the reported u therefore differ from exact
  values by at most eps u_k, eps j h / 2 and eps u, and the two products
  gamma_n u_k and gamma_n fl(j h) round by eps gamma_n u / 2 together: the
  evaluated phase is within 2.5 eps gamma_n u of gamma_n u.  As
  |e^{ia} - e^{ib}| <= |a - b|, the n-th term moves by at most
  2 w_n |r_n| 2.5 eps gamma_n u, rounded up to 3 above.
- Arithmetic: c_n, the two exponentials (within a few ulp) and their
  product carry a relative error of at most 4 eps together.  The real part
  of the dot product over n is a sum of 2N real products, which any
  summation order computes to within N eps sum_n |c_n| (to first order).
  Adding r0 rounds once more, by at most eps (|r0| + sum_n |c_n|) / 2.

The phase term grows with u: at u = 1000 over the 1000 bundled zeros
(T = 1420, alpha = 1/2) it is 2.1e-10, against 1.9e-11 for the residues and
3.7e-13 for the arithmetic.

AuxPolynomial is immutable after build; evaluate_at, the scalar reference,
is pure.  scan_u evaluates the grid in chunks of _CHUNK points and carries
the last point of each chunk into the next, so a sign change across a chunk
boundary is found by the same test as one inside a chunk.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, TextIO

import numpy as np

from .zeros import DEFAULT_VALIDATE_TOL, ZeroTable, _check_ordinate
from .zeta import ComplexValue, zeta, zeta_batch

#: Euler-Mascheroni constant.
EULER_GAMMA = float(np.euler_gamma)

#: Minimum |zeta'(rho)|; below this the simplicity assumption is in doubt.
ZETA_PRIME_FLOOR = 1.0e-6

#: Largest number of grid points a scan will accept.
MAX_GRID_POINTS = 10 ** 9

#: Grid points per phase-table block (rows of E), and grid points per scan
#: chunk, one matrix product.  They bound memory: E holds _BLOCK x N complex
#: values (500 KiB at N = 1000 terms, 2.2 MiB at N = 4500), built in place,
#: and V holds N x (_CHUNK / _BLOCK).  Blocks of 64 take half the head
#: exponentials per grid point, and cut the aux-1000 scan from 32 to 20 ms,
#: but their larger E raised that command's peak RSS by 1.2 MiB (3.7%) on a
#: 2-vCPU guest.
_BLOCK = 32
_CHUNK = 8 * _BLOCK

#: exp(u) overflows binary64 beyond this; X-equivalents are reported as None.
_EXP_MAX = 709.0

AUX_TRACE_HEADER = "u,X_equiv,value"


def _check_alpha(alpha: float) -> None:
    """Raise a ValueError unless alpha lies in [0, 1], where the residues are derived."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


def residue_r0(alpha: float) -> float:
    """Constant term of the auxiliary polynomial.

    Args:
        alpha: exponent in [0, 1]

    Returns:
        r0(alpha) per the case split in the module docstring.

    Raises:
        ValueError: alpha outside [0, 1].
    """
    _check_alpha(alpha)
    zh = zeta(0.5).re
    if alpha == 0.5:
        return EULER_GAMMA / zh
    base = 1.0 / ((1.0 - 2.0 * alpha) * zh)
    if 0.5 < alpha < 1.0:
        return base + 1.0
    return base


def residue_rn(gamma_n: float, alpha: float) -> ComplexValue:
    """Residue coefficient of the oscillating term at ordinate gamma_n.

    The batch of one of residue_batch, which says what is returned and raised.
    """
    (r,), (err,) = residue_batch([gamma_n], alpha)
    return ComplexValue(float(r.real), float(r.imag), float(err))


def residue_batch(gammas, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Residue coefficients of the oscillating terms at a sequence of ordinates.

    All zeta values come from one zeta_batch call, so each entry equals
    residue_rn at its ordinate, bit for bit.  An ordinate is accepted only
    when |zeta(1/2 + i*gamma_n)| <= zeros.DEFAULT_VALIDATE_TOL, from the same
    evaluation that gives zeta' there.  The ordinates are checked in order
    once all are evaluated, so an error names the first that fails.

    Args:
        gammas: positive ordinates of (simple) critical-line zeros
        alpha: exponent in [0, 1]

    Returns:
        Arrays (residues, errs), one entry per ordinate: the complex
        zeta(1 + 2i*gamma_n) / ((1/2 - alpha + i*gamma_n) * zeta'(1/2 + i*gamma_n))
        and its first-order propagated error estimate.

    Raises:
        ValueError: alpha out of range, an ordinate not positive or not a
            zero ordinate, |zeta'| below the simplicity floor, or a residue
            (or its error estimate) that is not finite.
    """
    _check_alpha(alpha)
    gammas = list(gammas)
    for g in gammas:
        _check_ordinate(g)
    k = len(gammas)
    z, dz, err_z, err_dz = zeta_batch(
        [complex(0.5, g) for g in gammas] + [complex(1.0, 2.0 * g) for g in gammas]
    )
    residual, slope = np.abs(z[:k]), np.abs(dz[:k])
    bad = np.flatnonzero(~(residual <= DEFAULT_VALIDATE_TOL) | (slope < ZETA_PRIME_FLOOR))
    if bad.size:
        i = bad[0]
        if not residual[i] <= DEFAULT_VALIDATE_TOL:
            raise ValueError(
                f"gamma = {gammas[i]!r} is not a zero ordinate: residual "
                f"{residual[i]:.3e} exceeds {DEFAULT_VALIDATE_TOL:.0e}"
            )
        raise ValueError(
            f"|zeta'(1/2 + {gammas[i]!r}i)| = {slope[i]:.3e} below "
            f"{ZETA_PRIME_FLOOR:.0e}; bad ordinate or near-multiple zero"
        )
    num, num_err = z[k:], err_z[k:]
    r = num / ((0.5 - alpha + 1j * np.array(gammas)) * dz[:k])
    rel = num_err / np.maximum(np.abs(num), 1e-300) + err_dz[:k] / slope
    err = np.abs(r) * rel
    bad = np.flatnonzero(~(np.isfinite(r) & np.isfinite(err)))
    if bad.size:
        raise ValueError(f"residue at gamma = {gammas[bad[0]]!r} is not finite")
    return r, err


@dataclass(frozen=True, eq=False)
class AuxPolynomial:
    """Precomputed auxiliary polynomial, immutable after build; its terms are read-only arrays.

    Attributes:
        alpha: exponent in [0, 1]
        cutoff: frequency cutoff T
        r0: constant term
        gammas: the ordinates 0 < gamma_n < T, increasing (float64)
        residues, residue_errs: their residues r_n and error estimates
            (complex128, float64)
        weights: 1 - gamma_n / T (float64), derived from the cutoff
    """

    alpha: float
    cutoff: float
    r0: float
    gammas: np.ndarray
    residues: np.ndarray
    residue_errs: np.ndarray
    weights: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        g = np.array(self.gammas, dtype=np.float64)
        bad = np.flatnonzero(~((np.concatenate(([0.0], g[:-1])) < g) & (g < self.cutoff)))
        if bad.size:
            raise ValueError(f"term ordinate {g[bad[0]].item()!r} out of order or >= cutoff")
        arrays = {
            "gammas": g,
            "residues": np.array(self.residues, dtype=np.complex128),
            "residue_errs": np.array(self.residue_errs, dtype=np.float64),
            "weights": 1.0 - g / self.cutoff,
        }
        for name, a in arrays.items():
            a.flags.writeable = False
            object.__setattr__(self, name, a)


def build_polynomial(zeros: ZeroTable, T: float, alpha: float) -> AuxPolynomial:
    """Assemble the polynomial from a zero table, cutoff, and exponent.

    Keeps exactly the ordinates with 0 < gamma_n < T (strict), each weighted
    by 1 - gamma_n / T.

    Args:
        zeros: ordinate table; residue_batch rejects an entry that is not a zero
        T: positive frequency cutoff
        alpha: exponent in [0, 1]

    Returns:
        AuxPolynomial ready for evaluation at any u.

    Raises:
        ValueError: T <= 0, alpha out of range, or a residue failure
            (identified by its ordinate).

    Warns:
        UserWarning: when T exceeds the largest loaded ordinate, so the
            truncation is silently coarser than requested.
    """
    if not T > 0.0:
        raise ValueError(f"cutoff T must be positive, got {T}")
    r0 = residue_r0(alpha)
    if T > zeros.gammas[-1] + 1.0:
        warnings.warn(
            f"cutoff T={T} exceeds table coverage (largest ordinate "
            f"{zeros.gammas[-1]}); terms above the table are missing",
            stacklevel=2,
        )
    gammas = zeros.below(T)
    residues, errs = residue_batch(gammas, alpha)
    return AuxPolynomial(
        alpha=alpha, cutoff=T, r0=r0, gammas=gammas, residues=residues, residue_errs=errs
    )


def evaluate_at(poly: AuxPolynomial, u: float) -> float:
    """Evaluate the polynomial at a single point.

    Computes r0 + 2 * sum weight * Re(residue * e^{i gamma u}) with
    compensated summation; the result is exactly real by construction.

    Args:
        poly: the polynomial
        u: finite evaluation point, >= 0

    Returns:
        The real value A(u).
    """
    if not (math.isfinite(u) and u >= 0.0):
        raise ValueError(f"u must be finite and >= 0, got {u}")
    parts = [poly.r0]
    for g, r, w in zip(poly.gammas.tolist(), poly.residues.tolist(), poly.weights.tolist()):
        parts.append(2.0 * w * (r * cmath.exp(1j * g * u)).real)
    return math.fsum(parts)


@dataclass(frozen=True)
class ScanExtremum:
    """Value and location of a scan extremum, with the X = e^u equivalent."""

    u: float
    value: float
    x_equiv: Optional[float]


@dataclass(frozen=True)
class UScanReport:
    """Grid-scan summary: extrema and sign-change intervals.

    sign_changes lists consecutive grid intervals (u_i, u_{i+1}) on which the
    value crosses zero strictly; a grid point evaluating to exactly 0.0 is
    reported as the degenerate interval (u_i, u_i).
    """

    alpha: float
    cutoff: float
    u_lo: float
    u_hi: float
    step: float
    n_points: int
    maximum: ScanExtremum
    minimum: ScanExtremum
    sign_changes: tuple[tuple[float, float], ...]

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["max"], d["min"] = d.pop("maximum"), d.pop("minimum")
        return d


def _x_equiv(u: float) -> Optional[float]:
    return math.exp(u) if u <= _EXP_MAX else None


def _extremum(us: np.ndarray, vs: np.ndarray, i: int) -> ScanExtremum:
    u = float(us[i])
    return ScanExtremum(u=u, value=float(vs[i]), x_equiv=_x_equiv(u))


def scan_u(
    poly: AuxPolynomial,
    u_lo: float,
    u_hi: float,
    step: float,
    *,
    trace: Optional[TextIO] = None,
) -> UScanReport:
    """Evaluate the polynomial on a uniform grid and summarize.

    The grid is u_lo, u_lo + step, ... up to and including the last point
    <= u_hi (a single point when step exceeds the range).  Evaluation is
    chunked, so memory stays constant for any grid size.  Each chunk goes
    through the blocked phase table of the module docstring, one complex
    matrix product per chunk of _CHUNK grid points; every value is within

        sum_n 2 w_n residue_err_n
        + eps * (sum_n 2 w_n |r_n| (3 gamma_n u + N + 5) + |r0|)

    of the exact A(u) at its grid point u (eps = 2^-52, N terms; derived in
    the module docstring).

    Args:
        poly: the polynomial
        u_lo, u_hi: finite scan range, 0 <= u_lo < u_hi
        step: finite positive grid spacing
        trace: optional open text stream; every grid point is written as a
            CSV row "u,X_equiv,value" at full precision

    Returns:
        UScanReport with global extrema (earliest u on ties), their X = e^u
        equivalents, and all sign-change intervals.

    Raises:
        ValueError: non-finite or negative range, non-finite or
            non-positive step, or a grid larger than 1e9 points.
    """
    if not all(math.isfinite(v) for v in (u_lo, u_hi, step)):
        raise ValueError(f"u range and step must be finite, got [{u_lo}, {u_hi}] step {step}")
    if u_lo < 0.0:
        raise ValueError(f"u_lo must be >= 0, got {u_lo}")
    if not (u_lo < u_hi):
        raise ValueError(f"need u_lo < u_hi, got [{u_lo}, {u_hi}]")
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    span = (u_hi - u_lo) / step  # inf when the step underflows the range
    if span >= MAX_GRID_POINTS:
        raise ValueError(f"grid of {span + 1:.0f} points exceeds the cap {MAX_GRID_POINTS}")
    # the points u_lo + m * step <= u_hi; the rounded span can miss the last by one
    n_points = int(span) + 1
    if u_lo + n_points * step <= u_hi:
        n_points += 1
    elif u_lo + (n_points - 1) * step > u_hi:
        n_points -= 1

    gammas = poly.gammas
    coeffs = 2.0 * poly.weights * poly.residues
    table = np.zeros((_BLOCK, gammas.size), dtype=np.complex128)
    np.multiply.outer(np.arange(_BLOCK) * step, gammas, out=table.imag)
    np.exp(table, out=table)

    if trace is not None:
        trace.write(AUX_TRACE_HEADER + "\n")

    # a chunk replaces an extreme only when strictly beyond it: earliest u on ties
    maximum = ScanExtremum(u=u_lo, value=-math.inf, x_equiv=_x_equiv(u_lo))
    minimum = ScanExtremum(u=u_lo, value=math.inf, x_equiv=_x_equiv(u_lo))
    changes: list[tuple[float, float]] = []
    # the previous chunk's last grid point (none before the first chunk)
    last_u = last_v = np.empty(0)

    for start in range(0, n_points, _CHUNK):
        count = min(_CHUNK, n_points - start)
        idx = np.arange(start, start + count, dtype=np.float64)
        us = u_lo + idx * step
        # the phase table times V over the chunk's block heads (module docstring)
        v = 1j * np.multiply.outer(gammas, us[::_BLOCK])
        np.exp(v, out=v)
        v *= coeffs[:, None]
        vs = poly.r0 + (table @ v).real.T.ravel()[:count]

        i_max = int(np.argmax(vs))
        if vs[i_max] > maximum.value:
            maximum = _extremum(us, vs, i_max)
        i_min = int(np.argmin(vs))
        if vs[i_min] < minimum.value:
            minimum = _extremum(us, vs, i_min)

        # Strict sign flips between consecutive points, the carried point first.
        su = np.concatenate((last_u, us))
        s = np.sign(np.concatenate((last_v, vs)))
        flips = np.flatnonzero(s[:-1] * s[1:] < 0.0)
        changes.extend(zip(su[flips].tolist(), su[flips + 1].tolist()))
        changes.extend((u, u) for u in us[vs == 0.0].tolist())

        if trace is not None:
            for u, v in zip(us.tolist(), vs.tolist()):
                x = _x_equiv(u)
                trace.write(f"{u!r},{'' if x is None else repr(x)},{v!r}\n")

        last_u, last_v = us[-1:], vs[-1:]

    return UScanReport(
        alpha=poly.alpha,
        cutoff=poly.cutoff,
        u_lo=u_lo,
        u_hi=u_hi,
        step=step,
        n_points=n_points,
        maximum=maximum,
        minimum=minimum,
        sign_changes=tuple(sorted(changes)),
    )
