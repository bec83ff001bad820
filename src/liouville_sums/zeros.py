"""Tables of critical-line zeta zero ordinates: loading, validation, refinement.

A ZeroTable holds the positive ordinates gamma_n of zeros 1/2 + i*gamma_n in
strictly increasing order.  Negative ordinates are never stored; consumers
fold them in via conjugate symmetry.  Zeros are assumed simple throughout.

The package bundles the first 1000 ordinates at 12 decimal places
(data/zeta_zeros_1000.txt, regenerated by scripts/generate_zero_table.py);
zeros are never computed from scratch here, only locally refined by Newton's
method on t -> zeta(1/2 + it), whose step works on each seed on its own.

File format (stable contract): UTF-8 text, one ordinate in plain decimal per
line (ASCII digits, optionally a point and more digits: no sign, exponent or
digit separators), optional '#'-prefixed comment lines, blank lines ignored,
no locale-dependent separators.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterator, Union

from .zeta import SUPPORTED_IM_MAX, zeta, zeta_with_prime

#: An ordinate as the file format writes it: a plain decimal.
_PLAIN_DECIMAL = re.compile(r"[0-9]+(?:\.[0-9]+)?")

#: Any genuine table starts at the first ordinate, which lies in this window.
FIRST_ORDINATE_WINDOW = (14.0, 14.3)

#: Residual |zeta(1/2 + i*gamma)| up to which an ordinate counts as a zero:
#: validate_zero's default, and aux_poly.residue_batch's acceptance threshold.
DEFAULT_VALIDATE_TOL = 1.0e-3

#: A refined ordinate must lie within this distance of its seed.
REFINE_HALF_WIDTH = 0.05

#: Cap on refine_zero's Newton steps; seeds up to 0.049 from any of the
#: first 1000 zeros take 1-6.
REFINE_MAX_STEPS = 8

#: Residual ceiling after refinement; above it the seed was not near a zero.
REFINE_RESIDUAL_TOL = 1.0e-6


@dataclass(frozen=True)
class ZeroTable:
    """Ordered positive ordinates of critical-line zeros, with provenance.

    Attributes:
        gammas: strictly increasing positive ordinates
        source: where the table came from (path or description)
        stated_precision: decimal places claimed by the source
    """

    gammas: tuple[float, ...]
    source: str
    stated_precision: int

    def __post_init__(self) -> None:
        if not self.gammas:
            raise ValueError("zero table is empty")
        prev = 0.0
        for i, g in enumerate(self.gammas):
            if not (g > prev):
                raise ValueError(
                    f"ordinates must be positive and strictly increasing; "
                    f"entry {i + 1} is {g!r} after {prev!r}"
                )
            prev = g
        lo, hi = FIRST_ORDINATE_WINDOW
        if not (lo < self.gammas[0] < hi):
            raise ValueError(
                f"first ordinate {self.gammas[0]!r} outside the sanity window "
                f"({lo}, {hi}); a genuine table starts at the first zero"
            )
        if self.gammas[-1] > SUPPORTED_IM_MAX:
            raise ValueError(
                f"ordinate {self.gammas[-1]!r} exceeds the supported height "
                f"{SUPPORTED_IM_MAX}"
            )

    def __len__(self) -> int:
        return len(self.gammas)

    def __iter__(self) -> Iterator[float]:
        return iter(self.gammas)

    def below(self, cutoff: float) -> tuple[float, ...]:
        """Ordinates strictly below the cutoff."""
        return tuple(g for g in self.gammas if g < cutoff)


def load_zeros(path: Union[str, Path]) -> ZeroTable:
    """Parse a zero-ordinate table from a text file.

    Args:
        path: file with one plain decimal ordinate per line; '#' comments
            and blank lines are allowed.

    Returns:
        Validated ZeroTable with the file path as source and the minimum
        number of decimal places seen as stated_precision.

    Raises:
        ValueError: a line that is not a plain decimal (with its line
            number), non-increasing or non-positive sequence, or an empty
            table.
        OSError: unreadable file.
    """
    path = Path(path)
    gammas: list[float] = []
    min_decimals: int | None = None
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                value = float(line)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed ordinate {line!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"{path}:{lineno}: non-finite ordinate {line!r}")
            if not _PLAIN_DECIMAL.fullmatch(line):
                raise ValueError(f"{path}:{lineno}: malformed ordinate {line!r}")
            decimals = len(line.split(".", 1)[1]) if "." in line else 0
            min_decimals = decimals if min_decimals is None else min(min_decimals, decimals)
            if gammas and value <= gammas[-1]:
                raise ValueError(
                    f"{path}:{lineno}: ordinate {value!r} does not increase "
                    f"past {gammas[-1]!r}"
                )
            gammas.append(value)
    if not gammas:
        raise ValueError(f"{path}: no ordinates found")
    return ZeroTable(
        gammas=tuple(gammas),
        source=str(path),
        stated_precision=min_decimals or 0,
    )


@lru_cache(maxsize=1)
def bundled_zero_table() -> ZeroTable:
    """The table of the first 1000 ordinates shipped with the package."""
    ref = resources.files("liouville_sums").joinpath("data/zeta_zeros_1000.txt")
    with resources.as_file(ref) as path:
        return replace(load_zeros(path), source="bundled:zeta_zeros_1000.txt")


@dataclass(frozen=True)
class ValidationResult:
    """Residual of a claimed ordinate and its pass/fail at a tolerance."""

    gamma: float
    residual: float
    tol: float
    passed: bool


def _check_ordinate(gamma: float) -> None:
    """Raise ValueError unless gamma > 0 (NaN fails too)."""
    if not gamma > 0:
        raise ValueError(f"ordinate must be positive, got {gamma}")


def validate_zero(gamma: float, tol: float = DEFAULT_VALIDATE_TOL) -> ValidationResult:
    """Check how close 1/2 + i*gamma is to an actual zero.

    Args:
        gamma: claimed ordinate, 0 < gamma <= supported height
        tol: residual threshold for the pass flag

    Returns:
        ValidationResult with residual = |zeta(1/2 + i*gamma)|.
    """
    _check_ordinate(gamma)
    residual = abs(zeta(complex(0.5, gamma)).value)
    return ValidationResult(gamma=gamma, residual=residual, tol=tol, passed=residual <= tol)


def refine_zero(gamma0: float) -> float:
    """Refine an approximate ordinate to nearly full double precision.

    Newton's method on t -> zeta(1/2 + it), whose derivative is i*zeta': one
    zeta_with_prime call per step gives both, and the step is
    t <- t - Im(zeta/zeta').  It stops once |step| <= err(zeta)/|zeta'|, the
    step's own uncertainty from zeta's error estimate, or after
    REFINE_MAX_STEPS steps.  Only the result is held to the seed's window:
    an early step may overshoot it and still converge to the zero inside.

    Args:
        gamma0: seed ordinate, within 0.05 of a true ordinate

    Returns:
        The refined ordinate.

    Raises:
        ValueError: if the result lies more than 0.05 from gamma0 or its
            residual exceeds 1e-6 (the seed was not near a zero), gamma0 is
            not positive, or a step reaches above the height zeta supports.
    """
    _check_ordinate(gamma0)
    t = gamma0
    for _ in range(REFINE_MAX_STEPS):
        z, dz = zeta_with_prime(complex(0.5, t))
        step = (z.value / dz.value).imag
        t -= step
        if abs(step) <= z.err / abs(dz.value):
            break
    if not abs(t - gamma0) <= REFINE_HALF_WIDTH:
        raise ValueError(
            f"no zero near {gamma0}: Newton's method reached {t!r}, more than "
            f"{REFINE_HALF_WIDTH} away"
        )
    check = validate_zero(t, REFINE_RESIDUAL_TOL)
    if not check.passed:
        raise ValueError(
            f"no zero near {gamma0}: residual {check.residual:.3e} after refinement "
            f"exceeds {REFINE_RESIDUAL_TOL:.0e}"
        )
    return t
