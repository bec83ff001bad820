"""Workloads of the liouville-sums benchmark and the checks on their outputs.

Each workload is one fixed CLI command whose correct output is known. The
commands write their artifacts under fixed names inside the invocation's own
working directory, so a check reads them from there.

Integer fields are compared exactly. Float fields are compared against a
tolerance derived from the error bound the producing module documents, so a
correct but bit-different summation or evaluator still passes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

REPORT = "report.json"
TRACE = "trace.csv"
CHECKPOINT = "checkpoint.json"

#: binary64 machine epsilon, as partial_sum.EPS.
EPS = 2.0 ** -52

#: Largest in-block index j of the scan's per-X bound (the default sieve
#: segment, liouville.DEFAULT_SEGMENT_SIZE).
SEGMENT = 1 << 20

#: Absolute tolerance on A(u) and r0. The terms' propagated residue errors
#: sum to 4.4e-11 (sum of 2 w_n residue_err_n over the 1000 bundled zeros at
#: T = 1420, alpha = 1/2); rounding of the phase gamma_n * u at u <= 1000 adds
#: at most sum 2 w_n |r_n| gamma_n u eps = 7.1e-11, and summing 1000 terms of
#: total magnitude 1.68 adds under 1e-12. Two correct evaluators can then
#: differ by 2 * 1.2e-10; the tolerance keeps a factor 4 above that.
AUX_TOL = 1.0e-9


def _term_error_constant(alpha: float, x: int) -> float:
    """K(alpha) of partial_sum: per-term relative error of n^-alpha in eps."""
    if alpha in (0.5, 1.0):
        return 1.0
    return 2.0 + 2.0 * alpha * max(1.0, math.log(x))


def _abs_sum_bound(alpha: float, x: int) -> float:
    """Upper bound on S(X) = sum_{n <= X} n^-alpha, by the integral test."""
    if alpha == 1.0:
        return 1.0 + math.log(x)
    return 1.0 + (x ** (1.0 - alpha) - 1.0) / (1.0 - alpha)


def scan_tolerance(alpha: float, x: int, value: float) -> float:
    """Largest honest difference between two correct scan values at X.

    partial_sum documents the per-X bound as the carried bound
    eps (K + 4) S(X) plus the in-block bound eps ((j + 1 + K) S(X) + |L|),
    with j at most one segment. The reference value and the measured value
    may each sit anywhere inside it, hence the factor 2. At alpha = 0 all
    arithmetic is exact and the tolerance is 0.
    """
    if alpha == 0.0:
        return 0.0
    k = _term_error_constant(alpha, x)
    return 2.0 * EPS * ((SEGMENT + 5.0 + 2.0 * k) * _abs_sum_bound(alpha, x) + abs(value))


def load_report(workdir: Path) -> dict:
    with open(workdir / REPORT, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class VerifyExpect:
    """Known outcome of a clean `verify` scan over [x_lo, x_hi]."""

    alpha: float
    x_lo: int
    x_hi: int
    argmin: int
    min_value: float
    argmax: int
    max_value: float
    #: sampled trace rows, header excluded, when the command writes a trace
    trace_rows: Optional[int] = None
    #: (X, value) of the last trace row
    trace_last: Optional[tuple[int, float]] = None

    @property
    def items(self) -> int:
        """Integers classified by one invocation."""
        return self.x_hi - self.x_lo + 1

    def check(self, workdir: Path, exit_code: int) -> list[str]:
        if exit_code != 0:
            return [f"exit code {exit_code}, want 0"]
        r = load_report(workdir)["report"]
        problems = _mismatches(
            r,
            {
                "checked": self.items,
                "violations": 0,
                "indeterminate": 0,
                "first_violation": None,
                "argmin": self.argmin,
                "argmax": self.argmax,
            },
        )
        for key, x, want in (("min_value", self.argmin, self.min_value), ("max_value", self.argmax, self.max_value)):
            problems += _float_mismatch(key, r.get(key), want, scan_tolerance(self.alpha, x, want))
        if self.trace_rows is not None:
            problems += self._check_trace(workdir / TRACE)
        return problems

    def _check_trace(self, path: Path) -> list[str]:
        data = path.read_bytes()
        lines = data.rstrip(b"\n").split(b"\n")
        problems = []
        if lines[0] != b"X,alpha,value,err_bound,classification":
            problems.append(f"trace header {lines[0][:80]!r}")
        if len(lines) - 1 != self.trace_rows:
            problems.append(f"trace rows {len(lines) - 1}, want {self.trace_rows}")
        if b",violation" in data or b",indeterminate" in data:
            problems.append("trace holds non-conforming rows")
        if self.trace_last is not None:
            fields = lines[-1].split(b",")
            x, want = self.trace_last
            if int(fields[0]) != x:
                problems.append(f"last trace row at X={int(fields[0])}, want {x}")
            problems += _float_mismatch(
                "last trace value", float(fields[2]), want, scan_tolerance(self.alpha, x, want)
            )
        return problems


@dataclass(frozen=True)
class AuxExpect:
    """Known outcome of an `aux` grid scan. Extrema are located by grid index."""

    u_lo: float
    step: float
    n_terms: int
    n_points: int
    sign_changes: int
    argmax_index: int
    max_value: float
    argmin_index: int
    min_value: float
    r0: float

    @property
    def items(self) -> int:
        """Grid points times polynomial terms evaluated by one invocation."""
        return self.n_points * self.n_terms

    def check(self, workdir: Path, exit_code: int) -> list[str]:
        if exit_code != 0:
            return [f"exit code {exit_code}, want 0"]
        payload = load_report(workdir)
        r = payload["report"]
        problems = _mismatches(
            {"n_terms": payload.get("n_terms"), "n_points": r.get("n_points"), "sign_changes": len(r.get("sign_changes", ()))},
            {"n_terms": self.n_terms, "n_points": self.n_points, "sign_changes": self.sign_changes},
        )
        problems += _float_mismatch("r0", payload.get("r0"), self.r0, AUX_TOL)
        for key, index, want in (("max", self.argmax_index, self.max_value), ("min", self.argmin_index, self.min_value)):
            u = r[key]["u"]
            got_index = round((u - self.u_lo) / self.step)
            if got_index != index or abs(u - (self.u_lo + index * self.step)) > 1e-6 * self.step:
                problems.append(f"{key} at u={u!r}, want grid point {index}")
            problems += _float_mismatch(f"{key} value", r[key]["value"], want, AUX_TOL)
        return problems


Expect = Union[VerifyExpect, AuxExpect]


def _mismatches(got: dict, want: dict) -> list[str]:
    return [f"{k} = {got.get(k)!r}, want {v!r}" for k, v in want.items() if got.get(k) != v]


def _float_mismatch(key: str, got, want: float, tol: float) -> list[str]:
    if isinstance(got, (int, float)) and abs(got - want) <= tol:
        return []
    return [f"{key} = {got!r}, want {want!r} within {tol:.3g}"]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: CLI arguments and the outcome they must give."""

    name: str
    args: tuple[str, ...]
    expect: Expect


WORKLOADS = {
    w.name: w
    for w in (
        # Exact integer path: the sieve and the carried accumulate do almost
        # all the work.
        Workload(
            "verify-polya",
            ("verify", "--alpha", "0", "--from", "2", "--to", "10000000", "--sign", "nonpositive", "--report", REPORT),
            VerifyExpect(
                alpha=0.0, x_lo=2, x_hi=10_000_000,
                argmin=8_803_471, min_value=-3461.0, argmax=2, max_value=0.0,
            ),
        ),
        # The headline alpha = 1/2 claim on the float path: 1/sqrt(n) terms,
        # prefix sums, per-X error arrays and fsum.
        Workload(
            "verify-half",
            ("verify", "--alpha", "0.5", "--from", "17", "--to", "10000000", "--sign", "nonpositive", "--report", REPORT),
            VerifyExpect(
                alpha=0.5, x_lo=17, x_hi=10_000_000,
                argmin=8_803_471, min_value=-5.440884903904631,
                argmax=26, max_value=-0.1055715094379493,
            ),
        ),
        # The same scan layers while writing 150,001 trace rows (~10 MB) and 2
        # checkpoints beside the compute.
        Workload(
            "verify-turan-io",
            (
                "verify", "--alpha", "1", "--from", "1", "--to", "3000000", "--sign", "nonnegative",
                "--report", REPORT, "--trace", TRACE, "--trace-every", "20",
                "--checkpoint", CHECKPOINT, "--checkpoint-every", "100000",
            ),
            VerifyExpect(
                alpha=1.0, x_lo=1, x_hi=3_000_000,
                argmin=925_985, min_value=5.4651217328169874e-05, argmax=1, max_value=1.0,
                # X = 1 plus every multiple of 20 up to 3e6
                trace_rows=150_001, trace_last=(3_000_000, 0.0004865655950079902),
            ),
        ),
        # aux_poly grid evaluation over all 1000 bundled zeros on 20,001
        # points; the sieve and partial sums are not touched.
        Workload(
            "aux-1000",
            ("aux", "--alpha", "0.5", "--cutoff", "1420", "--u-from", "0", "--u-to", "200", "--step", "0.01", "--report", REPORT),
            AuxExpect(
                u_lo=0.0, step=0.01, n_terms=1000, n_points=20_001, sign_changes=988,
                argmax_index=4_459, max_value=0.28789506276344023,
                argmin_index=18_883, min_value=-1.0951469712853943,
                r0=-0.39525722105111066,
            ),
        ),
    )
}
