"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 3's full-scale crossing scan takes on the order of a minute and is
disabled by default; enable it with:

    pytest tests/test_acceptance.py --run-polya-crossing
"""

import cmath
import csv
import math
import random
import time

import numpy as np
import pytest

from liouville_sums.aux_poly import (
    AuxPolynomial,
    build_polynomial,
    evaluate_at,
    residue_r0,
    scan_u,
)
from liouville_sums.cli import EXIT_OK, main
from liouville_sums.liouville import lambda_at, sieve_segment, stream_lambda_range
from liouville_sums.partial_sum import (
    Sign,
    SumState,
    accumulate,
    euler_product_value,
    evaluate,
    scan_sign,
)
from liouville_sums.zeros import ZeroTable, bundled_zero_table, refine_zero, validate_zero
from liouville_sums.zeta import zeta, zeta_prime

import oracles


def test_criterion_1_conjectured_range_via_cli(acceptance_log):
    t0 = time.monotonic()
    rc = main(
        ["verify", "--alpha", "0.5", "--from", "17", "--to", "300001", "--sign", "nonpositive"]
    )
    elapsed = time.monotonic() - t0
    ok = rc == EXIT_OK and elapsed < 10.0
    acceptance_log.record(
        "1 (nonpositivity of L(X, 1/2) on 17..300001)",
        ok,
        f"exit={rc}, {elapsed:.2f}s",
    )
    assert rc == EXIT_OK
    assert elapsed < 10.0


def test_criterion_2_threshold_sharpness(acceptance_log):
    v16, e16 = evaluate(16, 0.5)
    v17, e17 = evaluate(17, 0.5)
    ok = (
        v16 - e16 > 0
        and v17 + e17 <= 0
        and abs(v16 - oracles.L_16_HALF) <= e16
        and abs(v17 - oracles.L_17_HALF) <= e17
    )
    acceptance_log.record(
        "2 (threshold: L(16)>0, L(17)<=0, beyond err_bound)",
        ok,
        f"L(16)={v16:.9f}+-{e16:.1e}, L(17)={v17:.9f}+-{e17:.1e}",
    )
    assert ok


@pytest.mark.gated
def test_criterion_3_first_crossing_full_scale(acceptance_log):
    rep = scan_sign(2, 906_200_000, 0.0, Sign.NONPOSITIVE)
    expected_first = 906_150_257
    ok = rep.first_violation == expected_first
    acceptance_log.record(
        "3 (first crossing of L(X) > 0 at X = 906,150,257)",
        ok,
        f"found first violation at X={rep.first_violation}",
    )
    assert rep.first_violation is not None, "no crossing found at all"
    assert rep.first_violation == expected_first, (
        f"first crossing observed at X={rep.first_violation}, "
        f"not at the expected X={expected_first}"
    )


def test_criterion_3_default_scale(acceptance_log):
    t0 = time.monotonic()
    rep = scan_sign(2, 10 ** 8, 0.0, Sign.NONPOSITIVE)
    elapsed = time.monotonic() - t0
    ok = rep.violations == 0 and rep.indeterminate == 0 and elapsed < 120.0
    acceptance_log.record(
        "3 (default scale: L(X) <= 0 for 2 <= X <= 1e8)",
        ok,
        f"{rep.violations} violations, max={rep.max_value} at X={rep.argmax}, {elapsed:.1f}s",
    )
    assert rep.violations == 0
    assert rep.indeterminate == 0
    assert elapsed < 120.0


def test_criterion_4_turan_substitute(acceptance_log):
    rep = scan_sign(1, 10 ** 8, 1.0, Sign.NONNEGATIVE)
    ok = rep.violations == 0 and rep.indeterminate == 0
    acceptance_log.record(
        "4 (T(X) >= 0 for 1 <= X <= 1e8)",
        ok,
        f"{rep.violations} violations, min={rep.min_value:.3e} at X={rep.argmin}",
    )
    assert rep.violations == 0
    assert rep.indeterminate == 0


def test_criterion_5_identity_suite(acceptance_log):
    sum_value, sum_err = evaluate(10 ** 6, 2.0)
    sum_diff = abs(sum_value - oracles.PI2_OVER_15)
    prod_value, prod_tail = euler_product_value(2.0, 10 ** 6)
    prod_diff = abs(prod_value - oracles.PI2_OVER_15)
    ok = sum_diff < 1e-5 and prod_diff <= prod_tail
    acceptance_log.record(
        "5 (Dirichlet-series and Euler-product identities at alpha=2)",
        ok,
        f"|sum - pi^2/15|={sum_diff:.2e}, |product - pi^2/15|={prod_diff:.2e} <= {prod_tail:.0e}",
    )
    assert sum_diff < 1e-5
    assert prod_diff <= prod_tail


def test_criterion_6_zeta_accuracy(acceptance_log):
    closed = [
        abs(zeta(2).value - math.pi ** 2 / 6),
        abs(zeta(4).value - math.pi ** 4 / 90),
        abs(zeta(0).value - (-0.5)),
        abs(zeta_prime(0).value - (-0.5 * math.log(2 * math.pi))),
    ]
    half_diff = abs(zeta(0.5).value - oracles.ZETA_HALF)
    s1 = complex(1.0, 2 * oracles.GAMMA_1)
    line_diff = abs(zeta(s1).value - oracles.ZETA_1_P_2I_GAMMA1)

    rng = random.Random(1234)
    fd_worst = 0.0
    h = 1e-6
    checked = 0
    while checked < 20:
        s = complex(rng.uniform(0.3, 3.0), rng.uniform(-50.0, 50.0))
        if abs(s - 1) < 0.05:
            continue
        fd = (zeta(s + h).value - zeta(s - h).value) / (2 * h)
        fd_worst = max(fd_worst, abs(zeta_prime(s).value - fd))
        checked += 1

    ok = max(closed) < 1e-12 and half_diff < 1e-9 and line_diff < 1e-9 and fd_worst < 1e-6
    acceptance_log.record(
        "6 (zeta accuracy: closed forms, oracles, finite differences)",
        ok,
        f"closed<{max(closed):.1e}, zeta(1/2) diff={half_diff:.1e}, "
        f"zeta(1+2i*g1) diff={line_diff:.1e}, FD worst={fd_worst:.1e}",
    )
    assert max(closed) < 1e-12
    assert half_diff < 1e-9
    assert line_diff < 1e-9
    assert fd_worst < 1e-6


def test_criterion_7_zero_pipeline(acceptance_log):
    table = bundled_zero_table()
    residuals = [validate_zero(g, 1e-3) for g in table.gammas[:100]]
    all_valid = all(r.passed for r in residuals)
    refined = refine_zero(14.13)
    refine_diff = abs(refined - oracles.GAMMA_1)
    n_below_100 = len(table.below(100.0))
    ok = all_valid and refine_diff < 1e-8 and n_below_100 == 29
    acceptance_log.record(
        "7 (zero pipeline: validation, refinement, counting)",
        ok,
        f"worst residual={max(r.residual for r in residuals):.1e}, "
        f"|refine(14.13) - gamma1|={refine_diff:.1e}, zeros below 100: {n_below_100}",
    )
    assert all_valid
    assert refine_diff < 1e-8
    assert n_below_100 == 29


def test_criterion_8_aux_polynomial(acceptance_log):
    table = bundled_zero_table()
    t100 = ZeroTable(
        gammas=table.gammas[:100], source=table.source, stated_precision=table.stated_precision
    )
    poly = build_polynomial(t100, t100.gammas[-1], 0.5)

    rng = random.Random(8)
    fold_worst = 0.0
    for _ in range(1000):
        u = rng.uniform(0.0, 500.0)
        folded = evaluate_at(poly, u)
        paired = poly.r0 + math.fsum(
            (w * r * cmath.exp(1j * g * u) + w * r.conjugate() * cmath.exp(-1j * g * u)).real
            for g, r, w in zip(poly.gammas.tolist(), poly.residues.tolist(), poly.weights.tolist())
        )
        fold_worst = max(fold_worst, abs(folded - paired))

    rep = scan_u(poly, 0.0, 60.0, 0.01)
    reeval_max = abs(evaluate_at(poly, rep.maximum.u) - rep.maximum.value)
    reeval_min = abs(evaluate_at(poly, rep.minimum.u) - rep.minimum.value)

    const = AuxPolynomial(
        alpha=0.5, cutoff=5.0, r0=residue_r0(0.5), gammas=(), residues=(), residue_errs=()
    )
    const_exact = evaluate_at(const, 17.0) == const.r0

    r0_diffs = [
        abs(residue_r0(0.0) - oracles.R0_AT_0),
        abs(residue_r0(0.5) - oracles.R0_AT_HALF),
        abs(residue_r0(0.75) - oracles.R0_AT_3_QUARTERS),
        abs(residue_r0(1.0) - oracles.R0_AT_1),
    ]

    ok = (
        fold_worst < 1e-12
        and reeval_max < 1e-10
        and reeval_min < 1e-10
        and const_exact
        and max(r0_diffs) < 1e-9
    )
    acceptance_log.record(
        "8 (auxiliary polynomial: folding, extrema, constant term)",
        ok,
        f"fold worst={fold_worst:.1e}, re-eval<{max(reeval_max, reeval_min):.1e}, "
        f"r0 diffs<{max(r0_diffs):.1e}",
    )
    assert fold_worst < 1e-12
    assert reeval_max < 1e-10 and reeval_min < 1e-10
    assert const_exact
    assert max(r0_diffs) < 1e-9


class TestCriterion9PropertySuites:
    def test_multiplicativity_ten_thousand_pairs(self, acceptance_log):
        rng = random.Random(90210)
        failures = 0
        for _ in range(10_000):
            m = rng.randint(1, 10 ** 5)
            n = rng.randint(1, 10 ** 5)
            if lambda_at(m * n) != lambda_at(m) * lambda_at(n):
                failures += 1
        acceptance_log.record(
            "9a (complete multiplicativity, 1e4 random pairs)", failures == 0,
            f"{failures} failures",
        )
        assert failures == 0

    def test_square_divisor_sum_identity(self, acceptance_log):
        lam = sieve_segment(1, 10 ** 4).values
        divisor_sums = np.zeros(10 ** 4 + 1, dtype=np.int64)
        for d in range(1, 10 ** 4 + 1):
            divisor_sums[d::d] += int(lam[d - 1])
        failures = 0
        for n in range(1, 10 ** 4 + 1):
            expected = 1 if math.isqrt(n) ** 2 == n else 0
            if divisor_sums[n] != expected:
                failures += 1
        acceptance_log.record(
            "9b (square divisor-sum identity, n <= 1e4)", failures == 0, f"{failures} failures"
        )
        assert failures == 0

    def test_sieve_oracle_agreement(self, acceptance_log):
        mismatches = 0
        pos = 0
        for block in stream_lambda_range(1, 10 ** 6, 10 ** 5):
            for value in block.values.tolist():
                pos += 1
                if value != lambda_at(pos):
                    mismatches += 1
        rng = random.Random(31337)
        for _ in range(100):
            lo = rng.randint(1, 10 ** 9 - 1000)
            blk = sieve_segment(lo, lo + 999)
            for i, value in enumerate(blk.values.tolist()):
                if value != lambda_at(lo + i):
                    mismatches += 1
        acceptance_log.record(
            "9c (sieve vs trial-division oracle, 1..1e6 and 100 high windows)",
            mismatches == 0,
            f"{mismatches} mismatches",
        )
        assert mismatches == 0

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0])
    def test_error_bound_soundness_50_digits(self, alpha, acceptance_log):
        x_max = 10 ** 5
        lam = sieve_segment(1, x_max).values
        state = SumState(alpha=alpha)
        worst_ratio = 0.0
        failures = 0
        oracle = oracles.hp_running_sums(lam.tolist(), alpha)
        for lo in range(1, x_max, 1000):
            accumulate(state, sieve_segment(lo, lo + 999))
            exact = None
            for n, acc in oracle:
                if n == state.upto:
                    exact = float(acc)
                    break
            diff = abs(state.total() - exact)
            bound = state.err_bound
            if alpha == 0.0:
                if diff != 0.0:
                    failures += 1
            else:
                worst_ratio = max(worst_ratio, diff / bound)
                if diff > bound:
                    failures += 1
        acceptance_log.record(
            f"9d (err_bound soundness vs 50-digit oracle, alpha={alpha})",
            failures == 0,
            f"worst diff/bound = {worst_ratio:.3f}" if alpha else "exact",
        )
        assert failures == 0
