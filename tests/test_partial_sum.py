import csv
import dataclasses
import io
import json
import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liouville_sums import liouville, partial_sum
from liouville_sums.liouville import DEFAULT_SEGMENT_SIZE, LambdaBlock, sieve_segment
from liouville_sums.partial_sum import (
    EPS,
    TRACE_HEADER,
    Sign,
    SignReport,
    SumState,
    accumulate,
    euler_product_value,
    evaluate,
    scan_sign,
)

import oracles


class TestSign:
    # (claimed, value, err, violated, holds): a value that touches zero within
    # err is neither, whichever side it lies on
    TABLE = [
        (Sign.NONPOSITIVE, 2.0, 1.0, True, False),
        (Sign.NONPOSITIVE, 1.0, 1.0, False, False),
        (Sign.NONPOSITIVE, 0.5, 1.0, False, False),
        (Sign.NONPOSITIVE, -1.0, 1.0, False, True),
        (Sign.NONPOSITIVE, -2.0, 1.0, False, True),
        (Sign.NONPOSITIVE, 1.0, 0.0, True, False),
        (Sign.NONPOSITIVE, 0.0, 0.0, False, True),
        (Sign.NONPOSITIVE, -1.0, 0.0, False, True),
        (Sign.NONNEGATIVE, -2.0, 1.0, True, False),
        (Sign.NONNEGATIVE, -1.0, 1.0, False, False),
        (Sign.NONNEGATIVE, -0.5, 1.0, False, False),
        (Sign.NONNEGATIVE, 1.0, 1.0, False, True),
        (Sign.NONNEGATIVE, 2.0, 1.0, False, True),
        (Sign.NONNEGATIVE, -1.0, 0.0, True, False),
        (Sign.NONNEGATIVE, 0.0, 0.0, False, True),
        (Sign.NONNEGATIVE, 1.0, 0.0, False, True),
    ]

    @pytest.mark.parametrize("claimed", list(Sign))
    def test_boundary_table(self, claimed):
        rows = [r[1:] for r in self.TABLE if r[0] is claimed]
        for value, err, violated, holds in rows:
            assert claimed.violated(value, err) is violated, (value, err)
            assert claimed.holds(value, err) is holds, (value, err)
        values, errs, violated, holds = (np.array(c) for c in zip(*rows))
        np.testing.assert_array_equal(claimed.violated(values, errs), violated)
        np.testing.assert_array_equal(claimed.holds(values, errs), holds)


class TestAccumulate:
    def test_two_term_arithmetic(self):
        state = SumState(alpha=0.5, upto=1, value=1.0)
        blk = LambdaBlock(lo=2, values=np.array([-1], dtype=np.int8))
        accumulate(state, blk)
        assert state.total() == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-15)
        assert state.upto == 2

    def test_polya_sum_to_ten_is_zero(self):
        state = SumState(alpha=0.0)
        accumulate(state, sieve_segment(1, 10))
        assert state.total() == 0.0
        assert state.err_bound == 0.0

    def test_four_term_harmonic(self):
        state = SumState(alpha=1.0)
        accumulate(state, sieve_segment(1, 4))
        assert state.total() == pytest.approx(1 - 1 / 2 - 1 / 3 + 1 / 4, abs=1e-15)

    def test_rejects_gap_and_overlap(self):
        state = SumState(alpha=0.5)
        accumulate(state, sieve_segment(1, 10))
        with pytest.raises(ValueError, match="non-contiguous"):
            accumulate(state, sieve_segment(12, 20))
        with pytest.raises(ValueError, match="non-contiguous"):
            accumulate(state, sieve_segment(10, 20))

    def test_rejects_block_longer_than_the_segment_cap(self):
        # the Sum2 budget and _block_errmax assume blocks of at most the cap
        values = np.broadcast_to(np.int8(1), liouville.MAX_SEGMENT_SIZE + 1)
        with pytest.raises(ValueError, match="exceeds MAX_SEGMENT_SIZE"):
            accumulate(SumState(alpha=0.5), LambdaBlock(lo=1, values=values))

    def test_segment_cap_within_the_error_budget(self):
        # the module's Sum2 budget (gamma_{N-1}^2 < u/8) and _block_errmax's
        # factor 1 + 2^-25 hold only for blocks of N <= 2^25 terms
        assert liouville.MAX_SEGMENT_SIZE <= 2 ** 25

    def test_initial_state_is_clean(self):
        state = SumState(alpha=0.25)
        assert state.upto == 0
        assert state.total() == 0.0
        assert state.err_bound == 0.0

    def test_err_bound_bounded_by_constant_times_abs_sum(self):
        # the documented compensated-summation bound: err <= c * eps * abs_sum
        for alpha, c in [(0.0, 1.0), (0.5, 5.0), (1.0, 5.0), (0.25, 12.0)]:
            state = SumState(alpha=alpha)
            for blk in (sieve_segment(1, 1000), sieve_segment(1001, 2000)):
                accumulate(state, blk)
            assert state.err_bound <= c * EPS * state.abs_sum

    def test_upto_monotone(self):
        state = SumState(alpha=0.5)
        tops = []
        for lo in range(1, 50, 7):
            accumulate(state, sieve_segment(lo, lo + 6))
            tops.append(state.upto)
        assert tops == sorted(tops)


class TestCarriedBound:
    # the documented formula of the carried bound, recomputed apart from the
    # package: a smaller constant would still pass every soundness test

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0, 1.5])
    @pytest.mark.parametrize("n_hi", [1, 2, 3, 1000, 10 ** 9])
    def test_term_error_constant_is_the_formula(self, alpha, n_hi):
        assert partial_sum._term_error_constant(alpha, n_hi) == oracles.term_error_constant(alpha, n_hi)

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("lo, hi", [(1, 2), (1, 1000), (1001, 5000)])
    def test_fold_advances_err_bound_by_the_formula(self, alpha, lo, hi):
        acc = partial_sum._Walker(alpha).block_sum(sieve_segment(lo, hi).values, lo)
        state = SumState(alpha=alpha, upto=lo - 1, err_bound=3e-13)
        partial_sum._fold(state, acc)
        assert state.err_bound == 3e-13 + oracles.carried_bound_increment(alpha, hi, acc.weight_sum)


def _mixed_sign_arrays():
    """Float arrays of mixed sign and magnitude, some of them cancelling heavily."""
    floats = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)

    @st.composite
    def build(draw):
        xs = draw(st.lists(floats, min_size=1, max_size=301))
        if draw(st.booleans()):
            # append the negations of some entries, shuffled: a near-zero sum
            negated = [-x for x in draw(st.lists(st.sampled_from(xs), max_size=len(xs)))]
            xs = draw(st.permutations(xs + negated))
        return xs

    return build()


class _FloatTerms(partial_sum._Walker):
    """A walker whose terms are the values themselves, any floats, with weights |values|."""

    def load(self, values, lo, acc):
        m = len(values)
        self.terms[1 : m + 1] = values
        weights = self.weights[: m + 1]
        weights[0] = acc.weight_sum
        np.abs(values, out=weights[1:])
        return weights


def _sum2_bound(exact: Fraction, abs_sum: Fraction, n: int) -> Fraction:
    """Sum2's error bound u|s| + gamma_{n-1}^2 sum|x| (partial_sum docstring), exactly."""
    u = Fraction(EPS) / 2
    gamma = (n - 1) * u / (1 - (n - 1) * u)
    return u * abs(exact) + gamma ** 2 * abs_sum


class TestBlockSum:
    @given(_mixed_sign_arrays())
    @example([1e16, 1.0, -1e16])
    @example([1.0, 1e100, 1.0, -1e100])
    @example([0.1] * 7)
    @settings(max_examples=300)
    def test_within_documented_bound(self, xs):
        # the block sum of _fold from a zero state, against the exact rational
        # sum s: |r - s| <= u|s| + gamma_{N-1}^2 sum|x| (Sum2, partial_sum
        # docstring), which puts r within eps * sum|x| of the correctly rounded fsum
        terms = np.array(xs, dtype=np.float64)
        state = SumState(alpha=0.5)
        partial_sum._fold(state, _FloatTerms(0.5).block_sum(terms, 1))
        r = state.total()
        exact = sum(Fraction(x) for x in xs)
        abs_sum = sum(abs(Fraction(x)) for x in xs)
        assert abs(Fraction(r) - exact) <= _sum2_bound(exact, abs_sum, len(xs))
        assert abs(Fraction(r) - Fraction(math.fsum(xs))) <= Fraction(EPS) * abs_sum

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_fold_from_its_prefix_returns_the_weight_sum(self, alpha):
        # the fold of a block that is only summed (at alpha = 0 the int64 block
        # sum alone) equals the fold from the full float prefix sums of the
        # chunk walk, which gathers the weight sum scan_sign bounds the per-X
        # errors with
        block = LambdaBlock(1000, sieve_segment(1000, 4999).values)
        walker, walked = partial_sum._Walker(alpha), partial_sum._BlockSum()
        [(_, _, weights)] = walker.chunks(block.values, block.lo, walked)
        weights = None if weights is None else weights[1:].copy()
        full, short = SumState(alpha=alpha, upto=999), SumState(alpha=alpha, upto=999)
        partial_sum._fold(full, walked)
        got = walked.weight_sum
        partial_sum._fold(short, walker.block_sum(block.values, block.lo))
        assert full == short
        assert got == (len(block) if weights is None else float(np.sum(weights)))

    @pytest.mark.parametrize("n", [1, 2, 8, 9, 10, 17])
    def test_sum2_across_chunks(self, n, monkeypatch):
        # blocks of 1, 2, C, C + 1, C + 2 and 2C + 1 terms with the chunk C = 8: the
        # result is within Sum2's bound of the exact sum, also where every
        # prefix sum loses the small terms to the large ones
        monkeypatch.setattr(partial_sum, "_CHUNK", 8)
        rng = np.random.default_rng(n)
        big = rng.choice([-1.0, 1.0], n) * 2.0 ** rng.integers(50, 60, n)
        cases = [
            rng.standard_normal(n),
            big,
            big + rng.uniform(-1, 1, n),  # sum near 0: ill-conditioned
            np.resize([1e16, 1.0, -1e16, 1.0], n),
        ]
        for x in cases:
            state = SumState(alpha=0.5)
            partial_sum._fold(state, _FloatTerms(0.5).block_sum(x, 1))
            r = state.total()
            exact = sum(Fraction(v) for v in x.tolist())
            abs_sum = sum(abs(Fraction(v)) for v in x.tolist())
            assert abs(Fraction(r) - exact) <= _sum2_bound(exact, abs_sum, n), x
        if n >= 3:
            # the last prefix sum has lost the 1s; the recovered errors, small
            # integers summed exactly, give them back: r is the exact sum rounded
            assert np.cumsum(x)[-1] != float(exact) and r == float(exact)

    @pytest.mark.parametrize("n", [1, 7, 1000, 2 ** 20 + 3])
    def test_cumsum_is_sequential(self, n):
        # Sum2 and the per-X bounds take np.cumsum to be the recurrence
        # c_j = fl(c_{j-1} + x_j); a pairwise or blocked cumsum would break both
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) * 2.0 ** rng.integers(-30, 30, n)
        c = np.cumsum(x, dtype=np.float64)
        assert c[0] == x[0]
        assert np.array_equal(c[1:], c[:-1] + x[1:])

    @pytest.mark.parametrize(
        "alpha, claimed, seg",
        [
            (0.25, Sign.NONNEGATIVE, 777),
            (0.5, Sign.NONNEGATIVE, 2 ** 12),
            (1.0, Sign.NONPOSITIVE, 777),
            (1.0, Sign.NONPOSITIVE, 5003),
        ],
    )
    def test_confirmation_equals_evaluate(self, alpha, claimed, seg, monkeypatch):
        # the in-block confirmation of the first violation (X = 5003, inside
        # its block, or its last integer at seg = 5003) computes evaluate(X)'s
        # value and bound bit for bit
        seen = []
        real = partial_sum._confirm_in_block

        def spy(start, values, lo, claimed_sign, walker):
            check = dataclasses.replace(start)
            partial_sum._fold(check, walker.block_sum(values, lo))
            seen.append((check.upto, check.total(), check.err_bound))
            return real(start, values, lo, claimed_sign, walker)

        monkeypatch.setattr(partial_sum, "_confirm_in_block", spy)
        rep = scan_sign(5003, 6000, alpha, claimed, segment_size=seg)
        assert rep.first_violation == 5003
        assert seen == [(5003, *evaluate(5003, alpha, seg))]


class TestBlockBound:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0, 2.0])
    @pytest.mark.parametrize("lo, n", [(1, 7), (1, 2 ** 14), (999_983, 1000), (10 ** 9, 2 ** 12)])
    def test_block_terms_bit_identical(self, alpha, lo, n):
        # the weights built in place equal the plain expressions bit for bit
        values = sieve_segment(lo, lo + n - 1).values
        walker = partial_sum._Walker(alpha)
        weights = walker.load(values, lo, partial_sum._BlockSum())[1:]
        terms = walker.terms[1 : n + 1]
        x = np.arange(lo, lo + n, dtype=np.float64)
        want = {0.5: 1 / np.sqrt(x), 1.0: 1 / x}.get(alpha, np.exp(-alpha * np.log(x)))
        assert np.array_equal(weights.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(terms.view(np.uint64), (values * want).view(np.uint64))

    def test_errmax_bounds_every_per_x_err(self):
        # blocks where the pairwise sum the fold takes falls below, and above,
        # the last sequential prefix sum of the weights: errmax still bounds
        # every per-X bound, which would fail at a block below without the slack
        below = above = unslacked_short = 0
        for alpha in (0.25, 0.5, 0.75, 1.0):
            for lo, n in [(1, 2 ** 20), (17, 7), (10 ** 6, 777), (10 ** 8, 2 ** 16), (3, 2 ** 18)]:
                weights = partial_sum._inverse_powers(np.arange(lo, lo + n, dtype=np.float64), alpha)
                k = partial_sum._term_error_constant(alpha, lo + n - 1)
                cum = np.cumsum(weights)
                total = float(np.sum(weights))
                below += total < cum[-1]
                above += total > cum[-1]
                for err_bound, carry in [(0.0, 0.0), (3e-13, -2.75), (1e-9, 0.5)]:
                    errs = partial_sum._per_x_errs(err_bound, carry, k, np.arange(n), cum)
                    errmax = partial_sum._block_errmax(err_bound, carry, k, n, total)
                    assert errmax >= errs.max(), (alpha, lo, n, err_bound, carry)
                    unslacked = partial_sum._per_x_errs(err_bound, carry, k, n - 1, total)
                    unslacked_short += unslacked < errs.max()
        assert below and above and unslacked_short

    def test_per_x_errs_is_the_scan_expression(self):
        # errs_j = E + eps ((j + 1 + K) C_j + |carry|) with j = 1..N, as the
        # scan built it before it took one scalar per block
        weights = partial_sum._inverse_powers(np.arange(5000, 8001, dtype=np.float64), 0.5)
        k, err_bound, carry = 1.0, 4.5e-14, -1.25
        j = np.arange(1, len(weights) + 1, dtype=np.float64)
        want = err_bound + EPS * ((j + 1.0 + k) * np.cumsum(weights) + abs(carry))
        got = partial_sum._per_x_errs(err_bound, carry, k, np.arange(len(weights)), np.cumsum(weights))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestEvaluate:
    def test_trivial_x1(self):
        value, err = evaluate(1, 0.5)
        assert value == 1.0

    def test_threshold_bracketing(self):
        v16, e16 = evaluate(16, 0.5)
        v17, e17 = evaluate(17, 0.5)
        assert v16 - e16 > 0
        assert v17 + e17 < 0
        assert v16 == pytest.approx(oracles.L_16_HALF, abs=1e-13)
        assert v17 == pytest.approx(oracles.L_17_HALF, abs=1e-13)

    def test_conjectured_range_endpoint_negative(self):
        value, err = evaluate(300001, 0.5)
        assert value + err < 0

    def test_monotone_consistency(self):
        rng = np.random.default_rng(11)
        for alpha in (0.0, 0.5, 1.0, 0.25):
            for x in rng.integers(1, 5000, size=5):
                x = int(x)
                v1, e1 = evaluate(x, alpha)
                v2, e2 = evaluate(x + 1, alpha)
                from liouville_sums.liouville import lambda_at

                step = lambda_at(x + 1) / (x + 1) ** alpha
                assert v2 - v1 == pytest.approx(step, abs=e1 + e2 + 4 * EPS * abs(step))

    @given(st.integers(1, 3))
    @settings(max_examples=3)
    def test_partition_independence(self, k):
        # same value within combined error bounds for very different blockings
        x = 40_000 * k
        v_small, e_small = evaluate(x, 0.5, segment_size=1000)
        v_big, e_big = evaluate(x, 0.5, segment_size=10 ** 6)
        assert abs(v_small - v_big) <= e_small + e_big

    def test_identity_alpha2(self):
        value, err = evaluate(10 ** 6, 2.0)
        assert abs(value - oracles.PI2_OVER_15) < 1e-5

    def test_rejects_bad_x(self):
        with pytest.raises(ValueError):
            evaluate(0, 0.5)


class TestErrorBoundSoundness:
    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0])
    def test_against_50_digit_oracle(self, alpha):
        # block-boundary values from the tight accumulator, X <= 20000 here;
        # the acceptance suite repeats this at X <= 1e5 over every X.
        x_max = 20_000
        lam = sieve_segment(1, x_max).values
        oracle = dict(
            (n, acc)
            for n, acc in oracles.hp_running_sums(lam.tolist(), alpha)
            if n % 1000 == 0
        )
        state = SumState(alpha=alpha)
        for lo in range(1, x_max, 1000):
            accumulate(state, sieve_segment(lo, lo + 999))
            exact = float(oracle[state.upto])
            assert abs(state.total() - exact) <= max(state.err_bound, 1e-300)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_per_x_bound_against_50_digit_oracle(self, alpha, tmp_path):
        # every X of a traced scan over four blocks from n = 1: the per-X bound
        # covers the 50-digit value and is at least its documented floor
        # eps*(j + 1 + K)*S_j, S_j the exact sum of the block's first j weights
        x_max, seg = 4000, 1024
        trace = tmp_path / "trace.csv"
        scan_sign(
            1, x_max, alpha, Sign.NONPOSITIVE,
            segment_size=seg, trace_path=str(trace), trace_every=1,
        )
        with trace.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["X"]) for r in rows] == list(range(1, x_max + 1))
        lam = sieve_segment(1, x_max).values.tolist()
        sums = [acc for _, acc in oracles.hp_running_sums(lam, alpha)]
        weight_sums = [acc for _, acc in oracles.hp_running_sums([1] * x_max, alpha)]
        with mp.workdps(50):
            for x, r in enumerate(rows, start=1):
                value, err = float(r["value"]), float(r["err_bound"])
                assert abs(mp.mpf(value) - sums[x - 1]) <= err, f"X={x}"
                lo = (x - 1) // seg * seg + 1
                j = x - lo + 1
                k = partial_sum._term_error_constant(alpha, min(lo + seg - 1, x_max))
                s_j = weight_sums[x - 1] - (weight_sums[lo - 2] if lo > 1 else 0)
                # less the rounding of the float weights and their cumsum
                floor = EPS * (j + 1 + k) * s_j * (1 - (j + k + 4) * EPS)
                assert err >= floor, f"X={x}"


class TestScanSign:
    def test_conjectured_range_clean(self):
        rep = scan_sign(17, 300001, 0.5, Sign.NONPOSITIVE)
        assert rep.violations == 0
        assert rep.indeterminate == 0
        assert rep.first_violation is None
        assert rep.ok()

    def test_polya_clean_below_million(self):
        rep = scan_sign(2, 10 ** 6, 0.0, Sign.NONPOSITIVE)
        assert rep.violations == 0
        assert rep.indeterminate == 0
        # the sum repeatedly returns to zero but never goes positive
        assert rep.max_value == 0.0

    def test_violations_below_17(self):
        rep = scan_sign(1, 16, 0.5, Sign.NONPOSITIVE)
        assert rep.violations >= 1
        assert rep.first_violation == 1
        assert rep.max_value == 1.0 and rep.argmax == 1

    def test_extrema_recomputed(self):
        rep = scan_sign(17, 50_000, 0.5, Sign.NONPOSITIVE)
        vmin, emin = evaluate(rep.argmin, 0.5)
        vmax, emax = evaluate(rep.argmax, 0.5)
        assert vmin == pytest.approx(rep.min_value, abs=1e-9)
        assert vmax == pytest.approx(rep.max_value, abs=1e-9)

    def test_scan_matches_per_x_evaluate(self):
        rep = scan_sign(90, 110, 1.0, Sign.NONNEGATIVE)
        assert rep.checked == 21
        for x in range(90, 111):
            v, e = evaluate(x, 1.0)
            assert v - e >= 0, f"X={x}: the tight value does not clear its bound"
        assert rep.violations == 0
        assert rep.indeterminate == 0

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            scan_sign(10, 5, 0.5, Sign.NONPOSITIVE)
        with pytest.raises(ValueError):
            scan_sign(0, 5, 0.5, Sign.NONPOSITIVE)

    @pytest.mark.parametrize(
        "name, stride",
        [("checkpoint_every", 0), ("checkpoint_every", -5), ("trace_every", 0), ("trace_every", -3)],
    )
    def test_rejects_bad_strides(self, name, stride, tmp_path):
        with pytest.raises(ValueError, match=name):
            scan_sign(1, 10, 0.5, Sign.NONPOSITIVE, **{name: stride})
        with pytest.raises(ValueError, match=name):
            scan_sign(
                1,
                10,
                0.5,
                Sign.NONPOSITIVE,
                trace_path=str(tmp_path / "t.csv"),
                checkpoint_path=str(tmp_path / "cp.json"),
                **{name: stride},
            )
        assert not (tmp_path / "cp.json").exists()

    def test_violating_scan_sieves_once(self, monkeypatch):
        sieved = []
        real = liouville._sieve_block

        def counting(lo, hi, *plan):
            sieved.append(hi - lo + 1)
            return real(lo, hi, *plan)

        monkeypatch.setattr(liouville, "_sieve_block", counting)
        rep = scan_sign(
            100_000, 400_000, 1.0, Sign.NONPOSITIVE, segment_size=2 ** 14
        )
        assert rep.first_violation == 100_000
        # confirming the violation reuses the carried state: no rescan of [1, X]
        assert sum(sieved) == 400_000

    @pytest.mark.parametrize(
        "alpha, claimed",
        [(0.25, Sign.NONPOSITIVE), (0.5, Sign.NONPOSITIVE), (1.0, Sign.NONNEGATIVE)],
    )
    def test_unconfirmed_violation_raises(self, alpha, claimed, monkeypatch):
        # flag one conforming X (the sixth classified) as violating
        real = partial_sum._classify_arrays

        def flag_sixth(values, errs, claimed):
            violating, indeterminate = real(values, errs, claimed)
            violating[5] = True
            return violating, indeterminate

        monkeypatch.setattr(partial_sum, "_classify_arrays", flag_sixth)
        # a conforming block is settled by its scalar bound; send every block
        # through the per-X arrays, where the fault is injected
        monkeypatch.setattr(partial_sum, "_block_conforms", lambda *args: False)
        x, seg = 1005, 2 ** 9
        # the guard recomputes X from the state carried at its block start,
        # with the arithmetic of evaluate(X) at the same segment size
        value, err = evaluate(x, alpha, seg)
        with pytest.raises(RuntimeError, match="cannot confirm") as exc:
            scan_sign(1000, 5000, alpha, claimed, segment_size=seg)
        assert f"X={x} " in str(exc.value)
        assert f"(value={value!r}, err_bound={err!r})" in str(exc.value)

    @pytest.mark.parametrize("alpha", [-0.5, math.inf, math.nan])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            SumState(alpha=alpha)
        with pytest.raises(ValueError, match="alpha"):
            scan_sign(1, 10, alpha, Sign.NONPOSITIVE)

    def test_trace_rows(self, tmp_path, monkeypatch):
        # what _classify_arrays says of each classified X, in scan order
        said = []
        real = partial_sum._classify_arrays

        def spy(values, errs, claimed):
            violating, indeterminate = real(values, errs, claimed)
            # values is the walk's buffer, which the next chunk overwrites
            said.append((values.copy(), errs, violating, indeterminate))
            return violating, indeterminate

        monkeypatch.setattr(partial_sum, "_classify_arrays", spy)
        # every block reaches the spy, not only those its scalar bound cannot settle
        monkeypatch.setattr(partial_sum, "_block_conforms", lambda *args: False)
        # rows are written in chunks; make blocks span several, with a partial last one
        monkeypatch.setattr(partial_sum, "_TRACE_CHUNK", 7)
        # a scan from X = 1 that conforms from X = 17 on, and at alpha = 1
        # (positive throughout) a clean and a violating scan that start and
        # end mid-block
        for x_lo, x_hi, alpha, claimed, every, seg in [
            (1, 25_000, 0.5, Sign.NONPOSITIVE, 10_000, liouville.DEFAULT_SEGMENT_SIZE),
            (1000, 5000, 1.0, Sign.NONNEGATIVE, 300, 2 ** 10),
            (1000, 5000, 1.0, Sign.NONPOSITIVE, 300, 2 ** 10),
        ]:
            said.clear()
            trace = tmp_path / f"trace-{alpha}-{claimed.value}.csv"
            scan_sign(
                x_lo,
                x_hi,
                alpha,
                claimed,
                segment_size=seg,
                trace_path=str(trace),
                trace_every=every,
            )
            values, errs, violating, indeterminate = map(np.concatenate, zip(*said))
            assert len(values) == x_hi - x_lo + 1
            flagged = x_lo + np.flatnonzero(violating | indeterminate)
            multiples = range(-(-x_lo // every) * every, x_hi + 1, every)
            with trace.open() as fh:
                rows = list(csv.DictReader(fh))
            xs = [int(r["X"]) for r in rows]
            assert xs == sorted({*multiples, x_lo, x_hi, *flagged.tolist()})
            for x, r in zip(xs, rows):
                i = x - x_lo
                assert float(r["value"]) == values[i]
                assert float(r["err_bound"]) == errs[i]
                want = (
                    "violation" if violating[i]
                    else "indeterminate" if indeterminate[i]
                    else "conforming"
                )
                assert r["classification"] == want
                v, e = evaluate(x, alpha)
                assert float(r["value"]) == pytest.approx(v, abs=1e-9)
                if alpha == 0.5 and x >= 17:
                    assert want == "conforming"
            if alpha == 1.0:
                assert violating.all() == (claimed is Sign.NONPOSITIVE)
                assert violating.any() == (claimed is Sign.NONPOSITIVE)

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0])
    def test_scalar_block_test_changes_nothing(self, alpha, tmp_path, monkeypatch):
        # settling a block from its scalar bound only skips per-X work: with
        # every block sent through the per-X arrays instead, the report and
        # the trace bytes are the same, for clean, violating and mid-block scans
        real = partial_sum._block_conforms
        settled = []

        def spy(*args):
            settled.append(real(*args))
            return settled[-1]

        def run(block_conforms, *scan, seg):
            monkeypatch.setattr(partial_sum, "_block_conforms", block_conforms)
            trace = tmp_path / "trace.csv"
            rep = scan_sign(*scan, segment_size=seg, trace_path=str(trace), trace_every=97)
            return rep, trace.read_bytes()

        for claimed in Sign:
            for x_lo, x_hi in [(1, 3000), (17, 6000), (1000, 5003)]:
                for seg in (7, 100, 2 ** 10):
                    scan = (x_lo, x_hi, alpha, claimed)
                    assert run(spy, *scan, seg=seg) == run(lambda *args: False, *scan, seg=seg)
        assert any(settled) and not all(settled)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_scan_errmax_bounds_its_blocks_per_x_errs(self, alpha, monkeypatch):
        # the scalar bound each block is judged by, formed from the weight sum
        # _fold returns, is at least every per-X bound of that block
        bounds, worst = [], []
        real = partial_sum._classify_arrays

        def conforms(extreme, errmax, claimed):
            bounds.append(errmax)
            return False  # every block builds its per-X bounds

        def classify(values, errs, claimed):
            worst.append(errs.max())
            return real(values, errs, claimed)

        monkeypatch.setattr(partial_sum, "_block_conforms", conforms)
        monkeypatch.setattr(partial_sum, "_classify_arrays", classify)
        scan_sign(1, 20_000, alpha, Sign.NONNEGATIVE, segment_size=2 ** 12)
        assert len(bounds) == len(worst) == 5
        assert all(b >= w for b, w in zip(bounds, worst)), (bounds, worst)

    def test_checkpoint_resume_identical(self, tmp_path):
        # a clean scan and a violating one (alpha = 1 is positive throughout)
        for alpha in (0.5, 1.0):
            cp = tmp_path / f"cp-{alpha}.json"
            full = scan_sign(1, 120_000, alpha, Sign.NONPOSITIVE, segment_size=2 ** 14)
            partial = scan_sign(
                1,
                120_000,
                alpha,
                Sign.NONPOSITIVE,
                segment_size=2 ** 14,
                checkpoint_path=str(cp),
                checkpoint_every=50_000,
            )
            assert cp.exists()  # left behind from a mid-scan write
            resumed = scan_sign(
                1,
                120_000,
                alpha,
                Sign.NONPOSITIVE,
                segment_size=2 ** 14,
                checkpoint_path=str(cp),
                checkpoint_every=50_000,
            )
            assert partial == full
            # resuming from the final checkpoint re-derives the same tallies for
            # the already-scanned prefix plus nothing new
            assert resumed.violations == full.violations
            assert resumed.indeterminate == full.indeterminate
            assert resumed.first_violation == full.first_violation

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_checkpoint_before_x_lo_resumes(self, alpha, tmp_path):
        # interrupt the scan after a checkpoint written before x_lo is reached
        class Interrupted(Exception):
            pass

        def interrupt(upto):
            if upto > 40_000:
                raise Interrupted

        cp = tmp_path / "cp.json"
        args = (50_000, 120_000, alpha, Sign.NONPOSITIVE)
        kwargs = dict(segment_size=2 ** 14, checkpoint_path=str(cp), checkpoint_every=20_000)
        with pytest.raises(Interrupted):
            scan_sign(*args, progress=interrupt, **kwargs)
        written = json.loads(cp.read_text())
        assert written["state"]["upto"] == 2 * 2 ** 14
        assert written["tally"]["min_value"] == "inf"
        assert written["tally"]["first_violation"] is None
        resumed = scan_sign(*args, **kwargs)
        assert resumed == scan_sign(*args, segment_size=2 ** 14)
        assert (resumed.first_violation is None) == (alpha == 0.5)

    @pytest.mark.parametrize("x_hi, written", [(10_000, [3000, 5000, 8000]), (8000, [3000, 5000])])
    def test_checkpoint_cadence(self, x_hi, written, tmp_path, monkeypatch):
        # one write at the first block end past each multiple of
        # checkpoint_every, and none at x_hi, where the scan is done
        seen = []
        write = partial_sum._write_checkpoint

        def spy(path, scan, state, tally, trace_bytes):
            seen.append(state.upto)
            write(path, scan, state, tally, trace_bytes)

        monkeypatch.setattr(partial_sum, "_write_checkpoint", spy)
        scan_sign(
            1, x_hi, 0.5, Sign.NONPOSITIVE,
            segment_size=1000, checkpoint_path=str(tmp_path / "cp.json"), checkpoint_every=2500,
        )
        assert seen == written

    def test_trace_on_disk_at_each_checkpoint(self, tmp_path, monkeypatch):
        # a scan killed after a checkpoint resumes past the rows it names,
        # so they must be on disk before it is written
        trace = tmp_path / "trace.csv"
        on_disk = []
        write = partial_sum._write_checkpoint

        def spy(path, scan, state, tally, trace_bytes):
            on_disk.append((state.upto, trace.read_text()))
            assert trace_bytes == trace.stat().st_size
            write(path, scan, state, tally, trace_bytes)

        monkeypatch.setattr(partial_sum, "_write_checkpoint", spy)
        scan_sign(
            1, 300_000, 0.5, Sign.NONPOSITIVE, segment_size=16384,
            trace_path=str(trace), trace_every=1000,
            checkpoint_path=str(tmp_path / "cp.json"), checkpoint_every=50_000,
        )
        header, *rows = trace.read_text().splitlines()
        assert [upto for upto, _ in on_disk] == [65536, 114688, 163840, 212992, 262144]
        for upto, text in on_disk:
            through = [r for r in rows if int(r.split(",")[0]) <= upto]
            assert text.splitlines() == [header, *through], upto

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0])
    def test_block_end_states_equal_evaluate(self, alpha, tmp_path, monkeypatch):
        # the state carried past every block end, of a classified block or of
        # one below x_lo, is evaluate's state there, bit for bit
        seg, seen = 1000, []

        def spy(path, scan, state, tally, trace_bytes):
            seen.append(dataclasses.replace(state))

        monkeypatch.setattr(partial_sum, "_write_checkpoint", spy)
        scan_sign(
            2500, 9000, alpha, Sign.NONNEGATIVE, segment_size=seg,
            checkpoint_path=str(tmp_path / "cp.json"), checkpoint_every=seg,
        )
        assert [state.upto for state in seen] == list(range(seg, 9000, seg))
        for state in seen:
            want = SumState(alpha=alpha)
            for block in liouville.stream_lambda_range(1, state.upto, seg):
                accumulate(want, block)
            assert state == want
            assert (state.total(), state.err_bound) == evaluate(state.upto, alpha, seg)

    @pytest.mark.parametrize("x_lo, alpha", [(1, 1.0), (17, 0.5)])
    def test_rerun_or_resume_writes_each_trace_row_once(self, x_lo, alpha, tmp_path):
        # a finished scan run again resumes from its last checkpoint, and an
        # interrupted one from the checkpoint before the rows it wrote last;
        # either way the trace is the one a single clean run writes
        class Interrupted(Exception):
            pass

        def interrupt(upto):
            if upto == 3000:  # past the checkpoint at 2000, before the one at 3000
                raise Interrupted

        args = (x_lo, 5000, alpha, Sign.NONNEGATIVE)
        kwargs = dict(segment_size=1000, trace_every=100, checkpoint_every=1000)
        clean = tmp_path / "clean.csv"
        want = scan_sign(*args, trace_path=str(clean), **kwargs)

        trace, cp = tmp_path / "rerun.csv", tmp_path / "rerun.json"
        for _ in range(2):
            scan_sign(*args, trace_path=str(trace), checkpoint_path=str(cp), **kwargs)
        assert trace.read_bytes() == clean.read_bytes()

        trace, cp = tmp_path / "resumed.csv", tmp_path / "resumed.json"
        with pytest.raises(Interrupted):
            scan_sign(*args, trace_path=str(trace), checkpoint_path=str(cp), progress=interrupt, **kwargs)
        assert json.loads(cp.read_text())["state"]["upto"] == 2000
        assert scan_sign(*args, trace_path=str(trace), checkpoint_path=str(cp), **kwargs) == want
        assert trace.read_bytes() == clean.read_bytes()

    def test_trace_shorter_than_checkpoint_rejected(self, tmp_path):
        trace, cp = tmp_path / "t.csv", tmp_path / "c.json"
        kwargs = dict(segment_size=1000, trace_path=str(trace), checkpoint_path=str(cp), checkpoint_every=1000)
        scan_sign(1, 5000, 1.0, Sign.NONNEGATIVE, **kwargs)
        trace.write_text(TRACE_HEADER + "\n")
        with pytest.raises(ValueError, match="is shorter than the .* bytes checkpoint"):
            scan_sign(1, 5000, 1.0, Sign.NONNEGATIVE, **kwargs)

    def test_trace_without_header_rejected(self, tmp_path):
        # a trace overwritten with other bytes, however long, or a checkpoint
        # that records fewer bytes than the header, is not cut back and
        # continued: the trace is left as it is
        trace, cp = tmp_path / "t.csv", tmp_path / "c.json"
        kwargs = dict(segment_size=1000, trace_path=str(trace), checkpoint_path=str(cp), checkpoint_every=1000)
        scan_sign(1, 5000, 1.0, Sign.NONNEGATIVE, **kwargs)
        clean = trace.read_bytes()
        payload = json.loads(cp.read_text())
        trace.write_bytes(b"x" * (len(clean) + 10))
        for bytes_recorded in (payload["trace_bytes"], len(TRACE_HEADER)):
            cp.write_text(json.dumps({**payload, "trace_bytes": bytes_recorded}))
            before = trace.read_bytes()
            with pytest.raises(
                ValueError,
                match=rf"trace '.*t\.csv' does not begin with the header '{TRACE_HEADER}' in the "
                rf"{bytes_recorded} bytes checkpoint '.*c\.json' records",
            ):
                scan_sign(1, 5000, 1.0, Sign.NONNEGATIVE, **kwargs)
            assert trace.read_bytes() == before
            trace.write_bytes(clean)

    def test_resume_with_missing_trace_rejected(self, tmp_path):
        # a traced checkpoint cannot be continued without its trace, and a
        # run without one does not start a new trace that lacks the early rows
        trace, cp = tmp_path / "t.csv", tmp_path / "c.json"
        kwargs = dict(segment_size=1000, trace_path=str(trace), checkpoint_path=str(cp), checkpoint_every=1000)
        scan_sign(1, 5000, 1.0, Sign.NONNEGATIVE, **kwargs)
        trace.unlink()
        with pytest.raises(ValueError, match=r"trace '.*t\.csv' is missing; checkpoint '.*c\.json'"):
            scan_sign(1, 5000, 1.0, Sign.NONNEGATIVE, **kwargs)
        assert not trace.exists()

    def test_traced_resume_of_untraced_checkpoint_rejected(self, tmp_path):
        # an untraced checkpoint has no trace to continue: the file at the
        # trace path is left as it is, and the checkpoint still resumes untraced
        trace, cp = tmp_path / "t.csv", tmp_path / "c.json"
        args = (1, 5000, 1.0, Sign.NONNEGATIVE)
        kwargs = dict(segment_size=1000, checkpoint_path=str(cp), checkpoint_every=1000)
        want = scan_sign(*args, **kwargs)
        assert json.loads(cp.read_text())["trace_bytes"] is None
        trace.write_text("unrelated\n")
        with pytest.raises(ValueError, match=r"checkpoint '.*c\.json' records an untraced scan; trace '.*t\.csv'"):
            scan_sign(*args, trace_path=str(trace), **kwargs)
        assert trace.read_text() == "unrelated\n"
        assert scan_sign(*args, **kwargs) == want

    def test_traced_checkpoint_resumes_untraced(self, tmp_path):
        trace, cp = tmp_path / "t.csv", tmp_path / "c.json"
        args = (1, 5000, 1.0, Sign.NONNEGATIVE)
        kwargs = dict(segment_size=1000, checkpoint_path=str(cp), checkpoint_every=1000)
        want = scan_sign(*args, trace_path=str(trace), **kwargs)
        assert json.loads(cp.read_text())["trace_bytes"] > 0
        assert scan_sign(*args, **kwargs) == want

    def test_checkpoint_mismatch_rejected(self, tmp_path):
        cp = tmp_path / "cp.json"
        scan_sign(
            1,
            60_000,
            0.5,
            Sign.NONPOSITIVE,
            checkpoint_path=str(cp),
            checkpoint_every=30_000,
            segment_size=2 ** 14,
        )
        with pytest.raises(ValueError, match="checkpoint"):
            scan_sign(
                1,
                60_000,
                0.25,
                Sign.NONPOSITIVE,
                checkpoint_path=str(cp),
                checkpoint_every=30_000,
                segment_size=2 ** 14,
            )


class TestChunkWalk:
    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0])
    def test_chunk_size_changes_nothing(self, alpha, tmp_path, monkeypatch):
        # chunks of 7 and 1000 integers give the default chunk's report, trace
        # X/value/classification columns and block-end states, for clean and
        # violating scans whose ends fall inside a chunk; the first violation
        # lies in a later chunk of its block (at the default chunk too at the
        # 2^17 segment), and its confirmation computes evaluate(X) there
        def run(chunk, claimed, x_lo, x_hi, seg):
            monkeypatch.setattr(partial_sum, "_CHUNK", chunk)
            states, confirmed = [], []
            real = partial_sum._confirm_in_block

            def confirm(start, values, lo, claimed_sign, walker):
                check = dataclasses.replace(start)
                partial_sum._fold(check, walker.block_sum(values, lo))
                confirmed.append((check.upto, check.total(), check.err_bound))
                return real(start, values, lo, claimed_sign, walker)

            monkeypatch.setattr(partial_sum, "_confirm_in_block", confirm)
            monkeypatch.setattr(
                partial_sum, "_write_checkpoint",
                lambda path, scan, state, tally, trace_bytes: states.append(dataclasses.replace(state)),
            )
            trace = tmp_path / f"trace-{chunk}.csv"
            rep = scan_sign(
                x_lo, x_hi, alpha, claimed, segment_size=seg, trace_path=str(trace), trace_every=97,
                checkpoint_path=str(tmp_path / "cp.json"), checkpoint_every=seg,
            )
            with trace.open() as fh:
                rows = [(r["X"], r["value"], r["classification"], r["err_bound"]) for r in csv.DictReader(fh)]
            if rep.first_violation is not None and alpha > 0:
                want = evaluate(rep.first_violation, alpha, seg)
                assert confirmed == [(rep.first_violation, *want)]
            return rep, rows, states

        for claimed in Sign:
            for x_lo, x_hi, seg, chunks in [(2503, 23_456, 5000, (7, 1000)), (70_001, 140_001, 2 ** 17, (1000,))]:
                rep, rows, states = run(partial_sum._CHUNK, claimed, x_lo, x_hi, seg)
                assert len(states) == x_hi // seg and len(rows) > (x_hi - x_lo) // 97
                # a clean and a violating scan at each alpha: the sum keeps its sign here
                holds = Sign.NONNEGATIVE if alpha == 1.0 else Sign.NONPOSITIVE
                assert (rep.first_violation is None) == (claimed is holds)
                for chunk in chunks:
                    other_rep, other_rows, other_states = run(chunk, claimed, x_lo, x_hi, seg)
                    assert other_rep == rep
                    assert [r[:3] for r in other_rows] == [r[:3] for r in rows]
                    # weight sums taken chunk by chunk: two float sums of the same
                    # n <= X weights, each within gamma_{n - 1} of their exact sum
                    for (x, *_, err), (*_, other_err) in zip(rows, other_rows):
                        assert float(err) == pytest.approx(float(other_err), rel=2 * int(x) * EPS, abs=0)
                    assert len(other_states) == len(states)
                    for a, b in zip(states, other_states):
                        assert (a.upto, a.value, a.comp) == (b.upto, b.value, b.comp)
                        tol = 2 * a.upto * EPS
                        assert a.abs_sum == pytest.approx(b.abs_sum, rel=tol, abs=0)
                        assert a.err_bound == pytest.approx(b.err_bound, rel=tol, abs=0)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_errmax_bounds_each_chunk_per_x_errs(self, alpha, monkeypatch):
        # with several chunks to a block and x_lo inside one, the scalar bound
        # each chunk is judged by is at least every per-X bound of that chunk
        monkeypatch.setattr(partial_sum, "_CHUNK", 1000)
        bounds, worst = [], []
        real = partial_sum._classify_arrays

        def conforms(extreme, errmax, claimed):
            bounds.append(errmax)
            return False  # every chunk builds its per-X bounds

        def classify(values, errs, claimed):
            worst.append(errs.max())
            return real(values, errs, claimed)

        monkeypatch.setattr(partial_sum, "_block_conforms", conforms)
        monkeypatch.setattr(partial_sum, "_classify_arrays", classify)
        scan_sign(2503, 20_000, alpha, Sign.NONNEGATIVE, segment_size=2 ** 12)
        # chunks of 1001, 1000, 1000, 1000, 95 to a block: 3 classified in the first, 5 + 5 + 5 + 4
        assert len(bounds) == len(worst) == 22
        assert all(b >= w for b, w in zip(bounds, worst)), (bounds, worst)

    def test_scan_and_evaluate_memory(self, tmp_path):
        # a block in flight holds a few chunk buffers of floats, not several
        # block-long arrays: three 2^20 blocks at alpha = 1/2, traced, stay
        # far below the ~32 MB of the block-wide float arrays
        for run in (
            lambda: scan_sign(17, 3 * 2 ** 20, 0.5, Sign.NONPOSITIVE, trace_path=str(tmp_path / "t.csv")),
            lambda: evaluate(3 * 2 ** 20, 0.5),
        ):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2 ** 20, peak

    def test_scan_holds_one_sieve_block(self):
        # a block is dropped before the next is sieved, and holds 2 bytes per
        # integer: a scan peaks at 2.5 bytes per segment integer plus the
        # walker's buffers, well below two blocks alive at once
        seg = DEFAULT_SEGMENT_SIZE
        walker = partial_sum._Walker(0.5)
        buffers = sum(a.nbytes for a in vars(walker).values() if isinstance(a, np.ndarray))
        tracemalloc.start()
        try:
            rep = scan_sign(17, 3_000_000, 0.5, Sign.NONPOSITIVE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.ok()
        assert peak <= 2.5 * seg + buffers, (peak, buffers)


def _plain_report(sums: np.ndarray, x_lo: int, claimed: Sign, tally=None) -> SignReport:
    """The alpha = 0 report of the exact sums at X = x_lo, x_lo + 1, ..., classified X by X.

    tally, when given, holds what was tallied before x_lo: an extreme moves
    only to a strictly smaller or larger sum, at the earliest X attaining it.
    """
    tally = tally or partial_sum._ScanTally()
    bad = sums > 0 if claimed is Sign.NONPOSITIVE else sums < 0
    i_min, i_max = int(np.argmin(sums)), int(np.argmax(sums))
    low = (float(sums[i_min]), x_lo + i_min) if sums[i_min] < tally.min_value else (tally.min_value, tally.argmin)
    high = (float(sums[i_max]), x_lo + i_max) if sums[i_max] > tally.max_value else (tally.max_value, tally.argmax)
    return SignReport(
        alpha=0.0,
        x_lo=x_lo,
        x_hi=x_lo + len(sums) - 1,
        claimed_sign=claimed,
        checked=len(sums),
        violations=tally.violations + int(np.count_nonzero(bad)),
        first_violation=tally.first_violation or (x_lo + int(np.argmax(bad)) if bad.any() else None),
        min_value=low[0],
        argmin=low[1],
        max_value=high[0],
        argmax=high[1],
        indeterminate=0,
    )


class TestExactScan:
    """The alpha = 0 scan judges chunks from 64-integer group sums and walks few X."""

    @staticmethod
    def _scan(monkeypatch, tmp_path, scan, seg, conforms):
        monkeypatch.setattr(partial_sum, "_block_conforms", conforms)
        trace = tmp_path / "trace.csv"
        rep = scan_sign(*scan, segment_size=seg, trace_path=str(trace), trace_every=97)
        return rep, trace.read_bytes()

    @pytest.mark.parametrize("chunk", [7, 64, None])
    def test_equals_plain_reference(self, chunk, tmp_path, monkeypatch):
        # every SignReport field equals np.cumsum of the sieve's values classified
        # X by X, and the trace bytes equal those of the scan with every chunk
        # walked X by X; clean and violating scans of both claims, x_lo off the
        # multiples of 64 and inside a chunk, and the Polya sum's ties at its
        # maximum 0 (earliest argmax)
        if chunk is not None:
            monkeypatch.setattr(partial_sum, "_CHUNK", chunk)
        cases = [(1, 3000, 7), (17, 6000, 100), (1000, 5003, 1000), (2, 12_345, 1000)]
        if chunk != 7:
            cases += [(70_001, 140_001, 65_537), (2, 300_000, 65_537)]
        real = partial_sum._block_conforms
        for claimed in Sign:
            for x_lo, x_hi, seg in cases:
                scan = (x_lo, x_hi, 0.0, claimed)
                sums = np.cumsum(sieve_segment(1, x_hi).values, dtype=np.int64)
                want = _plain_report(sums[x_lo - 1 :], x_lo, claimed)
                rep, trace = self._scan(monkeypatch, tmp_path, scan, seg, real)
                assert rep == want, (scan, seg)
                assert self._scan(monkeypatch, tmp_path, scan, seg, lambda *args: False) == (rep, trace)
                monkeypatch.setattr(partial_sum, "_block_conforms", real)
                assert scan_sign(*scan, segment_size=seg) == rep
        # the clean scans: the Polya sum is 0 at X = 2, 4, 6, 10, 16, 26, ...
        assert scan_sign(2, 12_345, 0.0, Sign.NONPOSITIVE).argmax == 2
        assert scan_sign(17, 6000, 0.0, Sign.NONPOSITIVE).argmax == 26

    @staticmethod
    def _walk(targets, rng) -> np.ndarray:
        """Steps +-1 from 0 through each target in turn, inside [min, max] of 0 and the targets.

        Each step is toward the next target with probability 3/4, so the walk
        meets every target exactly, and its extremes as often as they recur.
        """
        s, steps, bottom, top = 0, [], min(0, *targets), max(0, *targets)
        for t in targets:
            while s != t:
                step = 1 if t > s else -1
                if rng.random() >= 0.75 and bottom <= s - step <= top:
                    step = -step
                steps.append(step)
                s += step
        return np.array(steps, dtype=np.int8)

    # Sums from 0 through these targets, negated for NONNEGATIVE: excursions
    # of hundreds, wider than a group, that return to their extremes; clean,
    # touching the claim's boundary 0, or crossing it briefly.
    TARGETS = [
        [-150, -30, -150, -5, -260, -40, -260, -120],
        [-150, 0, -150, -20, -250, 0, -250, -100],
        [-90, 1, -90, -30, -200, 3, -120],
    ]

    # A first group whose interval end is its own least sum, -32 after 32
    # steps down, which the next group's end ties; the earliest X of that
    # extreme is inside the first group, and the walk then rises out of its
    # reach.  And the mirror case.  Then a second group from -62 that peaks
    # at 1, the one X violating NONPOSITIVE, and ends at 0: its interval
    # reaches 1 and no further, so after a carried violation only the
    # claim's boundary walks it.  And its mirror case.
    EDGES = [
        [-1] * 32 + [1] * 32 + [1] * 16 + [-1] * 48 + [1] * 128,
        [1] * 32 + [-1] * 32 + [-1] * 16 + [1] * 48 + [-1] * 128,
        [-1] * 63 + [1] * 64 + [-1] * 129,
        [1] * 63 + [-1] * 64 + [1] * 129,
    ]

    @pytest.mark.parametrize("claimed", list(Sign))
    @pytest.mark.parametrize("seed", range(4))
    def test_ties_and_carried_extremes(self, claimed, seed, monkeypatch):
        # against extremes carried in below, at, or beyond the walk's own, each
        # scan keeps the earliest X of a strictly new extreme, and counts and
        # traces violations as the X by X walk does
        rng = np.random.default_rng(seed)
        monkeypatch.setattr(partial_sum, "_CHUNK", int(rng.choice([64, 1000, 4096])))
        real = partial_sum._block_conforms
        sign = 1 if claimed is Sign.NONPOSITIVE else -1
        walks = [self._walk([sign * t for t in targets], rng) for targets in self.TARGETS]
        walks += [np.array(e, dtype=np.int8) for e in self.EDGES]
        for values in walks:
            # from 0, and from 300 away on the claimed side: there only the
            # least and greatest sums seen decide which groups are walked
            for base in (0, sign * -300):
                sums = base + np.cumsum(values, dtype=np.int64)
                low, high = int(sums.min()), int(sums.max())
                # carried far beyond, only the claim's boundary walks a brief crossing
                for carried in (None, *((low - d, high + d) for d in (200, 1, 0, -1))):
                    lo, every = 1000 + int(rng.integers(0, 64)), int(rng.integers(1, 500))
                    tally = partial_sum._ScanTally()
                    if carried is not None:  # as if X = 7 and 8 before the block had these sums
                        tally.min_value, tally.argmin = float(carried[0]), 7
                        tally.max_value, tally.argmax = float(carried[1]), 8
                    want = _plain_report(sums, lo, claimed, dataclasses.replace(tally))
                    out = []
                    # a traced scan also walks the groups of its rows, the first among them
                    for conforms, traced in [(real, False), (real, True), (lambda *args: False, True)]:
                        monkeypatch.setattr(partial_sum, "_block_conforms", conforms)
                        got, fh = dataclasses.replace(tally), io.StringIO()
                        trace = partial_sum._Trace(fh, 0.0, every, lo, lo + len(values) - 1) if traced else None
                        block = LambdaBlock(lo, values)
                        acc = partial_sum._scan_exact_block(
                            partial_sum._Walker(0.0), block, float(base), lo, claimed, got, trace
                        )
                        assert (acc.n, acc.last, acc.err) == (len(values), sums[-1] - base, 0.0)
                        assert dataclasses.asdict(got) == {
                            f: getattr(want, f) for f in dataclasses.asdict(got)
                        }, (values[:8], base, carried, traced)
                        out.append(fh.getvalue())
                    assert out[1] == out[2]

    def test_window_holding_the_polya_crossing(self, tmp_path, monkeypatch):
        # the sieve's values on [906,100,000, 906,199,999], from the exact sum
        # before them that puts L(906,150,257) = 1, the first X with L(X) > 0
        lo, hi, crossing = 906_100_000, 906_199_999, 906_150_257
        values = sieve_segment(lo, hi).values
        base = float(1 - int(np.sum(values[: crossing - lo + 1], dtype=np.int64)))
        sums = base + np.cumsum(values, dtype=np.int64)
        real = partial_sum._block_conforms
        for claimed in Sign:
            want = _plain_report(sums, lo, claimed)
            if claimed is Sign.NONPOSITIVE:
                assert want.first_violation == crossing
            out = []
            for conforms in (real, lambda *args: False):
                monkeypatch.setattr(partial_sum, "_block_conforms", conforms)
                tally, fh = partial_sum._ScanTally(), io.StringIO()
                trace = partial_sum._Trace(fh, 0.0, 997, lo, hi)
                partial_sum._scan_exact_block(
                    partial_sum._Walker(0.0), LambdaBlock(lo, values), base, lo, claimed, tally, trace
                )
                assert dataclasses.asdict(tally) == {f: getattr(want, f) for f in dataclasses.asdict(tally)}
                out.append(fh.getvalue())
            assert out[0] == out[1]

    def test_clean_scan_walks_few_groups(self, monkeypatch):
        # the mechanism, counted: a clean alpha = 0 scan of [17, 2e6] walks
        # fewer than 2% of its 64-integer groups X by X
        groups, walked = [], []
        real_chunk, real_walk = partial_sum._scan_exact_chunk, partial_sum._walk_groups

        def chunk(walker, values, *args):
            groups.append(len(values) // partial_sum._GROUP)
            return real_chunk(walker, values, *args)

        def walk(grouped, idx, *args):
            walked.append(len(idx))
            return real_walk(grouped, idx, *args)

        monkeypatch.setattr(partial_sum, "_scan_exact_chunk", chunk)
        monkeypatch.setattr(partial_sum, "_walk_groups", walk)
        rep = scan_sign(17, 2_000_000, 0.0, Sign.NONPOSITIVE)
        assert rep.ok() and rep.max_value == 0.0
        assert len(groups) == 31 and sum(groups) > 31_000
        assert 0 < sum(walked) < 0.02 * sum(groups), (sum(walked), sum(groups))


class TestEulerProduct:
    def test_alpha2_against_closed_form(self):
        value, tail = euler_product_value(2.0, 10 ** 6)
        assert abs(value - oracles.PI2_OVER_15) <= tail

    def test_alpha4_against_closed_form(self):
        value, tail = euler_product_value(4.0, 10 ** 4)
        assert abs(value - oracles.PI4_OVER_105) <= tail + 1e-14

    def test_rejects_alpha_at_most_one(self):
        with pytest.raises(ValueError):
            euler_product_value(1.0, 100)
        with pytest.raises(ValueError):
            euler_product_value(0.5, 100)
        with pytest.raises(ValueError):
            euler_product_value(2.0, 1)
        for alpha in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                euler_product_value(alpha, 100)

    def test_consistent_with_direct_sum(self):
        # product and sum approach the same limit (alpha = 2 and 3)
        for alpha, x, plimit in [(2.0, 10 ** 6, 10 ** 6), (3.0, 10 ** 5, 10 ** 5)]:
            pv, tail = euler_product_value(alpha, plimit)
            sv, serr = evaluate(x, alpha)
            sum_tail = x ** (1.0 - alpha) / (alpha - 1.0)
            assert abs(pv - sv) <= tail + serr + sum_tail

    def test_monotone_in_alpha(self):
        values = [euler_product_value(a, 10 ** 4)[0] for a in (1.5, 2.0, 3.0, 4.0)]
        assert values == sorted(values)
