import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville_sums import liouville
from liouville_sums.liouville import (
    LambdaBlock,
    lambda_at,
    primes_upto,
    sieve_segment,
    stream_lambda_range,
)


class TestLambdaAt:
    def test_known_small_values(self):
        assert lambda_at(1) == 1  # empty product
        assert lambda_at(2) == -1
        assert lambda_at(12) == -1  # 2*2*3
        assert lambda_at(16) == 1  # 2^4

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            lambda_at(0)
        with pytest.raises(ValueError):
            lambda_at(-5)

    def test_prime_is_minus_one(self):
        assert lambda_at(999_983) == -1

    def test_large_semiprime(self):
        # 1000003 * 1000033 has two prime factors above the small-prime table
        assert lambda_at(1_000_003 * 1_000_033) == 1

    @given(st.integers(1, 10 ** 5), st.integers(1, 10 ** 5))
    def test_complete_multiplicativity(self, m, n):
        assert lambda_at(m * n) == lambda_at(m) * lambda_at(n)

    @given(st.integers(1, 2000))
    def test_square_divisor_sum_identity(self, n):
        total = sum(lambda_at(d) for d in range(1, n + 1) if n % d == 0)
        is_square = math.isqrt(n) ** 2 == n
        assert total == (1 if is_square else 0)


class TestSieveSegment:
    def test_first_ten(self):
        blk = sieve_segment(1, 10)
        assert blk.values.tolist() == [1, -1, -1, 1, -1, 1, -1, -1, 1, 1]

    def test_single_entry(self):
        assert sieve_segment(1, 1).values.tolist() == [1]

    def test_prime_window(self):
        assert sieve_segment(999_983, 999_983).values.tolist() == [-1]

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            sieve_segment(5, 4)
        with pytest.raises(ValueError):
            sieve_segment(0, 4)

    def test_rejects_oversized_segment(self):
        with pytest.raises(ValueError, match="memory budget"):
            sieve_segment(1, 2 ** 26)

    def test_matches_oracle_low(self):
        blk = sieve_segment(1, 5000)
        expected = [lambda_at(n) for n in range(1, 5001)]
        assert blk.values.tolist() == expected

    @given(st.integers(1, 10 ** 9 - 200))
    @settings(max_examples=25)
    def test_matches_oracle_random_windows(self, lo):
        blk = sieve_segment(lo, lo + 199)
        assert blk.values.tolist() == [lambda_at(n) for n in range(lo, lo + 200)]

    @pytest.mark.parametrize("lo, hi", [(1, 1), (1, 2), (1, 3), (2, 8), (1, 15), (1, 120)])
    def test_roots_below_wheel_primes(self, lo, hi):
        # isqrt(hi) < 11: the wheel table counts primes above the root, each
        # of whose squares exceeds hi
        assert sieve_segment(lo, hi).values.tolist() == [lambda_at(n) for n in range(lo, hi + 1)]

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (121, 2000),  # the smallest hi whose root reaches 11
            (2 * 55_440 - 37, 2 * 55_440 + 500),  # crosses a period boundary
            (7 * 55_440 + 12_345, 7 * 55_440 + 14_000),
            (55_440 + 999, 3 * 55_440 + 2_000),  # spans whole periods at an offset
        ],
    )
    def test_wheel_offsets(self, lo, hi):
        assert lo % 55_440 != 0
        blk = sieve_segment(lo, hi)
        assert blk.values.tolist() == [lambda_at(n) for n in range(lo, hi + 1)]

    @pytest.mark.parametrize(
        "lo, hi",
        [(2 ** 31 - 300, 2 ** 31 + 300), (2 ** 32 - 50, 2 ** 32 + 50), (10 ** 12 - 100, 10 ** 12 + 100)],
    )
    def test_windows_at_scale(self, lo, hi):
        # dyadic slice boundaries inside the window, and roots up to 1e6
        assert sieve_segment(lo, hi).values.tolist() == [lambda_at(n) for n in range(lo, hi + 1)]

    def test_dyadic_slices_not_multiples_of_the_map_run(self):
        # 40,000 integers below 2^17 and 90,001 from it: lambda is mapped in
        # place over the accumulator in runs of 2^16, the last run of each
        # slice a partial one
        lo, hi = 2 ** 17 - 40_000, 2 ** 17 + 90_000
        assert liouville._MAP_RUN == 2 ** 16
        assert sieve_segment(lo, hi).values.tolist() == [lambda_at(n) for n in range(lo, hi + 1)]

    def test_block_lives_in_one_buffer(self):
        # lambda is written over the low bytes of the int16 accumulator: a
        # block takes 2 bytes per integer, and at most 2.5 at its peak
        n = 2 ** 20
        tracemalloc.start()
        try:
            values = sieve_segment(10 ** 6, 10 ** 6 + n - 1).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n, peak
        assert values.dtype == np.int8 and values.base.nbytes == 2 * n

    def test_accumulator_fits_int16(self):
        scale = liouville._LOG_SCALE
        # each weight is 2*floor(S*log2 p) + 1, so it is at most (2S + 1)*log2 p
        # and acc(n) <= (2S + 1)*log2 n: the largest ratio is at p = 2
        for p in primes_upto(100_000).tolist():
            w = liouville._log_weight(p)
            assert w % 2 == 1
            assert (w - 1) // 2 <= scale * math.log2(p) < (w - 1) // 2 + 1
            assert w <= liouville._log_weight(2) * math.log2(p)
        assert liouville._log_weight(2) == 2 * scale + 1
        largest_acc = (2 * scale + 1) * 64  # bound for every n < 2^64
        largest_threshold = 2 * (scale - 1) * 63
        assert max(largest_acc, largest_threshold) <= np.iinfo(np.int16).max
        table = liouville._wheel_table()
        assert table.dtype == np.int16 and len(table) == 55_440
        assert int(table[0]) == sum(e * liouville._log_weight(p) for p, e in liouville._WHEEL)

    def test_threadsafe_disjoint_segments(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        # windows at different heights, each sieved from its own plan inside
        # the worker threads, switching often
        windows = [(10 ** k - 150, 10 ** k + 150) for k in range(3, 11)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as ex:
                blocks = list(ex.map(lambda w: sieve_segment(*w), windows, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for (lo, hi), blk in zip(windows, blocks):
            assert blk.values.tolist() == [lambda_at(n) for n in range(lo, hi + 1)]


class TestLambdaBlock:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            LambdaBlock(lo=0, values=np.array([1], dtype=np.int8))
        with pytest.raises(ValueError):
            LambdaBlock(lo=1, values=np.array([1, 0, -1], dtype=np.int8))
        with pytest.raises(ValueError):
            LambdaBlock(lo=1, values=np.array([-1], dtype=np.int8))
        with pytest.raises(ValueError):
            LambdaBlock(lo=3, values=np.array([], dtype=np.int8))

    @pytest.mark.parametrize("bad", [[0], [2], [-2], [127], [-128], [1, -1, 0], [-1, 1, 2]])
    def test_rejects_int8_entries_other_than_unit(self, bad):
        with pytest.raises(ValueError, match="other than"):
            LambdaBlock(lo=2, values=np.array(bad, dtype=np.int8))

    def test_rejects_non_unit_floats(self):
        with pytest.raises(ValueError, match="other than"):
            LambdaBlock(lo=2, values=np.array([0.5, 1.0]))

    @pytest.mark.parametrize(
        "values",
        [
            np.array([1, -1, -1, 1], dtype=np.int8),
            np.array([-1], dtype=np.int16),
            np.array([1, -1], dtype=np.int64),
            np.array([1, 1], dtype=np.uint8),
            np.array([1, 255], dtype=np.uint8),
            np.array([-1]).astype(np.uint16),  # 65535
            np.array([255]).astype(np.int8),  # -1
            np.array([-32768], dtype=np.int16),  # its abs wraps to itself
            np.array([np.iinfo(np.int64).min, 1]),
            np.array([[1, -1], [-1, 1]], dtype=np.int8),
            np.array([[1, 0]], dtype=np.int16),
            np.array([1.0, -1.0]),
            np.array([1.0, np.nan]),
            np.array([-1.0, np.inf]),
            np.array([1j, -1.0]),
            np.array([True, True]),
            np.array([True, False]),
        ],
        ids=lambda v: f"{v.dtype}{v.tolist()}",
    )
    def test_accepts_exactly_the_unit_arrays(self, values):
        # the check accepts what np.all(np.abs(values) == 1) accepts, casts
        # that wrap (uint16 -1, int8 255) included
        unit = bool(np.all(np.abs(values) == 1))
        try:
            LambdaBlock(lo=2, values=values)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == unit

    def test_hi_and_len(self):
        blk = sieve_segment(7, 21)
        assert blk.hi == 21
        assert len(blk) == 15


class TestStreamLambda:
    def test_partition_10_by_4(self):
        blocks = list(stream_lambda_range(1, 10, 4))
        assert [(b.lo, b.hi) for b in blocks] == [(1, 4), (5, 8), (9, 10)]

    def test_single_block(self):
        blocks = list(stream_lambda_range(1, 1, 100))
        assert len(blocks) == 1
        assert blocks[0].values.tolist() == [1]

    def test_concatenation_matches_oracle(self):
        merged = np.concatenate([b.values for b in stream_lambda_range(1, 10 ** 6, 10 ** 5)])
        assert len(merged) == 10 ** 6
        spot = np.random.default_rng(7).integers(1, 10 ** 6 + 1, size=300)
        for n in spot:
            assert merged[n - 1] == lambda_at(int(n))

    @given(st.integers(1, 400), st.integers(1, 64))
    @settings(max_examples=30)
    def test_partitioning_invariance(self, limit, seg):
        merged = np.concatenate([b.values for b in stream_lambda_range(1, limit, seg)])
        assert np.array_equal(merged, sieve_segment(1, limit).values)

    def test_block_ends_around_prime_squares(self):
        # one plan serves the stream; each block sieves with its primes through
        # isqrt(block hi): without p when the block ends at p^2 - 1, with it
        # from p^2 on.  Then a window at 1e12 cut into blocks of three sizes.
        cuts = []
        for p in (7, 11, 13, 65521, 999_983):
            lo = max(1, p * p - 30)
            cuts += [(lo, p * p + 30, end - lo + 1) for end in (p * p - 1, p * p, p * p + 1)]
        cuts += [(10 ** 12 - 100, 10 ** 12 + 100, seg) for seg in (13, 64, 150)]
        windows = {}
        for lo, hi, seg in cuts:
            if (lo, hi) not in windows:
                windows[lo, hi] = [lambda_at(n) for n in range(lo, hi + 1)]
                assert sieve_segment(lo, hi).values.tolist() == windows[lo, hi]
            blocks = list(stream_lambda_range(lo, hi, seg))
            assert blocks[0].hi == lo + seg - 1
            assert np.concatenate([b.values for b in blocks]).tolist() == windows[lo, hi]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            list(stream_lambda_range(1, 0, 4))
        with pytest.raises(ValueError):
            list(stream_lambda_range(1, 10, 0))
