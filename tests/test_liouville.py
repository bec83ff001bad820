import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_threadsafe_disjoint_segments(self):
        from concurrent.futures import ThreadPoolExecutor

        primes = primes_upto(1000)
        windows = [(1 + 500 * i, 500 * (i + 1)) for i in range(8)]
        with ThreadPoolExecutor(max_workers=4) as ex:
            blocks = list(ex.map(lambda w: sieve_segment(*w, primes), windows))
        merged = np.concatenate([b.values for b in blocks])
        assert np.array_equal(merged, sieve_segment(1, 4000).values)


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

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            list(stream_lambda_range(1, 0, 4))
        with pytest.raises(ValueError):
            list(stream_lambda_range(1, 10, 0))
