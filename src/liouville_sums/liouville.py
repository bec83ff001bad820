"""Exact values of the Liouville function, pointwise and as a segmented sieve.

The Liouville function lambda(n) = (-1)^Omega(n), where Omega(n) counts prime
factors with multiplicity, is completely multiplicative and takes only the
values +1 and -1 (never 0).

Provides:
- lambda_at(n): pointwise value by full trial division.  Slow but entirely
  independent of the sieve, so it doubles as the correctness oracle.
- sieve_segment(lo, hi): exact lambda on a contiguous window via a
  residual-division segmented sieve.
- stream_lambda_range(lo, hi, segment_size): consecutive sieved blocks
  covering [lo, hi], with base primes computed once and reused.

Base-prime tables are immutable numpy arrays and may be shared freely;
disjoint segments can be sieved concurrently.  Anything that needs ordered
results (running sums in particular) must consume blocks in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

#: Default number of integers per sieved block (cache-resident working set).
DEFAULT_SEGMENT_SIZE = 1 << 20

#: Hard ceiling on a single segment; guards against accidental huge allocations.
MAX_SEGMENT_SIZE = 1 << 25

# Small primes used by lambda_at.  65536^2 > 4.2e9, enough to factor any
# 32-bit integer outright; larger n fall back to odd trial division.
_SMALL_PRIME_LIMIT = 65536
_small_primes_cache: Optional[np.ndarray] = None


def primes_upto(n: int) -> np.ndarray:
    """Return all primes <= n as an int64 array (sieve of Eratosthenes)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.nonzero(is_prime)[0].astype(np.int64)


def _small_primes() -> np.ndarray:
    global _small_primes_cache
    if _small_primes_cache is None:
        _small_primes_cache = primes_upto(_SMALL_PRIME_LIMIT)
    return _small_primes_cache


@dataclass(frozen=True)
class LambdaBlock:
    """A contiguous run of exact Liouville values.

    Attributes:
        lo: first integer covered (inclusive, >= 1)
        values: int8 array with values[i] = lambda(lo + i), each entry +/-1
    """

    lo: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.lo < 1:
            raise ValueError(f"block must start at >= 1, got lo={self.lo}")
        if len(self.values) == 0:
            raise ValueError("empty block")
        if not np.all(np.abs(self.values) == 1):
            raise ValueError("block contains entries other than +1/-1")
        if self.lo == 1 and self.values[0] != 1:
            raise ValueError("lambda(1) must be +1")

    @property
    def hi(self) -> int:
        """Last integer covered (inclusive)."""
        return self.lo + len(self.values) - 1

    def __len__(self) -> int:
        return len(self.values)


def lambda_at(n: int) -> int:
    """Liouville function at a single point, by full trial division.

    Serves as the independent oracle for the sieve: it shares no code with
    sieve_segment beyond the base prime table.

    Args:
        n: integer >= 1

    Returns:
        (-1)**Omega(n), i.e. +1 or -1.

    Raises:
        ValueError: if n < 1.
    """
    if n < 1:
        raise ValueError(f"lambda(n) requires n >= 1, got {n}")
    m = n
    omega = 0
    for p in _small_primes():
        p = int(p)
        if p * p > m:
            break
        while m % p == 0:
            m //= p
            omega += 1
    else:
        # Residual still composite with all factors > 65536: odd trial division.
        p = _SMALL_PRIME_LIMIT + 1
        while p * p <= m:
            while m % p == 0:
                m //= p
                omega += 1
            p += 2
    if m > 1:
        omega += 1
    return 1 if omega % 2 == 0 else -1


def sieve_segment(lo: int, hi: int, base_primes: Optional[np.ndarray] = None) -> LambdaBlock:
    """Exact lambda(n) for every n in [lo, hi] via residual division.

    Every base prime p <= sqrt(hi) is divided out of each residual with full
    multiplicity (one pass per prime power), flipping a parity bit per factor.
    A residual that remains > 1 afterwards is a single prime > sqrt(hi) and
    contributes exactly one more factor.

    Args:
        lo: window start (inclusive), >= 1
        hi: window end (inclusive), >= lo
        base_primes: optional precomputed primes covering sqrt(hi); computed
            on the fly when omitted.

    Returns:
        LambdaBlock covering [lo, hi].

    Raises:
        ValueError: if lo > hi, lo < 1, or the window exceeds MAX_SEGMENT_SIZE.
    """
    if lo < 1:
        raise ValueError(f"segment must start at >= 1, got lo={lo}")
    if lo > hi:
        raise ValueError(f"empty segment: lo={lo} > hi={hi}")
    size = hi - lo + 1
    if size > MAX_SEGMENT_SIZE:
        raise ValueError(
            f"segment of {size} entries exceeds the memory budget of {MAX_SEGMENT_SIZE}"
        )
    root = math.isqrt(hi)
    if base_primes is None:
        base_primes = primes_upto(root)

    residual = np.arange(lo, hi + 1, dtype=np.int64)
    parity = np.zeros(size, dtype=np.int8)
    for p in base_primes:
        p = int(p)
        if p > root:
            break
        pk = p
        while pk <= hi:
            start = ((lo + pk - 1) // pk) * pk - lo
            if start >= size:
                break
            residual[start::pk] //= p
            parity[start::pk] ^= 1
            pk *= p
    # Any residual > 1 is a single prime factor above sqrt(hi).
    parity[residual > 1] ^= 1
    values = (1 - 2 * parity).astype(np.int8)
    return LambdaBlock(lo=lo, values=values)


def stream_lambda_range(
    lo: int,
    hi: int,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
) -> Iterator[LambdaBlock]:
    """Yield consecutive non-overlapping blocks of lambda covering [lo, hi].

    Base primes up to sqrt(hi) are computed once and reused per segment.

    Args:
        lo: first integer to cover, >= 1
        hi: last integer to cover, >= lo
        segment_size: entries per block, >= 1

    Yields:
        LambdaBlock instances covering [lo, lo + segment_size - 1],
        [lo + segment_size, ...] and so on up to hi, in order.
    """
    if segment_size < 1:
        raise ValueError(f"segment_size must be >= 1, got {segment_size}")
    if lo < 1 or lo > hi:
        raise ValueError(f"invalid range [{lo}, {hi}]")
    base_primes = primes_upto(math.isqrt(hi))
    start = lo
    while start <= hi:
        end = min(start + segment_size - 1, hi)
        yield sieve_segment(start, end, base_primes)
        start = end + 1
