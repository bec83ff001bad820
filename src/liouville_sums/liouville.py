"""Exact values of the Liouville function, pointwise and as a segmented sieve.

The Liouville function lambda(n) = (-1)^Omega(n), where Omega(n) counts prime
factors with multiplicity, is completely multiplicative and takes only the
values +1 and -1 (never 0).

Provides:
- lambda_at(n): pointwise value by full trial division.  Slow but entirely
  independent of the sieve, so it doubles as the correctness oracle.
- sieve_segment(lo, hi): exact lambda on a contiguous window via a
  weighted-add segmented sieve with one int16 accumulator.
- stream_lambda_range(lo, hi, segment_size): consecutive sieved blocks
  covering [lo, hi], from one sieving plan.

Why the sieve is exact.  Let r = isqrt(hi), S = _LOG_SCALE = 64, and let P
be the counted primes: those <= r together with the wheel primes 2, 3, 5,
7 and 11.  Each p in P has the odd weight w_p = 2*c_p + 1 with
c_p = floor(S*log2 p), and each power p^k <= hi adds w_p to its multiples
(a wheel prime above r has p^2 > hi, so its first power is its only one),
so for n in [lo, hi]

    acc(n) = sum_{p in P} v_p(n) * w_p = 2*A(n) + (Omega_P(n) mod 2)

with A(n) = sum v_p(n)*c_p, where Omega_P counts the prime factors in P
with multiplicity.  Write n = m*q with m the P-smooth part.  Every prime
factor of q exceeds r, and n <= hi < (r + 1)^2, so q is 1 or a single
prime q > r; it is not a wheel prime either, so q >= 13.  Hence
lambda(n) = (-1)^(Omega_P(n) + [q > 1]).  With k = floor(log2 n) and
S*log2 p - 1 < c_p <= S*log2 p:

- q = 1: A(n) >= S*log2 n - Omega(n) >= (S - 1)*log2 n >= (S - 1)*k,
  because Omega(n) <= log2 n.
- q > 1: A(n) <= S*log2 m = S*(log2 n - log2 q) < S*(k + 1) - S*L with
  L = log2 q.  q^2 >= (r + 1)^2 > n gives L > k/2, and q >= 13 gives
  L > 3 >= S/(S - 2), so S*L >= S + 2L > S + k and A(n) < (S - 1)*k.

So q > 1 exactly when A(n) < (S - 1)*k, i.e. acc(n) < 2*(S - 1)*k, one
integer threshold per dyadic slice [2^k, 2^(k+1)) of the window; no
per-element logarithm is taken.  Headroom: acc(n) <= sum v_p(n)*(2*S*log2 p
+ 1) <= (2*S + 1)*log2 n = 129*log2 n < 8256 for n < 2^64, below the int16
maximum 32767, and the largest threshold 2*63*63 = 7938 fits as well.

The block is built in one buffer.  Slice by slice, _MAP_RUN entries at a
time, the threshold test and the parity of a run acc[a:b] go into small
temporaries, and 1 - 2*(parity ^ big) is stored as int8 over the bytes
[a, b) of acc itself; the block's values are the first size bytes of that
buffer, 2 bytes per integer.  Bytes [a, b) overlap only the accumulator
entries [a/2, b/2), all below b, and the runs go in increasing order, so
every entry a store overwrites has already been read.

The sieving plan, the primes <= r and their weights, is built per call: a
stream's serves all its blocks, each sieving with its own primes <= r.  No
state is shared, so disjoint segments can be sieved concurrently.  Anything
that needs ordered results (running sums) must consume blocks in order.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

#: Default number of integers per sieved block (cache-resident working set).
DEFAULT_SEGMENT_SIZE = 1 << 20

#: Hard ceiling on a single segment; guards against accidental huge allocations.
MAX_SEGMENT_SIZE = 1 << 25

# Small primes used by lambda_at.  65536^2 > 4.2e9, enough to factor any
# 32-bit integer outright; larger n fall back to odd trial division.
_SMALL_PRIME_LIMIT = 65536

#: Scale S of the sieve's fixed-point logarithms: a prime p weighs
#: 2*floor(S*log2 p) + 1.
_LOG_SCALE = 64

#: Accumulator entries mapped to lambda per step of the in-place map.
_MAP_RUN = 1 << 16

#: Wheel prime powers laid down from one periodic table, and its period.
_WHEEL = ((2, 4), (3, 2), (5, 1), (7, 1), (11, 1))
_WHEEL_PERIOD = 2 ** 4 * 3 ** 2 * 5 * 7 * 11


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


def _all_unit(values) -> bool:
    """np.all(np.abs(values) == 1), without block-sized temporaries for integer values."""
    v = np.asarray(values)
    if v.dtype.kind not in "iu":
        return bool(np.all(np.abs(v) == 1))
    # a zero is the only integer in [-1, 1] whose absolute value is not 1
    return v.size == 0 or bool(v.min() >= -1 and v.max() <= 1 and np.count_nonzero(v) == v.size)


@dataclass(frozen=True)
class LambdaBlock:
    """A contiguous run of exact Liouville values.

    Attributes:
        lo: first integer covered (inclusive, >= 1)
        values: int8 array with values[i] = lambda(lo + i), each entry +/-1;
            sieve_segment's is a view of its int16 accumulator
    """

    lo: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.lo < 1:
            raise ValueError(f"block must start at >= 1, got lo={self.lo}")
        if len(self.values) == 0:
            raise ValueError("empty block")
        if not _all_unit(self.values):
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
    sieve_segment beyond primes_upto, from which it takes its own constant
    list of trial divisors.

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


def _log_weight(p: int) -> int:
    """Sieve weight 2*floor(S*log2 p) + 1 of the prime p, computed exactly.

    floor(S*log2 p) is the largest c with 2^c <= p^S, i.e. one less than the
    bit length of p^S, so no floating-point logarithm is involved.
    """
    return 2 * ((p ** _LOG_SCALE).bit_length() - 1) + 1


@lru_cache(maxsize=1)
def _small_primes() -> tuple[int, ...]:
    """The primes <= _SMALL_PRIME_LIMIT, lambda_at's trial divisors."""
    return tuple(primes_upto(_SMALL_PRIME_LIMIT).tolist())


@lru_cache(maxsize=1)
def _wheel_table() -> np.ndarray:
    """Weights of the wheel prime powers dividing n, indexed by n mod _WHEEL_PERIOD."""
    table = np.zeros(_WHEEL_PERIOD, dtype=np.int16)
    for p, e in _WHEEL:
        w = _log_weight(p)
        for k in range(1, e + 1):
            table[:: p ** k] += w
    table.flags.writeable = False
    return table


def _check_size(size: int) -> None:
    """Refuse a block of more than MAX_SEGMENT_SIZE integers."""
    if size > MAX_SEGMENT_SIZE:
        raise ValueError(f"segment of {size} entries exceeds the memory budget of {MAX_SEGMENT_SIZE}")


def _sieve_plan(hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(every prime p <= isqrt(hi), its weight _log_weight(p)): the primes that sieve up to hi."""
    primes = primes_upto(math.isqrt(hi))
    return primes, np.array([_log_weight(p) for p in primes.tolist()], dtype=np.int64)


def sieve_segment(lo: int, hi: int) -> LambdaBlock:
    """Exact lambda(n) for every n in [lo, hi] via a weighted-add sieve.

    The wheel 2^4 * 3^2 * 5 * 7 * 11 is laid down from a periodic table, and
    every further prime power p^k <= hi of a prime p <= sqrt(hi) adds the
    odd weight w_p = 2*floor(S*log2 p) + 1 (S = _LOG_SCALE) to its multiples
    in one int16 accumulator.  The low bit of acc(n) is then the parity of
    the counted prime factors of n, and acc(n) >> 1 = A(n) is the scaled
    log of their product; n has one further prime factor above sqrt(hi)
    exactly when A(n) < (S - 1)*floor(log2 n) (see the module docstring for
    the proof).  acc(n) <= (2*S + 1)*log2 n < 8256 for n < 2^64, within
    int16.  lambda is written in place over the accumulator's low bytes, so
    the block takes 2 bytes per integer.  Each call builds its own sieving
    plan, the primes <= sqrt(hi) and their weights, and shares nothing.

    Args:
        lo: window start (inclusive), >= 1
        hi: window end (inclusive), >= lo

    Returns:
        LambdaBlock covering [lo, hi].

    Raises:
        ValueError: if lo > hi, lo < 1, or the window exceeds MAX_SEGMENT_SIZE.
    """
    lo, hi = operator.index(lo), operator.index(hi)
    if lo < 1:
        raise ValueError(f"segment must start at >= 1, got lo={lo}")
    if lo > hi:
        raise ValueError(f"empty segment: lo={lo} > hi={hi}")
    _check_size(hi - lo + 1)
    return _sieve_block(lo, hi, *_sieve_plan(hi))


def _sieve_block(lo: int, hi: int, primes: np.ndarray, weights: np.ndarray) -> LambdaBlock:
    """lambda on [lo, hi] from a plan holding every prime <= isqrt(hi); only those sieve."""
    size = hi - lo + 1
    acc = np.empty(size, dtype=np.int16)
    table = _wheel_table()
    pos, off = 0, lo % _WHEEL_PERIOD
    while pos < size:
        n = min(size - pos, _WHEEL_PERIOD - off)
        acc[pos : pos + n] = table[off : off + n]
        pos, off = pos + n, 0
    done = dict(_WHEEL)  # prime -> highest power already in acc
    count = primes.searchsorted(math.isqrt(hi), side="right")
    for p, w in zip(primes[:count].tolist(), weights[:count].tolist()):
        pk = p ** (done.get(p, 0) + 1)
        while pk <= hi:
            start = -lo % pk
            if start >= size:
                break
            acc[start::pk] += w
            pk *= p

    # lambda(n) = (-1)^(parity + [acc(n) < 2*(S-1)*floor(log2 n)]), written in
    # place over the low bytes of acc, _MAP_RUN entries at a time (module docstring)
    values = acc.view(np.int8)[:size]
    big_run = np.empty(min(size, _MAP_RUN), dtype=bool)
    lam_run = np.empty(len(big_run), dtype=np.int8)
    for k in range(lo.bit_length() - 1, hi.bit_length()):
        threshold = 2 * (_LOG_SCALE - 1) * k
        end = min(hi + 1, 1 << (k + 1)) - lo
        for a in range(max(lo, 1 << k) - lo, end, _MAP_RUN):
            b = min(a + _MAP_RUN, end)
            big, lam = big_run[: b - a], lam_run[: b - a]
            np.less(acc[a:b], threshold, out=big)
            np.bitwise_and(acc[a:b], 1, out=lam)
            lam ^= big
            lam *= -2
            lam += 1
            values[a:b] = lam  # bytes [a, b) of acc: its entries [a/2, b/2), all read
    return LambdaBlock(lo=lo, values=values)


def stream_lambda_range(
    lo: int,
    hi: int,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
) -> Iterator[LambdaBlock]:
    """Yield consecutive non-overlapping blocks of lambda covering [lo, hi].

    One sieving plan, the primes <= sqrt(hi) and their weights, serves every
    block, which sieves with its primes through sqrt(block hi).

    Args:
        lo: first integer to cover, >= 1
        hi: last integer to cover, >= lo
        segment_size: entries per block, >= 1

    Yields:
        LambdaBlock instances covering [lo, lo + segment_size - 1],
        [lo + segment_size, ...] and so on up to hi, in order.
    """
    lo, hi, segment_size = operator.index(lo), operator.index(hi), operator.index(segment_size)
    if segment_size < 1:
        raise ValueError(f"segment_size must be >= 1, got {segment_size}")
    if lo < 1 or lo > hi:
        raise ValueError(f"invalid range [{lo}, {hi}]")
    _check_size(min(segment_size, hi - lo + 1))
    plan = _sieve_plan(hi)
    start = lo
    while start <= hi:
        end = min(start + segment_size - 1, hi)
        yield _sieve_block(start, end, *plan)
        start = end + 1
