"""Running sums L(X, alpha) = sum_{n<=X} lambda(n)/n^alpha with rigorous signs.

The accumulator keeps a compensated floating-point sum together with a
worst-case rounding-error bound, so sign decisions can be made honestly:
a value is only called positive or negative when it clears the error bound.

Summation scheme: each block's float terms are summed by Sum2 of Ogita,
Rump and Oishi ("Accurate sum and dot product", SIAM J. Sci. Comput. 26
(2005), Algorithm 4.4): the sequential prefix sums s_j = fl(s_{j-1} + x_j)
of the terms, which a sign scan also needs for its per-X values, plus the
float sum of the rounding error of each of their additions, recovered
exactly by TwoSum.  Blocks are chained with a Neumaier-compensated carry.
For alpha = 0 the terms are the int8 values of lambda themselves and each
block sum is exact, an integer below 2^53 like every prefix sum.  The
tracked bound covers

  (a) per-term representation error of lambda(n)/n^alpha in binary64,
  (b) the error of each block sum (<= 1 eps of the block magnitude),
  (c) the compensated carry across blocks (<= 2 eps of the absolute sum),

and is accumulated as err_bound += eps * (K(alpha) + 4) * block_abs_sum,
where K(alpha) bounds the per-term relative error in eps units (see
_term_error_constant).  For alpha = 0 every quantity is an integer below
2^53, all arithmetic is exact, and the bound stays 0.

Item (b) for Sum2.  Let x_1..x_N be the float terms, s their exact sum,
u = eps/2 and gamma_n = n u / (1 - n u).  With s_1 = x_1 and
s_j = fl(s_{j-1} + x_j), TwoSum gives each e_j = (s_{j-1} + x_j) - s_j
exactly, so s = s_N + sum_j e_j.  The float sum r of s_N and the e_j, the
e_j added in any order, satisfies (Ogita, Rump and Oishi, Prop. 4.5)

  |r - s| <= u |s| + gamma_{N-1}^2 sum|x|.

The proof uses only sum|e_j| <= gamma_{N-1} sum|x| and that the float sum
of the N - 1 errors, in whatever order they are added, is within
gamma_{N-2} sum|e_j| of their exact sum.  Blocks hold
N <= MAX_SEGMENT_SIZE = 2^25 terms (sieve_segment and accumulate refuse
longer ones), so gamma_{N-1} < 2^-28 and
gamma_{N-1}^2 < u/8.  Hence |r - s| <= (1 + 1/8) u sum|x| < eps *
block_abs_sum, the budget of (b).  (block_abs_sum is a float sum of the
weights 1/n^alpha = |x_i|, itself within a relative 2^-28 of sum|x|, well
inside the remaining slack.)  The proof takes np.cumsum to be the
sequential recurrence above, as the per-X bounds below also do; the test
suite checks that it is on the numpy it runs with.

The chunk walk.  A block's float work runs _CHUNK integers at a time
(_Walker), in a few buffers allocated once per scan or evaluation, so a
block in flight holds about 2.5 MB of floats whatever the sieve block size.
A scan or evaluation drops each sieve block before it sieves the next.
Each chunk's weights and terms are built in place, and its prefix sums are
seeded with the last prefix sum of the chunk before, so they are the block's
s_j bit for bit.  The chunk's TwoSum errors are summed and added to the
block's error sum, and its weights likewise to the block's weight sum.  The
first chunk also holds the block's first integer, whose s_1 = x_1 is exact,
so every chunk sums the errors of _CHUNK additions (the last chunk fewer).
The block is folded into the carried state once, from those scalars
(_fold).  At alpha = 0 a block that is only folded takes just its int64 sum.

Sign scanning makes one pass per block: each chunk, as it is walked,
evaluates the running sum at its X from its prefix sums and the state
carried into the block, classifies them and writes its trace rows; the
block is folded when its last chunk is done.  Within a block the per-X
error bound uses the standard worst case for sequential summation, which
is far looser than the carried Neumaier bound but still many orders below
the observed values.  The first violation found by the scan is confirmed
with the tight accumulator, which walks the block's int8 values again up
to it from the state carried into the block.

Per-X bounds and the chunk bound.  A block of N weights w_i = 1/n^alpha
follows a carried state with total `carry` and bound E.  The scan's value at
the block's j-th integer (j = 1..N) is fl(carry + c_j), c_j the float prefix
sums of the terms, and its bound is the binary64 evaluation, in this order, of

  e_j = E + eps ((j + 1 + K) C_j + |carry|),

C_j the float sum of the first j weights that the walk gives: the block's
weight sum through the chunks before j's, then the weights of j's chunk
through j added in order (_per_x_errs).  Within a chunk the C_j never
decrease, because fl(a + w) >= a for w >= 0, and every operation of e_j is
rounded to nearest, hence monotone, on nonnegative operands; so e_j <= e_n
for every j of a chunk that ends at the n-th integer.  Let S be the block's
weight sum through that chunk, as the walk takes it.  Any order of summing
n nonnegative numbers lands within a relative
gamma_{n-1} = (n - 1) u / (1 - (n - 1) u) of their exact sum s, and C_n and
S are two such sums, so

  C_n <= (1 + gamma) s <= S (1 + gamma) / (1 - gamma) < S (1 + 2^-26),

since n <= 2^25 puts gamma below 2^-28 (1 + 2^-27).  The float
C* = fl(S (1 + 2^-25)) >= S (1 + 2^-25)(1 - u) exceeds that, and e_n
evaluated with C* in place of C_n is the scalar errmax >= every e_j of the
chunk (again by monotone rounding; _block_errmax).  At alpha = 0 every e_j
is 0 and so is errmax.

A chunk is classified from that one scalar.  For a NONPOSITIVE claim,
fl(max v + errmax) <= 0 implies fl(v_j + e_j) <= 0 at every X of the chunk
(and fl(min v - errmax) >= 0 likewise for NONNEGATIVE), so every X conforms
and the per-X arrays are never built.  Only a chunk that fails this test
(one holding a violation, an indeterminate X or a value within errmax of the
claim's boundary) builds e_j at each X and classifies X by X, with the
outcome the per-X test alone would give.  A traced scan evaluates e_j from
the same expression at the rows it writes only.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import json
import math
import os
import typing
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, TextIO

import numpy as np

from .liouville import DEFAULT_SEGMENT_SIZE, MAX_SEGMENT_SIZE, LambdaBlock, primes_upto, stream_lambda_range

#: binary64 machine epsilon (2^-52); unit roundoff is EPS/2.
EPS = float(np.finfo(np.float64).eps)

#: Default sampling stride for scan traces.
DEFAULT_TRACE_EVERY = 10_000

#: Default checkpoint interval for long scans, in integers processed.
DEFAULT_CHECKPOINT_EVERY = 10 ** 8

CHECKPOINT_FORMAT = "liouville-sums-checkpoint"
CHECKPOINT_VERSION = 2

TRACE_HEADER = "X,alpha,value,err_bound,classification"


class Sign(enum.Enum):
    """Claimed sign of a running sum over a scan range."""

    NONPOSITIVE = "nonpositive"
    NONNEGATIVE = "nonnegative"

    def violated(self, value, err):
        """True where the claim fails by more than err; floats or elementwise on arrays."""
        if self is Sign.NONPOSITIVE:
            return value - err > 0.0
        return value + err < 0.0

    def holds(self, value, err):
        """True where the claim holds even off by err; floats or elementwise on arrays."""
        if self is Sign.NONPOSITIVE:
            return value + err <= 0.0
        return value - err >= 0.0


@dataclass
class SumState:
    """Compensated running sum of lambda(n)/n^alpha.

    Attributes:
        alpha: finite exponent, >= 0
        upto: last integer included (0 before any accumulation)
        value: primary accumulator
        comp: Neumaier compensation term; the best estimate of the sum
            is value + comp
        err_bound: worst-case absolute rounding error of value + comp
        abs_sum: running sum of |lambda(n)/n^alpha| = sum 1/n^alpha
    """

    alpha: float
    upto: int = 0
    value: float = 0.0
    comp: float = 0.0
    err_bound: float = 0.0
    abs_sum: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")

    def total(self) -> float:
        """Best estimate of the accumulated sum."""
        return self.value + self.comp


def _term_error_constant(alpha: float, n_hi: int) -> float:
    """K(alpha), a bound in units of EPS on the relative error of computing 1/n^alpha.

    K = 1 at the named exponents 1/2 and 1, which use correctly rounded
    primitives (sqrt, division); otherwise K = 2 + 2 alpha max(1, ln n_hi),
    as exp(-alpha*ln n) loses more with |alpha * ln n|.  Only alpha > 0 asks.
    """
    if alpha in (0.5, 1.0):
        return 1.0
    return 2.0 + 2.0 * alpha * max(1.0, math.log(n_hi))


def _inverse_powers(ns: np.ndarray, alpha: float) -> np.ndarray:
    """Replace each integer n of the float64 array ns by 1/n^alpha in place, and return ns.

    Bit for bit 1/sqrt(n), 1/n and exp(-alpha * log(n)); only the float path
    (alpha > 0) asks.
    """
    if alpha == 0.5:
        np.sqrt(ns, out=ns)
        np.divide(1.0, ns, out=ns)
    elif alpha == 1.0:
        np.divide(1.0, ns, out=ns)
    else:
        np.log(ns, out=ns)
        ns *= -alpha
        np.exp(ns, out=ns)
    return ns


def _sum2_err(terms: np.ndarray, prefix: np.ndarray, scratch: np.ndarray) -> float:
    """Float sum of the exact errors (prefix[j-1] + terms[j]) - prefix[j], j >= 1.

    prefix holds the sequential sums prefix[j] = fl(prefix[j-1] + terms[j]);
    Knuth's branch-free TwoSum recovers the error of each addition exactly,
    in the len(terms) - 1 floats of scratch and in terms[1:], which it
    consumes.  Sum2 adds this sum to the last prefix sum (module docstring).
    """
    a, b, s = prefix[:-1], terms[1:], prefix[1:]
    bv = np.subtract(s, a, out=scratch[: len(s)])  # the part of b that reached s
    np.subtract(b, bv, out=b)  # b's error
    av = np.subtract(s, bv, out=bv)  # the part of a that reached s
    np.subtract(a, av, out=av)
    av += b
    return float(np.sum(av))


#: Integers per chunk of a block's float working set (module docstring).
_CHUNK = 1 << 16


@dataclass
class _BlockSum:
    """What a chunk walk has gathered of one block, for _fold.

    Attributes:
        n: integers walked, from the block's first
        last: the last prefix sum s_n of their terms, block-local
        err: float sum of the TwoSum errors of the additions s_j = fl(s_{j-1} + x_j)
        weight_sum: float sum of their weights 1/n^alpha (n at alpha = 0)
    """

    n: int = 0
    last: float = 0.0
    err: float = 0.0
    weight_sum: float = 0.0


class _Walker:
    """Walks blocks of lambda values _CHUNK integers at a time through buffers allocated once.

    Slot 0 of terms, prefix and weights holds what a chunk continues: the
    block's last prefix sum and its weight sum through the chunks before.
    """

    def __init__(self, alpha: float) -> None:
        self.alpha = alpha
        self.offsets = np.arange(_CHUNK + 1, dtype=np.float64)
        self.terms, self.prefix, self.weights = (np.empty(_CHUNK + 2) for _ in range(3))
        self.scratch = np.empty(_CHUNK + 1)

    def chunks(
        self, values: np.ndarray, lo: int, acc: _BlockSum
    ) -> Iterator[tuple[int, np.ndarray, Optional[np.ndarray]]]:
        """Yield (a, prefix, weights) for each chunk values[a : a + len(prefix)] of a block from lo.

        Each chunk's terms are built (load), their prefix sums taken, seeded
        with acc.last so that they continue the block's sequential s_j, and
        the chunk added to acc, before it is yielded; adding it consumes
        the chunk's terms.  prefix holds the block-local prefix sums, and
        the caller may overwrite them.
        """
        n = len(values)
        # the first chunk also holds the block's first integer, whose s_1 is exact
        edges = [0, *range(_CHUNK + 1, n, _CHUNK), n]
        for a, b in zip(edges, edges[1:]):
            m = b - a
            weights = self.load(values[a:b], lo + a, acc)
            x, s = self.terms[: m + 1], self.prefix[: m + 1]
            x[0] = acc.last
            np.cumsum(x, out=s)
            if weights is None:  # integer terms and prefix sums: no rounding error
                acc.weight_sum += m
            else:
                acc.weight_sum += float(np.sum(weights[1:]))
                skip = 1 if a == 0 else 0  # a block's first addition, to s_0 = 0, is exact
                acc.err += _sum2_err(x[skip:], s[skip:], self.scratch)
            acc.n += m
            acc.last = float(s[m])
            yield a, s[1:], weights

    def load(self, values: np.ndarray, lo: int, acc: _BlockSum) -> Optional[np.ndarray]:
        """Build the terms of one chunk of lambda values from lo in terms[1:], and return its weights.

        The weights are None at alpha = 0, where the terms are the values
        themselves.  Otherwise they are 1/n^alpha behind slot 0, which holds
        the block's weight sum before the chunk, acc.weight_sum, so that
        np.cumsum(weights)[1:] are the C_j of the chunk's per-X bounds.
        """
        m = len(values)
        if self.alpha == 0.0:
            self.terms[1 : m + 1] = values
            return None
        weights = self.weights[: m + 1]
        weights[0] = acc.weight_sum
        np.add(self.offsets[:m], lo, out=weights[1:])
        _inverse_powers(weights[1:], self.alpha)
        np.multiply(values, weights[1:], out=self.terms[1 : m + 1])
        return weights

    def block_sum(self, values: np.ndarray, lo: int) -> _BlockSum:
        """The _BlockSum of a block of values from lo that is only folded, not classified."""
        acc = _BlockSum()
        if self.alpha == 0.0:  # far cheaper than float prefix sums of the int8 values
            acc.n, acc.weight_sum = len(values), float(len(values))
            acc.last = float(np.sum(values, dtype=np.int64))
        else:
            for _ in self.chunks(values, lo, acc):
                pass
        return acc


def _fold(state: SumState, acc: _BlockSum) -> None:
    """Add a walked block of n = state.upto + 1, ..., state.upto + acc.n to the running sum.

    The block sum is Sum2's, acc.last + acc.err: exact at alpha = 0, an
    integer below 2^53, where the bound does not move.  It is folded into
    the state with a Neumaier-compensated addition; err_bound and abs_sum
    advance per the module's documented bound.
    """
    hi = state.upto + acc.n
    block_sum = acc.last + acc.err
    if state.alpha != 0.0:
        k = _term_error_constant(state.alpha, hi)
        state.err_bound += EPS * (k + 4.0) * acc.weight_sum

    # Neumaier-compensated addition of the block sum.
    t = state.value + block_sum
    if abs(state.value) >= abs(block_sum):
        state.comp += (state.value - t) + block_sum
    else:
        state.comp += (block_sum - t) + state.value
    state.value = t
    state.abs_sum += acc.weight_sum
    state.upto = hi


def accumulate(state: SumState, block: LambdaBlock) -> SumState:
    """Add lambda(n)/n^alpha for every n in the block to the running sum.

    The block sum is exact at alpha = 0; otherwise it is Sum2 over the
    terms' sequential prefix sums, taken chunk by chunk, within
    u|s| + gamma_{N-1}^2 sum|terms| of the exact sum s of the N float terms.
    It is folded into the state with a Neumaier-compensated addition;
    err_bound and abs_sum advance per the module's documented bound.

    Args:
        state: running sum; mutated in place and returned.
        block: next block; must start at state.upto + 1 and hold at most
            MAX_SEGMENT_SIZE values, which the error budget assumes.

    Raises:
        ValueError: on a gap or overlap between state and block, or a block
            longer than MAX_SEGMENT_SIZE.
    """
    if block.lo != state.upto + 1:
        raise ValueError(
            f"non-contiguous block: state ends at {state.upto}, block starts at {block.lo}"
        )
    if len(block) > MAX_SEGMENT_SIZE:
        raise ValueError(f"block of {len(block)} values exceeds MAX_SEGMENT_SIZE = {MAX_SEGMENT_SIZE}")
    _fold(state, _Walker(state.alpha).block_sum(block.values, block.lo))
    return state


def evaluate(
    X: int,
    alpha: float,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
) -> tuple[float, float]:
    """Compute L(X, alpha) with its worst-case rounding-error bound.

    Args:
        X: upper summation limit, >= 1
        alpha: finite exponent, >= 0
        segment_size: sieve block size

    Returns:
        (value, err_bound) where |value - exact| <= err_bound.
    """
    if X < 1:
        raise ValueError(f"X must be >= 1, got {X}")
    state = SumState(alpha=alpha)
    walker = _Walker(alpha)
    for block in stream_lambda_range(1, X, segment_size):
        _fold(state, walker.block_sum(block.values, block.lo))
        del block  # freed before the next block is sieved
    return state.total(), state.err_bound


@dataclass(frozen=True)
class SignReport:
    """Outcome of a sign scan over [x_lo, x_hi].

    Each X is classified against the claimed sign using the interval
    [value - err_bound, value + err_bound]:

    - conforming: the claim holds even at the worst case,
    - violating: the claim fails by more than err_bound,
    - indeterminate: the error bound straddles zero, no honest call possible.

    Attributes:
        min_value/max_value: extrema of the computed running sum over the
            scanned range; argmin/argmax the earliest X attaining them.
        first_violation: smallest violating X, or None.
        indeterminate: number of X that could not be classified.
    """

    alpha: float
    x_lo: int
    x_hi: int
    claimed_sign: Sign
    checked: int
    violations: int
    first_violation: Optional[int]
    min_value: float
    argmin: int
    max_value: float
    argmax: int
    indeterminate: int

    def ok(self) -> bool:
        """True when every X conformed to the claimed sign."""
        return self.violations == 0 and self.indeterminate == 0

    def to_dict(self) -> dict:
        return {
            **dataclasses.asdict(self),
            "claimed_sign": self.claimed_sign.value,
            "ok": self.ok(),
        }


def _per_x_errs(err_bound: float, carry: float, k: float, i, cum_weights):
    """The scan's bound e_j on its value at block position i = j - 1 (module docstring).

    cum_weights is the walk's float sum C_j of the block's weights through i,
    carry the carried total before the block, err_bound its bound and k
    _term_error_constant's.  Floats, or elementwise on arrays.
    """
    return err_bound + EPS * ((i + 2.0 + k) * cum_weights + abs(carry))


def _block_errmax(err_bound: float, carry: float, k: float, n: int, weight_sum: float) -> float:
    """At least every _per_x_errs of a chunk that ends at the block's n-th weight.

    weight_sum is a float sum of the block's first n weights.  The bound is
    e_n with C* = fl(weight_sum * (1 + 2^-25)) for C_n; the module docstring
    proves C* >= C_n for n <= 2^25.
    """
    return _per_x_errs(err_bound, carry, k, n - 1, weight_sum * (1.0 + 2.0 ** -25))


def _block_conforms(extreme: float, errmax: float, claimed: Sign) -> bool:
    """True when every X of a chunk conforms, judged from one scalar bound.

    extreme is the chunk's largest value for NONPOSITIVE and its smallest for
    NONNEGATIVE; errmax is at least every per-X bound of the chunk.
    """
    return bool(claimed.holds(extreme, errmax))


def _classify_arrays(
    values: np.ndarray, errs: np.ndarray, claimed: Sign
) -> tuple[np.ndarray, np.ndarray]:
    """Return boolean (violating, indeterminate) arrays for a value block."""
    violating = claimed.violated(values, errs)
    return violating, ~(violating | claimed.holds(values, errs))


@dataclass
class _ScanTally:
    """Mutable bookkeeping carried across blocks during a scan."""

    violations: int = 0
    first_violation: Optional[int] = None
    indeterminate: int = 0
    min_value: float = math.inf
    argmin: int = 0
    max_value: float = -math.inf
    argmax: int = 0


def _record_types(cls: type, scan: dict) -> dict:
    """Field name -> declared type of a checkpoint record, less the fields scan holds."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls) if f.name not in scan}


def _encode(record, scan: dict) -> dict:
    """A record's checkpoint fields, floats as float.hex strings, the rest as they are."""
    return {
        name: float(getattr(record, name)).hex() if hint is float else getattr(record, name)
        for name, hint in _record_types(type(record), scan).items()
    }


def _decode(cls: type, raw, scan: dict, path: str, key: str):
    """Rebuild a record from the fields _encode wrote and what scan holds of it.

    Each field must be present and of its declared type (a float as a
    float.hex string, an int not a bool); a ValueError names the one that is not.
    """
    types = _record_types(cls, scan)
    if not isinstance(raw, dict):
        raise ValueError(f"checkpoint {path!r}: {key} must be a JSON object, got {raw!r}")
    missing, unexpected = types.keys() - raw.keys(), raw.keys() - types.keys()
    if missing or unexpected:
        raise ValueError(
            f"checkpoint {path!r}: {key} must hold exactly the fields {list(types)}; "
            f"missing {sorted(missing)}, unexpected {sorted(unexpected)}"
        )
    values = {f.name: scan[f.name] for f in dataclasses.fields(cls) if f.name in scan}
    for name, hint in types.items():
        v = raw[name]
        kinds = typing.get_args(hint) or (hint,)
        try:
            if hint is float:
                values[name] = float.fromhex(v)  # a TypeError unless v is a str
            elif type(v) in kinds:
                values[name] = v
            else:
                raise TypeError
        except (TypeError, ValueError):
            want = "a float.hex string" if hint is float else " or ".join(t.__name__ for t in kinds)
            raise ValueError(
                f"checkpoint {path!r}: {key}.{name} must be {want}, got {v!r}"
            ) from None
    return cls(**values)


def _write_checkpoint(
    path: str, scan: dict, state: SumState, tally: _ScanTally, trace_bytes: Optional[int]
) -> None:
    """Write the scan's state atomically; trace_bytes is the trace's length on disk, or None."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        **scan,
        "state": _encode(state, scan),
        "tally": _encode(tally, scan),
        "trace_bytes": trace_bytes,
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
    os.replace(tmp, path)


def _check_state(state: SumState, path: str) -> None:
    """Raise a ValueError naming the first field of state that no scan could hold.

    Every float is finite, err_bound and abs_sum are >= 0, and at alpha = 0,
    where the sum is exact, err_bound is 0 and value an integer.
    """
    def fail(name: str, why: str):
        raise ValueError(f"checkpoint {path!r}: state.{name} = {getattr(state, name)!r} {why}")

    for name in ("value", "comp", "err_bound", "abs_sum"):
        if not math.isfinite(getattr(state, name)):
            fail(name, "is not finite")
    for name in ("err_bound", "abs_sum"):
        if getattr(state, name) < 0:
            fail(name, "is negative")
    if state.alpha == 0 and state.err_bound != 0:
        fail("err_bound", "is not 0 at alpha = 0")
    if state.alpha == 0 and not state.value.is_integer():
        fail("value", "is not an integer at alpha = 0")


def _check_tally(tally: _ScanTally, upto: int, x_lo: int, path: str) -> None:
    """Raise a ValueError naming the first field of tally that no scan to upto could hold.

    Before x_lo nothing is tallied.  From there on the counts cover at most
    the X in [x_lo, upto], first_violation is set exactly when a violation
    was counted, and every recorded X lies in that range.
    """
    def fail(name: str, why: str):
        raise ValueError(f"checkpoint {path!r}: tally.{name} = {getattr(tally, name)!r} {why}")

    if upto < x_lo:
        for f in dataclasses.fields(_ScanTally):
            if getattr(tally, f.name) != f.default:
                fail(f.name, f"is not {f.default!r} with state.upto = {upto} below x_lo = {x_lo}")
        return
    for name in ("violations", "indeterminate"):
        if getattr(tally, name) < 0:
            fail(name, "is negative")
    n = upto - x_lo + 1
    if tally.violations + tally.indeterminate > n:
        fail("indeterminate", f"plus tally.violations exceeds the {n} X in [x_lo, state.upto]")
    if (tally.first_violation is None) != (tally.violations == 0):
        fail("first_violation", "must be null exactly when tally.violations is 0")
    for name in ("first_violation", "argmin", "argmax"):
        x = getattr(tally, name)
        if x is not None and not x_lo <= x <= upto:
            fail(name, f"is outside [x_lo, state.upto] = [{x_lo}, {upto}]")


def _load_checkpoint(path: str, scan: dict) -> tuple[SumState, _ScanTally, Optional[int]]:
    """The state, tally and trace length a checkpoint written for scan holds."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except ValueError as exc:  # also undecodable bytes
        raise ValueError(f"checkpoint {path!r}: not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"checkpoint {path!r} must hold a JSON object")
    if payload.get("format") != CHECKPOINT_FORMAT or payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint {path!r}: unrecognized format or version")
    for key, want in scan.items():
        if payload.get(key) != want:
            raise ValueError(
                f"checkpoint {path!r} was written for {key}={payload.get(key)!r}, "
                f"scan requested {key}={want!r}"
            )
    state = _decode(SumState, payload.get("state"), scan, path, "state")
    _check_state(state, path)
    # the writer checkpoints only at a block end before x_hi
    seg, x_hi = scan["segment_size"], scan["x_hi"]
    if not (0 < state.upto < x_hi and state.upto % seg == 0):
        raise ValueError(
            f"checkpoint {path!r}: state.upto = {state.upto} is not a multiple of "
            f"segment_size={seg} below x_hi={x_hi}"
        )
    tally = _decode(_ScanTally, payload.get("tally"), scan, path, "tally")
    _check_tally(tally, state.upto, scan["x_lo"], path)
    if "trace_bytes" not in payload:
        raise ValueError(f"checkpoint {path!r}: trace_bytes is missing")
    trace_bytes = payload["trace_bytes"]
    if trace_bytes is not None and (type(trace_bytes) is not int or trace_bytes < 0):
        raise ValueError(
            f"checkpoint {path!r}: trace_bytes must be null or an int >= 0, got {trace_bytes!r}"
        )
    return state, tally, trace_bytes


def scan_sign(
    x_lo: int,
    x_hi: int,
    alpha: float,
    claimed_sign: Sign,
    *,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    trace_path: Optional[str] = None,
    trace_every: int = DEFAULT_TRACE_EVERY,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    progress: Optional[Callable[[int], None]] = None,
) -> SignReport:
    """Classify the running sum at every integer X in [x_lo, x_hi].

    The sum always starts at n = 1; integers below x_lo are accumulated but
    not classified.  Each block is sieved once and walked _CHUNK integers at
    a time (module docstring): each chunk's terms are computed once (at
    alpha = 0 they stay integers) and their prefix sums taken once, and the
    chunk is classified against the state carried into the block; the block
    is folded into the carried state after its last chunk.  At alpha = 0 a
    block wholly below x_lo takes only its int64 sum.  A chunk whose extreme
    value clears one scalar bound errmax, at least every per-X bound of the
    chunk, conforms at every X; only a chunk that fails that test has its
    per-X bounds built and each X classified.  The first violation is
    confirmed with the tight compensated accumulator, resumed from the
    state carried into its block, before the scan moves on (skipped for
    alpha = 0, where arithmetic is exact).  Resumed scans keep the same
    block boundaries, because the checkpoint pins segment_size, so the
    confirmed value is the one evaluate(X, alpha, segment_size) returns.

    Args:
        x_lo, x_hi: inclusive scan range, 1 <= x_lo <= x_hi
        alpha: finite exponent, >= 0
        claimed_sign: the sign the sum is claimed to keep on the range
        segment_size: sieve block size
        trace_path: optional CSV trace; one row per trace_every integers,
            plus every violating or indeterminate X
        trace_every: trace sampling stride, >= 1
        checkpoint_path: optional JSON checkpoint rewritten every
            checkpoint_every integers; an existing compatible checkpoint is
            resumed from; a traced resume first cuts the trace back to the
            length the checkpoint records, so that no row is written twice
        checkpoint_every: checkpoint interval, >= 1
        progress: optional callback invoked with the last integer processed

    Returns:
        SignReport for the scanned range.

    Raises:
        ValueError: on an invalid range, alpha or stride, a checkpoint
            that was written for another scan, does not decode, or holds a
            state or tally that no scan could hold, or a traced resume from
            a checkpoint that records no trace, or whose trace is missing,
            shorter than it records or does not begin with TRACE_HEADER.
        RuntimeError: if the tight accumulator cannot confirm the first
            violation flagged by the per-X bound.
    """
    if not (1 <= x_lo <= x_hi):
        raise ValueError(f"invalid scan range [{x_lo}, {x_hi}]")
    if trace_every < 1:
        raise ValueError(f"trace_every must be >= 1, got {trace_every}")
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    state = SumState(alpha=alpha)
    tally = _ScanTally()
    trace_bytes = None
    # what a checkpoint records of the scan, and must match to be resumed
    scan = dict(
        alpha=alpha, claimed_sign=claimed_sign.value, x_lo=x_lo, x_hi=x_hi, segment_size=segment_size
    )
    if checkpoint_path and os.path.exists(checkpoint_path):
        state, tally, trace_bytes = _load_checkpoint(checkpoint_path, scan)

    resuming = trace_path is not None and state.upto > 0
    if resuming:
        # a traced resume continues the trace the checkpoint records, and
        # drops the rows a run past the checkpoint wrote; they are written again
        if trace_bytes is None:
            raise ValueError(
                f"checkpoint {checkpoint_path!r} records an untraced scan; "
                f"trace {trace_path!r} cannot continue it"
            )
        if not os.path.exists(trace_path):
            raise ValueError(
                f"trace {trace_path!r} is missing; checkpoint {checkpoint_path!r} records "
                f"{trace_bytes} bytes of it"
            )
        if os.path.getsize(trace_path) < trace_bytes:
            raise ValueError(
                f"trace {trace_path!r} is shorter than the {trace_bytes} bytes "
                f"checkpoint {checkpoint_path!r} records"
            )
        header = (TRACE_HEADER + "\n").encode()
        with open(trace_path, "rb") as fh:
            if trace_bytes < len(header) or fh.read(len(header)) != header:
                raise ValueError(
                    f"trace {trace_path!r} does not begin with the header {TRACE_HEADER!r} "
                    f"in the {trace_bytes} bytes checkpoint {checkpoint_path!r} records"
                )
        os.truncate(trace_path, trace_bytes)
    with (
        open(trace_path, "a" if resuming else "w", encoding="utf-8")
        if trace_path is not None else contextlib.nullcontext()
    ) as trace_fh:
        if trace_fh is not None and not resuming:
            trace_fh.write(TRACE_HEADER + "\n")

        walker = _Walker(alpha)
        for block in stream_lambda_range(state.upto + 1, x_hi, segment_size):
            start = dataclasses.replace(state)  # the state carried into the block
            confirm = None  # block position of a first violation to confirm
            if block.hi < x_lo:
                acc = walker.block_sum(block.values, block.lo)
            else:
                acc = _BlockSum()
                carry, err_bound = start.total(), start.err_bound
                k = _term_error_constant(alpha, block.hi)
                for a, v, weights in walker.chunks(block.values, block.lo, acc):
                    # Classify only the part of the chunk inside [x_lo, x_hi].
                    c0 = max(0, x_lo - block.lo - a)
                    if c0 >= len(v):
                        continue
                    i0 = a + c0  # the block position of the chunk's first classified X
                    v = v[c0:]
                    # exact at alpha = 0: carry and the prefix sums are integers below 2^53
                    v += carry
                    xs0 = block.lo + i0

                    i_min = int(np.argmin(v))
                    if float(v[i_min]) < tally.min_value:
                        tally.min_value = float(v[i_min])
                        tally.argmin = xs0 + i_min
                    i_max = int(np.argmax(v))
                    if float(v[i_max]) > tally.max_value:
                        tally.max_value = float(v[i_max])
                        tally.argmax = xs0 + i_max

                    if weights is None:
                        errmax = 0.0

                        def errs_at(r):
                            return np.zeros(len(r))
                    else:
                        errmax = _block_errmax(err_bound, carry, k, i0 + len(v), acc.weight_sum)

                        def errs_at(r):
                            return _per_x_errs(err_bound, carry, k, i0 + r, np.cumsum(weights)[1 + c0 + r])

                    extreme = v[i_max] if claimed_sign is Sign.NONPOSITIVE else v[i_min]
                    if _block_conforms(float(extreme), errmax, claimed_sign):
                        violating = indeterminate = np.broadcast_to(False, v.shape)
                    else:
                        violating, indeterminate = _classify_arrays(
                            v, errs_at(np.arange(len(v))), claimed_sign
                        )
                        n_viol = int(np.count_nonzero(violating))
                        if n_viol and tally.first_violation is None:
                            i = i0 + int(np.argmax(violating))
                            tally.first_violation = block.lo + i
                            if weights is not None:
                                confirm = i
                        tally.violations += n_viol
                        tally.indeterminate += int(np.count_nonzero(indeterminate))

                    if trace_fh is not None:
                        _emit_trace_rows(
                            trace_fh, alpha, trace_every, xs0, v, errs_at, violating, indeterminate,
                            x_lo, x_hi,
                        )
            _fold(state, acc)
            if confirm is not None:
                _confirm_in_block(start, block.values[: confirm + 1], block.lo, claimed_sign, walker)

            if progress is not None:
                progress(state.upto)
            # at the first block end past each multiple of checkpoint_every
            crossed = state.upto // checkpoint_every > start.upto // checkpoint_every
            if checkpoint_path and crossed and state.upto < x_hi:
                trace_bytes = None
                if trace_fh is not None:
                    trace_fh.flush()  # the rows through state.upto are on disk first
                    trace_bytes = os.fstat(trace_fh.fileno()).st_size
                _write_checkpoint(checkpoint_path, scan, state, tally, trace_bytes)
            del block  # freed before the next block is sieved

    return SignReport(
        alpha=alpha,
        x_lo=x_lo,
        x_hi=x_hi,
        claimed_sign=claimed_sign,
        checked=x_hi - x_lo + 1,
        **dataclasses.asdict(tally),
    )


#: Trace labels, indexed by 2 * violating + indeterminate.
_TRACE_LABELS = ("conforming", "indeterminate", "violation")

#: Trace rows formatted per write; bounds the memory of their Python strings.
_TRACE_CHUNK = 1 << 12


def _emit_trace_rows(
    fh: TextIO,
    alpha: float,
    every: int,
    xs0: int,
    values: np.ndarray,
    errs_at: Callable[[np.ndarray], np.ndarray],
    violating: np.ndarray,
    indeterminate: np.ndarray,
    x_lo: int,
    x_hi: int,
) -> None:
    """Write the rows of the multiples of every, the range ends and every flagged X.

    Row i is X = xs0 + i, with full round-trip precision; errs_at(rows) gives
    the per-X bounds at the rows written, and is called once.
    """
    n = len(values)
    keep = violating | indeterminate
    keep[-xs0 % every :: every] = True
    keep[0] |= xs0 == x_lo
    keep[n - 1] |= xs0 + n - 1 == x_hi
    rows = np.flatnonzero(keep)
    errs = errs_at(rows)
    # alpha's field, formatted once; a row's cost is then the reprs of v and e
    mid = f",{alpha!r},"
    for i in range(0, len(rows), _TRACE_CHUNK):
        r = rows[i : i + _TRACE_CHUNK]
        labels = (2 * violating[r] + indeterminate[r]).tolist()
        xs, vs, es = (xs0 + r).tolist(), values[r].tolist(), errs[i : i + _TRACE_CHUNK].tolist()
        fh.write("".join(
            f"{x}{mid}{v!r},{e!r},{_TRACE_LABELS[c]}\n" for x, v, e, c in zip(xs, vs, es, labels)
        ))


def _confirm_in_block(
    start: SumState, values: np.ndarray, lo: int, claimed: Sign, walker: _Walker
) -> None:
    """Confirm a violation at X = start.upto + len(values) with the tight accumulator.

    start is the state carried at the start of the violation's block, lo that
    block's first integer and values its lambda values from lo to X, so the
    walk and fold into a copy do the arithmetic of evaluate(X, alpha,
    segment_size).  Slack in the scan's per-X bound can only hide a
    violation, never invent one; this guards against a per-X bound that is
    too small, or a mislabelled X (never observed outside tests).
    """
    check = dataclasses.replace(start)
    _fold(check, walker.block_sum(values, lo))
    x, value, err = check.upto, check.total(), check.err_bound
    if not claimed.violated(value, err):
        raise RuntimeError(
            f"scan flagged X={x} as violating but the compensated recomputation "
            f"(value={value!r}, err_bound={err!r}) cannot confirm it; "
            f"rerun with a smaller segment_size"
        )


def euler_product_value(alpha: float, prime_limit: int) -> tuple[float, float]:
    """Finite Euler product prod_{p <= prime_limit} (1 + p^-alpha)^-1.

    The product converges (for alpha > 1) to the limit of the weighted sums
    L(X, alpha) as X grows.  The omitted tail satisfies

        |log(limit) - log(value)| <= sum_{n > prime_limit} n^-alpha
                                  <= prime_limit^(1-alpha) / (alpha - 1),

    and that bound is returned alongside the value.  The product is formed
    as exp(-fsum(log1p(p^-alpha))), so its own rounding error is a few eps.

    Args:
        alpha: exponent, must be > 1
        prime_limit: include primes up to this bound, >= 2

    Returns:
        (value, tail_bound) with tail_bound as above (a bound on the log,
        and since value < 1 also a bound on |value - limit|).

    Raises:
        ValueError: if alpha is not a finite number > 1, or prime_limit < 2.
    """
    if not (math.isfinite(alpha) and alpha > 1.0):
        raise ValueError(f"the product requires a finite alpha > 1, got {alpha}")
    if prime_limit < 2:
        raise ValueError(f"prime_limit must be >= 2, got {prime_limit}")
    ps = primes_upto(prime_limit).astype(np.float64)
    log_factors = np.log1p(ps ** (-alpha))
    value = math.exp(-math.fsum(log_factors.tolist()))
    tail_bound = prime_limit ** (1.0 - alpha) / (alpha - 1.0)
    return value, tail_bound
