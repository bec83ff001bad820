import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville_sums.zeta import (
    _COEFF,
    BERNOULLI_2K,
    MAX_M,
    ComplexValue,
    _em_params_batch,
    _tail_factor,
    em_params,
    zeta,
    zeta_batch,
    zeta_prime,
    zeta_with_prime,
)
from liouville_sums.zeros import bundled_zero_table

import oracles

# The remainder rows a batch computes past a point's own M must never overflow,
# and no value may come from an invalid operation: every zeta test runs with
# RuntimeWarning as an error.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _build_points():
    """The residue build's points for the bundled table: 1/2 + i gamma, then 1 + 2i gamma."""
    gammas = bundled_zero_table().gammas
    return [complex(0.5, g) for g in gammas] + [complex(1.0, 2.0 * g) for g in gammas]


def _scalar_rule(s, target_eps):
    """em_params one point at a time in scalar arithmetic, the guard extended two factors per M."""
    N = max(10, math.ceil(abs(s.imag)))
    while True:
        rising = abs(s) + 1.0
        for M in range(1, MAX_M + 1):
            for j in (2 * M - 1, 2 * M):
                rising *= abs(complex(s.real + j, s.imag)) + 1.0
            omitted = abs(_COEFF[M + 1]) * rising * N ** (-s.real - 2 * M - 1)
            if omitted * _tail_factor(s.real, M, s) <= target_eps:
                return N, M
        if N > 2 ** 24:
            return N, MAX_M
        N *= 2


class TestBernoulli:
    def test_literals_equal_exact_recurrence(self):
        # B_m = -1/(m+1) sum_{j<m} C(m+1, j) B_j, in exact rationals, then rounded
        frac = [Fraction(1)]
        for m in range(1, 2 * MAX_M + 3):
            frac.append(-sum(math.comb(m + 1, j) * b for j, b in enumerate(frac)) / (m + 1))
        assert len(BERNOULLI_2K) == MAX_M + 2 == 31
        for k, b in enumerate(BERNOULLI_2K):
            assert b == float(frac[2 * k]), f"B_{2 * k}"

    def test_first_values_exact(self):
        assert BERNOULLI_2K[0] == 1.0
        assert BERNOULLI_2K[1] == pytest.approx(1 / 6, rel=1e-15)
        assert BERNOULLI_2K[2] == pytest.approx(-1 / 30, rel=1e-15)
        assert BERNOULLI_2K[3] == pytest.approx(1 / 42, rel=1e-15)
        assert BERNOULLI_2K[15] == pytest.approx(601580873.900642368, rel=1e-15)  # B_30


class TestEmParams:
    def test_floor_at_low_height(self):
        n, m = em_params(2, 1e-12)
        assert n >= 10

    def test_floor_tracks_imaginary_part(self):
        n, m = em_params(complex(0.5, 100), 1e-12)
        assert n >= 100
        n, m = em_params(complex(0.5, 500), 1e-12)
        assert n >= 500

    def test_params_reach_oracle_accuracy(self):
        s = complex(0.5, 500)
        got = zeta(s)
        want, werr = oracles.eta_zeta(s, target_digits=30)
        assert abs(got.value - complex(want)) < 1e-9

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            em_params(2, 0.0)

    def test_matches_guard_rebuilt_per_m(self):
        # em_params extends the guard product two factors per M; the rule as
        # first written rebuilt it for every M; both must pick the same (N, M)
        def rebuilt(s, target_eps):
            N = max(10, math.ceil(abs(s.imag)))
            while True:
                for M in range(1, MAX_M + 1):
                    rising = 1.0
                    for j in range(2 * M + 1):
                        rising *= abs(complex(s.real + j, s.imag)) + 1.0
                    mag = abs(_COEFF[M + 1]) * rising * N ** (-s.real - 2 * M - 1)
                    if mag * _tail_factor(s.real, M, s) <= target_eps:
                        return N, M
                if N > 2 ** 24:
                    return N, MAX_M
                N *= 2

        ts = (1.0, 14.134725141734693, 100.0, 1234.5, 1.0e4)
        points = [0j, 2 + 0j, complex(-5, 3)]
        points += [complex(0.5, t) for t in ts] + [complex(1.0, 2.0 * t) for t in ts]
        doubled = 0
        for target in (1e-12, 1e-15, 1e-20, 1e-30):
            for s in points:
                got = em_params(s, target)
                assert got == rebuilt(s, target), f"s={s}, target={target}"
                doubled += got[0] > max(10, math.ceil(abs(s.imag)))
        assert doubled  # 1e-30 takes the N-doubling branch; the larger targets do not

    def test_batched_rule_equals_scalar_rule_on_build_points(self):
        points = _build_points()
        N, M, _ = _em_params_batch(np.array(points), 1e-12)
        for i, s in enumerate(points):
            assert (N[i], M[i]) == _scalar_rule(s, 1e-12) == em_params(s), s

    def test_batched_rule_takes_doubling_branch_per_point(self):
        # at 1e-30 some points double N and others do not, in one batch
        points = [0j, 2 + 0j, complex(-5, 3), complex(0.5, 14.1347), complex(1, 2838.8)]
        N, M, fac = _em_params_batch(np.array(points), 1e-30)
        want = [_scalar_rule(s, 1e-30) for s in points]
        assert list(zip(N.tolist(), M.tolist())) == want
        assert len({n > max(10, math.ceil(abs(s.imag))) for s, (n, _) in zip(points, want)}) == 2
        for s, m, f in zip(points, M.tolist(), fac.tolist()):
            assert f == _tail_factor(s.real, m, s)


class TestZeta:
    def test_classical_values(self):
        assert zeta(2).value == pytest.approx(math.pi ** 2 / 6, abs=1e-12)
        assert zeta(4).value == pytest.approx(math.pi ** 4 / 90, abs=1e-12)
        assert zeta(0).value == pytest.approx(-0.5, abs=1e-12)

    def test_half_against_oracle(self):
        got = zeta(0.5)
        assert got.value == pytest.approx(oracles.ZETA_HALF, abs=1e-9)
        assert abs(got.value - oracles.ZETA_HALF) <= got.err

    def test_on_one_line_against_eta_oracle(self):
        s = complex(1.0, 2 * 14.134725)
        got = zeta(s)
        want, werr = oracles.eta_zeta(s)
        assert abs(got.value - complex(want)) < 1e-8

    def test_rejects_pole_and_range(self):
        with pytest.raises(ValueError):
            zeta(1)
        with pytest.raises(ValueError):
            zeta(complex(0.5, 2e4))
        with pytest.raises(ValueError, match="Re s = -10.5 below the supported minimum"):
            zeta(complex(-10.5, 3.0))

    def test_eta_cross_check_random_points(self):
        rng = random.Random(20240811)
        for _ in range(50):
            s = complex(rng.uniform(0.5, 3.0), rng.uniform(-300.0, 300.0))
            if abs(s - 1) < 0.05:
                continue
            got = zeta(s)
            want, werr = oracles.eta_zeta(s, target_digits=30)
            assert abs(got.value - complex(want)) <= got.err + werr, f"at s={s}"

    def test_self_consistency_doubling_n(self):
        from liouville_sums.zeta import _em_evaluate

        for s in (complex(0.7, 31.4), complex(2.0, 0.0), complex(0.5, 212.3)):
            n, m = em_params(s)
            z1, _, err1, _ = _em_evaluate(s, n, m)
            z2, _, _, _ = _em_evaluate(s, 2 * n, m)
            assert abs(z1 - z2) <= err1

    def test_next_to_non_positive_integers(self):
        # a factor s + j of a rising factorial below 1e-150 in size counts as 0,
        # so no reciprocal overflows, and the values are those at the integer
        for n in (0, -3):
            exact = zeta_with_prime(n)
            want = (oracles.mp_zeta(n), oracles.mp_zeta_prime(n))
            for got, ref in zip(exact, want):
                assert abs(got.value - complex(ref)) <= got.err
            for im in (1e-200, 2.2e-311):
                for got, ref in zip(zeta_with_prime(complex(n, im)), exact):
                    assert abs(got.value - ref.value) <= 1e-15 * (1.0 + abs(ref.value))

    @given(
        st.floats(min_value=-2.0, max_value=5.0),
        st.floats(min_value=-200.0, max_value=200.0),
    )
    @settings(max_examples=60)
    def test_conjugate_symmetry(self, re, im):
        s = complex(re, im)
        if abs(s - 1) < 0.1:
            return
        a = zeta(s).value
        b = zeta(s.conjugate()).value
        assert abs(a.conjugate() - b) <= 1e-13 * (1.0 + abs(a))


class TestBatch:
    POINTS = (
        0j,
        2 + 0j,
        0.5 + 0j,
        complex(-5, 3),
        complex(0.5, 14.1347),
        complex(1, 2838.8),
        complex(0.5, 9999),
    )

    def test_batch_of_one_equals_batched_entry(self):
        # a point's truncation and summation order do not depend on its batch
        z, dz, err_z, err_dz = zeta_batch(self.POINTS)
        for i, s in enumerate(self.POINTS):
            got, dgot = zeta_with_prime(s)
            assert (got.value, got.err) == (z[i], err_z[i]), s
            assert (dgot.value, dgot.err) == (dz[i], err_dz[i]), s

    def test_order_and_repeats_change_nothing(self):
        z, dz, err_z, err_dz = zeta_batch(self.POINTS)
        rz, rdz, rerr_z, rerr_dz = zeta_batch(self.POINTS[::-1] * 2)
        n = len(self.POINTS)
        for got, want in ((rz, z), (rdz, dz), (rerr_z, err_z), (rerr_dz, err_dz)):
            assert list(got[:n][::-1]) == list(want) == list(got[n:][::-1])

    def test_build_points_reversed_change_nothing(self):
        # tables are cut, and remainders run, over other neighbours in reverse
        points = _build_points()
        forward = zeta_batch(points)
        backward = zeta_batch(points[::-1])
        for got, want in zip(backward, forward):
            assert got[::-1].tobytes() == want.tobytes()

    def test_mixed_orders_equal_singles(self):
        # points whose M differ share a remainder array as wide as the largest
        points = (0j, 2 + 0j, complex(-5, 3), complex(1, 2838.8))
        assert len({em_params(s)[1] for s in points}) > 1
        z, dz, err_z, err_dz = zeta_batch(points)
        for i, s in enumerate(points):
            got, dgot = zeta_with_prime(s)
            assert (got.value, got.err, dgot.value, dgot.err) == (z[i], err_z[i], dz[i], err_dz[i]), s

    def test_rejects_any_bad_point(self):
        with pytest.raises(ValueError, match="pole"):
            zeta_batch([2 + 0j, 1 + 0j])
        with pytest.raises(ValueError, match="exceeds the supported height"):
            zeta_batch([2 + 0j, complex(0.5, 2e4)])

    def test_empty(self):
        assert all(a.size == 0 for a in zeta_batch([]))


class TestHighOrdinateOracle:
    # the residue build evaluates zeta' at 1/2 + i gamma and zeta at 1 + 2i gamma
    # up to gamma = 1419.42, the last bundled ordinate
    ORACLE_ERR = 1e-25  # mpmath at 30 digits, on values of size < 1e3

    @pytest.mark.parametrize("near", [544.32, 1419.42])
    def test_against_mpmath(self, near):
        gamma = min(bundled_zero_table().gammas, key=lambda g: abs(g - near))
        assert abs(gamma - near) < 0.01
        z, dz = zeta_with_prime(complex(0.5, gamma))
        line = zeta(complex(1.0, 2.0 * gamma))
        checks = (
            (z, oracles.mp_zeta(complex(0.5, gamma))),
            (dz, oracles.mp_zeta_prime(complex(0.5, gamma))),
            (line, oracles.mp_zeta(complex(1.0, 2.0 * gamma))),
        )
        for got, want in checks:
            assert abs(got.value - complex(want)) <= got.err + self.ORACLE_ERR


class TestZetaPrime:
    def test_classical_value_at_zero(self):
        assert zeta_prime(0).value == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_at_two_against_oracle(self):
        got = zeta_prime(2)
        assert got.value == pytest.approx(oracles.ZETA_PRIME_2, abs=1e-11)

    def test_matches_finite_differences(self):
        rng = random.Random(7)
        h = 1e-6
        for _ in range(20):
            s = complex(rng.uniform(0.3, 3.0), rng.uniform(-50.0, 50.0))
            if abs(s - 1) < 0.05:
                continue
            fd = (zeta(s + h).value - zeta(s - h).value) / (2 * h)
            assert abs(zeta_prime(s).value - fd) < 1e-6, f"at s={s}"

    def test_joint_evaluation_consistent(self):
        s = complex(0.5, 21.022039638771555)
        z, dz = zeta_with_prime(s)
        assert z.value == zeta(s).value
        assert dz.value == zeta_prime(s).value


class TestComplexValue:
    def test_invariants(self):
        with pytest.raises(ValueError):
            ComplexValue(math.nan, 0.0, 0.0)
        with pytest.raises(ValueError):
            ComplexValue(0.0, 0.0, -1.0)
        cv = ComplexValue(1.0, -2.0, 0.5)
        assert cv.value == complex(1.0, -2.0)


class TestEtaOracleItself:
    def test_against_mpmath(self):
        # two independent high-precision routes agree
        for s in (0.5, 2.0, complex(0.75, 14.1), complex(1.0, 50.0)):
            mine, err = oracles.eta_zeta(s, target_digits=35)
            ref = oracles.mp_zeta(s, dps=40)
            assert abs(complex(mine) - complex(ref)) < 1e-30
