import cmath
import io
import math
import random
import re
import warnings

import numpy as np
import pytest

from liouville_sums import aux_poly
from liouville_sums.aux_poly import (
    _BLOCK,
    _CHUNK,
    AuxPolynomial,
    build_polynomial,
    evaluate_at,
    residue_batch,
    residue_r0,
    residue_rn,
    scan_u,
)
from liouville_sums.zeros import ZeroTable, bundled_zero_table
from liouville_sums.zeta import zeta_batch, zeta_with_prime

import oracles

EPS = 2.0 ** -52


def terms(poly):
    """(gamma, residue, weight) of every term, as Python numbers."""
    return list(zip(poly.gammas.tolist(), poly.residues.tolist(), poly.weights.tolist()))


def empty_polynomial():
    return AuxPolynomial(alpha=0.5, cutoff=10.0, r0=-0.25, gammas=(), residues=(), residue_errs=())


def rounding_bound(poly, u):
    """scan_u's documented error bound at u, less its residue part."""
    n = len(poly.gammas)
    return EPS * (
        abs(poly.r0)
        + math.fsum(2.0 * w * abs(r) * (3.0 * g * u + n + 5) for g, r, w in terms(poly))
    )


def scanned_points(poly, u_lo, u_hi, step):
    """The scan report and the (u, value) of every grid point, read from its trace."""
    buf = io.StringIO()
    rep = scan_u(poly, u_lo, u_hi, step, trace=buf)
    rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
    assert len(rows) == rep.n_points
    return rep, [(float(u), float(v)) for u, _, v in rows]


def assert_matches_evaluate_at(poly, points):
    # Both evaluators use the same residues, so the residue part of the bound
    # cancels; evaluate_at rounds less than scan_u, so twice the rest covers
    # both.
    for u, v in points:
        assert abs(v - evaluate_at(poly, u)) <= 2.0 * rounding_bound(poly, u), u


@pytest.fixture(scope="module")
def table100():
    t = bundled_zero_table()
    return ZeroTable(gammas=t.gammas[:100], source=t.source, stated_precision=t.stated_precision)


@pytest.fixture(scope="module")
def poly_half(table100):
    # cutoff at the 100th ordinate keeps 99 terms (strict inequality)
    return build_polynomial(table100, table100.gammas[-1], 0.5)


@pytest.fixture(scope="module")
def poly_zero_alpha(table100):
    return build_polynomial(table100, 100.0, 0.0)


class TestResidueR0:
    def test_oracle_values(self):
        assert residue_r0(0.0) == pytest.approx(oracles.R0_AT_0, abs=1e-9)
        assert residue_r0(0.5) == pytest.approx(oracles.R0_AT_HALF, abs=1e-9)
        assert residue_r0(0.75) == pytest.approx(oracles.R0_AT_3_QUARTERS, abs=1e-9)
        assert residue_r0(1.0) == pytest.approx(oracles.R0_AT_1, abs=1e-9)

    def test_case_split_continuity_gap(self):
        # the +1 branch applies strictly between 1/2 and 1
        below = residue_r0(0.499999)
        above = residue_r0(0.500001)
        assert above - below > 0.9  # jump from the extra +1 dominates

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            residue_r0(-0.1)
        with pytest.raises(ValueError):
            residue_r0(1.5)
        with pytest.raises(ValueError):
            residue_r0(2.0)


class TestResidueRn:
    def test_gamma1_alpha0_against_oracle(self):
        r = residue_rn(oracles.GAMMA_1, 0.0)
        assert abs(r.value - oracles.R1_AT_0) < 1e-8

    def test_gamma1_alpha_half_structure(self):
        # at alpha = 1/2 the denominator reduces to i*gamma*zeta'(rho)
        g = oracles.GAMMA_1
        r = residue_rn(g, 0.5)
        assert abs(r.value - oracles.R1_AT_HALF) < 1e-8
        from liouville_sums.zeta import zeta

        num = zeta(complex(1.0, 2 * g)).value
        _, dz = zeta_with_prime(complex(0.5, g))
        manual = num / (1j * g * dz.value)
        assert abs(r.value - manual) < 1e-13

    def test_rejects_non_ordinate(self):
        with pytest.raises(ValueError, match="not a zero ordinate"):
            residue_rn(15.0, 0.0)
        with pytest.raises(ValueError, match="must be positive"):
            residue_rn(-oracles.GAMMA_1, 0.0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            residue_rn(oracles.GAMMA_1, 1.5)


class TestResidueBatch:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("cutoff", [100.0, 1420.0])
    def test_build_terms_equal_residue_rn(self, cutoff, alpha):
        # the build's one batched call and a batch of one per ordinate agree bit for bit
        poly = build_polynomial(bundled_zero_table(), cutoff, alpha)
        assert len(poly.gammas) == (29 if cutoff == 100.0 else 1000)
        for g, r, e in zip(poly.gammas.tolist(), poly.residues.tolist(), poly.residue_errs.tolist()):
            rn = residue_rn(g, alpha)
            assert (r, e) == (rn.value, rn.err), g

    def test_first_non_zero_ordinate_named(self):
        gammas = [oracles.GAMMA_1, 21.5, oracles.GAMMA_3, 23.0]
        with pytest.raises(ValueError, match=r"^gamma = 21.5 is not a zero ordinate"):
            residue_batch(gammas, 0.5)

    def test_empty(self):
        residues, errs = residue_batch([], 0.5)
        assert residues.size == errs.size == 0

    def test_first_non_finite_residue_named(self, monkeypatch):
        def overflowing(points):
            z, dz, err_z, err_dz = zeta_batch(points)
            err_z[-1] = math.inf  # the error of zeta(1 + 2i gamma) at the last ordinate
            return z, dz, err_z, err_dz

        monkeypatch.setattr(aux_poly, "zeta_batch", overflowing)
        gammas = [oracles.GAMMA_1, oracles.GAMMA_3]
        with pytest.raises(ValueError, match=rf"^residue at gamma = {gammas[1]!r} is not finite$"):
            residue_batch(gammas, 0.5)


class TestBuildPolynomial:
    def test_cutoff_arithmetic(self):
        t3 = ZeroTable(
            gammas=(14.134725141735, 21.022039638772, 25.010857580146),
            source="t3",
            stated_precision=12,
        )
        poly = build_polynomial(t3, 22.0, 0.0)
        assert len(poly.gammas) == 2

    def test_cutoff_at_first_ordinate_keeps_nothing(self, table100):
        poly = build_polynomial(table100, table100.gammas[0], 0.5)
        assert len(poly.gammas) == 0
        assert evaluate_at(poly, 12.34) == poly.r0

    def test_rejects_zero_cutoff(self, table100):
        with pytest.raises(ValueError):
            build_polynomial(table100, 0.0, 0.5)

    def test_warns_beyond_coverage(self, table100):
        with pytest.warns(UserWarning, match="coverage"):
            build_polynomial(table100, table100.gammas[-1] + 50.0, 0.5)

    def test_rejects_bad_alpha_before_coverage_warning(self, table100):
        # the coverage warning is for a valid alpha only
        for T in (100.0, table100.gammas[-1] + 50.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\], got 1.5"):
                    build_polynomial(table100, T, 1.5)

    def test_weights_decrease_and_bounded(self, poly_half):
        ws = poly_half.weights.tolist()
        assert all(0.0 < w <= 1.0 for w in ws)
        assert ws == sorted(ws, reverse=True)
        for g, _, w in terms(poly_half):
            assert w == 1.0 - g / poly_half.cutoff  # exact arithmetic

    def test_cutoff_monotonicity(self, table100):
        # enlarging T never drops a term and never changes a residue
        small = build_polynomial(table100, 50.0, 0.25)
        large = build_polynomial(table100, 80.0, 0.25)
        assert len(large.gammas) >= len(small.gammas)
        for ts, tl in zip(terms(small), terms(large)):
            assert ts[0] == tl[0]
            assert ts[1] == tl[1]
            assert tl[2] > ts[2]  # same gamma, larger T


class TestAuxPolynomial:
    GAMMA = 14.134725141735

    @staticmethod
    def polynomial(gammas):
        n = len(gammas)
        return AuxPolynomial(
            alpha=0.5, cutoff=30.0, r0=-0.25,
            gammas=gammas, residues=[0.1 + 0.2j] * n, residue_errs=[0.0] * n,
        )

    @pytest.mark.parametrize(
        "gammas, match",
        [
            ((GAMMA, GAMMA), "term ordinate 14.134725141735 out of order"),
            ((30.0,), "term ordinate 30.0 out of order or >= cutoff"),
        ],
        ids=["repeated-ordinate", "at-cutoff"],
    )
    def test_rejects_bad_terms(self, gammas, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            self.polynomial(gammas)

    def test_names_first_bad_ordinate(self):
        for gammas, bad in [
            ((self.GAMMA, 21.022039638772, 21.0, 40.0), "21.0"),
            ((-1.0, 20.0), "-1.0"),
            ((0.0,), "0.0"),
        ]:
            with pytest.raises(ValueError, match=rf"^term ordinate {bad} out of order or >= cutoff$"):
                self.polynomial(gammas)

    def test_arrays_read_only(self, poly_half):
        arrays = (poly_half.gammas, poly_half.residues, poly_half.residue_errs, poly_half.weights)
        assert [a.dtype for a in arrays] == [np.float64, np.complex128, np.float64, np.float64]
        for a in arrays:
            assert a.shape == (99,)
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.5

    def test_holds_copies_of_its_inputs(self):
        gammas = np.array([self.GAMMA])
        poly = self.polynomial(gammas)
        gammas[0] = 20.0
        assert poly.gammas[0] == self.GAMMA

    def test_weights_derived_from_cutoff(self, poly_half):
        assert np.array_equal(poly_half.weights, 1 - poly_half.gammas / poly_half.cutoff)
        with pytest.raises(TypeError):
            AuxPolynomial(
                alpha=0.5, cutoff=30.0, r0=-0.25, gammas=(), residues=(), residue_errs=(), weights=()
            )

    def test_empty_polynomial_evaluates_to_r0(self):
        poly = empty_polynomial()
        assert poly.weights.size == 0
        assert evaluate_at(poly, 7.0) == -0.25
        rep = scan_u(poly, 0.0, 1.0, 0.25)
        assert rep.maximum.value == rep.minimum.value == -0.25


class TestEvaluateAt:
    def test_zero_term_polynomial_returns_r0_exactly(self):
        poly = empty_polynomial()
        assert evaluate_at(poly, 0.0) == -0.25
        assert evaluate_at(poly, 123.456) == -0.25

    def test_folded_form_equals_conjugate_pairs(self, poly_half):
        rng = random.Random(99)
        for _ in range(300):
            u = rng.uniform(0.0, 300.0)
            folded = evaluate_at(poly_half, u)
            paired = poly_half.r0 + math.fsum(
                (w * r * cmath.exp(1j * g * u) + w * r.conjugate() * cmath.exp(-1j * g * u)).real
                for g, r, w in terms(poly_half)
            )
            assert abs(folded - paired) < 1e-12

    def test_result_is_real_float(self, poly_half):
        v = evaluate_at(poly_half, 1.0)
        assert isinstance(v, float)

    def test_u_zero_direct_sum(self, poly_zero_alpha):
        direct = poly_zero_alpha.r0 + 2.0 * sum(w * r.real for _, r, w in terms(poly_zero_alpha))
        assert evaluate_at(poly_zero_alpha, 0.0) == pytest.approx(direct, abs=1e-12)

    def test_rejects_bad_u(self, poly_half):
        with pytest.raises(ValueError):
            evaluate_at(poly_half, -1.0)
        with pytest.raises(ValueError):
            evaluate_at(poly_half, math.inf)


class TestScanU:
    def test_constant_polynomial(self):
        poly = empty_polynomial()
        rep, points = scanned_points(poly, 0.0, 10.0, 0.5)
        assert rep.maximum.value == rep.minimum.value == -0.25
        assert rep.sign_changes == ()
        assert len(points) == 21 and all(v == -0.25 for _, v in points)

    def test_single_point_when_step_exceeds_range(self, poly_half):
        rep = scan_u(poly_half, 1.0, 2.0, 5.0)
        assert rep.n_points == 1
        assert rep.maximum.u == rep.minimum.u == 1.0

    def test_extrema_reproduced_by_direct_reevaluation(self, poly_zero_alpha):
        rep = scan_u(poly_zero_alpha, 0.0, 50.0, 0.01)
        assert evaluate_at(poly_zero_alpha, rep.maximum.u) == pytest.approx(
            rep.maximum.value, abs=1e-10
        )
        assert evaluate_at(poly_zero_alpha, rep.minimum.u) == pytest.approx(
            rep.minimum.value, abs=1e-10
        )

    def test_x_equivalents(self, poly_zero_alpha):
        rep = scan_u(poly_zero_alpha, 2.0, 4.0, 0.5)
        assert rep.maximum.x_equiv == pytest.approx(math.exp(rep.maximum.u))

    @pytest.mark.parametrize(
        "n_points",
        [1, 2, _BLOCK - 1, _BLOCK + 1, _CHUNK - 1, _CHUNK + 1, 3 * _CHUNK + 7],
    )
    def test_grid_lengths_off_block_multiples(self, poly_half, n_points):
        step = 0.07
        rep, points = scanned_points(poly_half, 2.5, 2.5 + (n_points - 0.5) * step, step)
        assert rep.n_points == n_points
        assert_matches_evaluate_at(poly_half, points)

    @pytest.mark.parametrize(
        "u_hi, step, n_points, last_u",
        [
            (1.7, 0.1, 17, 1.6),  # 17 * 0.1 = 1.7000000000000002 > u_hi
            (0.29, 0.01, 30, 0.29),  # 29 * 0.01 = 0.29 although 0.29 / 0.01 < 29
        ],
    )
    def test_grid_ends_at_last_point_within_range(self, poly_half, u_hi, step, n_points, last_u):
        rep, points = scanned_points(poly_half, 0.0, u_hi, step)
        assert rep.n_points == n_points
        assert points[-1][0] == last_u
        assert_matches_evaluate_at(poly_half, points)

    def test_grid_crossing_chunk_boundaries(self, poly_half, monkeypatch):
        whole = scan_u(poly_half, 0.0, 30.0, 0.01)
        monkeypatch.setattr(aux_poly, "_CHUNK", 100)  # not a multiple of _BLOCK
        rep, points = scanned_points(poly_half, 0.0, 30.0, 0.01)
        assert_matches_evaluate_at(poly_half, points)
        assert rep.sign_changes == whole.sign_changes
        assert (rep.maximum.u, rep.minimum.u) == (whole.maximum.u, whole.minimum.u)

    def test_flip_across_chunk_boundary(self, poly_half, monkeypatch):
        whole = scan_u(poly_half, 0, 30, 0.01)
        lo, hi = next((lo, hi) for lo, hi in whole.sign_changes if lo < hi)
        # the first chunk ends at lo, so the flip spans two chunks
        monkeypatch.setattr(aux_poly, "_CHUNK", round(lo / 0.01) + 1)
        rep = scan_u(poly_half, 0, 30, 0.01)
        assert (lo, hi) in rep.sign_changes
        assert rep.sign_changes == whole.sign_changes

    def test_long_range_matches_evaluate_at(self, poly_half):
        rep, points = scanned_points(poly_half, 0.0, 1000.0, 0.13)
        assert rep.n_points == 7693
        assert_matches_evaluate_at(poly_half, points)

    def test_sign_changes_bracket_roots(self, poly_half):
        rep = scan_u(poly_half, 0.0, 30.0, 0.01)
        for lo, hi in rep.sign_changes:
            if lo == hi:
                continue
            assert evaluate_at(poly_half, lo) * evaluate_at(poly_half, hi) < 0.0

    def test_trace_stream(self, poly_zero_alpha):
        buf = io.StringIO()
        rep = scan_u(poly_zero_alpha, 0.0, 1.0, 0.25, trace=buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "u,X_equiv,value"
        assert len(lines) == 1 + rep.n_points
        u0, x0, v0 = lines[1].split(",")
        assert float(u0) == 0.0 and float(x0) == 1.0
        assert float(v0) == pytest.approx(evaluate_at(poly_zero_alpha, 0.0), abs=1e-14)

    def test_grid_cap(self, poly_half):
        with pytest.raises(ValueError, match="cap"):
            scan_u(poly_half, 0.0, 1e9, 1e-10)
        with pytest.raises(ValueError, match="cap"):
            scan_u(poly_half, 0.0, 1e300, 1e-300)  # point count overflows to inf

    def test_invalid_args(self, poly_half):
        with pytest.raises(ValueError):
            scan_u(poly_half, 5.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            scan_u(poly_half, 0.0, 1.0, 0.0)
        for u_lo, u_hi, step in [
            (0.0, math.inf, 0.1),
            (math.nan, 1.0, 0.1),
            (0.0, math.nan, 0.1),
            (0.0, 1.0, math.inf),
            (0.0, 1.0, math.nan),
            (-5.0, 1.0, 0.1),
        ]:
            with pytest.raises(ValueError):
                scan_u(poly_half, u_lo, u_hi, step)


class TestAlphaHalfSummandStructure:
    def test_fejer_weight_plays_theta_role(self, poly_half):
        # each summand is Re(zeta(1+2i*g) / (i*g*zeta'(1/2+ig))) * theta with
        # |theta| <= 1, theta being the triangular weight
        from liouville_sums.zeta import zeta

        u = 0.0
        for g, r, w in terms(poly_half)[:10]:
            assert abs(w) <= 1.0
            base = zeta(complex(1.0, 2 * g)).value
            _, dz = zeta_with_prime(complex(0.5, g))
            summand = (base / (1j * g * dz.value)).real * w
            contribution = (w * r * cmath.exp(1j * g * u)).real
            assert summand == pytest.approx(contribution, abs=1e-12)
