import importlib
import re
from functools import lru_cache

import mpmath as mp
import pytest

from liouville_sums.zeros import (
    ZeroTable,
    bundled_zero_table,
    load_zeros,
    refine_zero,
    validate_zero,
)

import oracles

# the module, which the package's zeta function shadows as an attribute
zeta_module = importlib.import_module("liouville_sums.zeta")


@pytest.fixture(scope="module")
def table():
    return bundled_zero_table()


class TestLoadZeros:
    def test_three_line_file(self, tmp_path):
        p = tmp_path / "zeros.txt"
        p.write_text("# a comment\n14.134725\n21.022040\n\n25.010858\n")
        t = load_zeros(p)
        assert len(t) == 3
        assert t.gammas[0] == pytest.approx(14.134725)
        assert t.stated_precision == 6
        assert str(p) in t.source

    def test_ordering_error_reports_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("21.0\n14.1\n")
        with pytest.raises(ValueError, match=r"bad.txt:2"):
            load_zeros(p)

    def test_malformed_line_reports_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("14.134725\nnot-a-number\n")
        with pytest.raises(ValueError, match=r"bad.txt:2.*not-a-number"):
            load_zeros(p)

    @pytest.mark.parametrize(
        "line", ["14.134725141735e0", "21.022_039_638_772", "+21.0", "-21.0", "21.", ".5e2", "\u0662\u0661.0"]
    )
    def test_only_plain_decimals(self, tmp_path, line):
        # float() reads each of these, but the format holds plain decimals only
        p = tmp_path / "bad.txt"
        p.write_text(f"14.134725\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"bad.txt:2: malformed ordinate {re.escape(repr(line))}"):
            load_zeros(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("# only comments\n")
        with pytest.raises(ValueError, match="no ordinates"):
            load_zeros(p)

    @pytest.mark.parametrize("word", ["nan", "inf", "-inf"])
    def test_non_finite_line_reports_line(self, tmp_path, word):
        p = tmp_path / "bad.txt"
        p.write_text(f"14.134725\n{word}\n")
        with pytest.raises(ValueError, match=f"bad.txt:2: non-finite ordinate '{word}'"):
            load_zeros(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_zeros(tmp_path / "nope.txt")


class TestZeroTable:
    def test_first_ordinate_window_enforced(self):
        with pytest.raises(ValueError, match="sanity window"):
            ZeroTable(gammas=(21.0, 25.0), source="t", stated_precision=3)

    def test_positive_increasing_enforced(self):
        with pytest.raises(ValueError):
            ZeroTable(gammas=(14.1, 14.1), source="t", stated_precision=1)
        with pytest.raises(ValueError):
            ZeroTable(gammas=(), source="t", stated_precision=0)

    def test_height_cap_enforced(self):
        with pytest.raises(ValueError, match="supported height"):
            ZeroTable(gammas=(14.13, 2.0e4), source="t", stated_precision=2)

    def test_below(self, table):
        assert len(table.below(100.0)) == 29
        assert len(table.below(table.gammas[0])) == 0


class TestBundledTable:
    def test_size_and_anchors(self, table):
        assert len(table) == 1000
        assert table.gammas[0] == pytest.approx(oracles.GAMMA_1, abs=1e-11)
        assert table.gammas[1] == pytest.approx(oracles.GAMMA_2, abs=1e-11)
        assert table.gammas[2] == pytest.approx(oracles.GAMMA_3, abs=1e-11)
        assert table.stated_precision >= 9

    def test_first_hundred_validate(self, table):
        for g in table.gammas[:100]:
            assert validate_zero(g, 1e-3).passed

    def test_first_hundred_validate_after_refinement(self, table):
        # refined ordinates drive the residual to the evaluator's floor
        for g in table.gammas[:100]:
            refined = refine_zero(g)
            assert validate_zero(refined, 1e-6).passed


class TestValidateZero:
    def test_true_zero_low_residual(self):
        res = validate_zero(14.134725, 1e-4)
        assert res.passed and res.residual < 1e-4

    def test_non_zero_high_residual(self):
        res = validate_zero(15.0, 1e-4)
        assert not res.passed
        assert res.residual > 0.1

    def test_rejects_nonpositive_and_tall(self):
        with pytest.raises(ValueError):
            validate_zero(-1.0)
        with pytest.raises(ValueError):
            validate_zero(0.0)
        with pytest.raises(ValueError):
            validate_zero(2.0e4)


class TestRefineZero:
    def test_refines_first_two_ordinates(self):
        assert refine_zero(14.13) == pytest.approx(oracles.GAMMA_1, abs=1e-8)
        assert refine_zero(21.02) == pytest.approx(oracles.GAMMA_2, abs=1e-8)

    def test_no_zero_nearby(self):
        with pytest.raises(ValueError, match="no zero near"):
            refine_zero(15.0)

    def test_rejects_nonpositive_and_tall(self):
        for gamma0 in (-1.0, 0.0):
            with pytest.raises(ValueError, match="must be positive"):
                refine_zero(gamma0)
        with pytest.raises(ValueError, match=r"\|Im s\| = \S+ exceeds the supported height"):
            refine_zero(2.0e4)

    def test_idempotent(self):
        g = refine_zero(14.13)
        assert abs(refine_zero(g) - g) < 1e-10


@lru_cache(maxsize=None)
def _mp_ordinate(n):
    with mp.workdps(30):
        return float(mp.zetazero(n).imag)


class TestNewtonRefinement:
    @pytest.mark.parametrize("n", [1, 2, 100, 500, 1000])
    @pytest.mark.parametrize("offset", [0.0, 0.04, -0.04, 0.049, -0.049])
    def test_agrees_with_mpmath(self, n, offset):
        # every seed within the window goes to its zero, to mpmath's ordinate within 1e-12
        gamma = _mp_ordinate(n)
        assert abs(refine_zero(gamma + offset) - gamma) <= 1e-12

    def test_few_zeta_calls(self, monkeypatch):
        # one zeta_batch call per Newton step and one for the residual check
        calls = []
        batch = zeta_module.zeta_batch

        def spy(points):
            calls.append(points)
            return batch(points)

        monkeypatch.setattr(zeta_module, "zeta_batch", spy)
        assert refine_zero(14.13) == pytest.approx(oracles.GAMMA_1, abs=1e-12)
        assert 1 <= len(calls) <= 6

    @pytest.mark.parametrize("gamma0", [15.0, 17.0, 19.0])
    def test_no_zero_within_the_window(self, gamma0):
        # Newton's method from these seeds ends at a zero farther than 0.05 away
        with pytest.raises(ValueError, match="no zero near"):
            refine_zero(gamma0)


@pytest.mark.parametrize("check", [validate_zero, refine_zero])
def test_nan_ordinate_rejected(check):
    # NaN fails the one positivity check instead of reaching zeta
    with pytest.raises(ValueError, match="must be positive"):
        check(float("nan"))
