import argparse
import dataclasses
import json
import subprocess
import sys

import pytest

from liouville_sums import partial_sum
from liouville_sums.cli import (
    EXIT_INDETERMINATE,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VIOLATION,
    REPORT_SCHEMA_VERSION,
    RunConfig,
    _build_parser,
    main,
)
from liouville_sums.partial_sum import Sign, euler_product_value, evaluate, scan_sign


def strip_timestamp(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if '"generated_at"' not in line
    )


class TestVerifyCommand:
    def test_conjectured_range_exits_zero(self, capsys):
        rc = main(
            ["verify", "--alpha", "0.5", "--from", "17", "--to", "300001", "--sign", "nonpositive"]
        )
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "OK (0 violations, 0 indeterminate)" in out

    def test_violation_exit(self, capsys):
        rc = main(
            ["verify", "--alpha", "0.5", "--from", "1", "--to", "16", "--sign", "nonpositive"]
        )
        assert rc == EXIT_VIOLATION
        assert "first violation at X=1" in capsys.readouterr().out

    def test_indeterminate_exit(self, tmp_path, capsys, monkeypatch):
        # mark the first classified X (17, which conforms) as indeterminate
        real = partial_sum._classify_arrays

        def mark_first(values, errs, claimed):
            violating, indeterminate = real(values, errs, claimed)
            indeterminate[0] = True
            return violating, indeterminate

        monkeypatch.setattr(partial_sum, "_classify_arrays", mark_first)
        # X = 17's block conforms by its scalar bound; make it reach the per-X arrays
        monkeypatch.setattr(partial_sum, "_block_conforms", lambda *args: False)
        report = tmp_path / "r.json"
        rc = main(
            ["verify", "--alpha", "0.5", "--from", "17", "--to", "1000", "--report", str(report)]
        )
        assert rc == EXIT_INDETERMINATE
        assert "FAILED (0 violations, 1 indeterminate)" in capsys.readouterr().out
        r = json.loads(report.read_text())["report"]
        assert (r["indeterminate"], r["violations"]) == (1, 0)
        assert r["first_violation"] is None and r["ok"] is False

    def test_artifacts_written(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        trace = tmp_path / "trace.csv"
        rc = main(
            [
                "verify",
                "--alpha", "0.5",
                "--from", "17",
                "--to", "50000",
                "--sign", "nonpositive",
                "--report", str(report),
                "--trace", str(trace),
            ]
        )
        assert rc == EXIT_OK
        data = json.loads(report.read_text())
        assert data["kind"] == "verify"
        assert data["report"]["violations"] == 0
        assert data["report"]["ok"] is True
        assert "generated_at" in data
        assert trace.read_text().startswith("X,alpha,value,err_bound,classification")

    def test_report_deterministic_modulo_timestamp(self, tmp_path, capsys):
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        args = ["verify", "--alpha", "0", "--from", "2", "--to", "30000", "--sign", "nonpositive"]
        assert main(args + ["--report", str(r1)]) == EXIT_OK
        assert main(args + ["--report", str(r2)]) == EXIT_OK
        assert strip_timestamp(r1.read_text()) == strip_timestamp(r2.read_text())

    def test_runtime_failure_exit(self, capsys):
        rc = main(
            ["verify", "--alpha", "-1", "--from", "1", "--to", "10", "--sign", "nonpositive"]
        )
        assert rc == EXIT_RUNTIME
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["inf", "nan"])
    def test_non_finite_alpha_rejected(self, alpha, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main(["verify", "--alpha", alpha, "--to", "10", "--report", str(report)])
        assert rc == EXIT_RUNTIME
        assert "error:" in capsys.readouterr().err
        assert not report.exists()

    def test_repeated_traced_run_writes_each_row_once(self, tmp_path, capsys):
        # the second run resumes from the checkpoint the first left at 4000
        # and must not append the rows after it a second time
        def run(*extra):
            return main([
                "verify", "--alpha", "1", "--from", "1", "--to", "5000", "--sign", "nonnegative",
                "--segment-size", "1000", "--trace-every", "100", *extra,
            ])

        clean = tmp_path / "clean.csv"
        assert run("--trace", str(clean)) == EXIT_OK
        trace, cp = tmp_path / "t.csv", tmp_path / "c.json"
        for _ in range(2):
            assert run("--trace", str(trace), "--checkpoint", str(cp), "--checkpoint-every", "1000") == EXIT_OK
        assert json.loads(cp.read_text())["trace_bytes"] < trace.stat().st_size
        assert len(clean.read_text().splitlines()) == 52
        assert trace.read_bytes() == clean.read_bytes()

    @pytest.mark.parametrize("flag", ["--checkpoint-every", "--trace-every"])
    @pytest.mark.parametrize("stride", ["0", "-3"])
    def test_bad_stride_rejected(self, flag, stride, capsys):
        rc = main(["verify", "--alpha", "0.5", "--to", "10", flag, stride])
        assert rc == EXIT_RUNTIME
        assert f"error: {flag[2:].replace('-', '_')} must be >= 1" in capsys.readouterr().err


def _tally(**fields):
    """A corruption that sets tally fields of the decoded checkpoint."""
    return lambda p: {**p, "tally": {**p["tally"], **fields}}


class TestMalformedCheckpoint:
    """A checkpoint that does not decode is an error, not a resume from bad state.

    Each case corrupts the checkpoint a 60000-X scan writes at upto 32768:
    a corruption returns the JSON value to write, or the raw bytes.
    """

    ARGS = [
        "verify", "--alpha", "0.5", "--to", "60000", "--sign", "nonpositive",
        "--segment-size", "16384", "--checkpoint-every", "30000",
    ]

    @pytest.mark.parametrize(
        "corrupt, fragments",
        [
            (lambda p: [], ["must hold a JSON object"]),
            (
                lambda p: {**p, "tally": {k: v for k, v in p["tally"].items() if k != "argmax"}},
                ["tally must hold exactly the fields", "missing ['argmax'], unexpected []"],
            ),
            (
                lambda p: {**p, "state": {**p["state"], "extra": 0}},
                ["state must hold exactly the fields", "missing [], unexpected ['extra']"],
            ),
            (
                lambda p: {**p, "state": {**p["state"], "value": 1.5}},
                ["state.value must be a float.hex string, got 1.5"],
            ),
            (
                lambda p: {**p, "state": {**p["state"], "upto": True}},
                ["state.upto must be int, got True"],
            ),
            (
                lambda p: {**p, "state": {**p["state"], "upto": 4 * 16384}},
                ["state.upto = 65536 is not a multiple of segment_size=16384 below x_hi=60000"],
            ),
            (
                lambda p: {**p, "state": {**p["state"], "upto": 12345}},
                ["state.upto = 12345 is not a multiple of segment_size=16384"],
            ),
            (lambda p: b"{", ["not JSON: Expecting property name"]),
            (lambda p: b'{"format": "\xff\xfe"}', ["not JSON: 'utf-8' codec can't decode byte 0xff"]),
            (_tally(violations=-5, first_violation=None), ["tally.violations = -5 is negative"]),
            (_tally(indeterminate=-1), ["tally.indeterminate = -1 is negative"]),
            (
                _tally(indeterminate=32753),
                ["tally.indeterminate = 32753 plus tally.violations exceeds the 32752 X"],
            ),
            (
                _tally(violations=1),
                ["tally.first_violation = None must be null exactly when tally.violations is 0"],
            ),
            (
                _tally(first_violation=100),
                ["tally.first_violation = 100 must be null exactly when tally.violations is 0"],
            ),
            (
                _tally(violations=1, first_violation=40000),
                ["tally.first_violation = 40000 is outside [x_lo, state.upto] = [17, 32768]"],
            ),
            (_tally(argmin=16), ["tally.argmin = 16 is outside [x_lo, state.upto] = [17, 32768]"]),
            (
                _tally(argmax=32769),
                ["tally.argmax = 32769 is outside [x_lo, state.upto] = [17, 32768]"],
            ),
            (lambda p: {**p, "format": "other"}, ["unrecognized format or version"]),
            (lambda p: {**p, "version": p["version"] + 1}, ["unrecognized format or version"]),
            (lambda p: {**p, "state": [1]}, ["state must be a JSON object, got [1]"]),
            (lambda p: {**p, "version": 1}, ["unrecognized format or version"]),
            (
                lambda p: {k: v for k, v in p.items() if k != "trace_bytes"},
                ["trace_bytes is missing"],
            ),
            (
                lambda p: {**p, "trace_bytes": -1},
                ["trace_bytes must be null or an int >= 0, got -1"],
            ),
            (
                lambda p: {**p, "trace_bytes": "12"},
                ["trace_bytes must be null or an int >= 0, got '12'"],
            ),
        ],
        ids=[
            "array", "missing-tally-field", "extra-state-field", "number-for-hex", "bool-upto",
            "upto-past-x_hi", "upto-off-block", "not-json", "not-utf8", "negative-violations",
            "negative-indeterminate", "counts-past-range", "violations-without-first",
            "first-without-violations", "first-violation-past-upto", "argmin-below-x_lo",
            "argmax-past-upto", "wrong-format", "wrong-version", "state-not-object",
            "version-1", "trace-bytes-missing", "trace-bytes-negative", "trace-bytes-str",
        ],
    )
    def test_rejected_with_error_line(self, corrupt, fragments, tmp_path, capsys):
        self._assert_rejected(corrupt, fragments, 17, tmp_path, capsys)

    def test_tally_before_x_lo_rejected(self, tmp_path, capsys):
        # the checkpoint at upto 32768 precedes x_lo, so nothing may be tallied
        self._assert_rejected(
            _tally(argmin=5), ["tally.argmin = 5 is not 0 with state.upto = 32768 below x_lo = 40000"],
            40_000, tmp_path, capsys,
        )

    @pytest.mark.parametrize(
        "alpha, name, hex_value, why",
        [
            (0.5, "err_bound", "nan", "is not finite"),
            (0.5, "err_bound", "inf", "is not finite"),
            (0.5, "err_bound", "-0x1p+0", "is negative"),
            (0.5, "value", "-inf", "is not finite"),
            (0.5, "comp", "nan", "is not finite"),
            (0.5, "abs_sum", "-0x1p-3", "is negative"),
            (0.0, "err_bound", "0x1p-40", "is not 0 at alpha = 0"),
            (0.0, "value", "-0x1.8p+0", "is not an integer at alpha = 0"),
        ],
    )
    def test_impossible_state_rejected(self, alpha, name, hex_value, why, tmp_path, capsys):
        # a state no scan could hold: a bound that is not finite and >= 0
        # would resume into indeterminate or unsound sign calls
        self._assert_rejected(
            lambda p: {**p, "state": {**p["state"], name: hex_value}},
            [f"state.{name} = {float.fromhex(hex_value)!r} {why}"],
            17, tmp_path, capsys, alpha,
        )

    def _assert_rejected(self, corrupt, fragments, x_lo, tmp_path, capsys, alpha=0.5):
        cp = tmp_path / "cp.json"
        args = self.ARGS + ["--from", str(x_lo), "--checkpoint", str(cp), "--alpha", str(alpha)]
        assert main(args) == EXIT_OK
        bad = corrupt(json.loads(cp.read_text()))
        cp.write_bytes(bad if isinstance(bad, bytes) else json.dumps(bad).encode())
        capsys.readouterr()
        with pytest.raises(ValueError) as exc:
            scan_sign(
                x_lo, 60_000, alpha, Sign.NONPOSITIVE, segment_size=16384,
                checkpoint_path=str(cp), checkpoint_every=30_000,
            )
        message = str(exc.value)
        assert message.startswith(f"checkpoint {str(cp)!r}")
        for fragment in fragments:
            assert fragment in message
        assert main(args) == EXIT_RUNTIME
        assert capsys.readouterr().err == f"error: {message}\n"


class TestAuxCommand:
    def test_bundled_scan(self, tmp_path, capsys):
        report = tmp_path / "aux.json"
        trace = tmp_path / "aux.csv"
        rc = main(
            [
                "aux",
                "--alpha", "0.5",
                "--u-from", "0",
                "--u-to", "20",
                "--step", "0.05",
                "--report", str(report),
                "--trace", str(trace),
            ]
        )
        assert rc == EXIT_OK
        data = json.loads(report.read_text())
        assert data["kind"] == "aux-scan"
        assert data["n_terms"] == 99  # default cutoff is the 100th ordinate
        assert data["report"]["n_points"] == 401
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "u,X_equiv,value"
        assert len(lines) == 402

    def test_missing_zero_file(self, capsys):
        rc = main(["aux", "--alpha", "0.5", "--zeros", "/nonexistent/zeros.txt"])
        assert rc == EXIT_RUNTIME

    def test_zero_cutoff_rejected(self, capsys):
        rc = main(["aux", "--alpha", "0.5", "--cutoff", "-3"])
        assert rc == EXIT_RUNTIME

    @pytest.mark.parametrize("bounds", [["--u-to", "inf"], ["--u-from", "-5", "--u-to", "1"]])
    def test_bad_u_range_rejected(self, bounds, capsys):
        rc = main(["aux", "--alpha", "0.5", *bounds])
        assert rc == EXIT_RUNTIME
        assert "error:" in capsys.readouterr().err


def _table_with_non_zero(tmp_path):
    table = tmp_path / "zeros.txt"
    table.write_text("14.134725141735\n21.5\n25.010857580146\n")
    return str(table)


class TestNonZeroOrdinateRejected:
    @pytest.mark.parametrize(
        "args",
        [["aux", "--cutoff", "26"], ["residues", "--count", "3"]],
        ids=["aux", "residues"],
    )
    def test_error_names_the_ordinate(self, args, tmp_path, capsys):
        rc = main([*args, "--alpha", "0.5", "--zeros", _table_with_non_zero(tmp_path)])
        assert rc == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert captured.err.startswith("error: gamma = 21.5 is not a zero ordinate")
        assert "r0 =" not in captured.out


class TestZeroTableUnderBatching:
    @pytest.mark.parametrize(
        "args",
        [["aux", "--cutoff", "28"], ["residues", "--count", "4"]],
        ids=["aux", "residues"],
    )
    def test_two_non_zeros_name_the_earlier(self, args, tmp_path, capsys):
        # every ordinate a command uses is evaluated in one batch before any is checked
        table = tmp_path / "zeros.txt"
        table.write_text("14.134725141735\n21.5\n25.010857580146\n27.5\n")
        rc = main([*args, "--alpha", "0.5", "--zeros", str(table)])
        assert rc == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert captured.err.startswith("error: gamma = 21.5 is not a zero ordinate")
        if args[0] == "residues":
            assert captured.out == ""

    def test_residues_count_evaluates_only_the_first(self, tmp_path, capsys):
        table = tmp_path / "zeros.txt"
        table.write_text("14.134725141735\n21.022039638772\n21.5\n")
        rc = main(["residues", "--alpha", "0.5", "--count", "2", "--zeros", str(table)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "r2 (gamma=21.022039638772)" in out
        assert "21.5" not in out


class TestResiduesCommand:
    def test_prints_r0_and_residues(self, capsys):
        rc = main(["residues", "--alpha", "0.5", "--count", "2"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "r0 = -0.3952572210511" in out
        assert "r1 (gamma=14.134725" in out

    def test_alpha_out_of_range(self, capsys):
        rc = main(["residues", "--alpha", "2", "--count", "1"])
        assert rc == EXIT_RUNTIME

    def test_count_exceeding_table(self, capsys):
        rc = main(["residues", "--alpha", "0.5", "--count", "10000"])
        assert rc == EXIT_RUNTIME

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_rejected(self, count, capsys):
        rc = main(["residues", "--alpha", "0.5", "--count", count])
        assert rc == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert "error: residue count must be >= 1" in captured.err
        assert "r0 =" not in captured.out


class TestProductCommand:
    def test_basic(self, capsys):
        rc = main(["product", "--alpha", "2", "--prime-limit", "10000"])
        assert rc == EXIT_OK
        assert "tail bound" in capsys.readouterr().out

    def test_alpha_rejected(self, capsys):
        rc = main(["product", "--alpha", "1", "--prime-limit", "100"])
        assert rc == EXIT_RUNTIME

    @pytest.mark.parametrize("alpha", ["inf", "nan"])
    def test_non_finite_alpha_rejected(self, alpha, capsys):
        rc = main(["product", "--alpha", alpha, "--prime-limit", "100"])
        assert rc == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "value =" not in captured.out

    def test_negative_compare_sum_rejected(self, capsys):
        rc = main(["product", "--alpha", "2", "--prime-limit", "100", "--compare-sum", "-5"])
        assert rc == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert "error: compare-sum must be >= 1" in captured.err
        assert "value =" not in captured.out

    def test_compare_sum_runs(self, capsys):
        rc = main(["product", "--alpha", "2", "--prime-limit", "100", "--compare-sum", "1000"])
        assert rc == EXIT_OK
        assert "direct sum to X=1000" in capsys.readouterr().out

    @pytest.mark.parametrize("compare_sum", [0, 1000])
    def test_report_written(self, compare_sum, tmp_path, capsys):
        report = tmp_path / "p.json"
        rc = main([
            "product", "--alpha", "2", "--prime-limit", "100",
            "--compare-sum", str(compare_sum), "--report", str(report),
        ])
        assert rc == EXIT_OK
        data = json.loads(report.read_text())
        assert data["kind"] == "product"
        assert data["schema_version"] == REPORT_SCHEMA_VERSION
        assert data["config"] == dataclasses.asdict(
            RunConfig(alpha=2.0, prime_limit=100, compare_sum=compare_sum)
        )
        assert "generated_at" in data
        assert (data["value"], data["tail_bound"]) == euler_product_value(2.0, 100)
        if compare_sum:
            value, err_bound = evaluate(compare_sum, 2.0)
            assert data["direct_sum"] == {"x": compare_sum, "value": value, "err_bound": err_bound}
        else:
            assert data["direct_sum"] is None


class TestRunConfig:
    def test_round_trip_lossless(self):
        for cfg in [
            RunConfig(alpha=0.123456789012345, x_from=7, sign="nonnegative"),
            RunConfig(zeros_path="C:\\zeros.txt"),
            RunConfig(zeros_path="""it's "quoted".txt"""),
            RunConfig(zeros_path="two\nlines.txt"),
            RunConfig(u_to=float("inf")),
        ]:
            assert RunConfig.from_text(cfg.to_text()) == cfg

    def test_every_field_has_default(self):
        for f in dataclasses.fields(RunConfig):
            assert f.default is not dataclasses.MISSING

    def test_none_cutoff_round_trips(self):
        cfg = RunConfig(cutoff=None)
        assert RunConfig.from_text(cfg.to_text()).cutoff is None
        cfg = RunConfig(cutoff=123.5)
        assert RunConfig.from_text(cfg.to_text()).cutoff == 123.5

    def test_earlier_config_format_loads(self):
        # written by --write-config before aux lost its fast_rotation option
        text = (
            "# liouville-sums config v1\n"
            "alpha=0.5\nx_from=1\nx_to=1000\nsign='nonpositive'\n"
            "segment_size=1048576\ntrace_every=10000\ncheckpoint_every=100000000\n"
            "zeros_path=''\ncutoff=None\nu_from=0.0\nu_to=100.0\nu_step=0.01\n"
            "count=10\nprime_limit=1000000\ncompare_sum=0\nfast_rotation=False\n"
        )
        assert RunConfig.from_text(text) == RunConfig()
        assert RunConfig.from_text("fast_rotation=True\nalpha=0.25\n") == RunConfig(alpha=0.25)

    def test_values_beyond_literals(self):
        assert RunConfig.from_text("sign=nonnegative\nx_to=0x10\n") == RunConfig(
            sign="nonnegative", x_to=16
        )
        # too deep for the literal parser, so read as text and rejected by type
        with pytest.raises(ValueError, match="alpha must be of type float"):
            RunConfig.from_text("alpha=" + "-" * 100_000 + "1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            RunConfig.from_text("bogus=1\n")

    def test_malformed_line_reported(self):
        with pytest.raises(ValueError, match=":2"):
            RunConfig.from_text("alpha=0.5\nnot a pair\n", origin="cfg")

    @pytest.mark.parametrize(
        "line", ["x_to=abc", "x_to=1e6", "alpha='0.5'", "segment_size=1000.0"]
    )
    def test_mistyped_value_rejected(self, line, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"# typed fields\n{line}\n")
        rc = main(["verify", "--config", str(cfgfile)])
        assert rc == EXIT_RUNTIME
        key = line.partition("=")[0]
        assert f"error: {cfgfile}:2: {key} must be of type" in capsys.readouterr().err

    def test_cli_overrides_config_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(RunConfig(alpha=0.25, x_from=5, x_to=10).to_text())
        out = tmp_path / "eff.cfg"
        rc = main(
            ["verify", "--config", str(cfgfile), "--alpha", "0.5", "--write-config", str(out)]
        )
        assert rc == EXIT_OK
        eff = RunConfig.from_text(out.read_text())
        assert eff.alpha == 0.5  # explicit flag wins
        assert eff.x_from == 5  # config file beats default


class TestParser:
    def test_each_subcommand_keeps_its_options(self):
        common = ["--alpha", "--config", "--help", "--report", "--write-config", "-h"]
        expected = {
            "verify": common + [
                "--checkpoint", "--checkpoint-every", "--from", "--segment-size", "--sign",
                "--to", "--trace", "--trace-every",
            ],
            "aux": common + ["--cutoff", "--step", "--trace", "--u-from", "--u-to", "--zeros", "-T"],
            "residues": common + ["--count", "--zeros"],
            "product": common + ["--compare-sum", "--prime-limit", "--segment-size"],
        }
        parser = _build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        options = {
            name: sorted(s for action in p._actions for s in action.option_strings)
            for name, p in sub.choices.items()
        }
        assert options == {name: sorted(opts) for name, opts in expected.items()}


class TestConsoleEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "liouville_sums.cli", "verify",
             "--alpha", "0.5", "--from", "17", "--to", "1000", "--sign", "nonpositive"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "OK" in proc.stdout

    def test_usage_error_is_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "liouville_sums.cli", "verify", "--alpha"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
