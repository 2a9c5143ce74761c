"""Command-line interface: parsing, reports, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys

import pytest

from covshift import center_columns, cli
from covshift.cli import main
from covshift.simulate import run_test

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden")


def run_cli(args):
    return main(args)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestUniCommand:
    def test_hand_example(self, tmp_path, capsys):
        data = write(tmp_path, "x.csv", "1\n1\n2\n2\n")
        out = str(tmp_path / "report.json")
        code = run_cli(["test-uni", "--input", data, "--lambda", "0.1", "--output", out])
        assert code == 0
        report = json.loads(open(out).read())
        assert report["result"]["reject"] is True
        cells = {c["t"]: c["stat"] for c in report["result"]["cells"]}
        assert cells == {1: pytest.approx(3.0), 2: pytest.approx(3.0)}
        assert report["config"]["seed"] == 0
        assert report["version"]

    def test_header_autodetected(self, tmp_path):
        data = write(tmp_path, "x.csv", "value\n1\n1\n2\n2\n")
        out = str(tmp_path / "r.json")
        assert run_cli(["test-uni", "--input", data, "--lambda", "0.1", "--output", out]) == 0
        assert json.loads(open(out).read())["result"]["reject"] is True

    def test_byte_identical_reports(self, tmp_path):
        # identical resolved config (including the output path) and input
        # must reproduce the file byte for byte
        data = write(tmp_path, "x.csv", "0.5\n-1.25\n2\n0.125\n1\n-2\n")
        out = str(tmp_path / "a.json")
        args = ["test-uni", "--input", data, "--lambda", "1.5", "--output", out]
        assert run_cli(args) == 0
        first = open(out, "rb").read()
        assert run_cli(args) == 0
        assert open(out, "rb").read() == first

    def test_control_characters_in_strings(self, tmp_path, capsys):
        # a tab in the input path is escaped, so the report stays valid JSON
        data = write(tmp_path, "a\tb.csv", "1\n1\n2\n2\n")
        assert run_cli(["test-uni", "--input", data, "--lambda", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "\\t" in out and "\t" not in out
        assert json.loads(out)["config"]["input"] == data

    def test_infinite_stat_and_float_lambda_read_back(self, tmp_path, capsys):
        # A zero-variance half makes the ratio infinite; the report spells it
        # Infinity, and a float flag stays a float even when it is integral.
        data = write(tmp_path, "x.csv", "0\n0\n1\n1\n")
        assert run_cli(["test-uni", "--input", data, "--lambda", "1"]) == 0
        out = capsys.readouterr().out
        assert '"stat": Infinity' in out and '"lam": 1.0' in out
        report = json.loads(out)
        assert report["result"]["cells"][0]["stat"] == math.inf
        lam = report["config"]["lam"]
        assert isinstance(lam, float) and lam == 1.0

    def test_byte_order_mark_is_not_a_header(self, tmp_path, monkeypatch, capsys):
        # The golden uni.csv without its header line, once plain and once
        # behind a UTF-8 byte-order mark, both as uni.csv in their own
        # directory: the mark must not make the first data row a header.
        with open(os.path.join(GOLDEN, "uni.csv"), encoding="utf-8") as fh:
            rows = fh.read().split("\n", 1)[1]
        outs = []
        for name, text in (("plain", rows), ("bom", "\ufeff" + rows)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "uni.csv").write_text(text, encoding="utf-8")
            monkeypatch.chdir(tmp_path / name)
            assert run_cli(["test-uni", "--input", "uni.csv", "--lambda", "2.5"]) == 0
            outs.append(capsys.readouterr().out)
        with open(os.path.join(GOLDEN, "test-uni.json"), encoding="utf-8") as fh:
            golden = fh.read()
        assert outs == [golden, golden]
        assert json.loads(outs[1])["result"]["n"] == 64

    def test_center_equals_library_on_centred_panel(self, tmp_path, rng, capsys):
        # --center subtracts the panel's mean before the test, which takes
        # its data as given; a large common mean changes every statistic
        x = rng.standard_normal(64) + 100.0
        data = write(tmp_path, "x.csv", "".join(f"{float(v)!r}\n" for v in x))
        reports = []
        for flag in (["--center"], []):
            assert run_cli(["test-uni", "--input", data, "--lambda", "3.0", *flag]) == 0
            reports.append(json.loads(capsys.readouterr().out)["result"])
        centred, raw = reports
        assert centred == run_test("uni", center_columns(x), 3.0).to_dict()
        assert raw == run_test("uni", x, 3.0).to_dict()
        assert all(a["stat"] != pytest.approx(b["stat"])
                   for a, b in zip(centred["cells"], raw["cells"]))

    def test_multicolumn_rejected(self, tmp_path, capsys):
        data = write(tmp_path, "x.csv", "1,2\n3,4\n5,6\n")
        assert run_cli(["test-uni", "--input", data, "--lambda", "1.0"]) == 2


class TestCsvParsing:
    def test_missing_value_reports_line_and_column(self, tmp_path, capsys):
        data = write(tmp_path, "x.csv", "1,2\n3,\n5,6\n")
        code = run_cli(["test-cov", "--input", data, "--lambda", "1.0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "column 2" in err

    def test_non_numeric_cell(self, tmp_path, capsys):
        data = write(tmp_path, "x.csv", "1,2\n3,4\nx,6\n")
        code = run_cli(["test-cov", "--input", data, "--lambda", "1.0"])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_ragged_rows(self, tmp_path, capsys):
        data = write(tmp_path, "x.csv", "1,2\n3,4,5\n")
        assert run_cli(["test-cov", "--input", data, "--lambda", "1.0"]) == 2

    def test_missing_file(self, tmp_path):
        assert run_cli(["test-uni", "--input", str(tmp_path / "no.csv"),
                        "--lambda", "1.0"]) == 2


_PANEL = "".join("1,2\n" for _ in range(16))
_SIMULATE = ["simulate", "--family", "uni", "--lambda", "3", "--n", "64", "--reps", "3",
             "--seed", "1"]


class TestBadInput:
    # Whether the CLI's own CSV and flag checks or a library call refuses
    # the input, it is an InvalidInputError: exit 2, its message on stderr
    # and no report.
    @pytest.mark.parametrize("argv, text, message", [
        pytest.param(["test-cov"], "1,2\n3,\n5,6\n", "missing value at line 2, column 2",
                     id="missing-value"),
        pytest.param(["test-cov"], "1,2\n3,4,5\n", "row at line 2 has 3 columns, expected 2",
                     id="ragged-row"),
        pytest.param(["test-cov"], "1,2\n3,4\nx,6\n", "non-numeric value at line 3, column 1",
                     id="non-numeric"),
        pytest.param(["test-uni"], "1\n", "series needs at least 2 rows, got 1", id="one-row"),
        pytest.param(["test-uni"], "", "series needs at least 2 rows, got 0", id="empty"),
        pytest.param(["test-cov", "--variant", "oracle"], _PANEL,
                     "variant 'oracle' requires --s and --sigma-sq", id="oracle-without-s"),
        pytest.param(["test-cov", "--s", "1"], _PANEL,
                     "variant 'adaptive' forbids --s and --sigma-sq", id="adaptive-with-s"),
        pytest.param(["boundary", "--n-grid", ","], None, "--n-grid is empty", id="n-grid"),
        pytest.param(["calibrate", "--family", "uni", "--n", "64", "--p", "4", "--reps", "50"],
                     None, "univariate test requires p=1, got p=4", id="calibrate-uni-p4"),
        pytest.param(["calibrate", "--family", "oracle", "--n", "64", "--p", "4", "--reps", "50"],
                     None, "s must be an integer, got None", id="calibrate-oracle-without-s"),
        pytest.param(["calibrate", "--family", "uni", "--n", "64", "--reps", "-1"], None,
                     "reps must be >= 1, got -1", id="calibrate-reps-negative"),
        pytest.param(["calibrate", "--family", "uni", "--n", "64", "--delta", "0"], None,
                     "delta must lie in (0, 1], got 0.0", id="calibrate-delta-zero"),
        pytest.param(["simulate", "--family", "uni", "--lambda", "3", "--n", "64", "--rho", "2",
                      "--reps", "-1"], None, "reps must be >= 1, got -1",
                     id="simulate-reps-negative"),
        pytest.param(["boundary", "--n-grid", "64", "--delta", "2"], None,
                     "delta must lie in (0, 1], got 2.0", id="boundary-delta-2"),
        pytest.param([*_SIMULATE, "--rho", "inf"], None,
                     "rho must be positive and finite, got inf", id="simulate-rho-inf"),
        pytest.param([*_SIMULATE, "--rho", "2", "--sigma-sq", "inf"], None,
                     "sigma_sq must be positive and finite, got inf", id="simulate-sigma-sq-inf"),
    ])
    def test_exits_2_with_message_and_no_report(self, tmp_path, capsys, argv, text, message):
        if text is not None:
            argv = [*argv, "--input", write(tmp_path, "x.csv", text), "--lambda", "1.0"]
        out = tmp_path / "r.json"
        assert run_cli([*argv, "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"covshift: {message}\n"
        assert captured.out == "" and not out.exists()

    def test_negative_seed_exits_2_with_message_and_no_report(self, tmp_path, capsys):
        # numpy's own reason follows the prefix; its wording varies by release
        out = tmp_path / "r.json"
        assert run_cli(["calibrate", "--family", "uni", "--n", "64", "--seed", "-1",
                        "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("covshift: seed must be a nonnegative integer")
        assert captured.out == "" and not out.exists()

    def test_non_utf8_input_exits_2_with_message_and_no_report(self, tmp_path, capsys):
        data = tmp_path / "x.csv"
        data.write_bytes(b"1.0\n2.0\n\xff\xfe3\n4.0\n")
        out = tmp_path / "r.json"
        assert run_cli(["test-uni", "--input", str(data), "--lambda", "2.5",
                        "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("covshift: ") and "UTF-8" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("output", [
        pytest.param(os.path.join("missing", "r.json"), id="missing-directory"),
        pytest.param("", id="directory"),
    ])
    def test_unwritable_output_exits_2_with_message_and_no_report(self, tmp_path, capsys,
                                                                   output):
        # the OSError's wording varies by platform; its path does not
        out = os.path.join(str(tmp_path), output)
        assert run_cli(["test-uni", "--input", os.path.join(GOLDEN, "uni.csv"),
                        "--lambda", "2.5", "--output", out]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("covshift: ") and out in captured.err
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        pytest.param(["test-cov", "--input", os.path.join(GOLDEN, "cov.csv"), "--lambda", "1.5",
                      "--budget", "-1"], id="budget"),
        pytest.param(["calibrate", "--family", "uni", "--n", "64", "--tol", "1e-3"], id="tol"),
        pytest.param(["test-uni", "--input", os.path.join(GOLDEN, "uni.csv"), "--lambda", "2.5",
                      "--delta", "0.5"], id="test-uni-delta"),
        pytest.param(["test-cov", "--input", os.path.join(GOLDEN, "cov.csv"), "--lambda", "1.5",
                      "--reps", "7"], id="test-cov-reps"),
        pytest.param([*_SIMULATE, "--rho", "2", "--delta", "0.5"], id="simulate-delta"),
    ])
    def test_deleted_solver_flags_are_usage_errors(self, tmp_path, capsys, argv):
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            run_cli([*argv, "--output", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


class TestCovCommand:
    def test_adaptive_small_sample_is_runtime_error(self, tmp_path):
        rows = "\n".join(",".join(["1"] * 8) for _ in range(6))
        data = write(tmp_path, "x.csv", rows + "\n")
        out = str(tmp_path / "r.json")
        code = run_cli(["test-cov", "--input", data, "--lambda", "1.0", "--output", out])
        assert code == 1
        record = json.loads(open(out).read())
        assert record["error"]["type"] == "UndecidableInputError"

    def test_oracle_requires_s_and_sigma(self, tmp_path):
        rows = "\n".join("1,2" for _ in range(16))
        data = write(tmp_path, "x.csv", rows + "\n")
        assert run_cli(["test-cov", "--input", data, "--lambda", "1.0",
                        "--variant", "oracle"]) == 2

    def test_adaptive_forbids_s(self, tmp_path):
        rows = "\n".join("1,2" for _ in range(16))
        data = write(tmp_path, "x.csv", rows + "\n")
        assert run_cli(["test-cov", "--input", data, "--lambda", "1.0",
                        "--s", "1"]) == 2

    def test_oracle_runs(self, tmp_path, rng):
        X = rng.standard_normal((32, 3))
        rows = "\n".join(",".join(f"{float(v)!r}" for v in row) for row in X)
        data = write(tmp_path, "x.csv", rows + "\n")
        out = str(tmp_path / "r.json")
        code = run_cli(["test-cov", "--input", data, "--lambda", "2.0",
                        "--variant", "oracle", "--s", "2", "--sigma-sq", "1.0",
                        "--output", out])
        assert code == 0
        report = json.loads(open(out).read())
        assert report["result"]["variant"] == "oracle"
        assert len(report["result"]["cells"]) == 5  # dyadic_grid(32)

    def test_sdp_variant_runs(self, tmp_path, rng):
        X = rng.standard_normal((32, 4))
        rows = "\n".join(",".join(f"{float(v)!r}" for v in row) for row in X)
        data = write(tmp_path, "x.csv", rows + "\n")
        out = str(tmp_path / "r.json")
        code = run_cli(["test-cov", "--input", data, "--lambda", "3.0",
                        "--variant", "adaptive-sdp", "--output", out])
        assert code == 0
        assert json.loads(open(out).read())["result"]["variant"] == "adaptive_sdp"


class TestSimulationCommands:
    def test_calibrate_quantile_infeasible(self, tmp_path, capsys):
        assert run_cli(["calibrate", "--family", "uni", "--n", "64",
                        "--delta", "0.01", "--reps", "100"]) == 2

    def test_simulate_zero_reps(self):
        assert run_cli(["simulate", "--family", "uni", "--lambda", "5",
                        "--n", "32", "--rho", "2.0", "--reps", "0"]) == 2

    def test_simulate_uni_requires_p_one(self, capsys):
        # the uni prior is scalar; --p 8 is refused, not run at p = 1
        assert run_cli(["simulate", "--family", "uni", "--lambda", "5", "--n", "32",
                        "--p", "8", "--rho", "2.0", "--reps", "5"]) == 2
        assert "kind='uni' requires p=1" in capsys.readouterr().err

    def test_calibrate_and_simulate_roundtrip(self, tmp_path):
        out = str(tmp_path / "cal.json")
        code = run_cli(["calibrate", "--family", "uni", "--n", "64",
                        "--reps", "200", "--seed", "3", "--output", out])
        assert code == 0
        lam = json.loads(open(out).read())["result"]["lambda"]
        out2 = str(tmp_path / "sim.json")
        code = run_cli(["simulate", "--family", "uni", "--lambda", str(lam),
                        "--n", "64", "--rho", "500", "--reps", "100",
                        "--seed", "4", "--output", out2])
        assert code == 0
        res = json.loads(open(out2).read())["result"]
        assert 0.0 <= res["type1"] <= 0.2
        assert res["reps"] == 100

    def test_boundary_smoke(self, tmp_path):
        out = str(tmp_path / "b.json")
        code = run_cli(["boundary", "--n-grid", "64", "--reps", "120",
                        "--seed", "5", "--output", out])
        assert code == 0
        res = json.loads(open(out).read())["result"]
        assert len(res["points"]) == 1
        assert res["points"][0]["rho_star"] > 0
        assert res["ratio_max_over_min"] == pytest.approx(1.0)

    def test_boundary_power_never_reached_is_input_error(self, monkeypatch, capsys):
        # a threshold too large for any signal in the bracket is a bad input
        monkeypatch.setattr(cli, "calibrate_lambda", lambda *a, **k: 1e9)
        assert run_cli(["boundary", "--n-grid", "64", "--reps", "10"]) == 2
        assert "power never reached 0.5" in capsys.readouterr().err


class TestEntryPoint:
    def test_console_script_runs(self, tmp_path):
        data = write(tmp_path, "x.csv", "1\n1\n2\n2\n")
        proc = subprocess.run(
            [sys.executable, "-m", "covshift.cli", "test-uni", "--input", data,
             "--lambda", "0.1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["reject"] is True

    def test_files_opened_with_explicit_encoding(self, tmp_path):
        # EncodingWarning: an open() that falls back to the locale's encoding
        data = write(tmp_path, "x.csv", "1\n1\n2\n2\n")
        out = str(tmp_path / "r.json")
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "covshift.cli", "test-uni", "--input", data, "--lambda", "0.1",
             "--output", out],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        with open(out, encoding="utf-8") as fh:
            assert json.load(fh)["result"]["reject"] is True
