"""Golden CLI reports: every command's output bytes are pinned to files.

Each case runs ``covshift.cli.main`` inside ``tests/data/golden`` with a
relative ``--input`` and the report on standard output, so the recorded
configuration holds no machine path. The expected bytes were written by
the code before the family table and the shared scan loop replaced the
per-command dispatch; any later change to a report shows here.

Regenerate after an intended change of output with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import os
import sys

import pytest

from covshift.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden")

MULTI = ["--n", "32", "--p", "4"]

# (name, argv, exit code)
CASES = [
    ("test-uni", ["test-uni", "--input", "uni.csv", "--lambda", "2.5"], 0),
    ("test-uni-center", ["test-uni", "--input", "uni.csv", "--lambda", "2.5", "--center"], 0),
    ("test-cov-oracle", ["test-cov", "--input", "cov.csv", "--lambda", "1.5",
                         "--variant", "oracle", "--s", "2", "--sigma-sq", "1.5"], 0),
    ("test-cov-oracle-center", ["test-cov", "--input", "cov.csv", "--lambda", "1.5",
                                "--variant", "oracle", "--s", "2", "--sigma-sq", "1.5",
                                "--center"], 0),
    ("test-cov-adaptive", ["test-cov", "--input", "cov.csv", "--lambda", "1.5"], 0),
    ("test-cov-adaptive-center", ["test-cov", "--input", "cov.csv", "--lambda", "1.5",
                                  "--center"], 0),
    ("test-cov-adaptive-sdp", ["test-cov", "--input", "cov.csv", "--lambda", "0.8",
                               "--variant", "adaptive-sdp"], 0),
    ("test-cov-adaptive-sdp-center", ["test-cov", "--input", "cov.csv", "--lambda", "0.8",
                                      "--variant", "adaptive-sdp", "--center"], 0),
    ("test-cov-adaptive-skips", ["test-cov", "--input", "cov_short.csv", "--lambda", "1.0"], 0),
    ("test-cov-undecidable", ["test-cov", "--input", "cov_tiny.csv", "--lambda", "1.0"], 1),
    ("calibrate-uni", ["calibrate", "--family", "uni", "--n", "64", "--reps", "50",
                       "--seed", "3"], 0),
    ("calibrate-oracle", ["calibrate", "--family", "oracle", *MULTI, "--s", "2",
                          "--reps", "50", "--seed", "3"], 0),
    ("calibrate-adaptive", ["calibrate", "--family", "adaptive", *MULTI, "--reps", "50",
                            "--seed", "3"], 0),
    ("calibrate-adaptive-sdp", ["calibrate", "--family", "adaptive-sdp", *MULTI,
                                "--reps", "50", "--seed", "3"], 0),
    ("simulate-uni", ["simulate", "--family", "uni", "--lambda", "3.0", "--n", "64",
                      "--rho", "20", "--reps", "20", "--seed", "4"], 0),
    ("simulate-oracle", ["simulate", "--family", "oracle", "--lambda", "1.5", *MULTI,
                         "--rho", "20", "--s", "2", "--reps", "20", "--seed", "4"], 0),
    ("simulate-adaptive", ["simulate", "--family", "adaptive", "--lambda", "1.5", *MULTI,
                           "--rho", "20", "--s", "2", "--reps", "20", "--seed", "4"], 0),
    ("simulate-adaptive-sdp", ["simulate", "--family", "adaptive-sdp", "--lambda", "0.8",
                               *MULTI, "--rho", "20", "--s", "2", "--reps", "20",
                               "--seed", "4"], 0),
    ("boundary", ["boundary", "--n-grid", "64", "--reps", "50", "--seed", "5"], 0),
]


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_report_bytes_match_golden(name, argv, code, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    assert main(argv) == code
    with open(os.path.join(GOLDEN, name + ".json"), "rb") as fh:
        expected = fh.read()
    assert capsys.readouterr().out.encode() == expected


if __name__ == "__main__":
    import contextlib
    import io

    os.chdir(GOLDEN)
    for name, argv, code in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            got = main(argv)
        if got != code:
            sys.exit(f"{name}: exit code {got}, expected {code}")
        with open(name + ".json", "wb") as fh:
            fh.write(buf.getvalue().encode())
