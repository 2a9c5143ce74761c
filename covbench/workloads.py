"""Workload definitions for the covshift benchmark.

A workload fixes one scan family at one size and the make-up of a round:

* ``calibrate_lambda`` on ``cal_reps`` null panels at level ``cal_delta``;
* ``monte_carlo_errors`` with the calibrated lambda, ``mc_reps`` replicates
  against the prior ``(mc_rho, mc_s)``;
* ``scan_repeats`` library test calls on the fixed reference panel;
* ``cli_repeats`` CLI runs on the reference CSV panel.

The run seed feeds the calibration and simulation seeds of every round.
The reference panels are draws from the same prior with the change at
``n // 2`` and ``panel_seed``, the same in every run, so ``scan_s`` and
``cli_test_s`` time the same analysis whatever the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _loglog8n(n):
    return math.log(math.log(8.0 * n))


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # "uni", "adaptive" or "adaptive_sdp"
    n: int
    p: int
    cal_delta: float
    cal_reps: int
    mc_reps: int
    mc_rho: float
    mc_s: int
    scan_repeats: int
    cli_repeats: int
    cli_rows: int  # rows of the CSV panel the CLI reads
    panel_seed: int

    @property
    def cli_args(self) -> list[str]:
        if self.family == "uni":
            return ["test-uni"]
        return ["test-cov", "--variant", self.family.replace("_", "-")]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="uni-long",
            family="uni",
            n=8192,
            p=1,
            cal_delta=0.1,
            cal_reps=500,
            mc_reps=500,
            mc_rho=50.0 * _loglog8n(8192),
            mc_s=1,
            scan_repeats=20,
            cli_repeats=1,
            cli_rows=131072,
            panel_seed=20240501,
        ),
        Workload(
            name="adaptive-exact-p16",
            family="adaptive",
            n=256,
            p=16,
            cal_delta=1.0,
            cal_reps=5,
            mc_reps=1,
            mc_rho=40.0,
            mc_s=4,
            scan_repeats=2,
            cli_repeats=2,
            cli_rows=256,
            panel_seed=20240502,
        ),
        Workload(
            name="adaptive-sdp-p32",
            family="adaptive_sdp",
            n=512,
            p=32,
            cal_delta=1.0,
            cal_reps=5,
            mc_reps=2,
            mc_rho=40.0,
            mc_s=4,
            scan_repeats=3,
            cli_repeats=2,
            cli_rows=512,
            panel_seed=20240503,
        ),
    )
}
