"""covshift benchmark: calibrate -> simulate -> scan -> CLI, in closed-loop rounds.

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed):

    python3 covbench/run.py --workload uni-long --seed 1 --seconds 40 --trace 0

Each round runs, one after the other in this process, ``calibrate_lambda``
on null panels, ``monte_carlo_errors`` with the calibrated lambda, library
scans of the workload's fixed panel and one CLI run on its CSV panel.
Rounds repeat until ``--seconds`` is spent. With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it has the per-layer metrics of a traced run (see
``tracing.py``) and the tracing overhead. Every run checks the outputs
(see ``checks.py``). BLAS is pinned to one thread here and in every child.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

from tracing import Tracer
from workloads import WORKLOADS

PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
CLI_TIMEOUT_S = 60


# --- setup: import the package, make the panels, write the CSV --------------

def setup(w, src, csv_path):
    """Import covshift from ``src`` and build the workload's fixed panels.

    Returns ``(covshift, scan_panel, cli_panel)`` and writes ``cli_panel``
    to ``csv_path``. The panels are draws from the package's own prior
    samplers with ``w.panel_seed`` and the change at ``w.n // 2``, the same
    in every run.
    """
    if src not in sys.path:
        sys.path.insert(0, src)
    import covshift
    import covshift.cli
    from covshift.simulate import PriorSpec, sample_alternative, sample_series

    def panel(rows):
        kind = "uni" if w.family == "uni" else "multi"
        spec = PriorSpec(kind, n=rows, p=w.p, sigma_sq=1.0, rho=w.mc_rho, s=w.mc_s)
        draw = sample_alternative(spec, [w.panel_seed, rows], delta=w.n // 2)
        return sample_series(draw, rows, w.p, [w.panel_seed, rows, 1])

    scan_panel = panel(w.n)
    cli_panel = scan_panel if w.cli_rows == w.n else panel(w.cli_rows)
    with open(csv_path, "w") as fh:
        fh.write("\n".join(",".join(map(repr, row)) for row in cli_panel.tolist()))
        fh.write("\n")
    return covshift, scan_panel, cli_panel


def measure_setup(args, run_dir):
    """Median over fresh interpreters of the time to import covshift, make
    the panels and write the CSV (each child times itself)."""
    times = []
    for i in range(SETUP_REPEATS):
        probe_csv = os.path.join(run_dir, f"setup-probe-{i}.csv")
        cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
               "--setup-probe", probe_csv]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        os.remove(probe_csv)
    return statistics.median(times), times


# --- the operations of one round --------------------------------------------

def scan(cs, family, X, lam):
    """One full library test call. Looked up at call time so that the
    traced run sees it."""
    if family == "uni":
        return cs.univariate.variance_test(X[:, 0], lam)
    if family == "adaptive":
        return cs.multivariate.adaptive_test(X, lam)
    return cs.multivariate.adaptive_sdp_test(X, lam)


class CountingTest:
    """Test callable for ``monte_carlo_errors``.

    ``monte_carlo_errors`` turns every exception into a failed replicate, so
    this callable counts exceptions by type, and which replicate raised,
    before re-raising. It keeps the reports for the output checks.
    """

    def __init__(self, cs, family, lam, errors):
        self.cs, self.family, self.lam, self.errors = cs, family, lam, errors
        self.calls = 0
        self.raised = 0
        self.failed_reps = set()
        self.reports = []

    def __call__(self, X):
        call = self.calls
        self.calls += 1
        try:
            report = scan(self.cs, self.family, X, self.lam)
        except Exception as exc:
            self.errors[type(exc).__name__] += 1
            self.raised += 1
            self.failed_reps.add(call // 2)  # null then alternative, per replicate
            raise
        self.reports.append(report)
        return report.reject


class Bench:
    """The operations of a round, their timings, failures and checks."""

    def __init__(self, args, w, cs, scan_panel, cli_panel, csv_path, run_dir, chk, checks, src):
        self.args, self.w, self.cs, self.chk, self.checks = args, w, cs, chk, checks
        self.scan_panel, self.cli_panel, self.csv_path = scan_panel, cli_panel, csv_path
        self.out_json = os.path.join(run_dir, "cli-report.json")
        self.src = src
        self.errors = Counter()
        self.attempted = Counter()
        self.failed = Counter()
        self.cal_times, self.mc_times, self.scan_times, self.cli_times = [], [], [], []
        self.lams, self.type1, self.type2 = [], [], []
        self.lam = None  # this round's calibrated lambda
        self.lam0 = None  # round 0's, used by every scan and CLI run
        self.scan_report = None
        self.cli_bytes = None
        self.band = checks.type1_band(w.cal_reps, w.cal_delta, w.mc_reps)
        kind = "uni" if w.family == "uni" else "multi"
        self.spec = cs.simulate.PriorSpec(kind, n=w.n, p=w.p, sigma_sq=1.0, rho=w.mc_rho, s=w.mc_s)

    def _fail(self, op, units, exc):
        self.errors[type(exc).__name__] += 1
        self.failed[op] += units
        print(f"covbench: {op} failed: {type(exc).__name__}: {exc}", file=sys.stderr)

    def round(self, r, in_process_cli=False):
        self.calibrate(r)
        self.simulate(r)
        self.scans(r)
        for _ in range(self.w.cli_repeats):
            self.cli_op(r, in_process_cli)

    def calibrate(self, r):
        """``calibrate_lambda`` on the round's null panels; returns its wall time."""
        w, chk = self.w, self.chk
        self.attempted["calibrate_scans"] += w.cal_reps
        t0 = perf_counter()
        try:
            lam = self.cs.simulate.calibrate_lambda(w.family, w.n, p=w.p, delta=w.cal_delta,
                                                    reps=w.cal_reps, seed=self.args.seed * 1000 + r)
        except Exception as exc:
            self._fail("calibrate_scans", w.cal_reps, exc)
            self.lam = None
            return perf_counter() - t0
        dt = perf_counter() - t0
        self.cal_times.append(dt)
        self.lams.append(lam)
        chk.expect(isinstance(lam, float) and math.isfinite(lam) and lam > 0,
                   f"round {r}: calibrated lambda {lam!r} is not finite and positive")
        self.lam = lam
        if self.lam0 is None:
            self.lam0 = lam
        return dt

    def simulate(self, r):
        """``monte_carlo_errors`` at the round's lambda; returns its wall time."""
        w, chk = self.w, self.chk
        self.attempted["simulate_reps"] += w.mc_reps
        if self.lam is None:
            self.failed["simulate_reps"] += w.mc_reps
            return 0.0
        test = CountingTest(self.cs, w.family, self.lam, self.errors)
        t0 = perf_counter()
        try:
            out = self.cs.simulate.monte_carlo_errors(test, self.spec, w.mc_reps, self.args.seed * 1000 + r)
        except Exception as exc:
            self._fail("simulate_reps", w.mc_reps, exc)
            return perf_counter() - t0
        dt = perf_counter() - t0
        self.mc_times.append(dt)
        self.failed["simulate_reps"] += len(test.failed_reps)
        chk.expect(out.failed_null + out.failed_alt == test.raised,
                   f"round {r}: monte_carlo_errors counts {out.failed_null + out.failed_alt} "
                   f"failures, the test raised {test.raised}")
        self.type1.append(out.type1)
        self.type2.append(out.type2)
        if not test.failed_reps:
            rejected = round(out.type1 * w.mc_reps)
            lo, hi = self.band
            chk.expect(lo <= rejected <= hi,
                       f"round {r}: {rejected}/{w.mc_reps} nulls rejected, outside the "
                       f"Type I band [{lo}, {hi}] for lambda {self.lam!r}")
        p = None if w.family == "uni" else w.p
        for report in test.reports:
            self.checks.check_report(chk, report, w.n, p, f"round {r} simulate")
        return dt

    def scans(self, r):
        """Library scans of the fixed panel at round 0's lambda; returns
        their wall time."""
        w, spent = self.w, 0.0
        for _ in range(w.scan_repeats):
            self.attempted["scans"] += 1
            if self.lam0 is None:
                self.failed["scans"] += 1
                continue
            t0 = perf_counter()
            try:
                report = scan(self.cs, w.family, self.scan_panel, self.lam0)
            except Exception as exc:
                self._fail("scans", 1, exc)
                continue
            dt = perf_counter() - t0
            spent += dt
            self.scan_times.append(dt)
            if self.scan_report is None:
                self.scan_report = report
            else:
                self.chk.expect(report == self.scan_report, f"round {r}: scan of the fixed panel changed")
        return spent

    def cli_argv(self):
        return [*self.w.cli_args, "--input", self.csv_path, "--lambda", repr(self.lam0),
                "--seed", str(self.args.seed), "--output", self.out_json]

    def cli_op(self, r, in_process):
        """One CLI test run on the CSV panel: a child process, or
        ``covshift.cli.main`` in this process for the traced run."""
        self.attempted["cli_runs"] += 1
        if self.lam0 is None:
            self.failed["cli_runs"] += 1
            return
        if os.path.exists(self.out_json):
            os.remove(self.out_json)
        t0 = perf_counter()
        if in_process:
            code = self.cs.cli.main(self.cli_argv())
            stderr = ""
        else:
            # The same call as the installed ``covshift`` console script.
            env = dict(os.environ, PYTHONPATH=self.src)
            try:
                proc = subprocess.run(
                    [sys.executable, "-c", "import sys; from covshift.cli import main; sys.exit(main())",
                     *self.cli_argv()],
                    env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
                code, stderr = proc.returncode, proc.stderr
            except subprocess.TimeoutExpired:
                code, stderr = "timeout", f"no exit within {CLI_TIMEOUT_S} s"
        dt = perf_counter() - t0
        try:
            with open(self.out_json, "rb") as fh:
                data = fh.read()
            payload = json.loads(data)
        except (OSError, ValueError) as exc:
            payload, data = None, None
            stderr += f" (report unreadable: {exc})"
        if code != 0 or payload is None or "error" in payload:
            self.failed["cli_runs"] += 1
            self.errors[f"cli_exit_{code}"] += 1
            print(f"covbench: CLI run failed with code {code}: {stderr.strip()[-500:]}", file=sys.stderr)
            return
        self.cli_times.append(dt)
        if self.cli_bytes is None:
            self.cli_bytes = data
        else:
            self.chk.expect(data == self.cli_bytes, f"round {r}: CLI report bytes changed")

    def check_outputs(self):
        """Checks of the fixed-panel scan and the CLI report, made once after
        the rounds (and after tracing ends)."""
        w, chk, checks = self.w, self.chk, self.checks
        p = None if w.family == "uni" else w.p
        if self.scan_report is not None:
            checks.check_report(chk, self.scan_report, w.n, p, "scan")
            if w.family == "uni":
                checks.check_uni_stats(chk, self.scan_report, self.scan_panel, "scan")
            else:
                checks.check_multi_stats(chk, self.scan_report, self.scan_panel, w.family, "scan")
        if self.cli_bytes is not None:
            payload = json.loads(self.cli_bytes)
            report = scan(self.cs, w.family, self.cli_panel, self.lam0)
            checks.check_cli_matches(chk, payload, report, "cli")
            checks.check_report(chk, payload["result"], w.cli_rows, p, "cli")
            if w.family == "uni":
                checks.check_uni_stats(chk, report, self.cli_panel, "cli panel")


def mean(values):
    return statistics.fmean(values) if values else 0.0


def rate(work, times):
    return work / sum(times) if times else 0.0


def run_rounds(budget_s, one_round, done=0, start=None):
    """Run whole rounds, counting from ``done`` already run since ``start``,
    while the next is expected to end within ``budget_s``. At least one
    round runs. Returns the number of rounds run."""
    start = perf_counter() if start is None else start
    while True:
        if done:
            elapsed = perf_counter() - start
            if elapsed + elapsed / done > budget_s:
                return done
        one_round(done)
        done += 1


# --- traced run ---------------------------------------------------------------

def make_after(bench):
    chk, checks = bench.chk, bench.checks

    def sparse(tr, args, kwargs, res):
        A, s = args[0], args[1]
        tr.counts["supports_possible"] += math.comb(A.shape[0], s)
        checks.check_sparse_eig(chk, A, s, res)

    def relax(tr, args, kwargs, sol):
        tr.counts["sdp_iterations"] += sol.iterations
        tr.counts["sdp_unconverged"] += not sol.converged
        checks.check_relaxation(chk, args[0], args[1], sol)

    def uni_scan(tr, args, kwargs, report):
        checks.check_report(chk, report, len(args[0]), None, "traced univariate scan")

    def multi_scan(tr, args, kwargs, report):
        tr.counts["cells"] += len(report.cells)
        checks.check_report(chk, report, args[0].shape[0], args[0].shape[1], "traced scan")

    def calibrate(tr, args, kwargs, lam):
        tr.counts["replicates"] += kwargs["reps"]

    def mc(tr, args, kwargs, out):
        tr.counts["replicates"] += args[2]

    return {"sparse_eig": sparse, "sdp_relax": relax, "univariate.scan": uni_scan,
            "multivariate.scan": multi_scan, "simulate.calibrate": calibrate, "simulate.mc": mc}


# --- machine facts ------------------------------------------------------------

def git_commit(root):
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        path = os.path.join(root, ".git", *ref[5:].split("/"))
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def machine_facts(root, np):
    import importlib.util
    import platform

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # the layout of show_config differs across numpy releases
        openblas = f"unknown ({type(exc).__name__})"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "thread_pins": {k: os.environ.get(k) for k in PINS},
        "git_commit": git_commit(root),
        "scipy_importable": importlib.util.find_spec("scipy") is not None,
        "cvxpy_importable": importlib.util.find_spec("cvxpy") is not None,
    }


# --- main -----------------------------------------------------------------------

def declared_units(root, kind):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    for key in PINS:
        os.environ[key] = "1"
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "covshift", "__init__.py")):
        print("covbench: no covshift sources under ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]

    if args.setup_probe:
        t0 = perf_counter()
        setup(w, src, args.setup_probe)
        print(repr(perf_counter() - t0))
        return 0

    run_dir = os.path.join(BENCH_DIR, "runs", f"{w.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    setup_s, setup_all = measure_setup(args, run_dir)
    csv_path = os.path.join(run_dir, "panel.csv")
    cs, scan_panel, cli_panel = setup(w, src, csv_path)
    if os.path.dirname(os.path.abspath(cs.__file__)) != os.path.join(src, "covshift"):
        print(f"covbench: covshift imported from {cs.__file__}, not from ./src", file=sys.stderr)
        return 2

    import numpy as np
    import resource

    import checks

    chk = checks.Checker()
    bench = Bench(args, w, cs, scan_panel, cli_panel, csv_path, run_dir, chk, checks, src)

    if args.trace:
        # Round 0 runs each library step untraced and then traced, next to
        # each other in time so that the machine's drift mostly cancels; the
        # difference is the tracing overhead. Later rounds are traced only.
        start = perf_counter()
        tracer = Tracer(after=make_after(bench))
        untraced = traced = 0.0
        for step in (bench.calibrate, bench.simulate, bench.scans):
            untraced += step(0)
            tracer.install(cs)
            try:
                traced += step(0)
            finally:
                tracer.restore()
        overhead = 100.0 * (traced - untraced) / untraced
        tracer.install(cs)
        try:
            for _ in range(w.cli_repeats):
                bench.cli_op(0, in_process=True)
            rounds = run_rounds(args.seconds, lambda r: bench.round(r, in_process_cli=True),
                                done=1, start=start)
        finally:
            tracer.restore()
    else:
        rounds = run_rounds(args.seconds, bench.round)

    bench.check_outputs()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(bench.attempted.values())
    failed = sum(bench.failed.values())
    if args.trace:
        values = tracer.metrics(rounds, overhead)
        tracer.dump(os.path.join(run_dir, "spans.json"))
    else:
        values = {
            "setup_s": setup_s,
            # Means, not medians: where CPU speed switches between levels
            # (on a shared VM, about 1.8x apart), a median jumps from one
            # level to the other as the mix changes from run to run, while a
            # mean moves in proportion to the mix.
            "calibrate_scans_per_s": rate(w.cal_reps * len(bench.cal_times), bench.cal_times),
            "simulate_reps_per_s": rate(w.mc_reps * len(bench.mc_times), bench.mc_times),
            "scan_s": mean(bench.scan_times),
            "cli_test_s": mean(bench.cli_times),
            "peak_rss_mb": peak_rss_mb,
        }
    units = declared_units(root, "per_layer" if args.trace else "end_to_end")
    if set(units) != set(values):
        print(f"covbench: metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 2
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    detail = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "attempted": dict(bench.attempted),
        "failed": dict(bench.failed),
        "exceptions": dict(bench.errors),
        "checks_run": chk.count,
        "check_failures": chk.failures,
        "setup_s_all": setup_all,
        "lambda": bench.lams,
        "type1": bench.type1,
        "type1_band": list(bench.band),
        "type2_reference": bench.type2,
        "machine": machine_facts(root, np),
    }
    with open(os.path.join(run_dir, "summary.json"), "w") as fh:
        json.dump({"detail": detail, "calibrate_times_s": bench.cal_times,
                   "simulate_times_s": bench.mc_times, "scan_times_s": bench.scan_times,
                   "cli_times_s": bench.cli_times, "metrics": metrics}, fh, indent=1)
    for path in (csv_path, bench.out_json):
        if os.path.exists(path):
            os.remove(path)
    for failure in chk.failures:
        print(f"covbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": chk.ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
