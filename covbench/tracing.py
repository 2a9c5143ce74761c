"""Span tracing of covshift's layers from outside the package.

``Tracer.install`` replaces the module attributes through which the layers
call one another (for example ``covshift.multivariate.sparse_abs_eigmax``
or ``covshift.simulate.adaptive_test``) with wrappers that record a span
``[name, start, end, parent]`` per call, and ``restore`` puts the originals
back. Spans are kept in memory; ``dump`` writes them out at the end of a run.

A span's self time is its duration minus the durations of its direct
children (calls are strictly nested in one thread, so the children never
overlap). The output checks that run on every call are recorded as
``bench.check`` spans under the caller, so they count in no layer.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name) for every boundary the benchmark traces.
BOUNDARIES = [
    ("multivariate", "CovarianceScan", "core.scan_build"),
    ("multivariate", "sparse_abs_eigmax", "sparse_eig"),
    ("multivariate", "relaxed_sparse_eigmax", "sdp_relax"),
    ("multivariate", "sparse_noise_level", "multivariate.noise"),
    ("multivariate", "entrywise_noise_level", "multivariate.noise"),
    ("multivariate", "adaptive_test", "multivariate.scan"),
    ("multivariate", "adaptive_sdp_test", "multivariate.scan"),
    ("simulate", "adaptive_test", "multivariate.scan"),
    ("simulate", "adaptive_sdp_test", "multivariate.scan"),
    ("cli", "adaptive_test", "multivariate.scan"),
    ("cli", "adaptive_sdp_test", "multivariate.scan"),
    ("univariate", "variance_test", "univariate.scan"),
    ("simulate", "variance_test", "univariate.scan"),
    ("cli", "variance_test", "univariate.scan"),
    ("simulate", "null_series", "simulate.sample"),
    ("simulate", "sample_alternative", "simulate.sample"),
    ("simulate", "sample_series", "simulate.sample"),
    ("simulate", "calibrate_lambda", "simulate.calibrate"),
    ("simulate", "monte_carlo_errors", "simulate.mc"),
    ("cli", "main", "cli.main"),
    ("cli", "read_csv_series", "cli.read_csv"),
    ("cli", "write_report", "cli.write_report"),
]

class Tracer:
    def __init__(self, after=None):
        """``after`` maps a span name to ``fn(tracer, args, kwargs, result)``,
        called after each such call (output checks and counters)."""
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []
        self._after = after or {}
        self._saved = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        after = self._after.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                check = ["bench.check", perf_counter(), 0.0, stack[-1] if stack else -1]
                after(self, args, kwargs, result)
                check[2] = perf_counter()
                spans.append(check)
            return result

        return traced

    def install(self, package):
        for mod_name, attr, name in BOUNDARIES:
            module = getattr(package, mod_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def layer_totals(self):
        """Call counts, total durations and self times per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        for (name, start, end, _), c in zip(self.spans, child):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - c
        return calls, total, self_s

    def metrics(self, rounds, overhead_pct):
        """Per-layer metrics, each per traced round, and the overhead."""
        calls, total, self_s = self.layer_totals()
        k = self.counts
        raw = {
            "core.scan_build_calls": calls["core.scan_build"],
            "core.scan_build_s": total["core.scan_build"],
            "sparse_eig.calls": calls["sparse_eig"],
            "sparse_eig.self_s": self_s["sparse_eig"],
            "sparse_eig.supports_possible": k["supports_possible"],
            "sdp_relax.calls": calls["sdp_relax"],
            "sdp_relax.self_s": self_s["sdp_relax"],
            "sdp_relax.iterations": k["sdp_iterations"],
            "sdp_relax.unconverged": k["sdp_unconverged"],
            "univariate.calls": calls["univariate.scan"],
            "univariate.self_s": self_s["univariate.scan"],
            "multivariate.scans": calls["multivariate.scan"],
            "multivariate.cells": k["cells"],
            "multivariate.scan_s": total["multivariate.scan"],
            "multivariate.noise_s": total["multivariate.noise"],
            "multivariate.self_s": self_s["multivariate.scan"] + self_s["multivariate.noise"],
            "simulate.sample_s": total["simulate.sample"],
            "simulate.replicates": k["replicates"],
            "simulate.calibrate_self_s": self_s["simulate.calibrate"],
            "simulate.mc_self_s": self_s["simulate.mc"],
            "cli.read_csv_s": total["cli.read_csv"],
            "cli.write_report_s": total["cli.write_report"],
            "cli.main_s": total["cli.main"],
            "trace.check_s": total["bench.check"],
        }
        out = {name: value / rounds for name, value in raw.items()}
        out["trace.overhead"] = overhead_pct
        return out

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent"],
                "names": names,
                "spans": [[index[n], round(a - t0, 7), round(b - t0, 7), p]
                          for n, a, b, p in self.spans],
            }, fh, separators=(",", ":"))
