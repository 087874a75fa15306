"""qbinomial benchmark: one seeded, closed-loop, single-process workload per run.

    python3 perfbench/run.py --workload eval-grid --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ./src. The run
repeats the workload's fixed operation list (one "pass") until the operations
have been busy for --seconds, then checks every output against the mpmath
oracle. With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics and
the tracing overhead. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_STARTS = 7

# What a fresh interpreter does before it can serve the workload's first request.
WARMUP = {
    "eval-grid": "import qbinomial\n"
    "from qbinomial.distributions import KempBinomial, kb_moments\n"
    "kb_moments(KempBinomial(20, 1.3, 0.6))\n",
    "theorem-sweeps": "from qbinomial.cli import main\n"
    "main(['moments', '--dist', 'kb', '--n', '20', '--theta', '1.3', '--q', '0.6'])\n",
    "sample-stream": "import numpy as np\n"
    "from qbinomial.distributions import KempBinomial, kb_sample\n"
    "kb_sample(KempBinomial(20, 1.3, 0.6), np.random.default_rng(0), size=10)\n",
}

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "ops_per_s": "1/s",
    "lat_p50_ms": "ms",
    "lat_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics in the result line (BENCHMARK.json "per_layer"): every
# count, plus the times that are measured on every workload. A layer's time on
# a workload that never calls it is exactly 0 on every run, so those times are
# printed above the result line but not reported in it.
PER_LAYER_REPORTED = (
    "distributions.kb_moments.calls", "distributions.kb_table.calls",
    "distributions.kb_table.entries", "distributions.kb_table.useful_frac",
    "distributions.kb_sample.draws", "distributions.inversion.draws",
    "solvers.theta_for_mean.calls", "solvers.theta_for_mean.iterations",
    "solvers.kb_moments_per_solve", "solvers.residual_miss",
    "metrics.convergence_sweep.calls", "metrics.rows",
    "cli.main.calls", "cli.bytes_out", "cli.nonzero_exit",
    "qcalc.calls", "distributions.calls", "asymptotics.calls", "solvers.calls",
    "metrics.calls", "cli.calls",
    "distributions.self_s", "traced_pass_s", "tracing_overhead_s",
)


def settle_allocator() -> None:
    """Allocate and free one untouched 30 MiB block before anything is timed.

    glibc then raises its mmap threshold to 30 MiB, as it would anyway after
    the workload's first large free, so large numpy temporaries are served
    from the heap from the first pass on, and peak RSS no longer depends on
    the order in which the first large blocks happened to be freed.
    """
    np.empty(30 << 17)


class Calibration:
    """Times a fixed kernel (a Python float loop and a numpy log1p(-exp) pass)
    between requests, to follow the drift of the machine's speed.

    The effective speed of a shared machine drifts by tens of percent over
    minutes. Every reported time is divided by slowdown(): the kernel's 10th
    percentile time in this run over REF_S. The low percentile,
    like each request's best-of-k time, tracks the machine's speed without
    its moment-to-moment interference. The kernel is part of the benchmark,
    so a change to the library still moves the reported times.
    """

    REF_S = 0.003  # the kernel's 10th-percentile time on the reference machine
    EVERY_S = 0.2

    def __init__(self):
        self._x = -1e-4 * np.arange(1, 100_001)
        self.samples = []
        self._last = -math.inf

    def sample(self, force: bool = False) -> None:
        if not force and time.perf_counter() - self._last < self.EVERY_S:
            return
        t0 = time.perf_counter()
        s = 0.0
        for i in range(20_000):
            s += 1.0 / (1.0 + math.exp(-0.1 * (i % 50)))
        s += float(np.sum(np.log1p(-np.exp(self._x))))
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def slowdown(self) -> float:
        return statistics.quantiles(self.samples, n=10)[0] / self.REF_S


def measure_setup(workload: str, src: str, calibration: Calibration) -> list:
    """Wall time of cold interpreter starts that import qbinomial and run one warm-up op."""
    env = dict(os.environ, PYTHONPATH=src)
    times = []
    for i in range(SETUP_STARTS + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", WARMUP[workload]], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        if i:  # the first start only fills the bytecode cache
            times.append(time.perf_counter() - t0)
        for _ in range(3):
            calibration.sample(force=True)
    return times


def percentile(sorted_values: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta((n+1)p, (n+1)(1-p))-weighted
    mean of all order statistics, far less jumpy than one interpolated order
    statistic when the latencies near p are sparse."""
    n = len(sorted_values)
    if n == 1:
        return sorted_values[0]
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    x = np.linspace(0.0, 1.0, 64 * n + 1)[1:-1]
    log_pdf = ((a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
               + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf)), [0.0]))
    cdf[-1] = cdf[-2]
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.linspace(0.0, 1.0, 64 * n + 1), cdf)
    return float(np.dot(np.diff(edges), sorted_values))


def tail_percentile(n: int) -> float:
    """p90, or the highest percentile that still leaves 10 samples beyond it."""
    return 0.9 if n >= 100 else max(0.5, 1.0 - 10.0 / n)


class Runner:
    """Runs passes over the op list, timing each op and checking its output."""

    def __init__(self, ops, calibration: Calibration):
        self.ops = ops
        self.calibration = calibration
        self.latencies = {"plain": [[] for _ in ops], "traced": [[] for _ in ops]}
        self.busy = 0.0
        self.calls = 0
        self.failed_calls = 0
        # op index -> (op, first failure reason). A request counts as failed once,
        # however many passes repeat it, so `attempted` and `failed` depend on the
        # seed alone and not on how many passes fit in the run.
        self.failures = {}
        self.verdicts = {}
        self.digests = {}

    def run_pass(self, tracer=None) -> None:
        latencies = self.latencies["traced" if tracer else "plain"]
        for i, op in enumerate(self.ops):
            self.calibration.sample()
            if tracer:
                tracer.request = i + 1
            error = None
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # an op that raises is a failed request
                error = exc
            dt = time.perf_counter() - t0
            self.busy += dt
            latencies[i].append(dt)
            self.calls += 1
            if tracer and op.kind == "cli" and error is None:
                tracer.counts["cli.bytes_out"] += len(result[1].encode())
            if error:
                reasons = [f"raises {type(error).__name__}: {error}"]
            else:
                # outputs repeat pass after pass; check each distinct output once
                key = (i, hashlib.sha1(pickle.dumps(result)).hexdigest())
                if key not in self.verdicts:
                    self.verdicts[key] = op.check(result)
                reasons = list(self.verdicts[key])
                if op.draws and self.digests.setdefault(i, key[1]) != key[1]:
                    reasons.append("same seed gave different draws on a later pass")
            if reasons:
                self.failed_calls += 1
                self.failures.setdefault(i, (op, reasons[0]))

    def passes(self, mode: str) -> int:
        return len(self.latencies[mode][0])

    def typical(self, mode: str) -> list:
        """Each op's best latency over the passes of one mode (min of k).

        A shared machine's speed wanders by tens of percent within seconds;
        the fastest pass of each request is what the code costs once the
        interference is taken away, and it varies far less between runs.
        """
        return [min(x) for x in self.latencies[mode]]


def per_layer(tracer, passes: int, slowdown: float, overhead: float) -> dict:
    selft = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts

    def layer_sum(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix + "."))

    def names_sum(table, *names):
        return sum(table.get(n, 0) for n in names)

    solves = calls.get("solvers.theta_for_mean", 0)
    entries = counts.get("distributions.kb_table.entries", 0)
    m = {
        "distributions.kb_moments.calls": (calls.get("distributions.kb_moments", 0), "count"),
        "distributions.kb_moments.self_s": (selft.get("distributions.kb_moments", 0.0), "s"),
        "distributions.kb_table.calls": (calls.get("distributions.kb_table", 0), "count"),
        "distributions.kb_table.self_s": (selft.get("distributions.kb_table", 0.0), "s"),
        "distributions.kb_table.entries": (entries, "count"),
        "distributions.kb_table.useful_frac": (
            counts.get("distributions.kb_table.useful", 0) / entries if entries else 0.0, "ratio"),
        "distributions.kb_pmf.self_s": (
            names_sum(selft, "distributions.kb_pmf", "distributions.kb_log_pmf"), "s"),
        "distributions.heine.self_s": (
            names_sum(selft, "distributions.heine_pmf", "distributions.heine_mean",
                      "distributions.heine_table"), "s"),
        "distributions.kb_sample.self_s": (selft.get("distributions.kb_sample", 0.0), "s"),
        "distributions.kb_sample.draws": (counts.get("distributions.kb_sample.draws", 0), "count"),
        "distributions.inversion.self_s": (selft.get("distributions.sample_by_inversion", 0.0), "s"),
        "distributions.inversion.draws": (counts.get("distributions.inversion.draws", 0), "count"),
        "asymptotics.sigma_limit.self_s": (selft.get("asymptotics.sigma_limit", 0.0), "s"),
        "asymptotics.c_direct.self_s": (selft.get("asymptotics.c_direct", 0.0), "s"),
        "asymptotics.limit_law.self_s": (selft.get("asymptotics.limit_law", 0.0), "s"),
        "solvers.theta_for_mean.calls": (solves, "count"),
        "solvers.theta_for_mean.self_s": (selft.get("solvers.theta_for_mean", 0.0), "s"),
        "solvers.theta_for_mean.iterations": (counts.get("solvers.theta_for_mean.iterations", 0), "count"),
        "solvers.kb_moments_per_solve": (
            tracer.nested_calls("distributions.kb_moments", "solvers.theta_for_mean") / solves
            if solves else 0.0, "count"),
        "solvers.residual_miss": (counts.get("solvers.residual_miss", 0), "count"),
        "solvers.theta_limit_for_mean.self_s": (selft.get("solvers.theta_limit_for_mean", 0.0), "s"),
        "metrics.convergence_sweep.calls": (calls.get("metrics.convergence_sweep", 0), "count"),
        "metrics.tv_distance.self_s": (selft.get("metrics.tv_distance", 0.0), "s"),
        "metrics.rows": (counts.get("metrics.rows", 0), "count"),
        "cli.main.calls": (calls.get("cli.main", 0), "count"),
        "cli.bytes_out": (counts.get("cli.bytes_out", 0), "count"),
        "cli.nonzero_exit": (counts.get("cli.nonzero_exit", 0), "count"),
    }
    for layer in ("qcalc", "distributions", "asymptotics", "solvers", "metrics", "cli"):
        m[f"{layer}.calls"] = (layer_sum(calls, layer), "count")
        m[f"{layer}.self_s"] = (layer_sum(selft, layer), "s")
    # every figure is per pass, so runs that fit a different number of passes compare
    out = {}
    for name, (value, unit) in m.items():
        if not name.endswith((".useful_frac", "_per_solve")):
            value /= passes
        out[name] = (value / slowdown if unit == "s" else value, unit)
    out["tracing_overhead_s"] = (overhead, "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "qbinomial", "__init__.py")):
        print("error: run from the root of a qbinomial checkout (no src/qbinomial here)", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    import workloads as W

    if args.workload not in W.GENERATORS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(W.WORKLOADS)}",
              file=sys.stderr)
        return 2

    calibration = Calibration()
    setup = measure_setup(args.workload, src, calibration)
    settle_allocator()
    ops = W.GENERATORS[args.workload](args.seed)
    runner = Runner(ops, calibration)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    wall0 = time.perf_counter()
    while True:
        runner.run_pass()
        if tracer:
            tracer.install()
            try:
                runner.run_pass(tracer)
            finally:
                tracer.uninstall()
        if runner.busy >= args.seconds or time.perf_counter() - wall0 > 4 * args.seconds + 60:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    typical = runner.typical("plain")
    lat = sorted(typical)
    p_tail = tail_percentile(len(lat))
    raw = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(ops) / sum(typical),
        "lat_p50_ms": 1e3 * percentile(lat, 0.5),
        "lat_p90_ms": 1e3 * percentile(lat, p_tail),
    }
    slowdown = calibration.slowdown()
    metrics = {k: v * slowdown if k == "ops_per_s" else v / slowdown for k, v in raw.items()}
    metrics["peak_rss_mb"] = peak_rss_mb
    failures = list(runner.failures.values())
    known = [(op, r) for op, r in failures if op.known]
    unexpected = [(op, r) for op, r in failures if not op.known]
    failed = len(failures)

    plain = runner.passes("plain")
    print(f"workload {args.workload}  seed {args.seed}  ops/pass {len(ops)}  passes {plain} untraced"
          f" + {runner.passes('traced') if tracer else 0} traced  busy {runner.busy:.3f} s")
    print(f"calibration: kernel p10 {1e3 * slowdown * Calibration.REF_S:.4f} ms over {len(calibration.samples)}"
          f" samples; times are divided by {slowdown:.4f} (unscaled in brackets)")
    print(f"setup_s {metrics['setup_s']:.6f} s  [{raw['setup_s']:.6f}]  (median of {len(setup)} cold starts)")
    print(f"ops_per_s {metrics['ops_per_s']:.6f} 1/s  [{raw['ops_per_s']:.6f}]"
          f"  (ops / sum of per-op best latencies)")
    print(f"lat_p50_ms {metrics['lat_p50_ms']:.6f} ms  [{raw['lat_p50_ms']:.6f}]"
          f"  (n={len(ops)} ops x {plain} passes, per-op best of k)")
    print(f"lat_p90_ms {metrics['lat_p90_ms']:.6f} ms  [{raw['lat_p90_ms']:.6f}]"
          f"  (p{100 * p_tail:.0f}, n={len(ops)} ops x {plain} passes)")
    print(f"fail_frac {failed / len(ops):.6f} ratio  ({failed}/{len(ops)} requests;"
          f" {len(known)} in known-defect regions, {len(unexpected)} unexpected;"
          f" {runner.failed_calls} of {runner.calls} calls over all passes)")
    print(f"peak_rss_mb {peak_rss_mb:.3f} MB")
    draws = sum(op.draws for op in ops)
    if draws:
        draw_time = sum(t for t, op in zip(typical, ops) if op.draws)
        print(f"draws_per_s {draws * slowdown / draw_time:.3f} 1/s  ({draws} draws per pass)")
    if failures:
        print("failures by reason:")
        groups = defaultdict(list)
        for op, reason in failures:
            short = re.sub(r"\d[\d.e+-]*", "#", reason.split(":")[0])
            groups[(op.known or "UNEXPECTED", op.kind, short)].append((op, reason))
        for (defect, kind, short), items in sorted(groups.items()):
            op, reason = items[0]
            print(f"  [{defect}] {kind}: {short}  x{len(items)}  e.g. {op.label}: {reason[:160]}")
        for defect in sorted({op.known for op, _ in known}):
            print(f"  {defect}: {W.KNOWN_DEFECTS[defect]}")

    if tracer:
        traced_pass = sum(runner.typical("traced")) / slowdown
        layer = per_layer(tracer, runner.passes("traced"), slowdown, traced_pass - sum(typical) / slowdown)
        layer["traced_pass_s"] = (traced_pass, "s")
        print(f"per-layer metrics, per traced pass ({runner.passes('traced')} traced passes):")
        for name, (value, unit) in layer.items():
            print(f"  {name} {value:.9g} {unit}")
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write(path)
        print(f"spans written to {os.path.relpath(path)} ({len(tracer.spans)} spans)")
        result_metrics = {k: {"value": layer[k][0], "unit": layer[k][1]} for k in PER_LAYER_REPORTED}
    else:
        result_metrics = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}

    print(json.dumps({"correct": not unexpected, "attempted": len(ops),
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
