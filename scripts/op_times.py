"""In-process time of each request family of a perfbench workload, to compare two checkouts.

    python3 scripts/op_times.py theorem-sweeps 1 303 > times.txt

Run from the root of a checkout; the library is imported from ./src and the
request lists from perfbench/workloads.py, which this script only reads. For
the given seeds, every request runs once as a warm-up, then REPEATS times in a
row, keeping its best time. A family's time is the sum of its requests' best
times. A family is the request's kind; for a CLI request it is the
subcommand, or for converge the scenario. The script prints one line per
family, slowest first: its time in ms, its request count and its name, and
then the whole pass. Last come the p50 and the p90 of the requests' best
times, estimated as perfbench/run.py estimates lat_p50_ms and lat_p90_ms.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402  (needs the paths above)
from run import percentile, tail_percentile  # noqa: E402

REPEATS = 15


def family(op) -> str:
    if op.kind != "cli":
        return op.kind
    argv = op.label.split()
    sub = workloads._subcommand(argv)
    return workloads._opt(argv, "--scenario") if sub == "converge" else sub


def best_time(op) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        op.call()
        best = min(best, time.perf_counter() - start)
    return best


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] not in workloads.GENERATORS:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    ops = [op for seed in map(int, argv[1:]) for op in workloads.GENERATORS[argv[0]](seed)]
    for op in ops:
        op.call()
    times, counts, best = defaultdict(float), defaultdict(int), []
    for op in ops:
        best.append(best_time(op))
        times[family(op)] += best[-1]
        counts[family(op)] += 1
    for name in sorted(times, key=times.get, reverse=True):
        print(f"{1e3 * times[name]:10.3f} ms {counts[name]:5d} {name}")
    print(f"{1e3 * sum(times.values()):10.3f} ms {len(ops):5d} pass")
    best.sort()
    p_tail = tail_percentile(len(best))
    print(f"{1e3 * percentile(best, 0.5):10.4f} ms p50")
    print(f"{1e3 * percentile(best, p_tail):10.4f} ms p{100 * p_tail:.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
