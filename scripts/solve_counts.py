"""Mean evaluations of the θ solvers, on a fixed grid and on theorem-sweeps' solving requests.

    python3 scripts/solve_counts.py 1 303 > counts.txt

Run from the root of a checkout; the library is imported from ./src and the
request lists from perfbench/workloads.py, which this script only reads. An
evaluation is one (ln θ, n) point sent to the lattice-sum kernel; a round is
one kernel call, which a lock-step sweep shares among its solves.

The script first prints, for each q of the grid, the grid's evaluations at
that q, its solve count and how many solves raised, then the totals. Then, for
each seed, it prints one line per theorem-sweeps `solve-theta --mu` or
`constant-mean` request: the seed, its evaluations, its kernel rounds and its
argv. Two checkouts' outputs compare with `diff`.
"""

from __future__ import annotations

import math
import os
import sys
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402  (needs the paths above)
from qbinomial import solvers  # noqa: E402

GRID_QS = (1e-8, 0.05, 0.2, 0.3, 0.4, 0.5, 0.7, 0.8, 0.9, 0.99, 0.999, 0.9999)
GRID_NS = (2, 5, 7, 20, 50, 100, 185, 397, 1000, 1500, 10**4, 10**6, math.inf)
GRID_MUS = (1e-9, 1e-4, 0.01, 0.1, 0.5, 0.8333, 1.0, 1.1859, 2.0022, 3.0, 10.0, 50.0, 300.0, 3000.0)


def grid():
    """(q, n, mu) of every grid solve, n = inf for the Heine limit; n >= 2 mu."""
    return [(q, n, mu) for q in GRID_QS for n in GRID_NS for mu in GRID_MUS if n >= 2 * mu]


@contextmanager
def counting():
    """Count the kernel's rounds and points while the block runs: yields [rounds, evaluations]."""
    kernel, tally = solvers._lattice_sums, [0, 0]

    def counted(kinds, points, h):
        tally[0] += 1
        tally[1] += len(points)
        return kernel(kinds, points, h)

    solvers._lattice_sums = counted
    try:
        yield tally
    finally:
        solvers._lattice_sums = kernel


def solve(q: float, n, mu: float):
    """(evaluations, result or the exception raised) of one grid solve."""
    with counting() as tally:
        try:
            result = solvers._thetas_for_mean(q, mu, [n])[0]
        except (ArithmeticError, ValueError) as err:
            result = err
    return tally[1], result


def _is_solving(label: str) -> bool:
    argv = label.split()
    sub = workloads._subcommand(argv)
    if sub == "solve-theta":
        return workloads._opt(argv, "--mu") is not None
    return sub == "converge" and workloads._opt(argv, "--scenario") == "constant-mean"


def main(argv: list[str]) -> int:
    seeds = list(map(int, argv))
    totals = [0, 0, 0]
    for q in GRID_QS:
        runs = [solve(q, n, mu) for qq, n, mu in grid() if qq == q]
        row = [sum(e for e, _ in runs), len(runs), sum(isinstance(r, Exception) for _, r in runs)]
        totals = [a + b for a, b in zip(totals, row)]
        print(f"q={q:<7g} {row[0]:7d} evaluations {row[1]:5d} solves {row[2]:3d} raised")
    print(f"grid      {totals[0]:7d} evaluations {totals[1]:5d} solves {totals[2]:3d} raised")
    for seed in seeds:
        for op in workloads.theorem_sweeps(seed):
            if _is_solving(op.label):
                with counting() as tally:
                    op.call()
                print(seed, tally[1], tally[0], op.label)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
