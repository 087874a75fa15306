"""Digests of every theorem-sweeps document, to check that a change keeps them byte-identical.

    python3 scripts/doc_digests.py 1 2 3 101 201 303 > digests.txt

Run from the root of a checkout; the library is imported from ./src and the
request lists from perfbench/workloads.py, which this script only reads. For
each seed it runs the workload's requests in-process, in the workload's order,
and prints one line per request: the seed, the exit code, the sha256 of stdout,
the sha256 of stderr and the request's argv. Two checkouts' outputs compare
with `diff`.
"""

from __future__ import annotations

import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402  (needs the paths above)


def digests(seed: int):
    """(exit code, sha256 of stdout, sha256 of stderr, argv) of each theorem-sweeps request for seed."""
    for op in workloads.theorem_sweeps(seed):
        code, out, err = op.call()
        yield code, hashlib.sha256(out.encode()).hexdigest(), hashlib.sha256(err.encode()).hexdigest(), op.label


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for seed in map(int, argv):
        for code, out, err, label in digests(seed):
            print(seed, code, out, err, label)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
