"""Digests of every sample-stream result, to check that a change keeps each draw bit-identical.

    python3 scripts/draw_digests.py 1 2 3 41 > digests.txt

Run from the root of a checkout; the library is imported from ./src and the
request lists from perfbench/workloads.py, which this script only reads. For
each seed it runs the workload's requests in-process, in the workload's order,
and prints one line per request: the seed, the request's index, the sha256 of
its pickled result (so a draw's value and its type both count) and the
request's kind and label. Two checkouts' outputs compare with `diff`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402  (needs the paths above)


def digests(seed: int):
    """(sha256 of the pickled result, kind, label) of each sample-stream request for seed."""
    for op in workloads.sample_stream(seed):
        yield hashlib.sha256(pickle.dumps(op.call())).hexdigest(), op.kind, op.label


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for seed in map(int, argv):
        for i, (digest, kind, label) in enumerate(digests(seed)):
            print(seed, i, digest, kind, label)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
