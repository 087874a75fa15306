"""Digests of every result of a benchmark workload, to check that a change keeps them identical.

    python3 scripts/digests.py theorem-sweeps 1 2 3 101 201 303 > after.txt
    python3 scripts/digests.py sample-stream 1 2 3 41 > after.txt
    python3 scripts/digests.py eval-grid 1 2 3 4 7 > after.txt

Run from the root of a checkout: the library is imported from ./src and the
request lists from ./perfbench/workloads.py, which this script only reads, so one
copy of it serves both checkouts of a comparison. For each seed it runs the
workload's requests in-process, in the workload's order, and prints one line per
request: the seed, the request's index, the sha256 of its result, and the
request's kind and label. Two checkouts' outputs compare with `diff`.

A result is digested by value, not by pickle, so that a record whose layout
changes but whose numbers do not reads as unchanged: a PMFTable is its offset
and the bytes of its probabilities, any other dataclass its type name and
fields, an array its dtype, shape and bytes, a float its type and hex form, and
a CLI request's result its exit code, stdout and stderr in turn.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys

import numpy as np

sys.path[:0] = [os.path.abspath("src"), os.path.abspath("perfbench")]

import workloads  # noqa: E402  (needs the paths above)
from qbinomial.distributions import PMFTable  # noqa: E402


def _parts(v):
    """The byte strings that stand for v's value (see the module docstring)."""
    if isinstance(v, PMFTable):
        yield from (b"PMFTable", str(int(v.offset)).encode(), v.probs.tobytes())
    elif dataclasses.is_dataclass(v):
        yield type(v).__name__.encode()
        for f in dataclasses.fields(v):
            yield from _parts(getattr(v, f.name))
    elif isinstance(v, np.ndarray):
        yield from (str(v.dtype).encode(), repr(v.shape).encode(), v.tobytes())
    elif isinstance(v, (list, tuple)):
        yield f"{type(v).__name__} of {len(v)}".encode()
        for x in v:
            yield from _parts(x)
    elif isinstance(v, float):
        yield f"{type(v).__name__} {float.hex(v)}".encode()
    else:  # an int, str, bool, None or Fraction
        yield f"{type(v).__name__} {v!r}".encode()


def digest(result) -> str:
    """sha256 of result's parts, each preceded by its length so that no two values collide by concatenation."""
    h = hashlib.sha256()
    for part in _parts(result):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] not in workloads.GENERATORS:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for seed in map(int, argv[1:]):
        for i, op in enumerate(workloads.GENERATORS[argv[0]](seed)):
            print(seed, i, digest(op.call()), op.kind, op.label)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
