"""Line counts of the library's modules, to track the size of src/.

    python3 scripts/src_lines.py           # this checkout's counts
    python3 scripts/src_lines.py HEAD~1    # and a git ref's counts beside them

Run from anywhere; the counts are of the checkout this script sits in. It
prints one line per src/qbinomial/*.py file with its line count, as `wc -l`
counts lines, then the total. Given a git ref, each line also shows that
commit's count, read with `git show REF:path`, and the change; a module that
one side lacks shows "-" there and counts 0.
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "src/qbinomial"


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True, text=True).stdout


def counts_here() -> dict[str, int]:
    counts = {}
    for path in glob.glob(os.path.join(ROOT, PACKAGE, "*.py")):
        with open(path, encoding="utf-8") as fh:
            counts[os.path.basename(path)] = fh.read().count("\n")
    return counts


def counts_at(ref: str) -> dict[str, int]:
    paths = git("ls-tree", "--name-only", ref, PACKAGE + "/").split()
    return {os.path.basename(p): git("show", f"{ref}:{p}").count("\n") for p in paths if p.endswith(".py")}


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        sides = [counts_here(), *map(counts_at, argv)]
    except subprocess.CalledProcessError as exc:  # not a ref, or not a git checkout
        print(exc.stderr.strip(), file=sys.stderr)
        return 2
    names = sorted(set().union(*sides)) + ["total"]
    for side in sides:
        side["total"] = sum(side.values())
    width, heads = max(map(len, names)), ["here", *argv]
    columns = [max(5, len(head)) for head in heads]
    print(f"{'':<{width}}" + "".join(f"  {h:>{c}}" for h, c in zip(heads, columns)) + "  change" * len(argv))
    for name in names:
        line = f"{name:<{width}}" + "".join(f"  {side.get(name, '-'):>{c}}" for side, c in zip(sides, columns))
        if argv:
            line += f"  {sides[0].get(name, 0) - sides[1].get(name, 0):+6d}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
