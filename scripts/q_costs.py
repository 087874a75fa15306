"""In-process cost of the lattice-sum entry points as q approaches 1.

    python3 scripts/q_costs.py                       # q = 0.99, 0.999, ..., 0.999999
    python3 scripts/q_costs.py 0.9999999 0.999999999 # these q instead

The library is imported from the src/ of the checkout this script sits in. For
the law KB(1e6, 2, q) at each q, it times `kb_moments`, `kb_pmf` at the integer
nearest the mean, `heine_mean` of H(2), `e_q(-2, q)` and the CLI request
`moments --dist dnorm --alpha 0.3` (run by `cli.main` with its stdout captured),
each called once as a warm-up and then REPEATS times, and prints the best time of
each in microseconds, one row per q. A kernel that sums its middle block term by
term costs O(1/ln(1/q)) per call, and its block is one array of about 2/ln(1/q)
floats; a checkout whose `moments --dist dnorm` sums a table of about
2 sqrt(1520/ln(1/q)) entries costs O(1/sqrt(ln(1/q))). So keep such a checkout to
q <= 0.999999.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from qbinomial.cli import main as cli_main  # noqa: E402
from qbinomial.distributions import Heine, KempBinomial, heine_mean, kb_moments, kb_pmf  # noqa: E402
from qbinomial.qcalc import e_q  # noqa: E402

REPEATS = 15
N, THETA = 10**6, 2.0
QS = (0.99, 0.999, 0.9999, 0.99999, 0.999999)


def best_us(call) -> float:
    call()
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return 1e6 * best


def dnorm_moments(q: str) -> None:
    """The CLI request `moments --dist dnorm --alpha 0.3 --q q`, its document discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        if cli_main(["moments", "--dist", "dnorm", "--alpha", "0.3", "--q", q]):
            raise RuntimeError(f"moments --dist dnorm failed at q = {q}")


def main(argv: list[str]) -> int:
    qs = [float(q) for q in argv] or QS
    heads = ("kb_moments", "kb_pmf", "heine_mean", "e_q", "dnorm moments")
    print(f"{'q':>12} " + " ".join(f"{h:>13}" for h in heads) + "  (us)")
    for q in qs:
        law, heine = KempBinomial(N, THETA, q), Heine(THETA, q)
        x = round(kb_moments(law).mean)
        calls = (lambda: kb_moments(law), lambda: kb_pmf(law, x), lambda: heine_mean(heine),
                 lambda: e_q(-THETA, q), lambda: dnorm_moments(repr(q)))
        print(f"{q:>12} " + " ".join(f"{best_us(call):13.1f}" for call in calls))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
