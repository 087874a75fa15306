"""Command-line surface: evaluation, sampling, asymptotics, solving, sweeps.

Emits CSV (header row, LF endings, 17 significant digits) or JSON
({meta: {subcommand, params, seed}, data: [...]}) for scripts and plotting.
Exit codes: 0 success, 2 invalid parameters, 1 internal numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import asdict
from fractions import Fraction

import numpy as np

from .asymptotics import (
    ConsistencyError,
    FractionalDrift,
    dnorm_alpha,
    limit_law,
    mean_expansion,
)
from .distributions import (
    DiscreteNormal,
    Heine,
    KempBinomial,
    _logit_sum,
    kb_moments,
    sample_by_inversion,
)
from .metrics import SCENARIOS, convergence_sweep, tabulate
from .qcalc import QBase, ScaledReal
from .solvers import theta_for_mean, theta_for_poisson, theta_limit_for_mean

__all__ = ["main"]

_THETA_LITERAL = re.compile(
    r"^\s*([0-9.eE+-]+)\s*\*\s*q\^\(?(-?[0-9.]+)\)?\s*$"
)


def parse_theta(text: str, q: QBase) -> ScaledReal:
    """theta as a plain float or an 'a*q^-b' literal (exponential regimes)."""
    m = _THETA_LITERAL.match(text)
    if m:
        a, b = float(m.group(1)), float(m.group(2))
        return ScaledReal.from_float(a, q) * ScaledReal.from_q_power(b, q)
    return ScaledReal.from_float(float(text), q)


def parse_n_list(text: str) -> list[int]:
    """Comma list '10,20,30' and/or 'start:stop:step' ranges."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ":" in part:
            pieces = [int(p) for p in part.split(":")]
            if len(pieces) == 2:
                pieces.append(1)
            start, stop, step = pieces
            out.extend(range(start, stop + 1, step))
        elif part:
            out.append(int(part))
    if not out:
        raise ValueError(f"empty n list: {text!r}")
    return out


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _emit(args: argparse.Namespace, columns: list[str], rows: list[dict]) -> str:
    """The one serializer: CSV with a header row, or JSON {meta, data}."""
    if getattr(args, "format", "csv") == "json":
        skip = {"subcommand", "format", "output", "seed"}
        doc = {
            "meta": {
                "subcommand": args.subcommand,
                "params": {k: v for k, v in vars(args).items() if k not in skip and v is not None},
                "seed": getattr(args, "seed", None),
            },
            "data": rows,
        }
        return json.dumps(doc) + "\n"
    # every value is a number or pass/fail, so no CSV field needs quoting
    lines = [",".join(columns), *(",".join([_fmt(row[c]) for c in columns]) for row in rows)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _dist_from_args(args) -> object:
    q = QBase(args.q)
    if args.dist == "kb":
        if args.n is None or args.theta is None:
            raise ValueError("kb needs --n and --theta")
        return KempBinomial(args.n, parse_theta(args.theta, q), q)
    if args.dist == "heine":
        if args.theta is None:
            raise ValueError("heine needs --theta")
        return Heine(float(args.theta), q)
    if args.dist == "dnorm":
        if args.alpha is None:
            raise ValueError("dnorm needs --alpha")
        return DiscreteNormal(args.alpha, q)
    raise ValueError(f"unknown distribution {args.dist!r}")


def _cmd_pmf(args) -> tuple:
    table = tabulate(_dist_from_args(args))
    rows = [{"x": x, "p": p} for x, p in zip(table.x_values().tolist(), table.probs.tolist())]
    return ["x", "p"], rows


def _cmd_moments(args) -> tuple:
    law = _dist_from_args(args)
    if isinstance(law, (KempBinomial, Heine)):
        m = kb_moments(law)
        mean, var = m.mean, m.variance
    else:
        t = tabulate(law)
        xs = t.x_values().astype(float)
        mean = float(np.dot(xs, t.probs))
        var = float(np.dot((xs - mean) ** 2, t.probs))
    return ["mean", "variance"], [{"mean": mean, "variance": var}]


def _cmd_sample(args) -> tuple:
    law = _dist_from_args(args)
    rng = np.random.default_rng(getattr(args, "seed", None))
    draws = sample_by_inversion(tabulate(law), rng, size=args.count)
    rows = [{"index": i, "value": v} for i, v in enumerate(draws.tolist())]
    return ["index", "value"], rows


def _cmd_asym(args) -> tuple:
    q = QBase(args.q)
    drift = FractionalDrift(Fraction(args.slope), args.offset)
    rows = []
    for n in parse_n_list(args.n_list):
        r = mean_expansion(n, drift, q)
        direct = _logit_sum("sigmoid", KempBinomial(n, ScaledReal.from_q_power(-r.f_value, q), q))
        rows.append(
            {
                "n": n,
                "f": r.f_value,
                "beta": r.beta,
                "c": r.c_value,
                "estimate": r.estimate,
                "mu_direct": direct,
                "abs_error": abs(direct - r.estimate),
                "error_bound": r.error_bound,
                "terms": r.terms_used,
            }
        )
    columns = ["n", "f", "beta", "c", "estimate", "mu_direct", "abs_error", "error_bound", "terms"]
    return columns, rows


def _cmd_limit(args) -> tuple:
    q = QBase(args.q)
    beta = float(Fraction(args.beta)) if "/" in args.beta else float(args.beta)
    law = limit_law(beta, q)
    alpha = dnorm_alpha(beta)
    t = law.lattice_probs
    rows = [
        {
            "x": x,
            "p": p,
            "alpha": alpha,
            "sigma": law.sigma,
            "delta": law.delta,
        }
        for x, p in zip(t.x_values().tolist(), t.probs.tolist())
    ]
    return ["x", "p", "alpha", "sigma", "delta"], rows


def _cmd_solve_theta(args) -> tuple:
    q = QBase(args.q)
    if (args.mu is None) == (args.lam is None):
        raise ValueError("give exactly one of --mu / --lambda")
    if args.lam is not None:
        if args.n is None:
            raise ValueError("--lambda needs --n")
        theta = theta_for_poisson(args.n, q, args.lam)
        rows = [{"theta": theta, "residual": 0.0, "iterations": 0}]
    elif args.n is not None:
        rows = [asdict(theta_for_mean(args.n, q, args.mu))]
    else:
        rows = [asdict(theta_limit_for_mean(q, args.mu))]
    return ["theta", "residual", "iterations"], rows


def _cmd_converge(args) -> tuple:
    params: dict = {"q": QBase(args.q)}
    if args.threshold is not None:
        params["threshold"] = args.threshold
    if args.lam is not None:
        params["lam"] = args.lam
    if args.mu is not None:
        params["mu"] = args.mu
    if args.theta is not None:
        params["theta"] = float(args.theta)
    if args.slope is not None:
        params["slope"] = Fraction(args.slope)
        params["offset"] = args.offset
    if args.fn is not None:
        params["fn"] = args.fn
    if args.n is not None:
        params["n"] = args.n
    if args.q_list:
        params["q_list"] = [float(s) for s in args.q_list.split(",")]
    n_list = parse_n_list(args.n_list) if args.n_list else []
    report = convergence_sweep(args.scenario, params, n_list)
    keys = list(report.rows[0].auxiliary)  # every row of a sweep has the same keys
    rows = [
        {
            "n": r.n,
            "distance": r.distance,
            **r.auxiliary,
            "threshold": report.threshold,
            "verdict": report.verdict,
        }
        for r in report.rows
    ]
    return ["n", "distance", *keys, "threshold", "verdict"], rows


_COMMANDS = {
    "pmf": _cmd_pmf,
    "moments": _cmd_moments,
    "sample": _cmd_sample,
    "asym": _cmd_asym,
    "limit": _cmd_limit,
    "solve-theta": _cmd_solve_theta,
    "converge": _cmd_converge,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # flags taken before and after the subcommand; a flag left out sets nothing,
    # so one given before the subcommand holds, and its readers supply the defaults
    flags = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    flags.add_argument("--format", choices=("csv", "json"), help="default: csv")
    flags.add_argument("--output", help="output file (default: stdout)")
    flags.add_argument("--seed", type=int, help="64-bit RNG seed")
    parser = argparse.ArgumentParser(
        prog="qbinomial",
        description="Kemp q-binomial distribution toolkit: pmf tables, moments, "
        "sampling, mean asymptotics, limit laws, and convergence sweeps.",
        parents=[flags],
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_dist_flags(p):
        p.add_argument("--dist", choices=("kb", "heine", "dnorm"), required=True)
        p.add_argument("--n", type=int)
        p.add_argument("--theta", help="float or 'a*q^-b' literal")
        p.add_argument("--alpha", type=float)
        p.add_argument("--q", type=float, required=True)

    p = sub.add_parser("pmf", help="tabulate a pmf", parents=[flags])
    add_dist_flags(p)

    p = sub.add_parser("moments", help="mean and variance", parents=[flags])
    add_dist_flags(p)

    p = sub.add_parser("sample", help="seeded draws", parents=[flags])
    add_dist_flags(p)
    p.add_argument("--count", type=int, default=1)

    p = sub.add_parser("asym", help="mean expansion vs direct sum", parents=[flags])
    p.add_argument("--slope", required=True, help="rational p/r")
    p.add_argument("--offset", type=float, default=0.0)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--n-list", required=True)

    p = sub.add_parser("limit", help="constant-beta limit law lattice", parents=[flags])
    p.add_argument("--beta", required=True, help="fractional part, float or p/r")
    p.add_argument("--q", type=float, required=True)

    p = sub.add_parser("solve-theta", help="invert the mean map", parents=[flags])
    p.add_argument("--n", type=int)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--mu", type=float)
    p.add_argument("--lambda", dest="lam", type=float)

    p = sub.add_parser("converge", help="convergence sweep for one theorem", parents=[flags])
    p.add_argument("--scenario", choices=SCENARIOS, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--n-list")
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--theta")
    p.add_argument("--slope")
    p.add_argument("--offset", type=float, default=0.0)
    p.add_argument("--fn", help="'sqrt' for the degenerate scenario")
    p.add_argument("--n", type=int)
    p.add_argument("--q-list", help="comma list of q values (q-to-1 scenario)")
    p.add_argument("--threshold", type=float)
    return parser


def main(argv=None) -> int:
    """Parse, run one subcommand, write its document; returns the exit status."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code or 0)
    try:
        document = _emit(args, *_COMMANDS[args.subcommand](args))
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConsistencyError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    output = getattr(args, "output", None)
    if output:
        with open(output, "w", newline="") as fh:
            fh.write(document)
    else:
        sys.stdout.write(document)
    return 0


if __name__ == "__main__":
    sys.exit(main())
