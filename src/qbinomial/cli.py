"""Command-line surface: evaluation, sampling, asymptotics, solving, sweeps.

Emits CSV (header row, LF endings, 17 significant digits) or JSON
({meta: {subcommand, params, seed}, data: [...]}) for scripts and plotting.
Exit codes: 0 success, 2 invalid parameters, 1 internal numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction
from itertools import chain

import numpy as np

from .asymptotics import (
    ConsistencyError,
    FractionalDrift,
    dnorm_alpha,
    dnorm_moments,
    limit_law,
    mean_expansion,
)
from .distributions import (
    DiscreteNormal,
    Heine,
    KempBinomial,
    _logit_sums,
    kb_moments,
    sample_by_inversion,
)
from .metrics import SCENARIOS, convergence_sweep, tabulate
from .qcalc import QBase, ScaledReal
from .solvers import theta_for_mean, theta_for_poisson, theta_limit_for_mean

__all__ = ["main"]

# a*q^-b or a*q^(-b): the conditional (?(2)...) closes a parenthesis only if one was opened
_THETA_LITERAL = re.compile(
    r"^\s*([0-9.eE+-]+)\s*\*\s*q\^(\()?(-[0-9.]+)(?(2)\))\s*$"
)


def parse_theta(text: str, q: QBase) -> ScaledReal:
    """theta = m q^e: a plain float (e = 0) or an 'a*q^-b' or 'a*q^(-b)' literal, exactly (exponential regimes)."""
    literal = _THETA_LITERAL.match(text)
    a, b = (float(literal.group(1)), float(literal.group(3))) if literal else (float(text), 0.0)
    e = math.floor(b)  # a q^b = (a q^(b - e)) q^e, and q < q^(b - e) <= 1 keeps a's range
    m = a * q.pow(b - e)
    if not math.isfinite(m):
        raise ValueError(f"theta {text!r} is not finite")
    return ScaledReal.from_float(m, q).q_shift(e)


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


def _rational(text: str) -> Fraction:
    """A rational flag, 'p/r' or a decimal, exactly; a zero denominator is invalid input."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _csv_column(values: list) -> tuple[str, list]:
    """(% format, values) of a CSV column: all floats to 17 significant digits, anything else by str."""
    return ("%.17g" if set(map(type, values)) == {float} else "%s"), values


def _json_column(values: list) -> tuple[str, list]:
    """(% format, values) of a JSON column: all ints or all finite floats by %r, as json.dumps writes them."""
    kinds = set(map(type, values))
    if kinds == {int} or kinds == {float} and all(map(math.isfinite, values)):
        return "%r", values
    return "%s", list(map(json.dumps, values))


def _emit(args: argparse.Namespace, columns: dict) -> str:
    """The one serializer: CSV with a header row, or JSON {meta, data} as json.dumps writes it.

    A column is a list, one value per row, or a constant, which every row repeats.
    A constant is formatted once, and one % pass writes all the rows.
    """
    values = list(columns.values())
    size = max((len(v) for v in values if isinstance(v, list)), default=1)
    cols = [v if isinstance(v, list) else [v] for v in values]
    as_json = getattr(args, "format", "csv") == "json"
    # a CSV value is a number or pass/fail, so no CSV field needs quoting
    specs, cols = zip(*map(_json_column if as_json else _csv_column, cols))
    cols = [c if isinstance(v, list) else [s % c[0]] * size for s, c, v in zip(specs, cols, values)]
    specs = [s if isinstance(v, list) else "%s" for s, v in zip(specs, values)]
    if as_json:
        skip = {"subcommand", "format", "output", "seed"}
        meta = {
            "subcommand": args.subcommand,
            "params": {k: v for k, v in vars(args).items() if k not in skip and v is not None},
            "seed": getattr(args, "seed", None),
        }
        head = '{"meta": ' + json.dumps(meta) + ', "data": ['
        row = "{" + ", ".join(f'"{k}": {s}' for k, s in zip(columns, specs)) + "}"
        return head + ", ".join([row] * size) % tuple(chain.from_iterable(zip(*cols))) + "]}\n"
    row = "\n" + ",".join(specs)
    return ",".join(columns) + row * size % tuple(chain.from_iterable(zip(*cols))) + "\n"


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
        return Heine(parse_theta(args.theta, q), q)
    if args.dist == "dnorm":
        if args.alpha is None:
            raise ValueError("dnorm needs --alpha")
        return DiscreteNormal(args.alpha, q)
    raise ValueError(f"unknown distribution {args.dist!r}")


def _cmd_pmf(args) -> dict:
    table = tabulate(_dist_from_args(args))
    return {"x": table.x_values().tolist(), "p": table.probs.tolist()}


def _cmd_moments(args) -> dict:
    law = _dist_from_args(args)
    m = kb_moments(law) if isinstance(law, KempBinomial) else dnorm_moments(law)
    return {"mean": [m.mean], "variance": [m.variance]}


def _cmd_sample(args) -> dict:
    for name in ("count", "seed"):  # a --seed left out is not set
        if getattr(args, name, 0) < 0:
            raise ValueError(f"{name} must be >= 0, got {getattr(args, name)}")
    law = _dist_from_args(args)
    rng = np.random.default_rng(getattr(args, "seed", None))
    draws = sample_by_inversion(tabulate(law), rng, size=args.count)
    return {"index": list(range(draws.size)), "value": draws.tolist()}


def _cmd_asym(args) -> dict:
    q = QBase(args.q)
    drift = FractionalDrift(_rational(args.slope), args.offset)
    ns = parse_n_list(args.n_list)
    rs = [mean_expansion(n, drift, q) for n in ns]
    laws = [KempBinomial(n, ScaledReal.from_q_power(-r.f_value, q), q) for n, r in zip(ns, rs)]
    (direct,) = _logit_sums(("sigmoid",), laws)
    return {
        "n": ns,
        "f": [r.f_value for r in rs],
        "beta": [r.beta for r in rs],
        "c": [r.c_value for r in rs],
        "estimate": [r.estimate for r in rs],
        "mu_direct": direct,
        "abs_error": [abs(mu - r.estimate) for mu, r in zip(direct, rs)],
        "error_bound": [r.error_bound for r in rs],
        "terms": [r.terms_used for r in rs],
    }


def _cmd_limit(args) -> dict:
    beta = float(_rational(args.beta))
    law = limit_law(beta, QBase(args.q))
    t = law.lattice_probs
    return {
        "x": t.x_values().tolist(),
        "p": t.probs.tolist(),
        "alpha": dnorm_alpha(beta),
        "sigma": law.sigma,
        "delta": law.delta,
    }


def _cmd_solve_theta(args) -> dict:
    q = QBase(args.q)
    if (args.mu is None) == (args.lam is None):
        raise ValueError("give exactly one of --mu / --lambda")
    if args.lam is not None:
        if args.n is None:
            raise ValueError("--lambda needs --n")
        return {"theta": [theta_for_poisson(args.n, q, args.lam)], "residual": [0.0], "iterations": [0]}
    sol = theta_limit_for_mean(q, args.mu) if args.n is None else theta_for_mean(args.n, q, args.mu)
    return {k: [v] for k, v in vars(sol).items()}


def _cmd_converge(args) -> dict:
    given = {k: getattr(args, k) for k in ("threshold", "lam", "mu", "n")}
    params: dict = {"q": QBase(args.q), **{k: v for k, v in given.items() if v is not None}}
    if args.theta is not None:
        params["theta"] = parse_theta(args.theta, params["q"])
    if args.slope is not None:
        params["slope"] = _rational(args.slope)
        params["offset"] = args.offset
    if args.fn is not None:
        params["fn"] = args.fn if args.fn == "sqrt" else _rational(args.fn)
    if args.q_list:
        params["q_list"] = [float(s) for s in args.q_list.split(",")]
    report = convergence_sweep(args.scenario, params, parse_n_list(args.n_list) if args.n_list else [])
    return {**report.columns, "threshold": report.threshold, "verdict": report.verdict}


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
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
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
    return parser, sub.choices


@functools.cache
def _flag_table(sub: argparse.ArgumentParser) -> tuple[dict, set, dict]:
    """A subparser's store flags: each option string's action, the required actions, the defaults in action order."""
    actions = [a for a in sub._actions if isinstance(a, argparse._StoreAction) and a.nargs is None]
    options = {s: a for a in actions for s in a.option_strings}
    defaults = {a.dest: a.default for a in actions if a.default is not argparse.SUPPRESS}
    return options, {a for a in actions if a.required}, defaults


def _parse(argv: list) -> argparse.Namespace:
    """argv's namespace, read from the command's flag table where the table covers the request.

    The table takes a command preceded only by global flags and followed only by
    '--flag value' pairs of its own flags; it converts and checks each value as
    argparse does. Anything else, and anything at fault, goes to the top-level
    parser, which parses or reports it as it always has.
    """
    parser, commands = _build_parser()
    i = 0  # the command's index, past global flags and their values
    while i + 1 < len(argv) and argv[i] in ("--format", "--output", "--seed"):
        i += 2
    sub = commands.get(argv[i]) if i < len(argv) else None
    pairs = argv[:i] + argv[i + 1 :]  # '--flag value' pairs if the table covers the request
    if sub and len(pairs) % 2 == 0:
        options, required, defaults = _flag_table(sub)
        args, seen = argparse.Namespace(subcommand=argv[i], **defaults), set()
        for flag, text in zip(pairs[::2], pairs[1::2]):
            action = options.get(flag)  # None for -h, '--flag=value', an abbreviated or unknown flag
            if action is None or text.startswith("-") and not sub._negative_number_matcher.match(text):
                break  # argparse reads such a value as a flag
            try:
                value = text if action.type is None else action.type(text)
            except (TypeError, ValueError):
                break
            if action.choices is not None and value not in action.choices:
                break
            setattr(args, action.dest, value)
            seen.add(action)
        else:
            if required <= seen:
                return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Parse, run one subcommand, write its document; returns the exit status."""
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code or 0)
    try:
        document = _emit(args, _COMMANDS[args.subcommand](args))
        if getattr(args, "output", None):  # an unwritable path raises OSError, a bad parameter
            with open(args.output, "w", newline="") as fh:
                fh.write(document)
        else:
            sys.stdout.write(document)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConsistencyError, ArithmeticError, MemoryError) as exc:
        # MemoryError: a table's window, about sqrt(1520/ln(1/q)) entries each side, can exhaust memory
        print(f"numeric failure: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
