"""The three seeded workloads and the output check of every operation.

A workload is a fixed list of operations built from the seed alone. Each
operation is one closed-loop request: the runner calls `call()`, waits for it
to return or raise, and only then sends the next one. `check(result)` compares
the result with oracle references afterwards, outside the timed region, and
returns the reasons it failed (empty when it passed).

Operations whose parameters fall in the region of a defect the seed code is
known to have carry that defect's id in `known`; a failure there is counted
and reported like any other, but does not mark the run incorrect. A failure
anywhere else does. The registry is KNOWN_DEFECTS below.

Library entry points are looked up on their module at call time, so the
tracer (and the self-test's perturbing wrapper) see every call.
"""

from __future__ import annotations

import csv
import io
import json
import math
import shlex
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import mpmath as mp
import numpy as np

import oracle as O
from qbinomial import asymptotics as A
from qbinomial import cli
from qbinomial import distributions as D
from qbinomial import qcalc as Q
from qbinomial import solvers as S

WORKLOADS = ("eval-grid", "theorem-sweeps", "sample-stream")

# Defects the seed code has. Every id names the ROADMAP item that fixes it.
KNOWN_DEFECTS = {
    "kb_table-exponential": "kb_table raises 'captured_mass inconsistent' or misses the "
    "mean when theta ~ q^-f(n) (ROADMAP items 2, 4)",
    "kb_pmf-exponential": "kb_pmf loses digits when theta ~ q^-f(n): x*log(theta) and the "
    "normaliser cancel in float (ROADMAP item 2)",
    "q-near-1": "heine_table fails at q >= 0.998; limit_law overflows at q >= 0.998 and "
    "its 50-point window drops mass > 1e-12 for q > 0.9 (ROADMAP item 5)",
    "theta-bisection-cap": "theta_for_mean stops at 1024 bisection steps and returns an "
    "unconverged theta with exit 0 once n*log2(1/q) + 60 > 1024 (ROADMAP item 3)",
    "cli-flag-order": "global flags after the subcommand exit 2, as in the README's own "
    "'sample ... --seed 42' example (ROADMAP item 5)",
}

# A sweep distance is compared with thresholds >= 1e-6; 1e-9 keeps the check
# a thousand times finer than any verdict it feeds.
DISTANCE_ABS = 1e-9

Q_LADDER = (0.05, 0.2, 0.5, 0.8, 0.9, 0.95, 0.99, 0.995, 0.998, 0.999)


@dataclass
class Op:
    kind: str
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], list]
    known: str | None = None
    draws: int = 0


def _once(fn):
    """Memoise a zero-argument reference computation."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


def _softplus(t: float) -> float:
    return t + math.log1p(math.exp(-t)) if t > 0 else math.log1p(math.exp(t))


def _approx_kb_mean(n: int, lt: float, h: float) -> float:
    """Integral approximation of sum_i sigmoid(lt - i h); used only to pick x."""
    return (_softplus(lt) - _softplus(lt - n * h)) / h


def _fail_if(cond: bool, reasons: list, what: str, got, want, tol) -> None:
    if cond:
        reasons.append(f"{what}: got {got!r}, reference {float(want):.17g}, tolerance {tol:.3g}")


# ---------------------------------------------------------------------------
# KB evaluation requests


def _kb_ops(n: int, theta, q: float, regime: str) -> list:
    qb = Q.QBase(q)
    d = D.KempBinomial(n, theta, qb)
    lt = O.log_theta(d.theta)
    h = -math.log(q)
    x = min(n, max(0, round(_approx_kb_mean(n, float(lt), h))))
    ref = _once(lambda: O.kb_ref(n, lt, q))
    exp_regime = None if regime == "constant" else regime
    label = f"n={n} q={q} regime={regime} log_theta={float(lt):.6g}"

    def check_moments(m):
        r = ref()
        reasons = []
        tol = O.kb_tol(r["mean"], lt, r["var"])
        _fail_if(O.abs_err(m.mean, r["mean"]) > tol, reasons, "mean", m.mean, r["mean"], tol)
        tol = O.kb_tol(r["var"], lt, r["var"])
        _fail_if(O.abs_err(m.variance, r["var"]) > tol, reasons, "variance", m.variance, r["var"], tol)
        return reasons

    def check_table(t):
        r = ref()
        reasons = []
        mass = math.fsum(t.probs.tolist())
        if abs(mass - 1.0) > O.TABLE_MASS_ABS:
            reasons.append(f"table mass {mass!r} differs from 1 by more than {O.TABLE_MASS_ABS}")
        mean = math.fsum((t.x_values() * t.probs).tolist())
        # entries are exp of sums as large as ln (q;q)_n, each off by up to COND_ULPS * |ln (q;q)_n|
        spread = abs(float(r["mean"])) + math.sqrt(float(r["var"]))
        tol = O.kb_tol(r["mean"], lt, r["var"]) + O.COND_ULPS * abs(float(r["lqq_n"])) * spread
        _fail_if(O.abs_err(mean, r["mean"]) > tol, reasons, "table mean", mean, r["mean"], tol)
        return reasons

    def check_pmf(p):
        r = ref()
        want = mp.exp(O.kb_log_pmf_ref(r, n, lt, q, x))
        tol = O.FLOAT_REL + O.COND_ULPS * (abs(float(lt)) * abs(x - float(r["mean"])) + abs(float(r["lqq_n"])))
        err = O.rel_err(p, want) if want > 1e-300 else abs(p)
        reasons = []
        _fail_if(err > tol, reasons, f"pmf({x}) relative error {err:.3g}", p, want, tol)
        return reasons

    return [
        Op("kb_moments", label, lambda: D.kb_moments(d), check_moments),
        Op("kb_table", label, lambda: D.kb_table(d), check_table,
           known=exp_regime and "kb_table-exponential"),
        Op("kb_pmf", label + f" x={x}", lambda: D.kb_pmf(d, x), check_pmf,
           known=exp_regime and "kb_pmf-exponential"),
    ]


def _theta_for(regime: str, n: int, q: float, rng):
    qb = Q.QBase(q)
    if regime == "constant":
        return Q.ScaledReal.from_float(math.exp(rng.uniform(math.log(0.1), math.log(10.0))), qb)
    if regime == "linear":
        f = rng.uniform(0.05, 0.95) * n + rng.uniform(0.0, 1.0)
    else:  # "n+sqrt(n)"
        f = n + math.sqrt(n)
    return Q.ScaledReal.from_q_power(-f, qb)


# ---------------------------------------------------------------------------
# per-q requests


def _per_q_ops(q: float, rng) -> list:
    qb = Q.QBase(q)
    beta = float(rng.uniform(0.0, 1.0))
    tag = f"q={q} beta={beta:.6g}"
    ops = []

    c_ref = _once(lambda: O.c_ref(beta, q))

    def check_c(c):
        tol = 1e-13 * max(1.0, abs(float(c_ref())))
        reasons = []
        _fail_if(O.abs_err(c, c_ref()) > tol, reasons, "c", c, c_ref(), tol)
        return reasons

    ops.append(Op("c_direct", tag, lambda: A.c_direct(beta, qb), check_c))

    s2_ref = _once(lambda: O.sigma2_ref(beta, q))

    def check_sigma(s2):
        reasons = []
        _fail_if(O.rel_err(s2, s2_ref()) > 1e-13, reasons, "sigma^2", s2, s2_ref(), 1e-13)
        return reasons

    ops.append(Op("sigma_limit", tag, lambda: A.sigma_limit(beta, qb), check_sigma))

    def check_limit(law):
        t = law.lattice_probs
        xs = [int(x) for x in t.x_values()]
        refs = O.limit_lattice_ref(beta, q, xs)
        reasons = []
        worst = 0.0
        for x, p, r in zip(xs, t.probs, refs):
            if r > 1e-300:
                tol = O.FLOAT_REL + O.COND_ULPS * abs(x * x * math.log(q))
                worst = max(worst, O.rel_err(float(p), r) / tol)
        if worst > 1.0:
            reasons.append(f"lattice entry error {worst:.3g} x its tolerance")
        lost = 1.0 - float(mp.fsum(refs))
        if lost > 1e-12:
            reasons.append(f"window drops mass {lost:.3g} > 1e-12 (tabulate contract)")
        tol = 1e-13
        _fail_if(O.rel_err(law.sigma, mp.sqrt(s2_ref())) > tol, reasons, "sigma", law.sigma,
                 mp.sqrt(s2_ref()), tol)
        _fail_if(O.abs_err(law.c_value, c_ref()) > tol, reasons, "c_value", law.c_value, c_ref(), tol)
        if law.delta != (0 if beta < 0.5 else 1):
            reasons.append(f"delta {law.delta} at beta {beta}")
        return reasons

    ops.append(Op("limit_law", tag, lambda: A.limit_law(beta, qb), check_limit,
                  known="q-near-1" if q > 0.9 else None))

    slope = Fraction(int(rng.integers(1, 10)), 10)
    offset = float(rng.uniform(0.0, 1.0))
    n_me = int(rng.integers(200, 2001))
    drift = A.FractionalDrift(slope, offset)
    f = drift.value(n_me)

    def check_expansion(r):
        ref_mu = O.kb_ref(n_me, f * -O.qlog(q), q)["mean"]
        want_c = O.c_ref(drift.beta(n_me), q)
        reasons = []
        _fail_if(O.abs_err(r.c_value, want_c) > 1e-13, reasons, "c", r.c_value, want_c, 1e-13)
        bound = r.error_bound + O.FLOAT_REL * max(1.0, f)
        _fail_if(O.abs_err(r.estimate, ref_mu) > bound, reasons, "estimate outside error_bound",
                 r.estimate, ref_mu, bound)
        return reasons

    ops.append(Op("mean_expansion", f"q={q} n={n_me} slope={slope} offset={offset:.6g}",
                  lambda: A.mean_expansion(n_me, drift, qb), check_expansion))

    theta_h = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
    heine = D.Heine(theta_h, qb)
    htag = f"q={q} theta={theta_h:.6g}"
    hm_ref = _once(lambda: O.heine_mean_ref(theta_h, q))

    def check_heine_mean(m):
        reasons = []
        _fail_if(O.rel_err(m, hm_ref()) > 1e-13, reasons, "heine mean", m, hm_ref(), 1e-13)
        return reasons

    def check_heine_table(t):
        xs = list(range(len(t)))
        refs = O.heine_log_pmf_ref(theta_h, q, set(xs))
        reasons = []
        worst = 0.0
        for x, p, lr in zip(xs, t.probs, refs):
            if lr > -690:
                tol = O.FLOAT_REL + O.COND_ULPS * (abs(x * math.log(theta_h)) + abs(x * x * math.log(q)) + (2 + theta_h) / (1 - q))
                worst = max(worst, O.rel_err(float(p), mp.exp(lr)) / tol)
        if worst > 1.0:
            reasons.append(f"table entry error {worst:.3g} x its tolerance")
        if t.captured_mass < 1.0 - 1e-12:
            reasons.append(f"captured_mass {t.captured_mass!r} < 1 - 1e-12")
        return reasons

    ops.append(Op("heine_mean", htag, lambda: D.heine_mean(heine), check_heine_mean))
    ops.append(Op("heine_table", htag, lambda: D.heine_table(heine), check_heine_table,
                  known="q-near-1" if q >= 0.998 else None))

    # keep |ln e_q(z)| <~ 300 so the value is a finite binary64 number
    h = -math.log(q)
    z = float(rng.uniform(-min(3.0, 300.0 * h), min(0.9, 300.0 * h)))
    lp_ref = _once(lambda: O.log_pochhammer_inf_ref(z, q))

    def check_eq(v):
        want = mp.exp(-lp_ref())
        tol = O.README_SERIES_REL + O.LOG_ULPS * abs(float(lp_ref()))
        reasons = []
        _fail_if(O.rel_err(v, want) > tol, reasons, "e_q", v, want, tol)
        return reasons

    ops.append(Op("e_q", f"q={q} z={z:.6g}", lambda: Q.e_q(z, qb), check_eq))
    return ops


def eval_grid(seed: int) -> list:
    """KB requests over n in [1e2, 1e6], log-stratified, plus anchors at n = 1e2, 1e4, 1e6.

    A request costs O(n), and its constant depends on q and the theta regime
    by up to 25%, so a freely drawn mix makes the cost of a pass depend on the
    seed. Instead each of the 30 strata of log n gets a fixed (regime, q) pair,
    so that every pair appears once, and the seed places n inside the middle
    40% of its stratum and draws theta, beta, x and the order of requests.
    The n = 1e6 anchor (linear regime, q = 0.5) pins peak memory.
    """
    rng = np.random.default_rng([seed, 1])
    regimes = ("constant", "linear", "n+sqrt(n)")
    strata = len(regimes) * len(Q_LADDER)
    plan = [(10 ** (2 + 4 * (j + rng.uniform(0.3, 0.7)) / strata), regimes[j % 3],
             Q_LADDER[(7 * j) % len(Q_LADDER)]) for j in range(strata)]
    plan += [(100, "linear", 0.5), (10_000, "linear", 0.5), (1_000_000, "linear", 0.5)]
    requests = []
    for n, regime, q in plan:
        n = int(round(n))
        requests.append(_kb_ops(n, _theta_for(regime, n, q, rng), q, regime))
    per_q = [_per_q_ops(q, rng) for q in Q_LADDER]
    order = rng.permutation(len(requests))
    ops = []
    for k, j in enumerate(order):
        ops.extend(requests[j])
        if k % 4 == 3 and per_q:
            ops.extend(per_q.pop())
    for block in per_q:
        ops.extend(block)
    return ops


# ---------------------------------------------------------------------------
# CLI requests


README_COMMANDS = (
    # The README's command examples at the commit that introduced this benchmark, verbatim.
    "qbinomial pmf --dist kb --n 2 --theta 1 --q 0.5",
    "qbinomial pmf --dist kb --n 40 --theta '2*q^-40' --q 0.5",
    "qbinomial pmf --dist heine --theta 0.5 --q 0.5",
    "qbinomial pmf --dist dnorm --alpha 0 --q 0.5",
    "qbinomial moments --dist kb --n 20 --theta 1.3 --q 0.6",
    "qbinomial sample --dist kb --n 20 --theta 1.3 --q 0.6 --count 1000 --seed 42",
    "qbinomial asym --slope 3/10 --offset 0.25 --q 0.5 --n-list 200:400:50",
    "qbinomial limit --beta 1/2 --q 0.5",
    "qbinomial solve-theta --n 2 --q 0.5 --mu 0.833333333333",
    "qbinomial solve-theta --q 0.5 --mu 1.0",
    "qbinomial converge --scenario poisson-coupling --q 0.5 --lambda 2 --n-list 10:100:10",
    "qbinomial converge --scenario constant-mean --q 0.5 --mu 1 --n-list 5,10,20,40,80",
    "qbinomial converge --scenario subexponential --q 0.5 --slope 1/2 --offset 0.3 --n-list 20:120:2",
    "qbinomial converge --scenario exponential-reflection --q 0.5 --theta 2 --n-list 10:80:10",
    "qbinomial converge --scenario degenerate --q 0.5 --fn sqrt --n-list 400",
    "qbinomial converge --scenario q-to-1-binomial --q 0.5 --n 10 --theta 1 --q-list 0.99,0.999,0.9999",
)

_GLOBAL_FLAGS = ("--format", "--output", "--seed")


def _subcommand(argv: list) -> str:
    return next(a for i, a in enumerate(argv) if not a.startswith("-") and argv[i - 1] not in _GLOBAL_FLAGS)


def _run_cli(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _rows(argv: list, text: str) -> list:
    if "json" in argv:
        return json.loads(text)["data"]
    return [{k: _num(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))]


def _num(v: str):
    try:
        return int(v)
    except ValueError:
        try:
            return float(v)
        except ValueError:
            return v


def _opt(argv: list, flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _bisection_steps(n: int, q: float) -> float:
    return n * math.log2(1.0 / q) + 60


def _cli_theta(text: str, q: float):
    """Exact log theta of a --theta argument ('a*q^-b' literals included)."""
    if "*q^" in text:
        a, b = text.split("*q^")
        return mp.log(mp.mpf(a)) + mp.mpf(b.strip("()")) * O.qlog(q)
    return mp.log(mp.mpf(text))


def _check_cli(argv: list, result) -> list:
    code, out, err = result
    if code != 0:
        return [f"exit {code}: {err.strip().splitlines()[-1] if err.strip() else ''}"]
    rows = _rows(argv, out)
    if not rows:
        return ["empty document"]
    q = float(_opt(argv, "--q"))
    return _CLI_CHECKS[_subcommand(argv)](argv, rows, q)


def _check_pmf_cli(argv, rows, q):
    dist = _opt(argv, "--dist")
    xs = [int(r["x"]) for r in rows]
    ps = [float(r["p"]) for r in rows]
    lq = math.log(q)
    if dist == "kb":
        n = int(_opt(argv, "--n"))
        lt = _cli_theta(_opt(argv, "--theta"), q)
        ref = O.kb_ref(n, lt, q)
        refs = [O.kb_log_pmf_ref(ref, n, lt, q, x) for x in xs]
        scale = [abs(float(lt)) * abs(x - float(ref["mean"])) + abs(float(ref["lqq_n"])) for x in xs]
    elif dist == "heine":
        theta = float(_opt(argv, "--theta"))
        refs = O.heine_log_pmf_ref(theta, q, set(xs))
        scale = [abs(x * math.log(theta)) + abs(x * x * lq) + (2 + theta) / (1 - q) for x in xs]
    else:
        alpha = float(_opt(argv, "--alpha"))
        log_z = mp.log(mp.fsum(mp.exp(v) for v in O.dnorm_log_weights(alpha, q).values()))
        refs = [(mp.mpf(x) * x / 2 - x * alpha) * O.qlog(q) - log_z for x in xs]
        scale = [abs((x * x / 2 - x * alpha) * lq) for x in xs]
    reasons = []
    for x, p, lr, s in zip(xs, ps, refs, scale):
        if lr > -690:
            tol = O.FLOAT_REL + O.COND_ULPS * s
            err = O.rel_err(p, mp.exp(lr))
            _fail_if(err > tol, reasons, f"{dist} pmf({x}) relative error {err:.3g}", p, mp.exp(lr), tol)
    mass = math.fsum(ps)
    if mass < 1.0 - 1e-9:
        reasons.append(f"{dist} table mass {mass!r} < 1 - 1e-9")
    return reasons


def _check_moments_cli(argv, rows, q):
    dist = _opt(argv, "--dist")
    mean, var = float(rows[0]["mean"]), float(rows[0]["variance"])
    if dist == "kb":
        n = int(_opt(argv, "--n"))
        lt = _cli_theta(_opt(argv, "--theta"), q)
        ref = O.kb_ref(n, lt, q)
        want_mean, want_var = ref["mean"], ref["var"]
        tol_m, tol_v = O.kb_tol(want_mean, lt, want_var), O.kb_tol(want_var, lt, want_var)
    else:
        if dist == "heine":
            lt, h = mp.log(mp.mpf(_opt(argv, "--theta"))), -O.qlog(q)
            want_mean = O.lattice_sum("sigmoid", lt, h, mp.inf)
            want_var = O.lattice_sum("dsigmoid", lt, h, mp.inf)
        else:
            want_mean, want_var = O.dnorm_moments_ref(float(_opt(argv, "--alpha")), q)
        tol_m = O.FLOAT_REL * max(1.0, abs(float(want_mean)))
        tol_v = O.FLOAT_REL * max(1.0, float(want_var))
    reasons = []
    _fail_if(O.abs_err(mean, want_mean) > tol_m, reasons, f"{dist} mean", mean, want_mean, tol_m)
    _fail_if(O.abs_err(var, want_var) > tol_v, reasons, f"{dist} variance", var, want_var, tol_v)
    return reasons


def _six_sigma(values, mean, var) -> list:
    values = np.asarray(values, dtype=float)
    n = values.size
    bound = 6.0 * math.sqrt(float(var) / n) + 1e-12
    gap = abs(float(values.mean()) - float(mean))
    if gap > bound:
        return [f"sample mean {values.mean():.6g} is {gap:.3g} from {float(mean):.6g}, beyond 6 sigma {bound:.3g}"]
    return []


def _check_sample_cli(argv, rows, q):
    count = int(_opt(argv, "--count", 1))
    if len(rows) != count:
        return [f"{len(rows)} draws for --count {count}"]
    values = [int(r["value"]) for r in rows]
    h = -O.qlog(q)
    if _opt(argv, "--dist") == "kb":
        n = int(_opt(argv, "--n"))
        ref = O.kb_ref(n, _cli_theta(_opt(argv, "--theta"), q), q)
        return _six_sigma(values, ref["mean"], ref["var"])
    lt = mp.log(mp.mpf(_opt(argv, "--theta")))
    return _six_sigma(values, O.lattice_sum("sigmoid", lt, h, mp.inf), O.lattice_sum("dsigmoid", lt, h, mp.inf))


def _check_asym_cli(argv, rows, q):
    slope, offset = Fraction(_opt(argv, "--slope")), float(_opt(argv, "--offset", 0.0))
    drift = A.FractionalDrift(slope, offset)
    h = -O.qlog(q)
    reasons = []
    for r in rows:
        n = int(r["n"])
        f = drift.value(n)
        ref = O.kb_ref(n, f * h, q)
        tol = O.kb_tol(ref["mean"], f * h, ref["var"])
        _fail_if(O.abs_err(float(r["mu_direct"]), ref["mean"]) > tol, reasons, f"mu_direct n={n}",
                 r["mu_direct"], ref["mean"], tol)
        want_c = O.c_ref(drift.beta(n), q)
        _fail_if(O.abs_err(float(r["c"]), want_c) > 1e-13, reasons, f"c n={n}", r["c"], want_c, 1e-13)
        bound = float(r["error_bound"]) + tol
        _fail_if(O.abs_err(float(r["estimate"]), ref["mean"]) > bound, reasons,
                 f"estimate outside error_bound n={n}", r["estimate"], ref["mean"], bound)
    return reasons


def _check_limit_cli(argv, rows, q):
    text = _opt(argv, "--beta")
    beta = float(Fraction(text)) if "/" in text else float(text)
    xs = [int(r["x"]) for r in rows]
    refs = O.limit_lattice_ref(beta, q, xs)
    reasons = []
    for x, r, want in zip(xs, rows, refs):
        if want > 1e-300:
            tol = O.FLOAT_REL + O.COND_ULPS * abs(x * x * math.log(q))
            err = O.rel_err(float(r["p"]), want)
            _fail_if(err > tol, reasons, f"limit p({x}) relative error {err:.3g}", r["p"], want, tol)
    sigma = mp.sqrt(O.sigma2_ref(beta, q))
    _fail_if(O.rel_err(float(rows[0]["sigma"]), sigma) > 1e-13, reasons, "sigma", rows[0]["sigma"], sigma, 1e-13)
    return reasons


def _kb_mean_at(n: int, theta: float, q: float):
    return O.lattice_sum("sigmoid", mp.log(mp.mpf(theta)), -O.qlog(q), n)


def _check_solve_cli(argv, rows, q):
    theta = float(rows[0]["theta"])
    reasons = []
    if _opt(argv, "--lambda") is not None:
        n, lam = int(_opt(argv, "--n")), mp.mpf(_opt(argv, "--lambda"))
        qm = mp.mpf(q)
        want = lam * (1 - qm) / (1 - qm ** (n - lam))
        _fail_if(O.rel_err(theta, want) > 1e-13, reasons, "theta", theta, want, 1e-13)
        return reasons
    mu = mp.mpf(_opt(argv, "--mu"))
    if _opt(argv, "--n") is not None:
        got = _kb_mean_at(int(_opt(argv, "--n")), theta, q) if theta > 0 else mp.mpf(0)
    else:
        got = O.lattice_sum("sigmoid", mp.log(mp.mpf(theta)), -O.qlog(q), mp.inf)
    res = float(abs(got - mu))
    if not res <= S.RESIDUAL_TARGET:
        reasons.append(f"residual recomputed at theta={theta!r} is {res:.3g} > RESIDUAL_TARGET")
    if not float(rows[0]["residual"]) <= S.RESIDUAL_TARGET:
        reasons.append(f"solver reports residual {rows[0]['residual']} > RESIDUAL_TARGET")
    return reasons


def _degenerate_distance(n: int, q: float):
    """1 - P(X = n) for KB(n, q^-(n + sqrt n), q): the degenerate sweep's exact distance."""
    h = -O.qlog(q)
    return -mp.expm1(-O.lattice_sum("softplus", -(n + mp.sqrt(n)) * h + (n - 1) * h, h, n))


def _q_to_1_distance(n: int, theta: float, q: float):
    lt = mp.log(mp.mpf(theta))
    ref = O.kb_ref(n, lt, q)
    p = mp.mpf(theta) / (1 + theta)
    return mp.fsum(abs(mp.exp(O.kb_log_pmf_ref(ref, n, lt, q, x)) - mp.binomial(n, x) * p**x * (1 - p) ** (n - x))
                   for x in range(n + 1)) / 2


def _check_converge_cli(argv, rows, q):
    scenario = _opt(argv, "--scenario")
    reasons = []
    for r in rows:
        d = float(r["distance"])
        if not 0.0 <= d <= 1.0 + 1e-12:
            reasons.append(f"distance {d!r} outside [0, 1] at n={r['n']}")
    threshold = float(rows[-1]["threshold"])
    if scenario == "degenerate":
        want = _degenerate_distance(int(rows[-1]["n"]), q)
        tol = DISTANCE_ABS
        _fail_if(O.abs_err(float(rows[-1]["distance"]), want) > tol, reasons, "distance", rows[-1]["distance"], want, tol)
        expected = "pass" if want <= threshold else "fail"
    elif scenario == "q-to-1-binomial":
        q_last = float(_opt(argv, "--q-list").split(",")[-1])
        want = _q_to_1_distance(int(_opt(argv, "--n")), float(_opt(argv, "--theta")), q_last)
        tol = DISTANCE_ABS
        _fail_if(O.abs_err(float(rows[-1]["distance"]), want) > tol, reasons, "distance", rows[-1]["distance"], want, tol)
        expected = "pass" if want <= threshold else "fail"
    else:
        # the parameter sets are chosen deep inside each theorem's convergence
        # region, where the final distance is orders of magnitude below threshold
        expected = "pass"
    if scenario == "constant-mean":
        mu = mp.mpf(_opt(argv, "--mu"))
        for r in rows:
            res = float(abs(_kb_mean_at(int(r["n"]), float(r["theta"]), q) - mu))
            if not res <= S.RESIDUAL_TARGET:
                reasons.append(f"residual recomputed at n={r['n']} theta={r['theta']!r} is {res:.3g} > RESIDUAL_TARGET")
    if scenario == "poisson-coupling":
        lam, qm = mp.mpf(_opt(argv, "--lambda")), mp.mpf(q)
        for r in rows:
            n = int(r["n"])
            want = lam * (1 - qm) / (1 - qm ** (n - lam))
            _fail_if(O.rel_err(float(r["theta"]), want) > 1e-13, reasons, f"theta n={n}", r["theta"], want, 1e-13)
    verdicts = {r["verdict"] for r in rows}
    if verdicts != {expected}:
        reasons.append(f"verdict {sorted(verdicts)}, expected {expected}")
    return reasons


_CLI_CHECKS = {
    "pmf": _check_pmf_cli,
    "moments": _check_moments_cli,
    "sample": _check_sample_cli,
    "asym": _check_asym_cli,
    "limit": _check_limit_cli,
    "solve-theta": _check_solve_cli,
    "converge": _check_converge_cli,
}


def _cli_op(command: str, fmt: str | None) -> Op:
    argv = shlex.split(command)[1:] if command.startswith("qbinomial ") else shlex.split(command)
    if fmt == "json":
        argv = ["--format", "json", *argv]
    sub = _subcommand(argv)
    q = float(_opt(argv, "--q", 0.5))
    known = None
    after = argv[argv.index(sub) + 1:]
    if any(flag in after for flag in _GLOBAL_FLAGS):
        known = "cli-flag-order"
    ns = []
    if sub == "solve-theta" and _opt(argv, "--mu") and _opt(argv, "--n"):
        ns = [int(_opt(argv, "--n"))]
    if sub == "converge" and _opt(argv, "--scenario") == "constant-mean":
        ns = cli.parse_n_list(_opt(argv, "--n-list"))
    if any(_bisection_steps(n, q) > S.MAX_ITERATIONS for n in ns):
        known = "theta-bisection-cap"
    return Op("cli", " ".join(argv), lambda: _run_cli(argv), lambda r: _check_cli(argv, r), known=known,
              draws=int(_opt(argv, "--count", 0)) if sub == "sample" else 0)


def theorem_sweeps(seed: int) -> list:
    """README examples verbatim plus seeded variants of every subcommand, each in csv and json.

    The bisection requests cost O(n^2) and their path depends on mu, so their
    n and mu vary only in narrow bands; the p90 latency then falls among the
    ten near-identical q = 0.2 solves instead of on a cliff between cost groups.
    """
    rng = np.random.default_rng([seed, 2])

    def pick(*xs):
        return xs[int(rng.integers(len(xs)))]

    def u(a, b, digits=4):
        return round(float(rng.uniform(a, b)), digits)

    commands = list(README_COMMANDS)
    s = int(rng.integers(1000, 1011))
    commands += [
        f"converge --scenario poisson-coupling --q {pick(0.3, 0.5, 0.7)} --lambda {u(1, 3)} --n-list 10:100:10",
        f"converge --scenario constant-mean --q 0.5 --mu 3 --n-list {s},{s + 100},{s + 200}",
        f"converge --scenario constant-mean --q 0.8 --mu {u(1.9, 2.1)} --n-list 50:300:50",
        f"converge --scenario subexponential --q {pick(0.3, 0.5)} --slope 1/2 --offset {u(0.05, 0.45)} --n-list 20:120:2",
        f"converge --scenario subexponential --q {pick(0.3, 0.5)} --slope 1/3 --offset {u(0.05, 0.95)} --n-list 30:150:3",
        f"converge --scenario exponential-reflection --q {pick(0.3, 0.5, 0.7)} --theta {u(1, 4)} --n-list 10:80:10",
        f"converge --scenario degenerate --q {pick(0.3, 0.4, 0.5)} --fn sqrt --n-list 100,200,{int(rng.integers(400, 501))}",
        f"converge --scenario q-to-1-binomial --q 0.5 --n {int(rng.integers(5, 13))} --theta {u(0.5, 2)} --q-list 0.99,0.999,0.9999",
        f"solve-theta --n {int(rng.integers(1490, 1511))} --q 0.5 --mu 3",
        *(f"solve-theta --n {int(rng.integers(390, 401))} --q 0.2 --mu {u(1.0, 1.2)}" for _ in range(5)),
        f"solve-theta --n {int(rng.integers(180, 201))} --q 0.5 --mu {u(0.5, 3)}",
        f"solve-theta --q {pick(0.3, 0.5, 0.7, 0.9)} --mu {u(0.5, 3)}",
        f"solve-theta --n {int(rng.integers(20, 201))} --q {pick(0.3, 0.5, 0.7)} --lambda {u(0.5, 3)}",
        *(f"asym --slope {pick('1/10', '3/10', '1/2', '7/10')} --offset {u(0, 1)} --q {pick(0.3, 0.5)}"
          f" --n-list 200:400:50" for _ in range(2)),
        *(f"limit --beta {pick('1/4', '1/2', '3/4', str(u(0.05, 0.95)))} --q {pick(0.3, 0.5, 0.7)}"
          for _ in range(2)),
        f"pmf --dist kb --n 40 --theta '{u(0.5, 3)}*q^-{int(rng.integers(10, 41))}' --q 0.3",
        f"pmf --dist heine --theta {u(0.2, 3)} --q {pick(0.3, 0.5, 0.7)}",
        f"pmf --dist dnorm --alpha {u(-2, 2)} --q {pick(0.3, 0.5, 0.7)}",
        f"moments --dist kb --n {int(rng.integers(5, 60))} --theta {u(0.2, 5)} --q {pick(0.3, 0.6, 0.9)}",
        f"moments --dist heine --theta {u(0.2, 3)} --q {pick(0.3, 0.5, 0.7)}",
        f"converge --scenario poisson-coupling --q {pick(0.3, 0.5, 0.7)} --lambda {u(1, 3)} --n-list 10:100:10",
        f"pmf --dist kb --n {int(rng.integers(2, 41))} --theta {u(0.2, 5)} --q {pick(0.3, 0.5, 0.7)}",
        f"pmf --dist kb --n 40 --theta '{u(0.5, 3)}*q^-{int(rng.integers(10, 41))}' --q 0.5",
        f"pmf --dist heine --theta {u(0.2, 3)} --q {pick(0.3, 0.5, 0.7)}",
        f"pmf --dist dnorm --alpha {u(-2, 2)} --q {pick(0.3, 0.5, 0.7)}",
        f"moments --dist kb --n {int(rng.integers(5, 60))} --theta {u(0.2, 5)} --q {pick(0.3, 0.6, 0.9)}",
        f"moments --dist heine --theta {u(0.2, 3)} --q {pick(0.3, 0.5, 0.7)}",
        f"moments --dist dnorm --alpha {u(-2, 2)} --q {pick(0.3, 0.5, 0.7)}",
        f"--seed {int(rng.integers(1 << 31))} sample --dist kb --n {int(rng.integers(10, 60))} --theta {u(0.5, 3)} --q 0.6 --count 2000",
        f"--seed {int(rng.integers(1 << 31))} sample --dist heine --theta {u(0.5, 3)} --q 0.5 --count 2000",
    ]
    ops = [_cli_op(c, fmt) for c in commands for fmt in ("csv", "json")]
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# sampling


def _draw_op(kind: str, label: str, fn, size: int, mean_ref, var_ref, lo: int, hi: float) -> Op:
    def check(draws):
        arr = np.atleast_1d(np.asarray(draws))
        if arr.size != size:
            return [f"{arr.size} draws, asked for {size}"]
        if arr.min() < lo or arr.max() > hi:
            return [f"draw outside support [{lo}, {hi}]"]
        return _six_sigma(arr, mean_ref(), var_ref())

    return Op(kind, label, fn, check, draws=size)


def sample_stream(seed: int) -> list:
    """kb_sample batches, single-draw loops and inversion draws; every stream seeded.

    As in eval_grid, the cost-bearing sizes (n and draw counts) sit on a fixed
    grid with narrow seeded jitter, and q rotates over the strata, so the cost
    of a pass hardly depends on the seed; theta, alpha and the streams do.
    """
    rng = np.random.default_rng([seed, 3])
    ops = []

    def kb_law(n, q):
        th = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
        d = D.KempBinomial(n, th, Q.QBase(q))
        ref = _once(lambda: O.kb_ref(n, mp.log(mp.mpf(th)), q))
        return d, (lambda: ref()["mean"]), (lambda: ref()["var"]), f"n={n} q={q} theta={th:.6g}"

    def batch(kind, label, fn, size, mean_ref, var_ref, lo, hi):
        child = int(rng.integers(1 << 62))
        ops.append(_draw_op(kind, label, lambda: fn(np.random.default_rng(child)), size,
                            mean_ref, var_ref, lo, hi))

    # batches: n rises while the draw count falls, so each batch costs ~n*draws <= 1e7
    strata = 12
    for j in range(strata):
        n = int(round(10 ** (1 + 3 * (j + rng.uniform(0.3, 0.7)) / strata)))
        size = int(round(10 ** (5 - 2 * (j + rng.uniform(0.3, 0.7)) / strata)))
        d, mean, var, label = kb_law(n, (0.2, 0.5, 0.8, 0.95)[j % 4])
        batch("kb_sample", f"{label} size={size}",
              lambda g, d=d, size=size: D.kb_sample(d, g, size=size), size, mean, var, 0, n)
    # the ROADMAP's reference point, n = 1000 with 1e5 draws, by both samplers; the
    # Bernoulli draws go in ten requests so no single request dominates a pass
    d_anchor, mean_anchor, var_anchor, label_anchor = kb_law(1000, 0.5)
    for _ in range(10):
        batch("kb_sample", f"{label_anchor} size=10000",
              lambda g: D.kb_sample(d_anchor, g, size=10_000), 10_000, mean_anchor, var_anchor, 0, 1000)

    # single draws (size=None): 30 requests of 10 draws at each of three n, so
    # the latency percentiles rest on more than 100 requests per pass
    for n in (10, 1000, 10_000):
        d, mean, var, label = kb_law(int(n * rng.uniform(0.95, 1.05)), 0.5)
        for _ in range(30):
            batch("kb_sample_single", f"{label} 10 single draws",
                  lambda g, d=d: [D.kb_sample(d, g) for _ in range(10)], 10, mean, var, 0, d.n)

    # inversion on tables built before the timed loop: KB, Heine, discrete normal
    tables = [("kb", label, D.kb_table(d), mean, var)
              for d, mean, var, label in (kb_law(n, q) for n, q in ((50, 0.5), (1000, 0.8), (10_000, 0.5)))]
    for q in (0.3, 0.7, 0.95):
        th = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
        lt, h = mp.log(mp.mpf(th)), -O.qlog(q)
        tables.append(("heine", f"q={q} theta={th:.6g}", D.heine_table(D.Heine(th, Q.QBase(q))),
                       _once(lambda lt=lt, h=h: O.lattice_sum("sigmoid", lt, h, mp.inf)),
                       _once(lambda lt=lt, h=h: O.lattice_sum("dsigmoid", lt, h, mp.inf))))
    for q in (0.3, 0.7, 0.95):
        alpha = float(rng.uniform(-3, 3))
        moments = _once(lambda alpha=alpha, q=q: O.dnorm_moments_ref(alpha, q))
        tables.append(("dnorm", f"q={q} alpha={alpha:.6g}", D.dnorm_table(D.DiscreteNormal(alpha, Q.QBase(q))),
                       lambda m=moments: m()[0], lambda m=moments: m()[1]))
    tables.append(("kb", label_anchor, D.kb_table(d_anchor), mean_anchor, var_anchor))
    for law, label, table, mean, var in tables:
        size = 100_000 if table is tables[-1][2] else int(round(10 ** (4.5 + rng.uniform(-0.02, 0.02))))
        batch("inversion", f"{law} {label} size={size}",
              lambda g, table=table, size=size: D.sample_by_inversion(table, g, size=size),
              size, mean, var, table.offset, table.last)
    return [ops[i] for i in rng.permutation(len(ops))]


GENERATORS = {"eval-grid": eval_grid, "theorem-sweeps": theorem_sweeps, "sample-stream": sample_stream}
