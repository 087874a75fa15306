"""Parameter couplings: the Poisson-coupling formula and monotone root finding.

theta_for_mean and theta_limit_for_mean solve mean = mu by safeguarded Newton
in t = ln theta on a closed-form bracket, from the root of an Euler-Maclaurin
estimate of the mean; d mean / dt is the variance, both exact Bernoulli sums.
Closing the bracket to adjacent floats gives the best binary64 theta by the
library's mean, or ConvergenceError. The constant-mean sweep runs its solves
at one q in lock-step (_thetas_for_mean).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .qcalc import _lattice_sums, as_qbase, q_number

__all__ = [
    "BracketError",
    "ConvergenceError",
    "ThetaSolveResult",
    "theta_for_mean",
    "theta_for_poisson",
    "theta_limit_for_mean",
]

RESIDUAL_TARGET = 1e-12

# Safety cap on mean evaluations per solve; a solve takes about 5.
MAX_ITERATIONS = 1024

# |computed - exact mean at theta| <= eps (mean + variance (1 + |t|)): the sum's
# rounding, plus that of t and ln q times d mean / dt. Against 40-digit mpmath,
# 2400 random (q, n, theta), q in [1e-8, 0.9999], reach at most 0.66 of it.
_EPS = 2.0**-52
_MAX = sys.float_info.max
_PROBE_SHARE = 0.25


class BracketError(ValueError):
    """Requested mean is not bracketed (needs n >= 2 mu)."""


class ConvergenceError(ArithmeticError):
    """No binary64 theta has a residual certifiably within RESIDUAL_TARGET."""


@dataclass(frozen=True)
class ThetaSolveResult:
    theta: float
    residual: float
    iterations: int


def theta_for_poisson(n: int, q, lam: float) -> float:
    """Shape theta = lambda / [n - lambda]_q of the Poisson-coupling sequence."""
    q = as_qbase(q)
    if not 0.0 < lam < n:
        raise ValueError(f"lambda must satisfy 0 < lambda < n, got lambda={lam}, n={n}")
    return lam / q_number(n - lam, q)


def _check_mu(mu: float) -> None:
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mu must be positive and finite, got {mu}")


def _estimate_root(h: float, n, mu: float, t_lo: float) -> float:
    """ln theta where sum_{i<n} sigmoid(t - i h)'s Euler-Maclaurin estimate, its integral plus end
    corrections, is mu: three Newton steps from t_lo or the n = inf integral's root, the higher."""

    def terms(t):  # softplus, sigmoid and sigmoid' at t, from e^-|t| alone
        e = math.exp(-abs(t))
        s = 1.0 / (1.0 + e) if t >= 0.0 else e / (1.0 + e)
        return max(t, 0.0) + math.log1p(e), s, s * (1.0 - s)

    t = max(t_lo, mu * h + math.log(-math.expm1(-mu * h)))  # softplus(t) = mu h
    for _ in range(3):
        sp, s, ds = (a - b for a, b in zip(terms(t), terms(t - n * h)))  # n = inf: terms(-inf) = 0
        t -= (sp / h + s / 2.0 + h / 12.0 * ds - mu) / (s / h + ds / 2.0)
    return t


def _solve(h: float, n, mu: float, t_hi: float):
    """Solve mean = sum_{i<n} sigmoid(ln theta - i h) = mu, given mean(e^t_hi) >= mu: a generator
    that yields each point (ln theta, n) it needs and is sent back its (mean, variance)."""
    moments = {}  # theta -> (mean, variance) at every evaluated theta
    # the mean is at most theta (1 - q^n) / (1 - q) with q = e^-h, so it is <= mu at t_lo
    t_lo = math.log(mu) + math.log(-math.expm1(-h)) - math.log(-math.expm1(-n * h))
    lo, hi = math.exp(t_lo), math.exp(t_hi) if t_hi < math.log(_MAX) else _MAX
    # each term with i h <= ln _MAX is >= 1/2 at _MAX: for mu well below half their count, skip the probe
    if hi == _MAX and mu > _PROBE_SHARE * min(n, math.floor(math.log(_MAX) / h) + 1):
        moments[hi] = yield math.log(hi), n
        if moments[hi][0] - mu < 0.0:
            raise ConvergenceError(f"theta for mean {mu} overflows binary64")
    try:  # Newton starts at the estimate's root, or at lo should that fail or leave the bracket
        x = math.exp(_estimate_root(h, n, mu, t_lo))
    except (ArithmeticError, ValueError):
        x = lo
    x = x if lo < x < hi else lo
    step, step_old, push = t_hi - t_lo, t_hi - t_lo, 1.0
    while True:
        if len(moments) == MAX_ITERATIONS:
            raise ConvergenceError(f"no root bracket closed in {MAX_ITERATIONS} steps")
        moments[x] = yield math.log(x), n
        fx = moments[x][0] - mu
        lo, hi = (x, hi) if fx < 0.0 else (lo, x)
        if fx == 0.0 or math.nextafter(lo, hi) >= hi:
            break
        mean, var = moments[x]
        dt = math.log(mu / mean) * mean / var  # x is lo or hi, so dt points inside
        newton = abs(dt) < math.log(hi / lo)
        if newton:
            x_new = x * math.exp(dt)
            # the mean, computed from ln x, is flat over floats sharing ln x: once
            # Newton has converged to x, step past them, twice as far each repeat
            move = push * max(math.ulp(x), x * math.ulp(math.log(x)))
            if abs(x_new - x) <= move:
                x_new, push = (x + move if fx < 0.0 else x - move), 2.0 * push
            else:  # a step must halve the step before last, else bisect
                newton, push = abs(dt) <= 0.5 * abs(step_old), 1.0
        step_old, step = step, dt
        if newton and lo < x_new < hi:
            x = x_new
        elif lo not in moments and math.log(x) + dt <= math.log(lo):  # the root is within rounding of lo
            x = lo
        else:  # bisect, in t while hi / lo is large
            x = lo + 0.5 * (hi - lo) if hi <= 4.0 * lo else math.sqrt(lo) * math.sqrt(hi)
            step = 0.5 * math.log(hi / lo)
    theta = min(moments, key=lambda th: abs(moments[th][0] - mu))
    mean, var = moments[theta]
    residual = abs(mean - mu)
    rounding = _EPS * (mean + var * (1.0 + abs(math.log(theta))))
    if not residual + rounding <= RESIDUAL_TARGET:
        raise ConvergenceError(f"residual {residual:.3g} + rounding {rounding:.3g} > target")
    return ThetaSolveResult(theta, residual, len(moments))


def _thetas_for_mean(q, mu: float, ns: list) -> list[ThetaSolveResult]:
    """theta with mean of KB(n, theta, q) = mu for each n of ns (n = inf: of H(theta)), in lock-step.

    Each round, one kernel call takes the (mean, variance) of every solve still running,
    so each takes the iterates it would take alone. Once all have ended, the first
    failure in the order of ns is raised, as solving them in turn would raise it.
    """
    q = as_qbase(q)
    _check_mu(mu)
    h = -q.log
    # the mean is at least n/2 at q^-(n-1), and that of H(theta) at least mu at e^(2 mu h + 1)
    out = [BracketError(f"need n >= 2 mu for a bracketed root, got n={n}, mu={mu}") if n < 2 * mu
           else _solve(h, n, mu, (n - 1) * h if n < math.inf else 2 * mu * h + 1) for n in ns]
    live = [(i, solve, None) for i, solve in enumerate(out) if not isinstance(solve, BracketError)]
    while live:
        asked = []
        for i, solve, moments in live:
            try:
                asked.append((i, solve, solve.send(moments)))
            except StopIteration as done:
                out[i] = done.value
            except (ArithmeticError, ValueError) as err:
                out[i] = err
        sums = _lattice_sums(("sigmoid", "dsigmoid"), [point for *_, point in asked], h) if asked else ()
        live = [(i, solve, moments) for (i, solve, _), moments in zip(asked, zip(*sums))]
    for result in out:
        if isinstance(result, Exception):
            raise result
    return out


def theta_for_mean(n: int, q, mu: float) -> ThetaSolveResult:
    """Unique theta with mean of KB(n, theta, q) equal to mu (needs n >= 2 mu)."""
    return _thetas_for_mean(q, mu, [n])[0]


def theta_limit_for_mean(q, mu: float) -> ThetaSolveResult:
    """Limit theta(q) of the constant-mean sequence: solves mean of H(theta) = mu."""
    return _thetas_for_mean(q, mu, [math.inf])[0]
