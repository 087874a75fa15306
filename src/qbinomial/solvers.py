"""Parameter couplings: the Poisson-coupling formula and monotone root finding.

theta_for_mean and theta_limit_for_mean solve mean = mu by safeguarded Newton
in t = ln theta on a closed-form bracket; d mean / dt is the variance, both
exact Bernoulli sums. Closing the bracket to adjacent floats gives the best
binary64 theta by the library's mean, or ConvergenceError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .qcalc import _lattice_sum, as_qbase, q_number

__all__ = [
    "BracketError",
    "ConvergenceError",
    "ThetaSolveResult",
    "theta_for_mean",
    "theta_for_poisson",
    "theta_limit_for_mean",
]

RESIDUAL_TARGET = 1e-12

# Safety cap on mean evaluations per solve; a solve takes about 7.
MAX_ITERATIONS = 1024

# |computed - exact mean at theta| <= eps (mean + variance (1 + |t|)): the sum's
# rounding, plus that of t and ln q times d mean / dt. Against 40-digit mpmath,
# 2400 random (q, n, theta), q in [1e-8, 0.9999], reach at most 0.66 of it.
_EPS = 2.0**-52
_MAX = sys.float_info.max


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


def _solve(h: float, n, mu: float, t_hi: float) -> ThetaSolveResult:
    """theta with mean = sum_{i<n} sigmoid(ln theta - i h) = mu, given mean(e^t_hi) >= mu."""
    moments = {}  # theta -> (mean, variance) at every evaluated theta

    def f(theta: float) -> float:
        if len(moments) == MAX_ITERATIONS:
            raise ConvergenceError(f"no root bracket closed in {MAX_ITERATIONS} steps")
        t = math.log(theta)
        moments[theta] = _lattice_sum("sigmoid", t, h, n), _lattice_sum("dsigmoid", t, h, n)
        return moments[theta][0] - mu

    # the mean is at most theta (1 - q^n) / (1 - q) with q = e^-h, so it is <= mu at t_lo
    t_lo = math.log(mu) + math.log(-math.expm1(-h)) - math.log(-math.expm1(-n * h))
    lo, hi = math.exp(t_lo), math.exp(t_hi) if t_hi < math.log(_MAX) else _MAX
    if hi == _MAX and f(hi) < 0.0:
        raise ConvergenceError(f"theta for mean {mu} overflows binary64")
    x, step, step_old, push = lo, t_hi - t_lo, t_hi - t_lo, 1.0
    while True:
        fx = f(x)
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


def theta_for_mean(n: int, q, mu: float) -> ThetaSolveResult:
    """Unique theta with mean of KB(n, theta, q) equal to mu (needs n >= 2 mu)."""
    q = as_qbase(q)
    if not mu > 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    if n < 2 * mu:
        raise BracketError(f"need n >= 2 mu for a bracketed root, got n={n}, mu={mu}")
    h = -q.log
    return _solve(h, n, mu, (n - 1) * h)  # the mean is at least n/2 at q^-(n-1)


def theta_limit_for_mean(q, mu: float) -> ThetaSolveResult:
    """Limit theta(q) of the constant-mean sequence: solves mean of H(theta) = mu."""
    q = as_qbase(q)
    if not mu > 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    h = -q.log
    return _solve(h, math.inf, mu, 2 * mu * h + 1)  # the mean is at least mu there
