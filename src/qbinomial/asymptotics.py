"""Asymptotics of the KB mean for sub-exponentially growing shape parameters.

Implements the O(1) mean-shift constant c(beta, q) as its Fourier/residue
series (the bilateral geometric series stays as the independent reference), the
mean expansion mu_n ~ f(n) + c with an explicit error bound, the limiting
variance (a lattice series or its Mellin dual), and the discrete-normal limit
laws reached along subsequences with constant fractional part beta = {f(n)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .distributions import DiscreteNormal, PMFTable, dnorm_table
from .qcalc import _ALT, _DIRECT_T, _K, _SERIES_DECAY, QBase, _lattice_sum, _one_minus_q_pow, as_qbase

__all__ = [
    "ConsistencyError",
    "DriftRangeError",
    "FractionalDrift",
    "LimitLaw",
    "MeanAsymptotics",
    "c_direct",
    "c_fourier",
    "dnorm_alpha",
    "floor_case",
    "limit_law",
    "mean_expansion",
    "sigma_limit",
]


class DriftRangeError(ValueError):
    """f(n) escaped the open interval (0, n)."""


class ConsistencyError(RuntimeError):
    """A computed quantity contradicts a theorem it must satisfy (numerics bug)."""


@dataclass(frozen=True)
class FractionalDrift:
    """Drift f(n) = slope * n + offset with an exact rational slope.

    The rational slope makes the fractional part {f(n)} exactly periodic in n
    (period = slope.denominator), so case splits at beta = 0 and beta = 1/2
    never hinge on floating-point subtraction.
    """

    slope: Fraction
    offset: float = 0.0

    def __post_init__(self):
        s, offset = Fraction(self.slope), float(self.offset)
        if not 0 < s < 1:
            raise ValueError(f"slope must satisfy 0 < slope < 1, got {s}")
        if not math.isfinite(offset):
            raise ValueError(f"offset must be finite, got {offset}")
        object.__setattr__(self, "slope", s)
        object.__setattr__(self, "offset", offset)

    def value(self, n: int) -> float:
        return float(self.slope * n) + self.offset

    def beta_fraction(self, n: int) -> Fraction:
        """Exact fractional part of f(n) as a Fraction."""
        t = Fraction(self.slope.numerator * n % self.slope.denominator,
                     self.slope.denominator) + Fraction(self.offset)
        return t - math.floor(t)

    def beta(self, n: int) -> float:
        return float(self.beta_fraction(n))


@dataclass(frozen=True)
class MeanAsymptotics:
    """One evaluation of the mean expansion mu_n ~ f(n) + c({f(n)}, q)."""

    f_value: float
    beta: float
    c_value: float
    estimate: float
    error_bound: float
    terms_used: int


@dataclass(frozen=True, eq=False)
class LimitLaw:
    """Limit of (X_n - mu_n)/sigma_n along a constant-beta subsequence.

    lattice_probs lives on the integer lattice of X_n - shift(mu_n); sigma is
    the limiting standard deviation, delta the case selector floor(beta + c).
    Lattice point x sits at (x - (beta + c - delta))/sigma on the normalized scale.
    """

    beta: float
    q: QBase
    sigma: float
    delta: int
    c_value: float
    lattice_probs: PMFTable


def _beta_float(beta) -> float:
    b = float(beta)
    if not 0.0 <= b < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta!r}")
    return b


def c_direct(beta, q) -> float:
    """Mean-shift constant c(beta, q) from its bilateral series form.

    c = 1 - 1/(1+q^-beta) - beta + sum_{l>=1} (up_l - down_l), with h = ln(1/q),
    x_l = e^(-(l-beta) h), r = q^(2 beta), up_l = x_l/(1+x_l) and down_l = r x_l/(1+r x_l).
    Each pair is one term x_l/(1+x_l) (1-r)/(1+r x_l), so no two O(1/h) sums
    cancel; it is summed directly while (l-beta) h < 1, and the rest is the
    kernel's Euler closure sum_k (-1)^(k-1) (1-r^k) x_L^k/(1-q^k), at most 46
    terms. The library uses c_fourier; this is its reference.
    """
    b = _beta_float(beta)
    h = -as_qbase(q).log
    L = math.ceil(b + _DIRECT_T / h)  # the first l with (l - b) h >= _DIRECT_T
    x = np.exp((b - np.arange(1.0, L)) * h)
    pairs = x / (1.0 + x) * (-math.expm1(-2.0 * b * h) / (1.0 + math.exp(-2.0 * b * h) * x))
    k = _K[: 1 + math.ceil(_SERIES_DECAY / ((L - b) * h))]
    tail = -np.expm1(-2.0 * b * h * k) * np.exp((b - L) * h * k) / _one_minus_q_pow(h)[: k.size]
    z = math.exp(-b * h)
    return math.fsum(np.concatenate(([1.0, -z / (1.0 + z), -b], pairs, _ALT[: k.size] * tail)).tolist())


def _fourier_terms(q: QBase) -> int:
    """Enough residue terms that the next one is below ~1e-16."""
    return max(3, math.ceil(-q.log * 40.0 / (2.0 * math.pi**2)) + 2)


def c_fourier(f_value: float, q) -> float:
    """Residue-series form: 1/2 + sum_k 2 pi sin(2 k f pi)/(log q sinh(2 k pi^2/log q)).

    The library's c. The sine argument uses the fractional part of f (the
    series is 1-periodic), so integer f yields exactly 1/2. Coefficients decay
    like exp(-2 k pi^2 / |log q|), so _fourier_terms(q) = O(|log q|) terms
    reach ~1e-16; for large arguments sinh is replaced by exp/2 to avoid overflow.
    """
    q = as_qbase(q)
    frac = f_value - math.floor(f_value)
    alq = -q.log
    parts = [0.5]
    for k in range(1, _fourier_terms(q) + 1):
        a = 2.0 * k * math.pi**2 / alq
        if a > 35.0:
            coef = 4.0 * math.pi / alq * (math.exp(-a) if a < 745.0 else 0.0)
        else:
            coef = 2.0 * math.pi / (alq * math.sinh(a))
        parts.append(coef * math.sin(2.0 * k * frac * math.pi))
    return math.fsum(parts)


# Empirical O-constant for the expansion's error term; validated over the
# acceptance grid, not claimed as a theorem.
def _error_constant(q: QBase) -> float:
    return 10.0 / (1.0 - q.value)


def mean_expansion(n: int, drift: FractionalDrift, q) -> MeanAsymptotics:
    """Asymptotic mean of KB(n, q^-f(n), q): f(n) + c({f(n)}, q).

    error_bound = 10/(1-q) * q^min(f/2, n-f) mirrors the residue-analysis
    remainder; requires 0 < f(n) < n.
    """
    q = as_qbase(q)
    f = drift.value(n)
    if not 0.0 < f < n:
        raise DriftRangeError(f"f({n}) = {f} outside (0, {n})")
    c = c_fourier(f, q)
    bound = _error_constant(q) * q.pow(min(0.5 * f, n - f))
    return MeanAsymptotics(
        f_value=f,
        beta=drift.beta(n),
        c_value=c,
        estimate=f + c,
        error_bound=bound,
        terms_used=_fourier_terms(q),
    )


def sigma_limit(beta, q) -> float:
    """Limiting variance along a constant-beta subsequence.

    Both halves of the finite variance split, extended to infinite range:
    sum_{i>=0} q^(-beta-i)/(1+q^(-beta-i))^2 + sum_{i>=0} q^(i+1-beta)/(1+q^(i+1-beta))^2,
    two dsigmoid lattice sums. By Poisson summation (the Mellin dual) it is also
    (1/h) [1 + 2 sum_k a_k/sinh(a_k) cos(2 pi k beta)], a_k = 2 pi^2 k/h, h = ln(1/q),
    whose terms fall like e^(-a_k) where the lattice's fall like e^(-h): the dual
    is used for h < pi sqrt 2, with _fourier_terms(q) terms.
    """
    b = _beta_float(beta)
    q = as_qbase(q)
    h = -q.log
    if h < math.pi * math.sqrt(2.0):
        parts = [1.0]
        for k in range(1, _fourier_terms(q) + 1):
            a = 2.0 * k * math.pi**2 / h
            coef = 4.0 * a * math.exp(-a) / -math.expm1(-2.0 * a)  # 2 a/sinh(a), never overflows
            parts.append(coef * math.cos(2.0 * k * math.pi * b))
        return math.fsum(parts) / h
    return math.fsum([
        _lattice_sum("dsigmoid", -b * h, h, math.inf),
        _lattice_sum("dsigmoid", -(1.0 - b) * h, h, math.inf),
    ])


def dnorm_alpha(beta) -> float:
    """Discrete-normal location parameter matching the constant-beta limit law."""
    b = _beta_float(beta)
    if b == 0.5:
        return 0.0
    if b < 0.5:
        return 0.5 + b
    return -0.5 + b


def _checked_floor(b: float, c: float, q) -> int:
    """floor(c + b) from the case table: 0 if b < 1/2, else 1.

    c + b tends to 1 as b rises to 1/2, closer than any snap, so with c good
    to ~2e-16 it is only checked to lie in [delta, delta + 1] up to 1e-12.
    """
    delta = 0 if b < 0.5 else 1
    if not delta - 1e-12 <= c + b <= delta + 1 + 1e-12:
        raise ConsistencyError(
            f"c + beta = {c + b!r} at beta={b}, q={q}; case table puts it in [{delta}, {delta + 1}]"
        )
    return delta


def floor_case(beta, q) -> int:
    """floor(c(beta, q) + beta), checked against its closed two-case form.

    The floor is 0 for beta < 1/2 and 1 otherwise; c + beta outside
    [floor, floor + 1] (by more than 1e-12) signals a numerics bug.
    """
    b = _beta_float(beta)
    return _checked_floor(b, c_fourier(b, q), q)


def limit_law(beta, q) -> LimitLaw:
    """Constant-beta limit law of the standardized KB sequence.

    Its lattice law is C q^((x-1)(x-2 beta)/2) for beta < 1/2 and C q^(x(1+x-2 beta)/2)
    for beta >= 1/2: the discrete normal at alpha = dnorm_alpha(beta), whose normaliser
    C = e_q(q) e_q(-q^beta) e_q(-q^(1-beta)) is given by the Jacobi triple product.
    So lattice_probs is dnorm_table of that discrete normal.
    """
    b = _beta_float(beta)
    q = as_qbase(q)
    c = c_fourier(b, q)
    delta = _checked_floor(b, c, q)
    return LimitLaw(
        beta=b,
        q=q,
        sigma=math.sqrt(sigma_limit(b, q)),
        delta=delta,
        c_value=c,
        lattice_probs=dnorm_table(DiscreteNormal(dnorm_alpha(b), q)),
    )
