"""Parameter records, pmf/moment evaluation, and exact sampling.

Covers the Kemp q-binomial law KB(n, theta, q), its Heine and discrete-normal
limit laws, and the classical binomial/Poisson reference laws. All pmf work
happens in log space with the q-power exponent carried through ScaledReal, so
the exponential parameter regimes theta ~ q**(-n) evaluate without overflow.

PMFTable is the common currency handed to the metrics engine: a finite lattice
window, its probabilities, and the mass the window captures.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .qcalc import QBase, ScaledReal, _lattice_sum, as_qbase, log_qq_factorial

__all__ = [
    "Binomial",
    "DiscreteNormal",
    "Heine",
    "KempBinomial",
    "MomentPair",
    "PMFTable",
    "Poisson",
    "SupportError",
    "TableMassError",
    "binomial_table",
    "dnorm_pmf",
    "dnorm_table",
    "heine_mean",
    "heine_pmf",
    "heine_table",
    "kb_log_pmf",
    "kb_moments",
    "kb_pmf",
    "kb_sample",
    "kb_table",
    "poisson_table",
    "reference_pmf",
    "reflect",
    "sample_by_inversion",
]


class TableMassError(ValueError):
    """PMFTable leaks too much mass for the requested operation."""


class SupportError(ValueError):
    """Table support violates an operation's precondition."""


# ---------------------------------------------------------------------------
# parameter records


@dataclass(frozen=True)
class KempBinomial:
    """KB(n, theta, q): trial count n >= 0, shape theta >= 0, base q in (0,1).

    theta may be given as a plain float or a ScaledReal; it is stored scaled.
    theta = 0 is admitted as the point mass at 0.
    """

    n: int
    theta: ScaledReal
    q: QBase

    def __post_init__(self):
        q = as_qbase(self.q)
        object.__setattr__(self, "q", q)
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"n must be a nonnegative integer, got {self.n!r}")
        th = self.theta
        if not isinstance(th, ScaledReal):
            th = ScaledReal.from_float(float(th), q)
        elif th.q.value != q.value:
            raise ValueError("theta carries a different q base")
        if th.sign < 0:
            raise ValueError("theta must be nonnegative")
        object.__setattr__(self, "theta", th)

    @property
    def log_theta(self) -> float:
        return self.theta.log_abs()


@dataclass(frozen=True)
class Heine:
    """Heine law H(theta) on {0, 1, ...}, the q-analogue of the Poisson law."""

    theta: float
    q: QBase

    def __post_init__(self):
        object.__setattr__(self, "q", as_qbase(self.q))
        if not 0.0 <= self.theta < math.inf:
            raise ValueError(f"theta must be finite and nonnegative, got {self.theta!r}")


@dataclass(frozen=True)
class DiscreteNormal:
    """Discrete normal on Z: pmf proportional to q**(x*x/2 - x*alpha)."""

    alpha: float
    q: QBase

    def __post_init__(self):
        object.__setattr__(self, "q", as_qbase(self.q))
        if not abs(self.alpha) < 2.0**52:  # keeps round(alpha) - alpha exact
            raise ValueError(f"alpha must satisfy |alpha| < 2**52, got {self.alpha!r}")


@dataclass(frozen=True)
class Binomial:
    n: int
    p: float

    def __post_init__(self):
        if self.n < 0 or not 0.0 <= self.p <= 1.0:
            raise ValueError(f"invalid binomial parameters ({self.n}, {self.p})")


@dataclass(frozen=True)
class Poisson:
    lam: float

    def __post_init__(self):
        if not self.lam >= 0.0:
            raise ValueError(f"lambda must be nonnegative, got {self.lam!r}")


@dataclass(frozen=True)
class MomentPair:
    mean: float
    variance: float


# ---------------------------------------------------------------------------
# PMF tables


@dataclass(frozen=True, eq=False)
class PMFTable:
    """Probabilities on the lattice window offset, offset+1, ...

    captured_mass is the window's total probability. The builders here cut every
    window where the omitted entries are 0.0 in binary64, so their tables capture
    1.0; a table built elsewhere may leak mass, which tv_distance accounts for.
    """

    offset: int
    probs: np.ndarray
    captured_mass: float

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probs must be a nonempty 1-d array")
        if not p.min() >= 0.0:  # also false for a NaN entry
            raise ValueError("negative or NaN probability entry")
        if not 0.0 < self.captured_mass <= 1.0 + 1e-12:
            raise ValueError(f"captured_mass {self.captured_mass!r} outside (0, 1]")
        if not abs(float(p.sum()) - self.captured_mass) <= 1e-9:  # entries >= 0: sum() is exact enough
            raise ValueError("captured_mass inconsistent with table entries")

    def __len__(self) -> int:
        return self.probs.size

    @property
    def last(self) -> int:
        return self.offset + self.probs.size - 1

    def x_values(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + self.probs.size)

    def prob(self, x: int) -> float:
        i = x - self.offset
        if 0 <= i < self.probs.size:
            return float(self.probs[i])
        return 0.0

    def _moved(self, offset: int, probs: np.ndarray) -> "PMFTable":
        """These checked entries, reordered, on a new offset; a move cannot break a check."""
        t = object.__new__(PMFTable)
        t.__dict__.update(offset=offset, probs=probs, captured_mass=self.captured_mass)
        return t

    def shifted(self, k: int) -> "PMFTable":
        """Table of X - k."""
        return self._moved(self.offset - k, self.probs)


def _half_width(q: QBase) -> int:
    """K, the least integer with ln(1/q) K(K-1)/2 >= 760, plus 2: 50 at q = 0.5, 1236 at 0.999.

    Where ln P(x+1)/P(x) falls by ln(1/q) or more per step, P(mode +- k) is at most
    e^(-ln(1/q) k(k-1)/2) P(mode), so every entry past mode +- K is below e^-760 of
    the mode, which is 0.0 in binary64.
    """
    return math.ceil(0.5 + math.sqrt(0.25 + 2.0 * 760.0 / -q.log)) + 2


def _normalised_table(offset: int, logw: np.ndarray) -> PMFTable:
    """Weights e^logw on offset, offset+1, ..., divided by their sum.

    The window must hold every entry that is not 0.0 in binary64, so it captures 1.0.
    """
    probs = np.exp(logw)
    probs /= probs.sum()
    return PMFTable(offset, probs, 1.0)


# ---------------------------------------------------------------------------
# Kemp q-binomial


def kb_log_pmf(d: KempBinomial, x: int) -> float:
    """ln P(X = x); -inf outside the support {0, ..., n}.

    ln P = ln [n choose x]_q - sum_{i<x} softplus(-t_i) - sum_{x<=i<n} softplus(t_i),
    two lattice sums whose terms are small near the mode, so nothing cancels.
    """
    if x < 0 or x > d.n:
        return -math.inf
    if d.theta.is_zero:
        return 0.0 if x == 0 else -math.inf
    n, q, h = d.n, d.q, -d.q.log
    t = math.log(d.theta.mantissa) + (d.theta.exponent + x) * q.log  # ln(theta q^x), e + x exact
    binom = log_qq_factorial(n, q) - log_qq_factorial(x, q) - log_qq_factorial(n - x, q)
    return binom - _lattice_sum("softplus", -t - h, h, x) - _lattice_sum("softplus", t, h, n - x)


def kb_pmf(d: KempBinomial, x: int) -> float:
    """P(X = x) for X ~ KB(n, theta, q)."""
    return math.exp(kb_log_pmf(d, x)) if x >= 0 and x <= d.n else 0.0


def _logit_table(lm: float, e: int, n: int | float, q: QBase, from_zero: bool) -> PMFTable:
    """Table of the sum of independent Bernoullis with logits t_i = lm - (e + i) h, i < n.

    That is KB(n, m q^e, q) with m = e^lm, or with n = inf the Heine law H(m q^e).
    l(x) = ln P(x+1)/P(x) = t_x + ln(1 - q^(n-x)) - ln(1 - q^(x+1)) falls by h = ln(1/q)
    or more per step. The mode, the first x with l(x) <= 0, is found by bisection;
    the entries are sums of l outward from it, on mode +- K clipped to {0, ..., n},
    or on {0, ..., mode + K} when from_zero. With e + x an exact integer, t_x has
    no cancellation even where theta ~ q^(-n).
    """
    h = -q.log

    def log_ratio(x: int) -> float:
        return lm - (e + x) * h + math.log(math.expm1((x - n) * h) / math.expm1(-(x + 1) * h))

    # |l(x) - t_x| <= c = -ln(1 - q), so l > 0 below lo and l < 0 from hi on
    c = -math.log1p(-q.value)
    lo = min(n, max(0, math.floor((lm - c) / h) - e - 1))
    hi = min(n, max(0, math.ceil((lm + c) / h) - e + 1))
    mode = lo + bisect.bisect_left(range(lo, hi), True, key=lambda x: log_ratio(x) <= 0.0)
    K = _half_width(q)
    lo, hi = 0 if from_zero else max(0, mode - K), min(n, mode + K)
    x = np.arange(lo, hi)
    ell = lm - (e + lo) * h - h * (x - lo) + np.log(np.expm1((x - n) * h) / np.expm1(-(x + 1) * h))
    i = mode - lo
    logw = np.empty(ell.size + 1)
    logw[i] = 0.0
    np.cumsum(ell[i:], out=logw[i + 1 :])
    np.cumsum(ell[:i][::-1], out=logw[:i][::-1])
    np.negative(logw[:i], out=logw[:i])
    return _normalised_table(lo, logw)


def kb_table(d: KempBinomial) -> PMFTable:
    """Table on the window mode +- K of {0, ..., n}, in O(K + log n)."""
    if d.theta.is_zero:
        return PMFTable(0, np.array([1.0]), 1.0)
    return _logit_table(math.log(d.theta.mantissa), d.theta.exponent, d.n, d.q, from_zero=False)


def kb_moments(d: KempBinomial) -> MomentPair:
    """Mean and variance of KB(n, theta, q).

    mean = sum_i theta q^i / (1 + theta q^i), variance replaces the
    denominator by its square; both are exact Bernoulli-sum identities.
    """
    if d.theta.is_zero or d.n == 0:
        return MomentPair(0.0, 0.0)
    return MomentPair(_kb_mean(d), _lattice_sum("dsigmoid", d.log_theta, -d.q.log, d.n))


def _kb_mean(d: KempBinomial) -> float:
    """kb_moments(d).mean without the variance sum."""
    if d.theta.is_zero or d.n == 0:
        return 0.0
    return _lattice_sum("sigmoid", d.log_theta, -d.q.log, d.n)


def kb_sample(d: KempBinomial, rng: np.random.Generator, size: int | None = None):
    """Draw from KB(n, theta, q) by inversion of kb_table; deterministic per seed.

    Returns an int for size=None, otherwise an int64 array of that length.
    """
    return sample_by_inversion(kb_table(d), rng, size)


# ---------------------------------------------------------------------------
# Heine


def heine_pmf(d: Heine, x: int) -> float:
    """P(X = x) = q^{x(x-1)/2} theta^x / (q,q)_x * e_q(-theta); 0 for x < 0."""
    if x < 0:
        return 0.0
    if d.theta == 0.0:
        return 1.0 if x == 0 else 0.0
    logp = (
        0.5 * x * (x - 1) * d.q.log
        + x * math.log(d.theta)
        - log_qq_factorial(x, d.q)
        - _lattice_sum("softplus", math.log(d.theta), -d.q.log, math.inf)  # ln e_q(-theta)
    )
    return math.exp(logp)


def heine_mean(d: Heine) -> float:
    """Mean of H(theta): sum_{i>=0} theta q^i / (1 + theta q^i), a sigmoid lattice sum."""
    if d.theta == 0.0:
        return 0.0
    return _lattice_sum("sigmoid", math.log(d.theta), -d.q.log, math.inf)


def heine_table(d: Heine) -> PMFTable:
    """Table on {0, ..., mode + K}: kb_table's log ratio with n = inf, where ln(1 - q^(n-x)) is 0.

    The window starts at 0 whatever the mode, so offset is always 0.
    """
    if d.theta == 0.0:
        return PMFTable(0, np.array([1.0]), 1.0)
    return _logit_table(math.log(d.theta), 0, math.inf, d.q, from_zero=True)


# ---------------------------------------------------------------------------
# discrete normal


def dnorm_table(d: DiscreteNormal) -> PMFTable:
    """Window round(alpha) +- K, weights q^((x - alpha)^2/2) = q^(u^2/2).

    u = k + (round(alpha) - alpha) at x = round(alpha) + k, and round(alpha) - alpha
    is exact, so x^2/2 - x alpha never cancels.
    """
    K = _half_width(d.q)
    u = np.arange(-K, K + 1) + (round(d.alpha) - d.alpha)
    return _normalised_table(round(d.alpha) - K, 0.5 * u * u * d.q.log)


def dnorm_pmf(d: DiscreteNormal, x: int) -> float:
    """P(X = x) on the integer lattice, read from dnorm_table."""
    return dnorm_table(d).prob(x)


# ---------------------------------------------------------------------------
# classical reference laws


def _binomial_log_pmf(n: int, p: float, x: int) -> float:
    if x < 0 or x > n:
        return -math.inf
    if p == 0.0:
        return 0.0 if x == 0 else -math.inf
    if p == 1.0:
        return 0.0 if x == n else -math.inf
    comb = math.lgamma(n + 1) - math.lgamma(x + 1) - math.lgamma(n - x + 1)
    return comb + x * math.log(p) + (n - x) * math.log1p(-p)


def _poisson_log_pmf(lam: float, x: int) -> float:
    if x < 0:
        return -math.inf
    if lam == 0.0:
        return 0.0 if x == 0 else -math.inf
    return -lam + x * math.log(lam) - math.lgamma(x + 1)


def reference_pmf(law, x: int) -> float:
    """pmf of a classical reference law (Binomial or Poisson), log-space."""
    if isinstance(law, Binomial):
        return math.exp(_binomial_log_pmf(law.n, law.p, x))
    if isinstance(law, Poisson):
        return math.exp(_poisson_log_pmf(law.lam, x))
    raise TypeError(f"not a reference law: {law!r}")


def binomial_table(law: Binomial) -> PMFTable:
    """Table on the whole support {0, ..., n}."""
    return _normalised_table(0, np.array([_binomial_log_pmf(law.n, law.p, x) for x in range(law.n + 1)]))


def poisson_table(law: Poisson) -> PMFTable:
    """Table on {0, ..., X}, X = ceil(lam + d) with d = T/3 + sqrt(T^2/9 + 2 T lam), T = 760.

    Bernstein's bound P(X >= lam + d) <= exp(-d^2 / (2 (lam + d/3))) is e^-760 at that
    d, so the omitted tail is 0.0 in binary64.
    """
    T = 760.0
    last = math.ceil(law.lam + T / 3.0 + math.sqrt(T * T / 9.0 + 2.0 * T * law.lam))
    return _normalised_table(0, np.array([_poisson_log_pmf(law.lam, x) for x in range(last + 1)]))


# ---------------------------------------------------------------------------
# sampling and reflection


def sample_by_inversion(t: PMFTable, rng: np.random.Generator, size: int | None = None):
    """Invert the cumulative sums of a table; deterministic per seed.

    Requires captured_mass >= 1 - 1e-12 so the inversion error stays inside
    the table's own truncation budget.
    """
    if t.captured_mass < 1.0 - 1e-12:
        raise TableMassError(
            f"table captures only {t.captured_mass}; need >= 1 - 1e-12"
        )
    cdf = np.cumsum(t.probs)
    if size is None:
        i = int(np.searchsorted(cdf, rng.random(), side="right"))
        return t.offset + min(i, t.probs.size - 1)
    idx = np.searchsorted(cdf, rng.random(size), side="right")
    return t.offset + np.minimum(idx, t.probs.size - 1).astype(np.int64)


def reflect(t: PMFTable, n: int) -> PMFTable:
    """Table of Y = n - X; the support of t must lie within [0, n]."""
    if t.offset < 0 or t.last > n:
        raise SupportError(
            f"support [{t.offset}, {t.last}] not contained in [0, {n}]"
        )
    return t._moved(n - t.last, t.probs[::-1].copy())
