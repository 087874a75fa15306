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
from dataclasses import dataclass, fields
from functools import cached_property

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


class _CacheOwner:
    """A dataclass whose pickles and copies are rebuilt from its fields by the constructor.

    So they are validated again and start without the cached_property values of the
    original: a cache lives exactly as long as its object.
    """

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class KempBinomial(_CacheOwner):
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
        if type(self.n) is not int or self.n < 0:  # bool is not an n
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

    @cached_property
    def _table(self) -> "PMFTable":
        """kb_table(self), built on first use and kept for the life of this law."""
        return kb_table(self)


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
        if type(self.n) is not int or self.n < 0 or not 0.0 <= self.p <= 1.0:  # bool is not an n
            raise ValueError(f"invalid binomial parameters ({self.n!r}, {self.p!r})")


@dataclass(frozen=True)
class Poisson:
    lam: float

    def __post_init__(self):
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"lambda must be finite and nonnegative, got {self.lam!r}")


@dataclass(frozen=True)
class MomentPair:
    mean: float
    variance: float


# ---------------------------------------------------------------------------
# PMF tables


@dataclass(frozen=True, eq=False)
class PMFTable(_CacheOwner):
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
        if p.flags.writeable:  # the caller may still hold it: copy, so its edits cannot stale _cdf
            p = p.copy()
            p.flags.writeable = False
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

    @cached_property
    def _cdf(self) -> np.ndarray:
        """Read-only cumulative sums of the read-only probs, kept from the first draw."""
        cdf = np.cumsum(self.probs)
        cdf.flags.writeable = False
        return cdf

    @cached_property
    def _cdf_floats(self) -> tuple[float, ...]:
        """_cdf as a tuple of Python floats, built on the first single draw for bisect."""
        return tuple(self._cdf.tolist())

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
    probs.flags.writeable = False  # PMFTable keeps it without a copy
    return PMFTable(offset, probs, 1.0)


# ---------------------------------------------------------------------------
# Kemp q-binomial


def _logits(d: KempBinomial | Heine) -> tuple[float, int, int | float]:
    """(ln m, e, n): d is the sum of n independent Bernoullis with logits t_i = ln m - (e + i) h.

    Here i < n and h = ln(1/q): KB(n, m q^e, q) is (ln m, e, n) and H(theta) is
    (ln theta, 0, inf). At theta = 0 every logit is -inf, so both laws are the sum of
    no Bernoullis, (0, 0, 0): the point mass at 0, which every evaluator gives at n = 0.
    """
    if isinstance(d, Heine):
        m, e, n = d.theta, 0, math.inf
    else:
        m, e, n = d.theta.mantissa, d.theta.exponent, d.n
    return (math.log(m), e, n) if m else (0.0, 0, 0)


def _logit_sum(kind: str, d: KempBinomial | Heine) -> float:
    """sum_{i<n} g(t_i) over d's logits: the mean for g = sigmoid, the variance for dsigmoid.

    Both are exact Bernoulli-sum identities: trial i succeeds with probability
    sigmoid(t_i) = theta q^i / (1 + theta q^i).
    """
    lm, e, n = _logits(d)
    h = -d.q.log
    return _lattice_sum(kind, lm - e * h, h, n)


def kb_log_pmf(d: KempBinomial | Heine, x: int) -> float:
    """ln P(X = x) for KB(n, theta, q) or H(theta) = KB(inf, theta, q); -inf outside {0, ..., n}.

    ln P = ln [n choose x]_q - sum_{i<x} softplus(-t_i) - sum_{x<=i<n} softplus(t_i), two
    lattice sums whose terms are small near the mode, so nothing cancels. The q-binomial
    is ln [n choose x]_q = sum_{n-x<j<=n} ln(1 - q^j) - ln (q; q)_x, whose block of
    ln(1 - q^j) is empty at n = inf.
    """
    lm, e, n = _logits(d)
    if not 0 <= x <= n:
        return -math.inf
    h = -d.q.log
    t = lm - (e + x) * h  # ln(theta q^x), e + x exact
    block = _lattice_sum("log1mexp", (x - n - 1) * h, h, x) if n < math.inf else 0.0
    binom = block - log_qq_factorial(x, d.q)
    return binom - _lattice_sum("softplus", -t - h, h, x) - _lattice_sum("softplus", t, h, n - x)


def kb_pmf(d: KempBinomial, x: int) -> float:
    """P(X = x) for X ~ KB(n, theta, q)."""
    return math.exp(kb_log_pmf(d, x))


def _window(logits: tuple, q: QBase, K: int, from_zero: bool) -> tuple[int, int, int]:
    """(mode, lo, hi) for the logits (ln m, e, n): the window lo..hi is mode +- K clipped to
    {0, ..., n}, or 0..mode + K when from_zero.

    The mode is the first x with l(x) = ln P(x+1)/P(x) <= 0, found by bisection:
    l(x) = t_x + ln(1 - q^(n-x)) - ln(1 - q^(x+1)) lies within c = -ln(1 - q) of
    t_x = lm - (e + x) h, h = ln(1/q), so l > 0 below b and l < 0 from t on.
    """
    lm, e, n = logits
    h, c = -q.log, -math.log1p(-q.value)

    def log_ratio(x: int) -> float:
        return lm - (e + x) * h + math.log(math.expm1((x - n) * h) / math.expm1(-(x + 1) * h))

    b = min(n, max(0, math.floor((lm - c) / h) - e - 1))
    t = min(n, max(0, math.ceil((lm + c) / h) - e + 1))
    mode = b + bisect.bisect_left(range(b, t), True, key=lambda x: log_ratio(x) <= 0.0)
    return mode, 0 if from_zero else max(0, mode - K), min(n, mode + K)


def _logit_rows(triples: list, q: QBase, from_zero: bool = False) -> tuple[list[int], np.ndarray]:
    """The tables of logit triples (ln m, e, n) at one q, as rows: (first x of each row, rows).

    l(x) = ln P(x+1)/P(x) falls by h = ln(1/q) or more per step, and a table's entries
    are sums of l outward from its mode over its window (see _window). Row r holds
    x = first[r], first[r] + 1, ..., and 0.0 off its window: the tables are laid out
    with every mode at one index, so the ratios, both cumulative sums and exp run once
    for all of them, in O(rows K) plus a bisection per row. Each row is divided by the
    sum over its window alone, so it equals the table built from its triple alone, bit
    for bit. With e + x an exact integer, t_x has no cancellation even where theta ~ q^(-n).
    """
    h, K = -q.log, _half_width(q)
    many = len(triples) > 1
    if not many:  # scalars, which broadcast like the columns below at a scalar's cost
        (lm, e, n), (mode, lo, hi) = triples[0], _window(triples[0], q, K, from_zero)
        left, width, first = mode - lo, hi - lo + 1, [lo]
        a, x = lm - (e + lo) * h, np.arange(lo, hi)
    else:  # x runs down the first axis, one column per table
        modes, los, his = zip(*(_window(t, q, K, from_zero) for t in triples))
        left = max(m - lo for m, lo in zip(modes, los))  # the modes' index
        width = left + 1 + max(hi - m for m, hi in zip(modes, his))
        first = [m - left for m in modes]
        a = np.array([lm - (e + lo) * h for (lm, e, _), lo in zip(triples, los)])
        lo, hi, n = np.array(los), np.array(his), np.array([t[2] for t in triples])
        x = np.arange(width)[:, None] + first
        inside = (lo <= x) & (x <= hi)
        # ratios off the windows are zeroed below, and clipping keeps them finite
        x, n = np.clip(x[:-1], lo, np.maximum(hi - 1, lo)), np.maximum(n, 1)
    ratio = np.expm1((x - n) * h)
    ratio /= np.expm1((-1 - x) * h)
    ell = a - h * (x - lo)
    ell += np.log(ratio, out=ratio)
    if many:
        ell *= inside[:-1] & inside[1:]
    logw = np.empty((width,) + ell.shape[1:])
    logw[left] = 0.0
    np.cumsum(ell[left:], axis=0, out=logw[left + 1 :])
    np.cumsum(ell[:left][::-1], axis=0, out=logw[:left][::-1])
    np.negative(logw[:left], out=logw[:left])
    probs = np.exp(logw, out=logw)
    if not many:
        probs /= probs.sum()
        return first, probs[None]
    probs *= inside
    probs = np.ascontiguousarray(probs.T)  # a sum's rounding depends on its length and layout
    sums = [row[b - f : c - f + 1].sum() for row, f, b, c in zip(probs, first, los, his)]
    probs /= np.array(sums)[:, None]
    if not (probs.min() >= 0.0 and np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9):
        raise ValueError("negative, NaN or unnormalised table row")  # PMFTable's checks, per batch
    return first, probs


def _logit_table(d: KempBinomial | Heine, from_zero: bool) -> PMFTable:
    """d's table: the one-row case of _logit_rows."""
    first, probs = _logit_rows([_logits(d)], d.q, from_zero)
    probs = probs[0]
    probs.flags.writeable = False  # PMFTable keeps it without a copy
    return PMFTable(first[0], probs, 1.0)


def kb_table(d: KempBinomial) -> PMFTable:
    """Table on the window mode +- K of {0, ..., n}, in O(K + log n)."""
    return _logit_table(d, from_zero=False)


def kb_moments(d: KempBinomial | Heine) -> MomentPair:
    """Mean and variance of KB(n, theta, q), or of H(theta) = KB(inf, theta, q).

    mean = sum_i theta q^i / (1 + theta q^i), variance replaces the
    denominator by its square; both are exact Bernoulli-sum identities.
    """
    return MomentPair(_logit_sum("sigmoid", d), _logit_sum("dsigmoid", d))


def kb_sample(d: KempBinomial, rng: np.random.Generator, size: int | None = None):
    """Draw from KB(n, theta, q) by inversion of kb_table; deterministic per seed.

    The table is built on d's first draw and kept by d, so later draws cost O(log K):
    see sample_by_inversion. Returns an int for size=None, otherwise an int64 array
    of that length.
    """
    return sample_by_inversion(d._table, rng, size)


# ---------------------------------------------------------------------------
# Heine: KB(inf, theta, q)


def heine_pmf(d: Heine, x: int) -> float:
    """P(X = x) = q^{x(x-1)/2} theta^x / (q,q)_x * e_q(-theta), from kb_log_pmf at n = inf."""
    return math.exp(kb_log_pmf(d, x))


def heine_mean(d: Heine) -> float:
    """Mean of H(theta): sum_{i>=0} theta q^i / (1 + theta q^i), a sigmoid lattice sum."""
    return _logit_sum("sigmoid", d)


def heine_table(d: Heine) -> PMFTable:
    """Table on {0, ..., mode + K}: kb_table's log ratio with n = inf, where ln(1 - q^(n-x)) is 0.

    The window starts at 0 whatever the mode, so offset is always 0.
    """
    return _logit_table(d, from_zero=True)


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
    d, so the omitted tail is 0.0 in binary64. Poisson(0) is the point mass at 0.
    """
    T = 760.0
    last = math.ceil(law.lam + T / 3.0 + math.sqrt(T * T / 9.0 + 2.0 * T * law.lam)) if law.lam else 0
    return _normalised_table(0, np.array([_poisson_log_pmf(law.lam, x) for x in range(last + 1)]))


# ---------------------------------------------------------------------------
# sampling and reflection


def sample_by_inversion(t: PMFTable, rng: np.random.Generator, size: int | None = None):
    """Invert the cumulative sums of a table; deterministic per seed.

    Requires captured_mass >= 1 - 1e-12 so the inversion error stays inside
    the table's own truncation budget. A single draw (size=None) bisects a kept
    tuple of the cumulative sums in pure Python, about 1 us, which the table builds
    on its first single draw (W floats, about 32 W bytes); a batch calls
    np.searchsorted. For u in [0, 1) both find the same index, so a draw depends
    only on its stream position, not on how it is asked for.
    """
    if t.captured_mass < 1.0 - 1e-12:
        raise TableMassError(
            f"table captures only {t.captured_mass}; need >= 1 - 1e-12"
        )
    if size is None:
        i = bisect.bisect_right(t._cdf_floats, rng.random())
        return t.offset + min(i, t.probs.size - 1)
    idx = np.searchsorted(t._cdf, rng.random(size), side="right")
    np.minimum(idx, t.probs.size - 1, out=idx)
    idx += t.offset
    return idx.astype(np.int64, copy=False)


def reflect(t: PMFTable, n: int) -> PMFTable:
    """Table of Y = n - X; the support of t must lie within [0, n]."""
    if t.offset < 0 or t.last > n:
        raise SupportError(
            f"support [{t.offset}, {t.last}] not contained in [0, {n}]"
        )
    return t._moved(n - t.last, t.probs[::-1])  # a view of read-only probs is read-only
