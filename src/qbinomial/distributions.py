"""Parameter records, pmf/moment evaluation, and exact sampling.

Covers the Kemp q-binomial law KB(n, theta, q), its Heine and discrete-normal
limit laws, and the classical binomial/Poisson reference laws. All pmf work
happens in log space from theta = m q^e read as (ln m, e), with the integer e
carried exactly through ScaledReal, so the exponential parameter regimes
theta ~ q**(-n) evaluate without overflow.

PMFTable is the common currency handed to the metrics engine: a finite lattice
window and its probabilities, which hold all of the law's mass.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from operator import neg

import numpy as np

from .qcalc import QBase, ScaledReal, _CacheOwner, _lattice_parts, _lattice_sums, as_qbase

__all__ = [
    "Binomial",
    "DiscreteNormal",
    "Heine",
    "KempBinomial",
    "MomentPair",
    "PMFTable",
    "Poisson",
    "SupportError",
    "binomial_table",
    "dnorm_table",
    "heine_mean",
    "heine_table",
    "kb_log_pmf",
    "kb_moments",
    "kb_pmf",
    "kb_sample",
    "kb_table",
    "poisson_table",
    "reflect",
    "sample_by_inversion",
]


class SupportError(ValueError):
    """Table support violates an operation's precondition."""


# ---------------------------------------------------------------------------
# parameter records


@dataclass(frozen=True)
class KempBinomial(_CacheOwner):
    """KB(n, theta, q): trial count n >= 0, shape theta >= 0, base q in (0,1).

    n = math.inf is the Heine law H(theta). theta may be given as a finite float, stored as
    ScaledReal.from_float(theta) without a rounding, or as a ScaledReal m q^e, kept as given.
    theta = 0 is admitted as the point mass at 0.
    """

    n: int | float
    theta: ScaledReal
    q: QBase

    def __post_init__(self):
        q = as_qbase(self.q)
        object.__setattr__(self, "q", q)
        if not (type(self.n) is int and self.n >= 0 or self.n == math.inf):  # bool is not an n
            raise ValueError(f"n must be a nonnegative integer or inf, got {self.n!r}")
        th = self.theta
        if not isinstance(th, ScaledReal):
            if not 0.0 <= float(th) < math.inf:
                raise ValueError(f"theta must be finite and nonnegative, got {th!r}")
            th = ScaledReal.from_float(th, q)
        elif th.q.value != q.value:
            raise ValueError("theta carries a different q base")
        if th.sign < 0:
            raise ValueError("theta must be nonnegative")
        object.__setattr__(self, "theta", th)

    @cached_property
    def _table(self) -> "PMFTable":
        """kb_table(self), built on first use and kept for the life of this law."""
        return kb_table(self)


def Heine(theta, q) -> KempBinomial:
    """Heine law H(theta) on {0, 1, ...}, the q-analogue of the Poisson law: KB(inf, theta, q).

    theta is a float or a ScaledReal, kept as given, as KempBinomial keeps it.
    """
    return KempBinomial(math.inf, theta, q)


@dataclass(frozen=True)
class DiscreteNormal:
    """Discrete normal on Z: pmf proportional to q**(x*x/2 - x*alpha), the law of X - Y for
    independent X ~ H(q^(1/2 - alpha)) and Y ~ H(q^(1/2 + alpha)) (Kemp 1997)."""

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
    """Probabilities on the lattice window offset, offset+1, ..., which sum to 1.

    The builders here cut every window where the omitted entries are 0.0 in binary64,
    so a table holds all of its law's mass.
    """

    offset: int
    probs: np.ndarray
    # every table holds all its mass; kept as a constant, not a field, because the
    # benchmark's check_heine_table (perfbench/workloads.py) still reads it
    captured_mass = 1.0

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
        if not abs(float(p.sum()) - 1.0) <= 1e-9:  # entries >= 0: sum() is exact enough
            raise ValueError(f"probability entries sum to {float(p.sum())!r}, not 1")

    def __len__(self) -> int:
        return self.probs.size

    @property
    def last(self) -> int:
        return self.offset + self.probs.size - 1

    @cached_property
    def _cdf(self) -> np.ndarray:
        """Read-only cumulative sums of probs[:-1], kept from the first draw: a u past them all draws the last entry."""
        cdf = np.cumsum(self.probs[:-1])
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


_CUT = 760.0  # a table omits only entries, or tail mass, below e^-_CUT: 0.0 in binary64


def _half_width(q: QBase) -> int:
    """K, the least integer with ln(1/q) K(K-1)/2 >= _CUT, plus 2: 50 at q = 0.5, 1236 at 0.999.

    Where ln P(x+1)/P(x) falls by ln(1/q) or more per step, P(mode +- k) is at most
    e^(-ln(1/q) k(k-1)/2) P(mode), so every entry past mode +- K is below e^-_CUT of it.
    """
    return math.ceil(0.5 + math.sqrt(0.25 + 2.0 * _CUT / -q.log)) + 2


def _normalised_table(offset: int, logw: np.ndarray) -> PMFTable:
    """Weights e^logw on offset, offset+1, ..., divided by their sum.

    The window must hold every entry that is not 0.0 in binary64, so no mass is lost.
    """
    probs = np.exp(logw)
    probs /= probs.sum()
    probs.flags.writeable = False  # PMFTable keeps it without a copy
    return PMFTable(offset, probs)


# ---------------------------------------------------------------------------
# Kemp q-binomial


def _logits(d: KempBinomial) -> tuple[float, int, int | float]:
    """(ln m, e, n): d is the sum of n independent Bernoullis with logits t_i = ln m - (e + i) h.

    Here i < n and h = ln(1/q): KB(n, m q^e, q) is (ln m, e, n), and H(theta) is the same
    with n = inf. At theta = 0 every logit is -inf, so the law is the sum of no
    Bernoullis, (0, 0, 0): the point mass at 0, which every evaluator gives at n = 0.
    """
    m, e, n = d.theta.mantissa, d.theta.exponent, d.n
    return (math.log(m), e, n) if m else (0.0, 0, 0)


def _logit_sums(kinds: tuple, laws: list) -> list[list[float]]:
    """For each kind g, sum_{i<n} g(t_i) over each law's logits, in one kernel call; one q for all.

    g = sigmoid gives the mean and dsigmoid the variance, both exact Bernoulli-sum
    identities: trial i succeeds with probability sigmoid(t_i) = theta q^i / (1 + theta q^i).
    """
    h = -laws[0].q.log
    return _lattice_sums(kinds, [(lm - e * h, n) for lm, e, n in map(_logits, laws)], h)


def kb_log_pmf(d: KempBinomial, x: int) -> float:
    """ln P(X = x) for KB(n, theta, q) or H(theta) = KB(inf, theta, q); -inf outside {0, ..., n}.

    ln P = ln [n choose x]_q - sum_{i<x} softplus(-t_i) - sum_{x<=i<n} softplus(t_i), with
    ln [n choose x]_q = ln [n choose m]_q = sum_{n-m<j<=n} ln(1 - q^j) - ln (q; q)_m,
    m = min(x, n - x), whose block of ln(1 - q^j) is empty at n = inf. Near q = 1 these
    sums are O(1/ln(1/q)) and nearly cancel, so ln P is their parts rounded once.
    """
    lm, e, n = _logits(d)
    if not 0 <= x <= n:
        return -math.inf
    h, m = -d.q.log, min(x, n - x)
    t = lm - (e + x) * h  # ln(theta q^x), e + x exact
    # the parts of -ln P: ln (q; q)_m, the two softplus sums, and minus the block
    parts = _lattice_parts(("log1mexp",), [(-h, m)], h)[0][0]
    parts += _lattice_parts(("softplus",), [(-t - h, x)], h)[0][0]
    parts += _lattice_parts(("softplus",), [(t, n - x)], h)[0][0]
    if (m - n - 1) * h > -746.0:  # below, every term of the block is e^-746 or less: 0.0 in binary64
        parts += map(neg, _lattice_parts(("log1mexp",), [((m - n - 1) * h, m)], h)[0][0])
    return -math.fsum(parts)


def kb_pmf(d: KempBinomial, x: int) -> float:
    """P(X = x) for X ~ KB(n, theta, q) or H(theta) = KB(inf, theta, q)."""
    return math.exp(kb_log_pmf(d, x))


def _window(logits: tuple, q: QBase, K: int) -> tuple[int, int, int]:
    """(mode, lo, hi) for the logits (ln m, e, n): the window lo..hi is mode +- K clipped to
    {0, ..., n}, for a Heine law (n = inf) as for any KB law.

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
    return mode, max(0, mode - K), min(n, mode + K)


def _log_ratios(x, a, lo, n, h: float) -> np.ndarray:
    """KB's l(x) = ln P(x+1)/P(x) = t_x + ln(1 - q^(n-x)) - ln(1 - q^(x+1)), h = ln(1/q).

    a = t_lo = ln m - (e + lo) h, so t_x = a - (x - lo) h keeps e + x an exact integer
    and has no cancellation even where theta ~ q^(-n). Arrays broadcast elementwise.
    """
    ratio = np.expm1((x - n) * h)
    ratio /= np.expm1((-1 - x) * h)
    ell = a - h * (x - lo)
    ell += np.log(ratio, out=ratio)
    return ell


def _outward(ell: np.ndarray, mode: int) -> np.ndarray:
    """ln P(x)/P(mode) along axis 0 from the log ratios ell(x) = ln P(x+1)/P(x).

    Index mode is 0.0, and both cumulative sums run outward from it, so terms near the
    mode, which are small, come first.
    """
    logw = np.empty((ell.shape[0] + 1,) + ell.shape[1:])
    logw[mode] = 0.0
    np.cumsum(ell[mode:], axis=0, out=logw[mode + 1 :])
    np.cumsum(ell[:mode][::-1], axis=0, out=logw[:mode][::-1])
    np.negative(logw[:mode], out=logw[:mode])
    return logw


def _logit_rows(triples: list, q: QBase) -> tuple[list[int], np.ndarray]:
    """The tables of logit triples (ln m, e, n) at one q, as rows: (first x of each row, rows).

    Row r holds x = first[r], first[r] + 1, ..., and 0.0 off its window: the tables are
    laid out with every mode at one index, so the ratios, both cumulative sums and exp
    run once for all of them, in O(rows K) plus a bisection per row. Each row is divided
    by the sum over its window alone, so it equals kb_table of its law, bit for bit.
    """
    h, K = -q.log, _half_width(q)
    modes, los, his = zip(*(_window(t, q, K) for t in triples))
    left = max(m - lo for m, lo in zip(modes, los))  # the modes' index
    width = left + 1 + max(hi - m for m, hi in zip(modes, his))
    first = [m - left for m in modes]
    a = np.array([lm - (e + lo) * h for (lm, e, _), lo in zip(triples, los)])
    lo, hi, n = np.array(los), np.array(his), np.array([t[2] for t in triples])
    x = np.arange(width)[:, None] + first  # x runs down the first axis, one column per table
    inside = (lo <= x) & (x <= hi)
    # ratios off the windows are zeroed below, and clipping keeps them finite
    x, n = np.clip(x[:-1], lo, np.maximum(hi - 1, lo)), np.maximum(n, 1)
    ell = _log_ratios(x, a, lo, n, h)
    ell *= inside[:-1] & inside[1:]
    probs = _outward(ell, left)
    np.exp(probs, out=probs)
    probs *= inside
    probs = np.ascontiguousarray(probs.T)  # a sum's rounding depends on its length and layout
    sums = [row[b - f : c - f + 1].sum() for row, f, b, c in zip(probs, first, los, his)]
    probs /= np.array(sums)[:, None]
    if not (probs.min() >= 0.0 and np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9):
        raise ValueError("negative, NaN or unnormalised table row")  # PMFTable's checks, per batch
    return first, probs


def kb_table(d: KempBinomial) -> PMFTable:
    """Table on the window mode +- K of {0, ..., n} in O(K + log n), n = inf for a Heine law:
    l(x) summed outward from the mode (see _window)."""
    (lm, e, n), h = _logits(d), -d.q.log
    mode, lo, hi = _window((lm, e, n), d.q, _half_width(d.q))
    ell = _log_ratios(np.arange(lo, hi), lm - (e + lo) * h, lo, n, h)
    return _normalised_table(lo, _outward(ell, mode - lo))


def kb_moments(d: KempBinomial) -> MomentPair:
    """Mean and variance of KB(n, theta, q), or of H(theta) = KB(inf, theta, q).

    mean = sum_i theta q^i / (1 + theta q^i), variance replaces the
    denominator by its square; both are exact Bernoulli-sum identities.
    """
    (mean,), (variance,) = _logit_sums(("sigmoid", "dsigmoid"), [d])
    return MomentPair(mean, variance)


def kb_sample(d: KempBinomial, rng: np.random.Generator, size: int | None = None):
    """Draw from KB(n, theta, q) by inversion of kb_table; deterministic per seed.

    The table is built on d's first draw and kept by d, so later draws cost O(log K):
    see sample_by_inversion. Returns an int for size=None, otherwise an int64 array
    of that length.
    """
    return sample_by_inversion(d._table, rng, size)


# ---------------------------------------------------------------------------
# Heine: KB(inf, theta, q)


def heine_mean(d: KempBinomial) -> float:
    """Mean of H(theta): sum_{i>=0} theta q^i / (1 + theta q^i), a sigmoid lattice sum."""
    return _logit_sums(("sigmoid",), [d])[0][0]


def heine_table(d: KempBinomial) -> PMFTable:
    """Table of H(theta) = KB(inf, theta, q), theta a float or a ScaledReal, on {0, ..., mode + K}.

    kb_table's window mode +- K, with the entries below mode - K, which are 0.0, put in
    front, so offset is always 0: perfbench's check_heine_table reads index i as x = i
    (ROADMAP item 1).
    """
    t = kb_table(d)
    return PMFTable(0, np.concatenate((np.zeros(t.offset), t.probs))) if t.offset else t


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


# ---------------------------------------------------------------------------
# classical reference laws


def _bernstein_table(mean: float, var: float, last: int | float, log_ratios) -> PMFTable:
    """Table of a log-concave law on {0, ..., last} from its mean, variance and log ratios.

    The window is mean +- d clipped to the support, d = T/3 + sqrt(T^2/9 + 2 T var) with
    T = _CUT: Bernstein's bound P(|X - mean| >= d) <= 2 exp(-d^2 / (2 (var + d/3))) holds
    for a sum of independent trials with values in [0, 1] and for its Poisson limit, and
    is 2 e^-_CUT at that d, so the omitted tails are 0.0 in binary64. log_ratios(x) is
    ln P(x+1)/P(x) on the window, which decreases, so the mode is the first x where it
    is <= 0. A law with no variance is the point mass at its mean.
    """
    if not var:
        return _normalised_table(round(mean), np.zeros(1))
    d = _CUT / 3.0 + math.sqrt(_CUT * _CUT / 9.0 + 2.0 * _CUT * var)
    lo, hi = max(0, math.floor(mean - d)), min(last, math.ceil(mean + d))
    ell = log_ratios(np.arange(lo, hi))
    return _normalised_table(lo, _outward(ell, int(np.count_nonzero(ell > 0.0))))


def binomial_table(law: Binomial) -> PMFTable:
    """Bernstein window of Binomial(n, p): l(x) = ln(p/(1-p)) + ln((n-x)/(x+1))."""
    n, p = law.n, law.p
    return _bernstein_table(
        n * p, n * p * (1.0 - p), n,
        lambda x: np.log((n - x) / (x + 1)) + (math.log(p) - math.log1p(-p)),  # called only if 0 < p < 1
    )


def poisson_table(law: Poisson) -> PMFTable:
    """Bernstein window of Poisson(lam): l(x) = ln(lam/(x+1)). Poisson(0) is the point mass at 0."""
    lam = law.lam

    def log_ratios(x):
        with np.errstate(divide="ignore"):  # lam / (x + 1) underflows to 0 far out when lam <= 1e-322
            return np.log(lam / (x + 1))

    return _bernstein_table(lam, lam, math.inf, log_ratios)


# ---------------------------------------------------------------------------
# sampling and reflection


def sample_by_inversion(t: PMFTable, rng: np.random.Generator, size: int | None = None):
    """Invert the cumulative sums of a table; deterministic per seed.

    A single draw (size=None) bisects a kept tuple of the cumulative sums in pure
    Python, about 1 us, which the table builds on its first single draw (W - 1 floats,
    about 32 W bytes); a batch calls np.searchsorted. For u in [0, 1) both find the
    same index, so a draw depends only on its stream position, not on how it is
    asked for.
    """
    if size is None:
        return t.offset + bisect.bisect_right(t._cdf_floats, rng.random())
    idx = np.searchsorted(t._cdf, rng.random(size), side="right")
    idx += t.offset
    return idx.astype(np.int64, copy=False)


def reflect(t: PMFTable, n: int) -> PMFTable:
    """Table of Y = n - X; the support of t must lie within [0, n]."""
    if t.offset < 0 or t.last > n:
        raise SupportError(
            f"support [{t.offset}, {t.last}] not contained in [0, {n}]"
        )
    return PMFTable(n - t.last, t.probs[::-1])  # kept as a read-only view, not copied
