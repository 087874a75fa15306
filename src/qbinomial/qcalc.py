"""Numerically robust q-calculus primitives.

q-Pochhammer symbols (finite and infinite), ln (q; q)_n, q-numbers and the
two q-exponentials, plus a scaled number representation
(mantissa times an exact integer power of q) so that shape parameters like
theta = q**(-n - f(n)) stay representable far beyond binary64 range.

The base q always lies strictly inside (0, 1); the q -> 0 and q -> 1 regimes
are probed by evaluating at q = eps or q = 1 - eps, never at the endpoints.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "PoleError",
    "QBase",
    "ScaledReal",
    "E_q",
    "e_q",
    "log_qq_factorial",
    "q_number",
    "q_pochhammer",
    "q_pochhammer_inf",
]


class PoleError(ValueError):
    """Argument of e_q sits within 1e-12 of a pole q**(-i)."""


@dataclass(frozen=True)
class QBase:
    """Base of the q-deformation, restricted to the open interval (0, 1)."""

    value: float

    def __post_init__(self) -> None:
        v = float(self.value)
        if not math.isfinite(v) or not 0.0 < v < 1.0:
            raise ValueError(f"q must lie strictly inside (0, 1), got {self.value!r}")
        object.__setattr__(self, "value", v)

    @cached_property
    def log(self) -> float:
        """Natural log of q; always negative."""
        return math.log(self.value)

    def pow(self, x: float) -> float:
        """q**x for real x via exp(x log q); underflows gracefully to 0."""
        t = x * self.log
        if t < -745.0:
            return 0.0
        return math.exp(t)


def as_qbase(q) -> QBase:
    return q if isinstance(q, QBase) else QBase(float(q))


# The lattice-sum kernel. Terms with |t| < _DIRECT_T are summed directly. Each
# kind g has g(t) = sum_k c_k e^{kt} for t < 0, and sigmoid(t) = 1 - sigmoid(-t),
# dsigmoid(t) = dsigmoid(-t), softplus(t) = t + softplus(-t), so one series
# closes both saturated ends; it stops once e^{kt} has fallen by e^-_SERIES_DECAY.
_DIRECT_T = 1.0
_SERIES_DECAY = 45.0
_K = np.arange(1.0, 2.0 + math.ceil(_SERIES_DECAY / _DIRECT_T))
_ALT = np.where(_K % 2, 1.0, -1.0)
_KINDS = {  # kind: (g, c_k)
    "sigmoid": (lambda t: 1.0 / (1.0 + np.exp(-t)), _ALT),
    "dsigmoid": (lambda t: 0.25 / np.cosh(0.5 * t) ** 2, _ALT * _K),
    "softplus": (lambda t: np.log1p(np.exp(t)), _ALT / _K),
    "log1mexp": (lambda t: np.log(-np.expm1(t)), -1.0 / _K),
}


@lru_cache(maxsize=64)
def _one_minus_q_pow(h: float) -> np.ndarray:
    """1 - e^(-k h) for k in _K, read-only; a sweep's rows share one h."""
    out = -np.expm1(_K * -h)
    out.flags.writeable = False
    return out


def _fold(M: int, x: float, E: int, h: float) -> float:
    """M x - E h, exact before its one rounding (int / int rounds correctly)."""
    (a, b), (c, d) = x.as_integer_ratio(), h.as_integer_ratio()
    return (M * a * d - E * c * b) / (b * d)


def _lattice_sum(kind: str, a: float, h: float, n) -> float:
    """sum_{i<n} g(a - i h) for h > 0 and n a nonnegative int or math.inf.

    g is sigmoid(t) = 1/(1 + e^-t), dsigmoid = sigmoid (1 - sigmoid),
    softplus(t) = ln(1 + e^t) or log1mexp(t) = ln(1 - e^t) (needs a < 0).
    With T = _DIRECT_T, the block t <= -T is closed with g's series, each
    term summed over the block as a geometric series (for sigmoid, Euler's
    sum_l (-1)^(l-1) x^l / (1 - q^l)); by g's symmetry the block t >= T is a
    base plus that sum over the mirrored block. The cost is O(1/h) for any n.
    """
    direct, coef = _KINDS[kind]
    # t >= T for i < iu, t <= -T for i >= il
    iu = 0 if a < _DIRECT_T else min(n, math.floor((a - _DIRECT_T) / h) + 1)
    il = min(n, max(iu, math.ceil((a + _DIRECT_T) / h)))
    parts = direct(a - np.arange(iu, il) * h).tolist() if il > iu else []
    if iu:
        mirror = _lattice_sum(kind, (iu - 1) * h - a, h, iu)  # sum of g(-t) over the block
        if kind == "sigmoid":
            parts += [float(iu), -mirror]
        elif kind == "softplus":  # the block's sum of t, exact before its one rounding
            parts += [_fold(iu, a, iu * (iu - 1) // 2, h), mirror]
        else:
            parts.append(mirror)
    if il < n:
        t0, count = a - il * h, n - il
        k = _K[: 1 + math.ceil(_SERIES_DECAY / -t0)]
        terms = coef[: k.size] * np.exp(k * t0) / _one_minus_q_pow(h)[: k.size]
        if count * h < _SERIES_DECAY:  # else 1 - e^{-k h count} rounds to 1
            terms *= -np.expm1(k * (-h * count))
        parts += terms.tolist()
    return math.fsum(parts)


_LOG_MAX = math.log(sys.float_info.max) + 1e-12  # ScaledReal.to_float's overflow cut


@dataclass(frozen=True)
class ScaledReal:
    """sign * mantissa * q**exponent with mantissa normalized into [1, 1/q).

    The integer exponent absorbs the whole dynamic range, so products like
    theta * q**(-n) never overflow. Zero is canonically (sign=1, mantissa=0,
    exponent=0). Mixed-base arithmetic is rejected.
    """

    sign: int
    mantissa: float
    exponent: int
    q: QBase

    # -- construction ------------------------------------------------------

    @classmethod
    def _make(cls, sign: int, m: float, e: int, q: QBase) -> "ScaledReal":
        if m == 0.0:
            return cls(1, 0.0, 0, q)
        if not math.isfinite(m):
            raise ValueError(f"non-finite mantissa {m!r}")
        if m < 0.0:
            sign, m = -sign, -m
        qv, lq = q.value, q.log
        inv = 1.0 / qv
        if not 1.0 <= m < inv:
            shift = math.ceil(math.log(m) / lq)  # bring m*q**-shift into [1, 1/q)
            if shift:
                if abs(shift * lq) < 600.0:
                    m *= qv**-shift
                else:
                    # two in-range pow steps; exp(log m - shift*lq) would cost ~1e-13
                    half = shift // 2
                    m = (m * qv**-half) * qv ** -(shift - half)
                e += shift
        while m >= inv:
            m *= qv
            e -= 1
        while m < 1.0:
            m *= inv
            e += 1
        return cls(sign, m, e, q)

    @classmethod
    def from_float(cls, x: float, q) -> "ScaledReal":
        return cls._make(1, float(x), 0, as_qbase(q))

    @classmethod
    def from_q_power(cls, p: float, q) -> "ScaledReal":
        """The value q**p for real p, exactly scaled (exponent = ceil(p))."""
        q = as_qbase(q)
        e = math.ceil(p)
        return cls._make(1, q.pow(p - e), e, q)

    @classmethod
    def from_log(cls, sign: int, log_value: float, q) -> "ScaledReal":
        """sign * exp(log_value), renormalized; log_value = -inf gives zero."""
        q = as_qbase(q)
        if log_value == -math.inf:
            return cls(1, 0.0, 0, q)
        e = math.ceil(log_value / q.log)
        return cls._make(sign, math.exp(log_value - e * q.log), e, q)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.mantissa == 0.0

    def log_abs(self) -> float:
        """ln |value|; -inf for zero."""
        if self.is_zero:
            return -math.inf
        return math.log(self.mantissa) + self.exponent * self.q.log

    def to_float(self) -> float:
        """Nearest binary64 value; +-inf above DBL_MAX, 0 on underflow.

        The top two floats below DBL_MAX can still round to +-inf.
        """
        if self.is_zero:
            return 0.0
        t = self.log_abs()
        if t < -745.0:
            return 0.0
        if t <= _LOG_MAX:  # the slack covers log_abs's rounding
            try:
                return self.sign * self.mantissa * self.q.value ** self.exponent
            except OverflowError:  # q**exponent alone is past DBL_MAX
                pass
        return math.inf if self.sign > 0 else -math.inf

    # -- arithmetic ---------------------------------------------------------

    def q_shift(self, k: int) -> "ScaledReal":
        """Multiply by q**k exactly (integer k)."""
        if self.is_zero:
            return self
        return ScaledReal(self.sign, self.mantissa, self.exponent + k, self.q)

    def __mul__(self, other) -> "ScaledReal":
        if not isinstance(other, ScaledReal):
            other = ScaledReal.from_float(float(other), self.q)
        elif other.q.value != self.q.value:
            raise ValueError("mixed q bases in ScaledReal arithmetic")
        if self.is_zero or other.is_zero:
            return ScaledReal(1, 0.0, 0, self.q)
        return self._make(
            self.sign * other.sign,
            self.mantissa * other.mantissa,
            self.exponent + other.exponent,
            self.q,
        )

    __rmul__ = __mul__


def _log_pochhammer(z, q: QBase, n=math.inf, guard: float | None = None):
    """ln|(z; q)_n| = head + E ln q + fsum(sums), returned as (sign, E, head, sums).

    z = +-m q^e is a float (m = |z|, e = 0) or a ScaledReal on base q. With
    h = ln(1/q) and t_i = ln m - (e + i) h, the M factors with t_i >= 0 are
    e^(t_i) (e^(-t_i) -+ 1): they give q^E with the exact integer
    E = M e + M(M-1)/2, the head M ln m (the pair (M, ln m), so exact) and a lattice sum of
    g(-t_i). The other factors give a lattice sum of g(t_i); g is softplus for
    z < 0 and log1mexp for z > 0. A zero factor gives sign 0 and sums [-inf];
    guard raises PoleError when a factor is within guard of zero.
    """
    if isinstance(z, ScaledReal):
        if z.q.value != q.value:
            raise ValueError("ScaledReal argument carries a different q base")
        s, m, e = z.sign, z.mantissa, z.exponent
    else:
        s, m, e = (1 if z > 0.0 else -1), abs(float(z)), 0
    if m == 0.0 or n == 0:
        return 1, 0, (0, 0.0), []
    h, lm = -q.log, math.log(m)
    M = min(n, max(0, math.floor(lm / h) - e + 1))  # factors i < M have t_i >= 0
    t_head, t_tail = lm - (e + M - 1) * h, lm - (e + M) * h  # the two nearest zero
    if s > 0:
        near = [t for t, used in ((t_head, M > 0), (t_tail, M < n)) if used]
        if guard is not None and min(abs(math.expm1(t)) for t in near) < guard:
            raise PoleError(f"argument z={z!r} within {guard} of a pole q**-i")
        if (M and t_head <= 0.0) or (M < n and t_tail >= 0.0):  # zero up to rounding
            return 0, 0, (0, 0.0), [-math.inf]
    kind = "log1mexp" if s > 0 else "softplus"
    sums = [_lattice_sum(kind, t_tail, h, n - M)]
    if not M:
        return 1, 0, (0, 0.0), sums
    sums.append(_lattice_sum(kind, -t_head, h, M))
    return -1 if s > 0 and M % 2 else 1, M * e + M * (M - 1) // 2, (M, lm), sums


def q_pochhammer(z, q, n: int) -> ScaledReal:
    """Finite q-shifted factorial (z; q)_n = prod_{i=0}^{n-1} (1 - z q^i).

    z may be a float or a ScaledReal; the result carries the exact q-power
    q^E of the factors above one, so e.g. (-theta*q**-n; q)_n stays
    representable and E adds no rounding.
    """
    q = as_qbase(q)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    sign, E, head, sums = _log_pochhammer(z, q, n)
    return ScaledReal.from_log(sign, math.fsum([_fold(*head, 0, -q.log), *sums]), q).q_shift(E)


def q_pochhammer_inf(z: float, q) -> float:
    """Infinite product (z; q)_inf, exp of its log from lattice sums."""
    q = as_qbase(q)
    sign, E, head, sums = _log_pochhammer(float(z), q)
    return sign * math.exp(math.fsum([_fold(*head, E, -q.log), *sums]))


def e_q(z: float, q) -> float:
    """Small q-exponential e_q(z) = 1 / (z; q)_inf.

    Raises PoleError when some factor |1 - z q^i| falls below 1e-12, i.e.
    when z approaches a pole q**(-i).
    """
    q = as_qbase(q)
    sign, E, head, sums = _log_pochhammer(float(z), q, guard=1e-12)
    return sign * math.exp(-math.fsum([_fold(*head, E, -q.log), *sums]))


def E_q(z: float, q) -> float:
    """Large q-exponential E_q(z) = (-z; q)_inf; satisfies e_q(z)E_q(-z) = 1."""
    return q_pochhammer_inf(-float(z), q)


def log_qq_factorial(n: int, q) -> float:
    """ln (q; q)_n = sum_{i=1}^{n} ln(1 - q^i), a log1mexp lattice sum."""
    q = as_qbase(q)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return _lattice_sum("log1mexp", q.log, -q.log, n)


def q_number(x: float, q) -> float:
    """The q-number [x]_q = (1 - q^x) / (1 - q); tends to x as q -> 1."""
    q = as_qbase(q)
    return -math.expm1(x * q.log) / (1.0 - q.value)
