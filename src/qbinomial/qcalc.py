"""Numerically robust q-calculus primitives.

q-Pochhammer symbols (finite and infinite), Gaussian binomial coefficients,
q-numbers and the two q-exponentials, plus a scaled number representation
(mantissa times an exact integer power of q) so that shape parameters like
theta = q**(-n - f(n)) stay representable far beyond binary64 range.

The base q always lies strictly inside (0, 1); the q -> 0 and q -> 1 regimes
are probed by evaluating at q = eps or q = 1 - eps, never at the endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

__all__ = [
    "PoleError",
    "QBase",
    "ScaledReal",
    "E_q",
    "e_q",
    "log_qq_factorial",
    "q_binomial",
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


def np_sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    z = np.exp(t[~pos])
    out[~pos] = z / (1.0 + z)
    return out


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
            parts += [float(iu * Fraction(a) - iu * (iu - 1) // 2 * Fraction(h)), mirror]
        else:
            parts.append(mirror)
    if il < n:
        t0, count = a - il * h, n - il
        k = _K[: 1 + math.ceil(_SERIES_DECAY / -t0)]
        terms = coef[: k.size] * np.exp(k * t0) / -np.expm1(k * -h)
        if count * h < _SERIES_DECAY:  # else 1 - e^{-k h count} rounds to 1
            terms *= -np.expm1(k * (-h * count))
        parts += terms.tolist()
    return math.fsum(parts)


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
        q = as_qbase(q)
        if x == 0.0:
            return cls(1, 0.0, 0, q)
        return cls._make(1, float(x), 0, q)

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

    @classmethod
    def zero(cls, q) -> "ScaledReal":
        return cls(1, 0.0, 0, as_qbase(q))

    @classmethod
    def one(cls, q) -> "ScaledReal":
        return cls(1, 1.0, 0, as_qbase(q))

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
        """Nearest binary64 value; +-inf on overflow, 0 on underflow."""
        if self.is_zero:
            return 0.0
        t = self.log_abs()
        if t > 709.0:
            return math.inf if self.sign > 0 else -math.inf
        if t < -745.0:
            return 0.0
        return self.sign * self.mantissa * self.q.value ** self.exponent

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "ScaledReal":
        if isinstance(other, ScaledReal):
            if other.q.value != self.q.value:
                raise ValueError("mixed q bases in ScaledReal arithmetic")
            return other
        return ScaledReal.from_float(float(other), self.q)

    def q_shift(self, k: int) -> "ScaledReal":
        """Multiply by q**k exactly (integer k)."""
        if self.is_zero:
            return self
        return ScaledReal(self.sign, self.mantissa, self.exponent + k, self.q)

    def __neg__(self) -> "ScaledReal":
        if self.is_zero:
            return self
        return ScaledReal(-self.sign, self.mantissa, self.exponent, self.q)

    def __mul__(self, other) -> "ScaledReal":
        other = self._coerce(other)
        if self.is_zero or other.is_zero:
            return ScaledReal.zero(self.q)
        return self._make(
            self.sign * other.sign,
            self.mantissa * other.mantissa,
            self.exponent + other.exponent,
            self.q,
        )

    __rmul__ = __mul__

    def __add__(self, other) -> "ScaledReal":
        other = self._coerce(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        e0 = min(self.exponent, other.exponent)
        qv = self.q.value
        va = self.sign * self.mantissa * qv ** (self.exponent - e0)
        vb = other.sign * other.mantissa * qv ** (other.exponent - e0)
        return self._make(1, va + vb, e0, self.q)

    __radd__ = __add__

    def __sub__(self, other) -> "ScaledReal":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "ScaledReal":
        return self._coerce(other) + (-self)

    def reciprocal(self) -> "ScaledReal":
        if self.is_zero:
            raise ZeroDivisionError("division by ScaledReal zero")
        return self._make(self.sign, 1.0 / self.mantissa, -self.exponent, self.q)

    def __truediv__(self, other) -> "ScaledReal":
        return self * self._coerce(other).reciprocal()

    def __rtruediv__(self, other) -> "ScaledReal":
        return self._coerce(other) * self.reciprocal()

    def __pow__(self, k: int) -> "ScaledReal":
        if not isinstance(k, int):
            raise TypeError("ScaledReal exponent must be an integer")
        if self.is_zero:
            if k == 0:
                return ScaledReal.one(self.q)
            if k < 0:
                raise ZeroDivisionError("zero to a negative power")
            return self
        sign = 1 if (self.sign > 0 or k % 2 == 0) else -1
        return ScaledReal.from_log(sign, k * self.log_abs(), self.q)


def _as_scaled(z, q: QBase) -> ScaledReal:
    if isinstance(z, ScaledReal):
        if z.q.value != q.value:
            raise ValueError("ScaledReal argument carries a different q base")
        return z
    return ScaledReal.from_float(float(z), q)


def q_pochhammer(z, q, n: int) -> ScaledReal:
    """Finite q-shifted factorial (z; q)_n = prod_{i=0}^{n-1} (1 - z q^i).

    z may be a float or a ScaledReal; the result is scaled so the huge
    dynamic range of e.g. (-theta*q**-n; q)_n stays representable.
    """
    q = as_qbase(q)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    zs = _as_scaled(z, q)
    one = ScaledReal.one(q)
    acc = one
    for i in range(n):
        acc = acc * (one - zs.q_shift(i))
        if acc.is_zero:
            break
    return acc


def _log_pochhammer_inf(z: float, q: QBase, guard: float | None = None):
    """(sign, ln|(z; q)_inf|) from lattice sums; sign 0.0 for a zero factor.

    Factor i is 1 - e^{t_i}, t_i = ln z - i h; for the m factors with t_i >= 0,
    ln(e^t - 1) = t + ln(1 - e^-t). guard raises PoleError when a factor is
    within guard of zero.
    """
    if z == 0.0:
        return 1.0, 0.0
    h = -q.log
    if z < 0.0:
        return 1.0, _lattice_sum("softplus", math.log(-z), h, math.inf)
    lz = math.log(z)
    m = max(0, math.floor(lz / h) + 1)  # factors i < m have z q^i >= 1
    near = [lz - i * h for i in (m - 1, m) if i >= 0]  # t of the factors nearest zero
    if guard is not None and min(abs(math.expm1(t)) for t in near) < guard:
        raise PoleError(f"argument z={z!r} within {guard} of a pole q**-i")
    if (m and near[0] <= 0.0) or near[-1] >= 0.0:  # a factor is zero up to rounding
        return 0.0, -math.inf
    tail = _lattice_sum("log1mexp", lz - m * h, h, math.inf)
    if not m:
        return 1.0, tail
    t_sum = float(m * Fraction(lz) - m * (m - 1) // 2 * Fraction(h))  # exact before rounding
    return (-1.0) ** m, math.fsum([t_sum, _lattice_sum("log1mexp", -near[0], h, m), tail])


def q_pochhammer_inf(z: float, q) -> float:
    """Infinite product (z; q)_inf, exp of its log from lattice sums."""
    q = as_qbase(q)
    sign, total = _log_pochhammer_inf(float(z), q)
    return sign * math.exp(total)


def e_q(z: float, q) -> float:
    """Small q-exponential e_q(z) = 1 / (z; q)_inf.

    Raises PoleError when some factor |1 - z q^i| falls below 1e-12, i.e.
    when z approaches a pole q**(-i).
    """
    q = as_qbase(q)
    sign, total = _log_pochhammer_inf(float(z), q, guard=1e-12)
    return sign * math.exp(-total)


def E_q(z: float, q) -> float:
    """Large q-exponential E_q(z) = (-z; q)_inf; satisfies e_q(z)E_q(-z) = 1."""
    return q_pochhammer_inf(-float(z), q)


def log_qq_factorial(n: int, q) -> float:
    """ln (q; q)_n = sum_{i=1}^{n} ln(1 - q^i), a log1mexp lattice sum."""
    q = as_qbase(q)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return _lattice_sum("log1mexp", q.log, -q.log, n)


def q_binomial(n: int, k: int, q) -> float:
    """Gaussian binomial coefficient (q,q)_n / ((q,q)_k (q,q)_{n-k}).

    Returns 0 outside 0 <= k <= n. Evaluated in log space.
    """
    q = as_qbase(q)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0.0
    return math.exp(
        log_qq_factorial(n, q) - log_qq_factorial(k, q) - log_qq_factorial(n - k, q)
    )


def q_number(x: float, q) -> float:
    """The q-number [x]_q = (1 - q^x) / (1 - q); tends to x as q -> 1."""
    q = as_qbase(q)
    return -math.expm1(x * q.log) / (1.0 - q.value)
