"""Numerically robust q-calculus primitives.

The finite q-Pochhammer symbol, q-numbers and the two q-exponentials, plus a
scaled number representation (mantissa times an exact integer power of q) so
that shape parameters like theta = q**(-n - f(n)) stay representable far
beyond binary64 range.

The base q always lies strictly inside (0, 1); the q -> 0 and q -> 1 regimes
are probed by evaluating at q = eps or q = 1 - eps, never at the endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "PoleError",
    "QBase",
    "ScaledReal",
    "E_q",
    "e_q",
    "q_number",
    "q_pochhammer",
]


class PoleError(ValueError):
    """Argument of e_q sits within 1e-12 of a pole q**(-i)."""


class _CacheOwner:
    """A dataclass whose pickles and copies are rebuilt from its fields by the constructor.

    So they are validated again and start without the cached_property values of the
    original: a cache lives exactly as long as its object.
    """

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class QBase(_CacheOwner):
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
_KINDS = {  # kind: (g, (c_k, -c_k))
    kind: (g, (c, -c))
    for kind, g, c in (
        ("sigmoid", lambda t: 1.0 / (1.0 + np.exp(-t)), _ALT),
        ("dsigmoid", lambda t: 0.25 / np.cosh(0.5 * t) ** 2, _ALT * _K),
        ("softplus", lambda t: np.log1p(np.exp(t)), _ALT / _K),
        ("log1mexp", lambda t: np.log(-np.expm1(t)), -1.0 / _K),
    )
}


# A direct block longer than _EM_MIN_TERMS keeps its first _EM_HEAD terms, those
# nearest log1mexp's singularity at t = 0, and closes the rest by Euler-Maclaurin
# (_euler_maclaurin), its integral by the 12-point Gauss-Legendre rule: g's closed-form
# antiderivatives (softplus, sigmoid, dilogarithms) would lose a short block's digits
# to the difference of their values at its ends.
_EM_MIN_TERMS = 256
_EM_HEAD = 16
_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160)  # B_2k/(2k)!
# d^j sigmoid/dt^j = P_j(s), s = sigmoid(t): P_0 = s, P_(j+1) = P_j'(s) s (1 - s); the
# coefficients, highest power first. log1mexp(t) = softplus(t + i pi), so its
# derivatives are those of softplus at s = sigmoid(t + i pi) = 1 + 1/expm1(t). P_0 .. P_8
# are kept: log1mexp's five corrections read the furthest.
_SIGMOID_POLYS = (
    (1, 0),
    (-1, 1, 0),
    (2, -3, 1, 0),
    (-6, 12, -7, 1, 0),
    (24, -60, 50, -15, 1, 0),
    (-120, 360, -390, 180, -31, 1, 0),
    (720, -2520, 3360, -2100, 602, -63, 1, 0),
    (-5040, 20160, -31920, 25200, -10206, 1932, -127, 1, 0),
    (40320, -181440, 332640, -317520, 166824, -46620, 6050, -255, 1, 0),
)
_GAUSS_HALF = (  # the 12-point Gauss-Legendre rule on [-1, 1]: positive nodes, weights
    (0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
     0.7699026741943047, 0.9041172563704749, 0.9815606342467192),
    (0.24914704581340277, 0.2334925365383548, 0.20316742672306592,
     0.16007832854334622, 0.10693932599531843, 0.04717533638651183),
)
_GAUSS_X = np.array([-x for x in _GAUSS_HALF[0]] + list(_GAUSS_HALF[0]))
_GAUSS_W = np.array(_GAUSS_HALF[1] * 2)


def _sigmoid(t: float) -> float:
    return 1.0 / (1.0 + math.exp(-t))


def _em_kind(integrand, var, first: int, terms: int) -> tuple:
    """(integrand, s(t), g's polynomial in s or None, ((B_2k/(2k)!, g^(2k-1)'s polynomial) for k <= terms)),
    for a kind g with g' = P_first(s)."""
    end = _SIGMOID_POLYS[first - 1] if first else None
    return integrand, var, end, tuple(zip(_BERNOULLI[:terms], _SIGMOID_POLYS[first::2]))


_EM_KINDS = {
    "sigmoid": _em_kind(_KINDS["sigmoid"][0], _sigmoid, 1, 2),
    "dsigmoid": _em_kind(_KINDS["dsigmoid"][0], _sigmoid, 2, 2),
    "softplus": _em_kind(_KINDS["softplus"][0], _sigmoid, 0, 2),
    # ln(1 - e^t) = ln(-t) + ln(expm1(t)/t): the first is integrated in closed form
    "log1mexp": _em_kind(lambda t: np.log(np.expm1(t) / t), lambda t: 1.0 + 1.0 / math.expm1(t), 0, 5),
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


def _blocks(a: float, h: float, n) -> tuple:
    """(iu, il, t0, s, size): t = a - i h is >= T for i < iu and <= -T for il <= i < n, T = _DIRECT_T.

    The block il <= i < n has series terms c_k e^(k t0) (1 - e^(k s)) / (1 - q^k) for
    k = 1..size (size = 0 if the block is empty), t0 = a - il h and s = -(n - il) h, or
    -inf where 1 - e^(k s) rounds to 1.
    """
    iu = 0 if a < _DIRECT_T else min(n, math.floor((a - _DIRECT_T) / h) + 1)
    il = min(n, max(iu, math.ceil((a + _DIRECT_T) / h)))
    if il == n:
        return iu, il, 0.0, -math.inf, 0
    t0, count = a - il * h, n - il
    s = -h * count if count * h < _SERIES_DECAY else -math.inf
    return iu, il, t0, s, 1 + math.ceil(_SERIES_DECAY / -t0)


def _closure(a: float, iu: int, il: int, h: float):
    """(top, em) for a direct block iu <= i < il of more than _EM_MIN_TERMS terms: i < top
    stay direct, and em is the Euler-Maclaurin geometry (hi, lo, count, t, weights) of the
    rest. Its count = il - top terms run from hi = a - top h down to lo = a - (il - 1) h,
    t holds the Gauss nodes on [lo, hi] and weights the Gauss weights times (count - 1)/2.
    """
    top = iu + _EM_HEAD
    hi, lo, half = a - top * h, a - (il - 1) * h, 0.5 * (il - 1 - top)
    return top, (hi, lo, il - top, 0.5 * (hi + lo) + (half * h) * _GAUSS_X, half * _GAUSS_W)


def _horner(coefs: tuple, x: float, y: float) -> tuple[float, float]:
    """(p(x), p(y)) for the polynomial p with coefs, highest power first."""
    u = v = 0.0
    for c in coefs:
        u = u * x + c
        v = v * y + c
    return u, v


def _euler_maclaurin(kind: str, em: tuple, h: float) -> list:
    """The parts of sum_(top <= i < il) g(a - i h), g = kind, from _closure's geometry em.

    sum = (1/h) int_lo^hi g + (g(hi) + g(lo))/2 + sum_k B_2k/(2k)! h^(2k-1) (g^(2k-1)(hi)
    - g^(2k-1)(lo)), where the integral over h is (count - 1)/2 times the Gauss sum. g is
    analytic in |Im t| < pi, so h < 2/_EM_MIN_TERMS leaves the terms past k = 2 below 1e-18
    of the sum, except for log1mexp, whose singularity at t = 0 is _EM_HEAD terms from hi,
    and which takes k <= 5. Its integrand is ln(expm1(t)/t), and ln(-t) is added in closed
    form: (hi ln(-hi) - lo ln(-lo) - (hi - lo))/h = hi ln(hi/lo)/h + (count - 1) ln(-lo) -
    (count - 1), whose log1p keeps its digits as hi nears lo and whose last part is exact.
    The ends' g is a polynomial in s too, or -ln(1 - s) for softplus and log1mexp.
    """
    hi, lo, count, t, weights = em
    integrand, var, end, corrections = _EM_KINDS[kind]
    parts = (integrand(t) * weights).tolist()
    s_hi, s_lo = var(hi), var(lo)
    g_hi, g_lo = _horner(end, s_hi, s_lo) if end else (-math.log1p(-s_hi), -math.log1p(-s_lo))
    parts += [0.5 * g_hi, 0.5 * g_lo]
    scale = h
    for b, poly in corrections:
        d_hi, d_lo = _horner(poly, s_hi, s_lo)
        parts.append(b * scale * (d_hi - d_lo))
        scale *= h * h
    if kind == "log1mexp":
        parts += [hi * math.log1p((count - 1) * h / lo) / h, (count - 1) * math.log(-lo), 1.0 - count]
    return parts


def _series(coefs: tuple, below: np.ndarray, size: int, power: np.ndarray, geometric) -> list:
    """The terms c_k e^(k t0) (1 - e^(k s)) / (1 - q^k), k = 1..size, from coefs = (c_k, -c_k),
    below = 1 - q^k, power = e^(k t0) and geometric = e^(k s) - 1, or None if every s is -inf;
    a list per row for rows. With -c_k, a product by e^(k s) - 1 has the bits of one by 1 - e^(k s)."""
    coef, negated = coefs
    terms = (coef if geometric is None else negated)[:size] * power
    terms /= below[:size]
    if geometric is not None:
        terms *= geometric
    return terms.tolist()


def _upper(kind: str, a: float, iu: int, back: float, h: float) -> list:
    """Parts of the block i < iu, where t >= T, from back, the sum of g(-t) over it."""
    if kind == "sigmoid":
        return [float(iu), -back]
    if kind == "softplus":  # the block's sum of t, exact before its one rounding
        return [_fold(iu, a, iu * (iu - 1) // 2, h), back]
    return [back]


def _lattice_parts(kinds, points, h: float) -> list[list[list[float]]]:
    """_lattice_sums with each sum as its list of parts, unrounded."""
    return _lattice_sums(kinds, points, h, lambda parts: parts)


def _lattice_sums(kinds, points, h: float, finish=math.fsum) -> list[list[float]]:
    """[[sum_{i<n} g(a - i h) for (a, n) in points] for g in kinds], h > 0, n an int >= 0 or inf.

    g is sigmoid(t) = 1/(1 + e^-t), dsigmoid = sigmoid (1 - sigmoid),
    softplus(t) = ln(1 + e^t) or log1mexp(t) = ln(1 - e^t) (needs a < 0).
    With T = _DIRECT_T, the terms with |t| < T are summed directly, or, past
    _EM_MIN_TERMS of them, all but the first _EM_HEAD by Euler-Maclaurin
    (_euler_maclaurin). The block t <= -T is closed with g's series, each term
    summed over the block as a geometric series (for sigmoid, Euler's
    sum_l (-1)^(l-1) x^l / (1 - q^l)); by g's symmetry the block t >= T is a base
    plus that sum over the mirrored block, whose lattice starts at (iu - 1) h - a,
    which is -T or below up to rounding (a term that rounds above -T is summed
    directly). The cost is O(1) per point for any n and q. The kinds share the
    lattice points and powers, and three or more points share one numpy pass
    (_batch_sums). A sum's parts do not depend on the batch, since each point's
    path depends on its own block lengths alone, and finish (math.fsum) rounds
    them once, so a sum has the same bits alone or batched.
    """
    if len(points) == 2:  # two one-point calls cost less than a batch of two
        return [x + y for x, y in zip(*(_lattice_sums(kinds, [p], h, finish) for p in points))]
    if len(points) != 1:
        return _batch_sums(kinds, points, h, finish)
    (a, n), = points  # in 1-d arrays, which cost less than rows of one
    iu, il, t0, s, size = _blocks(a, h, n)
    em = None
    if il - iu > _EM_MIN_TERMS:  # the direct terms end at il, and em closes the rest
        il, em = _closure(a, iu, il, h)
    below = _one_minus_q_pow(h)
    if size:
        k = _K[:size]
        power, geometric = np.exp(k * t0), np.expm1(k * s) if s > -math.inf else None
    if il > iu:
        t = a - np.arange(iu, il) * h
    if iu:  # the mirrored block
        m = (iu - 1) * h - a
        _, ml, t0, s, msize = _blocks(m, h, iu)
        if msize:
            k = _K[:msize]
            mpower, mgeometric = np.exp(k * t0), np.expm1(k * s) if s > -math.inf else None
    sums = []
    for kind in kinds:
        g, coefs = _KINDS[kind]
        parts = g(t).tolist() if il > iu else []
        if em:
            parts += _euler_maclaurin(kind, em, h)
        if size:
            parts += _series(coefs, below, size, power, geometric)
        if iu:
            back = g(m - np.arange(ml) * h).tolist() if ml else []
            if msize:
                back += _series(coefs, below, msize, mpower, mgeometric)
            parts += _upper(kind, a, iu, math.fsum(back), h)
        sums.append([finish(parts)])
    return sums


def _batch_sums(kinds, points, h: float, finish=math.fsum) -> list[list[float]]:
    """_lattice_sums with each point's direct terms and each block's series as rows of 2-d arrays."""
    segs = [(a, *_blocks(a, h, n)) for a, n in points]  # the points, then their mirrors
    ups = [(p, a, iu) for p, (a, iu, _, _, _, _) in enumerate(segs) if iu]
    for _, a, iu in ups:
        m = (iu - 1) * h - a
        segs.append((m, *_blocks(m, h, iu)))
    closed = {  # seg: its long direct block's Euler-Maclaurin geometry; its direct terms end at top
        p: _closure(a, iu, il, h) for p, (a, iu, il, _, _, _) in enumerate(segs) if il - iu > _EM_MIN_TERMS
    }
    for p, (top, _) in closed.items():
        segs[p] = (*segs[p][:2], top, *segs[p][3:])
    spans = [(a, iu, il - iu) for a, iu, il, _, _, _ in segs if il > iu]
    if spans:  # row r holds span r's lattice points, padded to the longest span
        a, iu, size = zip(*spans)
        t = np.array(a)[:, None] - (np.array(iu)[:, None] + np.arange(max(size))) * h
    rows = [seg[3:] for seg in segs if seg[5]]  # (t0, s, size)
    if rows:  # row r holds the powers of block r's series, padded to the longest
        t0, s, sizes = zip(*rows)
        k = _K[: max(sizes)]
        power = np.exp(k * np.array(t0)[:, None])
        geometric = np.expm1(k * np.array(s)[:, None]) if max(s) > -math.inf else None
    sums, below = [], _one_minus_q_pow(h)
    for kind in kinds:
        g, coefs = _KINDS[kind]
        direct = iter(g(t).tolist() if spans else ())
        series = iter(_series(coefs, below, k.size, power, geometric) if rows else ())
        parts = [
            (next(direct)[: il - iu] if il > iu else []) + (next(series)[:size] if size else [])
            for _, iu, il, _, _, size in segs
        ]
        for p, (_, em) in closed.items():
            parts[p] += _euler_maclaurin(kind, em, h)
        for m, (p, a, iu) in enumerate(ups, len(points)):
            parts[p] += _upper(kind, a, iu, math.fsum(parts[m]), h)
        sums.append([finish(p) for p in parts[: len(points)]])
    return sums


@dataclass(frozen=True)
class ScaledReal:
    """sign * mantissa * q**exponent: sign +-1, a finite mantissa >= 0 and an exact integer exponent.

    The exponent carries the dynamic range, so values like theta * q**(-n) never
    overflow. The pair is kept as given, not normalised: from_float(x) is
    (sign x, |x|, 0), so a float is stored without rounding. Zero is canonically
    (sign=1, mantissa=0, exponent=0).
    """

    sign: int
    mantissa: float
    exponent: int
    q: QBase

    # -- construction ------------------------------------------------------

    @classmethod
    def from_float(cls, x: float, q) -> "ScaledReal":
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"non-finite value {x!r}")
        return cls(-1 if x < 0.0 else 1, abs(x), 0, as_qbase(q))

    @classmethod
    def from_q_power(cls, p: float, q) -> "ScaledReal":
        """The value q**p for real p, exactly scaled (exponent = ceil(p))."""
        q = as_qbase(q)
        e = math.ceil(p)
        return cls(1, q.pow(p - e), e, q)

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
        """The nearest binary64 value, to within a few ulps; +-inf past DBL_MAX.

        The mantissa's frexp fraction is multiplied by q**exponent in factors of at most
        e^700, each product taken back into [0.5, 1) by frexp, so no step leaves the
        normal range whatever the mantissa is, and ldexp rounds the result once.
        """
        t = self.log_abs()  # its rounding is far below the cuts' slack
        if t < -746.0:  # below 2^-1076, so 0.0, and zero's t is -inf
            return 0.0
        if t < 710.0:
            x, j = math.frexp(self.mantissa)
            e, step = self.exponent, max(1, int(700.0 / -self.q.log))
            while e:
                k = max(-step, min(step, e))
                x, i = math.frexp(x * self.q.value**k)
                j, e = j + i, e - k
            try:
                return self.sign * math.ldexp(x, j)
            except OverflowError:  # past DBL_MAX once rounded
                pass
        return math.inf if self.sign > 0 else -math.inf

    # -- arithmetic ---------------------------------------------------------

    def q_shift(self, k: int) -> "ScaledReal":
        """Multiply by q**k exactly (integer k)."""
        if self.is_zero:
            return self
        return ScaledReal(self.sign, self.mantissa, self.exponent + k, self.q)


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
    sums = _lattice_sums((kind,), [(t_tail, n - M)], h)[0]
    if not M:
        return 1, 0, (0, 0.0), sums
    sums += _lattice_sums((kind,), [(-t_head, M)], h)[0]
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
    if not sign:
        return ScaledReal(1, 0.0, 0, q)
    log_abs = math.fsum([_fold(*head, 0, -q.log), *sums])
    e = math.ceil(log_abs / q.log)  # the mantissa e^(log_abs - e ln q) lies in [1, 1/q)
    return ScaledReal(sign, math.exp(log_abs - e * q.log), e + E, q)


def _q_exp(z: float, q, power: int, guard: float | None = None) -> float:
    """(z; q)_inf ** power for power = +-1; +-inf past DBL_MAX, as ScaledReal.to_float gives it."""
    q = as_qbase(q)
    sign, E, head, sums = _log_pochhammer(z, q, guard=guard)
    try:
        return sign * math.exp(power * math.fsum([_fold(*head, E, -q.log), *sums]))
    except OverflowError:
        return sign * math.inf


def e_q(z: float, q) -> float:
    """Small q-exponential e_q(z) = 1 / (z; q)_inf.

    Raises PoleError when some factor |1 - z q^i| falls below 1e-12, i.e.
    when z approaches a pole q**(-i).
    """
    return _q_exp(float(z), q, -1, guard=1e-12)


def E_q(z: float, q) -> float:
    """Large q-exponential E_q(z) = (-z; q)_inf; satisfies e_q(z)E_q(-z) = 1."""
    return _q_exp(-float(z), q, 1)


def q_number(x: float, q) -> float:
    """The q-number [x]_q = (1 - q^x) / (1 - q); tends to x as q -> 1."""
    q = as_qbase(q)
    return -math.expm1(x * q.log) / (1.0 - q.value)
