"""mpmath reference values and the tolerance rules the benchmark checks against.

Every reference is evaluated at DPS decimal digits from the exact binary64
inputs the library received (q as a float, theta as mantissa * q**exponent).
Sums over the geometric lattice t_i = a - i*h (h = -log q) are split in three:
the saturated ends are closed with the alternating series of the logistic
family, summed over i in closed form as geometric series, and only the
O(1/h) terms with |t_i| < 1 are summed directly. A reference therefore costs
O(1/h) however large n is, so n = 1e6 checks as cheaply as n = 1e2.
"""

from __future__ import annotations

import math

import mpmath as mp

DPS = 40
mp.mp.dps = DPS

EPS = 2.0**-52

# README "Numerical contracts": infinite products/series truncate at a 1e-17
# factor, "giving ~1e-14 relative error for q <= 0.999". "~" is read as the
# order of magnitude, so the check allows anything below 1e-13; a value
# returned as exp(L) is further allowed the rounding of L, LOG_ULPS * |L|.
README_SERIES_REL = 1e-13
# PMFTable's own consistency tolerance between captured_mass and its entries.
TABLE_MASS_ABS = 1e-9
# Where the README states no tolerance, a float64 evaluation is held to a
# 1e-12 relative floor plus the error its input rounding can cause: for a KB
# quantity, 64 eps * |log theta| times the quantity's derivative in log theta.
FLOAT_REL = 1e-12
COND_ULPS = 64 * EPS
LOG_ULPS = 8 * EPS

_T = mp.mpf(1)  # |t| below which lattice terms are summed directly
_TINY = mp.mpf(10) ** -(DPS + 5)


def _series_coef(kind: str, k: int):
    sign = 1 if k % 2 else -1
    if kind == "sigmoid":
        return sign
    if kind == "dsigmoid":
        return sign * k
    if kind == "softplus":
        return mp.mpf(sign) / k
    if kind == "log1mexp":
        return mp.mpf(-1) / k
    raise ValueError(kind)


def _direct(kind: str, t):
    if kind == "sigmoid":
        return 1 / (1 + mp.exp(-t))
    if kind == "dsigmoid":
        s = 1 / (1 + mp.exp(-t))
        return s * (1 - s)
    if kind == "softplus":
        return mp.log(1 + mp.exp(t))
    return mp.log(-mp.expm1(t))


def _geom_tail(kind: str, t_first, h, count):
    """sum_{j<count} g(t_first - j h) where every t <= -_T (count may be inf)."""
    total = mp.mpf(0)
    k = 1
    while True:
        ek = mp.exp(k * t_first)
        span = 1 if count == mp.inf else -mp.expm1(-k * h * count)
        term = _series_coef(kind, k) * ek * span / -mp.expm1(-k * h)
        total += term
        if abs(ek * k / -mp.expm1(-k * h)) < _TINY:
            return total
        k += 1


def lattice_sum(kind: str, a, h, n):
    """sum_{i=0}^{n-1} g(a - i h) for g in sigmoid, dsigmoid, softplus, log1mexp.

    a, h are mp numbers with h > 0; n is an int or mp.inf. log1mexp(t) =
    log(1 - e^t) needs every t < 0.
    """
    a, h = mp.mpf(a), mp.mpf(h)
    if n == 0:
        return mp.mpf(0)
    # upper block [0, iu): t >= T; middle [iu, il); lower block [il, n): t <= -T
    iu = 0 if a < _T else int(mp.floor((a - _T) / h)) + 1
    il = max(0, int(mp.ceil((a + _T) / h)))
    if n != mp.inf:
        iu, il = min(iu, n), min(il, n)
    il = max(il, iu)
    if kind == "log1mexp" and iu:
        raise ValueError("log1mexp needs t < 0")
    total = mp.mpf(0)
    if iu:
        t_last = a - (iu - 1) * h  # smallest t of the upper block, >= T
        if kind == "sigmoid":
            total += iu
        elif kind == "softplus":
            total += iu * a - h * iu * (iu - 1) / 2
        # g(t) - base(t) = +-sum_k c_k e^{-k t}, by the symmetry of each kind
        corr = _geom_tail(kind, -t_last, h, iu)
        total += -corr if kind == "sigmoid" else corr
    for i in range(iu, il):
        total += _direct(kind, a - i * h)
    if n == mp.inf or il < n:
        total += _geom_tail(kind, a - il * h, h, (n - il) if n != mp.inf else mp.inf)
    return total


def qlog(q: float):
    return mp.log(mp.mpf(q))


def log_theta(theta) -> mp.mpf:
    """Exact log of a library ScaledReal (or float) theta."""
    if hasattr(theta, "mantissa"):
        return mp.log(mp.mpf(theta.mantissa)) + theta.exponent * qlog(theta.q.value)
    return mp.log(mp.mpf(theta))


def log_qq(x: int, q: float):
    """ln (q; q)_x."""
    h = -qlog(q)
    return lattice_sum("log1mexp", -h, h, x)


# ---------------------------------------------------------------------------
# references


def kb_ref(n: int, lt, q: float) -> dict:
    h = -qlog(q)
    return {
        "mean": lattice_sum("sigmoid", lt, h, n),
        "var": lattice_sum("dsigmoid", lt, h, n),
        "log_norm": lattice_sum("softplus", lt, h, n),
        "lqq_n": log_qq(n, q),
    }


def kb_log_pmf_ref(ref: dict, n: int, lt, q: float, x: int):
    lq = qlog(q)
    return (ref["lqq_n"] - log_qq(x, q) - log_qq(n - x, q) + x * lt
            + mp.mpf(x) * (x - 1) / 2 * lq - ref["log_norm"])


def heine_mean_ref(theta: float, q: float):
    return lattice_sum("sigmoid", mp.log(theta), -qlog(q), mp.inf)


def heine_log_pmf_ref(theta: float, q: float, xs):
    lq, lt = qlog(q), mp.log(theta)
    log_norm = lattice_sum("softplus", lt, -lq, mp.inf)
    out, lqq = [], mp.mpf(0)
    for x in range(max(xs) + 1):
        if x:
            lqq += mp.log(-mp.expm1(x * lq))
        if x in xs:
            out.append(mp.mpf(x) * (x - 1) / 2 * lq + x * lt - lqq - log_norm)
    return out


def log_pochhammer_inf_ref(z: float, q: float):
    """ln (z; q)_inf for z < 1."""
    h = -qlog(q)
    if z == 0.0:
        return mp.mpf(0)
    if z < 0.0:
        return lattice_sum("softplus", mp.log(-mp.mpf(z)), h, mp.inf)
    return lattice_sum("log1mexp", mp.log(mp.mpf(z)), h, mp.inf)


def c_ref(beta: float, q: float):
    """c(beta, q) from its bilateral series (asymptotics.c_direct's definition)."""
    h, b = -qlog(q), mp.mpf(beta)
    down = lattice_sum("sigmoid", -(b + 1) * h, h, mp.inf)
    up = lattice_sum("sigmoid", -(1 - b) * h, h, mp.inf)
    return 1 - 1 / (1 + mp.exp(b * h)) - b - down + up


def c_fourier_ref(beta: float, q: float, terms: int = 60):
    """The residue-series form of c; the self-test cross-checks it with c_ref."""
    lq = qlog(q)
    total = mp.mpf(1) / 2
    for k in range(1, terms + 1):
        total += 2 * mp.pi * mp.sin(2 * k * mp.pi * beta) / (lq * mp.sinh(2 * k * mp.pi**2 / lq))
    return total


def sigma2_ref(beta: float, q: float):
    """Limiting variance: sum over j in Z of p(1-p) at t = (j + beta) log(1/q)."""
    h, b = -qlog(q), mp.mpf(beta)
    return (lattice_sum("dsigmoid", -b * h, h, mp.inf)
            + lattice_sum("dsigmoid", -(1 - b) * h, h, mp.inf))


def limit_lattice_ref(beta: float, q: float, xs):
    """Limit-law lattice probabilities normalised by their own bilateral sum."""
    lq, b = qlog(q), mp.mpf(beta)

    def expo(x):
        if beta == 0.5:
            return mp.mpf(x) * x / 2
        if beta < 0.5:
            return (x - 1) * (x - 2 * b) / 2
        return x * (1 + x - 2 * b) / 2

    reach = int(math.sqrt(2 * (DPS + 5) * math.log(10) / float(-lq))) + 4
    z = mp.fsum(mp.exp(expo(x) * lq) for x in range(-reach, reach + 1))
    return [mp.exp(expo(x) * lq) / z for x in xs]


def dnorm_log_weights(alpha: float, q: float) -> dict:
    """ln of the unnormalised discrete-normal weights q^(k^2/2 - k alpha) that exceed 1e-45."""
    lq = qlog(q)
    reach = int(math.sqrt(2 * (DPS + 5) * math.log(10) / float(-lq)) + abs(alpha)) + 4
    k0 = round(alpha)
    return {k: (mp.mpf(k) * k / 2 - k * alpha) * lq for k in range(k0 - reach, k0 + reach + 1)}


def dnorm_moments_ref(alpha: float, q: float) -> tuple:
    w = {k: mp.exp(v) for k, v in dnorm_log_weights(alpha, q).items()}
    z = mp.fsum(w.values())
    mean = mp.fsum(k * v for k, v in w.items()) / z
    return mean, mp.fsum((k - mean) ** 2 * v for k, v in w.items()) / z


# ---------------------------------------------------------------------------
# comparisons


def rel_err(got: float, ref) -> float:
    if not math.isfinite(got):
        return math.inf
    if ref == 0:
        return abs(got)
    return float(abs((mp.mpf(got) - ref) / ref))


def abs_err(got: float, ref) -> float:
    if not math.isfinite(got):
        return math.inf
    return float(abs(mp.mpf(got) - ref))


def kb_tol(ref_value, lt, slope) -> float:
    """FLOAT_REL floor plus input-rounding error through d(value)/d(log theta)."""
    return FLOAT_REL * max(1.0, abs(float(ref_value))) + COND_ULPS * abs(float(lt)) * abs(float(slope))
