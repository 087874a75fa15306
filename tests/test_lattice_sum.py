"""Differential test of the lattice-sum kernel against a 40-digit brute-force sum.

The reference adds the lattice terms g(a - i h) one by one in decimal
arithmetic at 40 significant digits, with no series and no blocks, from the
exact binary64 inputs a and h the kernel receives. The kernel is asked for
every kind at every n of a case in one batch, and a batch must give each sum
bit for bit what a call for that sum alone gives. Nearer q = 1 than the brute
force reaches, a sum is checked against its two parts across a split.
"""

import math
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext

import mpmath as mp
import numpy as np
import pytest

from qbinomial.qcalc import (
    _EM_KINDS,
    _EM_MIN_TERMS,
    _GAUSS_W,
    _GAUSS_X,
    _K,
    _SIGMOID_POLYS,
    _batch_sums,
    _blocks,
    _horner,
    _lattice_sums,
    _one_minus_q_pow,
)

QS = (1e-8, 0.05, 0.5, 0.999)
NS = (1, 2, 100, 10_000, math.inf)
EPS = 2.0**-52
# Rounding floor of the kernel's float64 sums, far below the README's ~1e-14.
REL_TOL = 4e-15


def brute_sums(a: float, h: float, ns) -> dict:
    """{n: {kind: (sum, slope)}} for sum_{i<n} g(a - i h), added term by term.

    slope bounds |d sum / d a|, which sizes the error that rounding the
    lattice points t = a - i h in float64 may cause. Summing stops early once
    e^t falls below 1e-20 * min(1, e^a): the rest of every sum is then below
    1e-20 / (1 - e^-h) of its leading terms, and longer n get the same sums.
    """
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 40, MAX_EMAX, MIN_EMIN
        x, r = Decimal(a).exp(), Decimal(-h).exp()  # x = e^t at t = a - i h
        stop = Decimal("1e-20") * min(1, x)
        sig = dsig = dlm = Decimal(0)
        sp = lm = Decimal(1)  # products of 1 + e^t and 1 - e^t
        out = {}

        def record(n):
            out[n] = {
                "sigmoid": (sig, dsig),
                "dsigmoid": (dsig, dsig),  # |d dsigmoid / dt| <= dsigmoid
                "softplus": (sp.ln(), sig),
            }
            if a < 0:
                out[n]["log1mexp"] = (lm.ln(), dlm)

        i = 0
        for n in sorted(ns):
            while i < n and not x < stop:
                d = 1 + x
                sig += x / d
                dsig += x / (d * d)
                sp *= d
                if a < 0:
                    lm *= 1 - x
                    dlm += x / (1 - x)
                x *= r
                i += 1
            record(n)
        return out


def cases():
    for q in QS:
        h = -math.log(q)
        # constant theta = q, e^5 and e^-40, and theta = q^-f(n) for f(n)
        # = n/2 + 0.3 (inside the support) and n + sqrt(n) (past it)
        for a in (-h, 5.0, -40.0):
            yield pytest.param(a, h, NS, id=f"q={q}-a={a:.4g}")
        for n in NS[:-1]:
            for name, f in (("n/2+0.3", n / 2 + 0.3), ("n+sqrt(n)", n + math.sqrt(n))):
                yield pytest.param(f * h, h, (n,), id=f"q={q}-n={n}-f={name}")


@pytest.mark.parametrize("a,h,ns", cases())
def test_lattice_sum_matches_brute_force(a, h, ns):
    misses = []
    refs = brute_sums(a, h, ns)
    kinds = tuple(refs[ns[0]])
    batch = dict(zip(kinds, _lattice_sums(kinds, [(a, n) for n in refs], h)))
    for j, (n, sums) in enumerate(refs.items()):
        for kind, (ref, slope) in sums.items():
            got = batch[kind][j]
            # math.ulp(0.0): sums below the float64 range come back as 0 or subnormal
            cond = 8 * EPS * (1.0 + abs(a))
            tol = Decimal(REL_TOL) * abs(ref) + Decimal(cond) * abs(slope) + Decimal(math.ulp(0.0))
            err = abs(Decimal(got) - ref)
            if not err <= tol:
                misses.append(f"{kind} n={n}: got {got!r}, reference {ref:.20g}, "
                              f"error {err:.3g} > {tol:.3g}")
    assert not misses, "\n".join(misses)


def test_empty_lattice():
    assert _lattice_sums(("sigmoid",), [(3.0, 0)], 0.5) == [[0.0]]


def alone(kind: str, a: float, n, h: float) -> float:
    return _lattice_sums((kind,), [(a, n)], h)[0][0]


BATCH_NS = (0, 1, 100, math.inf)


@pytest.mark.parametrize("q", QS + (0.9999,))
def test_batch_is_bit_identical_to_single_points(q):
    # mixed kinds and n; a from deep in the lower block to far past the upper one,
    # where the mirrored block is long; softplus adds the upper block's folded sum of t
    h = -math.log(q)
    a_values = (-40.0, -1.0, -h, 0.0, 0.3, 1.0, 1.0 + h, 5.0, 40.0 * h + 0.3, 700.0)
    points = [(a, n) for a in a_values for n in BATCH_NS]
    kinds = ("sigmoid", "dsigmoid", "softplus")
    for kind, sums in zip(kinds, _lattice_sums(kinds, points, h)):
        assert sums == [alone(kind, a, n, h) for a, n in points]
    below = [(a, n) for a, n in points if a < 0.0]
    assert _lattice_sums(("log1mexp",), below, h)[0] == [alone("log1mexp", a, n, h) for a, n in below]
    assert _lattice_sums(kinds, points[::-1], h) == [s[::-1] for s in _lattice_sums(kinds, points, h)]
    # two points run as two one-point calls, and a batch of two has the same bits
    pair = [(-1.0, 100), (40.0 * h + 0.3, math.inf)]
    singles = [[alone(kind, a, n, h) for a, n in pair] for kind in kinds]
    assert _lattice_sums(kinds, pair, h) == _batch_sums(kinds, pair, h) == singles


def test_mirrored_block_with_a_direct_term():
    # a = 156 h + 1 rounds so that the mirrored block starts just above -T, which
    # leaves it one direct term; batched or alone, the sums keep their bits
    a, h = 32.678470790345784, 0.20306712045093453
    iu = _blocks(a, h, math.inf)[0]
    assert _blocks((iu - 1) * h - a, h, iu)[1] == 1
    kinds = ("sigmoid", "dsigmoid", "softplus")
    points = [(a, 10**6), (a, math.inf), (0.3, 100)]
    assert _lattice_sums(kinds, points, h) == [[alone(kind, *p, h) for p in points] for kind in kinds]
    test_lattice_sum_matches_brute_force(a, h, (10**6, math.inf))


@pytest.mark.parametrize("q", QS)
def test_cached_denominators(q):
    h = -math.log(q)
    cached = _one_minus_q_pow(h)
    assert np.array_equal(cached, -np.expm1(_K * -h))
    assert _one_minus_q_pow(h) is cached
    with pytest.raises(ValueError):
        cached[0] = 0.0


# Euler-Maclaurin closes direct blocks longer than _EM_MIN_TERMS, from about q = 0.992 on.


@pytest.mark.parametrize("q", (0.993, 0.999, 0.9999))
@pytest.mark.parametrize("length", (_EM_MIN_TERMS - 1, _EM_MIN_TERMS + 1))
def test_both_sides_of_the_euler_maclaurin_threshold(q, length):
    # n = length ends the direct block, which runs from a to -1 otherwise, so the block
    # has length terms: summed directly below the threshold, by Euler-Maclaurin above it.
    # At q = 0.993, h is near its largest for Euler-Maclaurin, and so are its corrections.
    h = -math.log(q)
    # a < 0 adds log1mexp, whose blocks reach the threshold from q = 0.9961 on
    for a in (0.9, -0.1) if q > 0.9961 else (0.9,):
        assert _blocks(a, h, length)[:2] == (0, length)
        test_lattice_sum_matches_brute_force(a, h, (length,))


def slope(kind: str, a: float, n, h: float) -> float:
    """A bound on |d sum_{i<n} g(a - i h) / d a|, as brute_sums takes it."""
    if kind == "log1mexp":  # e^t / (1 - e^t) rises with t: at most the first term plus its integral / h
        return 1.0 / math.expm1(-a) - math.log(-math.expm1(a)) / h
    derivative = {"sigmoid": "dsigmoid", "dsigmoid": "dsigmoid", "softplus": "sigmoid"}[kind]
    return _lattice_sums((derivative,), [(a, n)], h)[0][0]


@pytest.mark.parametrize("q", (0.99, 0.999, 0.9999, 0.99999, 1.0 - 1e-6))
@pytest.mark.parametrize("kind", ("sigmoid", "dsigmoid", "softplus", "log1mexp"))
def test_split_identity(kind, q):
    # sum_{i<n+m} g(a - i h) = sum_{i<n} g(a - i h) + sum_{i<m} g(a - n h - i h), with each
    # split inside the long direct block i < d, so that a wrong end term or an off-by-one
    # at either end of an Euler-Maclaurin block moves one side by about a term
    h = -math.log(q)
    a = -h if kind == "log1mexp" else 0.3
    d = _blocks(a, h, math.inf)[1]
    for n, m in ((17, d // 3), (300, d), (d // 2, math.inf), (d - 1, 300), (d // 3, d // 3 + 1)):
        whole, first, second = _lattice_sums((kind,), [(a, n + m), (a, n), (a - n * h, m)], h)[0]
        cond = 8 * EPS * (1.0 + abs(a))
        tol = REL_TOL * abs(whole) + cond * slope(kind, a, n + m, h) + math.ulp(0.0)
        assert abs(whole - (first + second)) <= tol, (n, m, whole, first + second, tol)


def test_derivative_polynomials():
    # P_0 = s and P_(j+1) = P_j'(s) s (1 - s): the j-th derivative of sigmoid in s = sigmoid(t)
    assert _SIGMOID_POLYS[0] == (1, 0)
    for p, following in zip(_SIGMOID_POLYS, _SIGMOID_POLYS[1:]):
        assert tuple(np.polymul(np.polyder(p), (-1, 1, 0)).tolist()) == following


@pytest.mark.parametrize("kind", ("sigmoid", "dsigmoid", "softplus", "log1mexp"))
def test_odd_derivatives(kind):
    # the derivatives the Euler-Maclaurin corrections read, against mpmath at two points
    g = {
        "sigmoid": lambda t: 1 / (1 + mp.exp(-t)),
        "dsigmoid": lambda t: mp.exp(-t) / (1 + mp.exp(-t)) ** 2,
        "softplus": lambda t: mp.log(1 + mp.exp(t)),
        "log1mexp": lambda t: mp.log(1 - mp.exp(t)),
    }[kind]
    _, var, _, corrections = _EM_KINDS[kind]
    with mp.workdps(30):
        for t in (-0.7, -0.05):
            for j, (_, poly) in zip((1, 3), corrections):
                want = mp.diff(g, mp.mpf(t), j)
                got, _ = _horner(poly, var(t), 0.0)
                assert abs(got - want) <= 1e-14 * abs(want) + 1e-15, (t, j, got, want)


def test_gauss_rule():
    # the 12-point Gauss-Legendre rule is exact for polynomials of degree 23 or less, up to
    # the rounding of x^k and of the weights
    for k in range(24):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert math.fsum((_GAUSS_W * _GAUSS_X**k).tolist()) == pytest.approx(exact, rel=2e-15, abs=1e-17)
