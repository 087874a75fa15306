"""Differential test of the lattice-sum kernel against a 40-digit brute-force sum.

The reference adds the lattice terms g(a - i h) one by one in decimal
arithmetic at 40 significant digits, with no series and no blocks, from the
exact binary64 inputs a and h the kernel receives.
"""

import math
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext

import numpy as np
import pytest

from qbinomial.qcalc import _K, _lattice_sum, _one_minus_q_pow

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
    for n, sums in brute_sums(a, h, ns).items():
        for kind, (ref, slope) in sums.items():
            got = _lattice_sum(kind, a, h, n)
            # math.ulp(0.0): sums below the float64 range come back as 0 or subnormal
            cond = 8 * EPS * (1.0 + abs(a))
            tol = Decimal(REL_TOL) * abs(ref) + Decimal(cond) * abs(slope) + Decimal(math.ulp(0.0))
            err = abs(Decimal(got) - ref)
            if not err <= tol:
                misses.append(f"{kind} n={n}: got {got!r}, reference {ref:.20g}, "
                              f"error {err:.3g} > {tol:.3g}")
    assert not misses, "\n".join(misses)


def test_empty_lattice():
    assert _lattice_sum("sigmoid", 3.0, 0.5, 0) == 0.0


@pytest.mark.parametrize("q", QS)
def test_cached_denominators(q):
    h = -math.log(q)
    cached = _one_minus_q_pow(h)
    assert np.array_equal(cached, -np.expm1(_K * -h))
    assert _one_minus_q_pow(h) is cached
    with pytest.raises(ValueError):
        cached[0] = 0.0
