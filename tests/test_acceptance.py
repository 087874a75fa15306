"""Acceptance suite: one test (or tightly-related group) per criterion.

Each test prints a PASS/FAIL line (visible with -s) and asserts the stated
tolerance. Two sub-clauses are mathematically unattainable as written and are
marked strict-xfail with the analysis inline; see notes in the repo docs.
"""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from qbinomial.asymptotics import (
    FractionalDrift,
    c_direct,
    c_fourier,
    dnorm_alpha,
    floor_case,
    limit_law,
    mean_expansion,
    sigma_limit,
)
from qbinomial.distributions import (
    Binomial,
    DiscreteNormal,
    Heine,
    KempBinomial,
    dnorm_table,
    kb_moments,
    kb_sample,
    kb_table,
    reflect,
)
from qbinomial.metrics import convergence_sweep, tabulate, tv_distance
from qbinomial.qcalc import E_q, QBase, ScaledReal, e_q, q_pochhammer
from qbinomial.solvers import theta_for_mean, theta_limit_for_mean

Q5 = QBase(0.5)


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")

        return inner

    return wrap


# -- 1: q-calculus identities -------------------------------------------------


@criterion("1a (e_q * E_q inverse pair)")
def test_criterion_1a_exponential_pair():
    for z in (0.1, 0.5):
        for qv in (0.1, 0.5, 0.9):
            q = QBase(qv)
            assert abs(e_q(z, q) * E_q(-z, q) - 1.0) <= 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="z=1 is a genuine pole of e_q: the i=0 factor of (z;q)_inf vanishes, "
    "so e_q(1) diverges and E_q(-1) = 0; the identity cannot be evaluated there "
    "(paper's pole list {q^-i, i>=1} omits i=0). e_q raises PoleError per the "
    "spec's own error clause.",
)
@criterion("1b (inverse pair at z=1)")
def test_criterion_1b_exponential_pair_at_pole():
    for qv in (0.1, 0.5, 0.9):
        q = QBase(qv)
        assert abs(e_q(1.0, q) * E_q(-1.0, q) - 1.0) <= 1e-12


@criterion("1c (reflection identity, n <= 30)")
def test_criterion_1c_reflection_identity():
    # ln (-z; q)_n = n(n-1)/2 ln q + n ln z + sum_i ln(1 + q^-i / z)
    q = Q5
    for zv in (0.5, 1.0, 3.0):
        z = ScaledReal.from_float(zv, q)
        lz = z.log_abs()
        for n in range(1, 31):
            lhs = q_pochhammer(ScaledReal(-1, z.mantissa, z.exponent, q), q, n)
            terms = [math.log1p(math.exp(-i * q.log - lz)) for i in range(n)]
            rhs = math.fsum([n * (n - 1) // 2 * q.log, n * lz, *terms])
            assert lhs.sign == 1
            assert abs(lhs.log_abs() - rhs) <= 1e-12


# -- 2: KB law correctness ----------------------------------------------------


@criterion("2 (KB normalization + moments on grid)")
def test_criterion_2_kb_grid():
    for qv in (0.2, 0.5, 0.9):
        q = QBase(qv)
        for n in range(0, 61):
            thetas = [0.1, 1.0, 5.0, ScaledReal.from_float(1.0, q).q_shift(-n)]
            for theta in thetas:
                d = KempBinomial(n, theta, q)
                t = kb_table(d)
                assert abs(math.fsum(t.probs.tolist()) - 1.0) <= 1e-12
                xs = t.x_values().astype(float)
                mean = math.fsum((xs * t.probs).tolist())
                var = math.fsum(((xs - mean) ** 2 * t.probs).tolist())
                m = kb_moments(d)
                assert abs(m.mean - mean) <= 1e-10
                assert abs(m.variance - var) <= 1e-10


# -- 3: Theorem 1 (Poisson coupling) -----------------------------------------


@criterion("3 (Theorem 1 coupling sweep)")
def test_criterion_3_poisson_coupling():
    rep = convergence_sweep(
        "poisson-coupling", {"q": Q5, "lam": 2.0}, list(range(10, 101, 10))
    )
    dists = rep.columns["distance"]
    assert dists[-1] <= 1e-6
    tail = dists[len(dists) // 2 :]
    assert all(a >= b - 1e-15 for a, b in zip(tail, tail[1:]))


# -- 4: Theorem 2 (constant mean) ----------------------------------------------


@criterion("4 (Theorem 2 solver chain)")
def test_criterion_4_constant_mean_solvers():
    thetas = []
    for n in range(2, 51):
        sol = theta_for_mean(n, Q5, 1.0)
        assert sol.residual <= 1e-12
        thetas.append(sol.theta)
    assert all(a > b for a, b in zip(thetas, thetas[1:]))

    limit = theta_limit_for_mean(Q5, 1.0)
    assert limit.residual <= 1e-12
    assert abs(theta_for_mean(200, Q5, 1.0).theta - limit.theta) <= 1e-8

    q1 = QBase(1 - 1e-4)
    tl = theta_limit_for_mean(q1, 1.0)
    assert abs(tl.theta / 1e-4 - 1.0) <= 1e-2


# -- 5: Theorems 3/4 (mean asymptotics) ----------------------------------------


@criterion("5 (mean expansion vs direct sums)")
def test_criterion_5_mean_expansion():
    drift = FractionalDrift(Fraction(3, 10), 0.25)
    for n in range(200, 401):
        r = mean_expansion(n, drift, Q5)
        direct = kb_moments(
            KempBinomial(n, ScaledReal.from_q_power(-r.f_value, Q5), Q5)
        ).mean
        assert abs(direct - r.estimate) <= 1e-12

    # evaluation noise floor ~1 ulp of mu (1.4e-14 observed) once the bound
    # sinks below float resolution past n ~ 330
    for n in range(50, 401):
        r = mean_expansion(n, drift, Q5)
        direct = kb_moments(
            KempBinomial(n, ScaledReal.from_q_power(-r.f_value, Q5), Q5)
        ).mean
        assert abs(direct - r.estimate) <= r.error_bound + 1e-13

    for qv in (0.2, 0.5, 0.8):
        q = QBase(qv)
        for b in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            assert abs(c_direct(b, q) - c_fourier(b, q)) <= 1e-12


# -- 6: Lemmas 3-6 --------------------------------------------------------------


@criterion("6 (lemma battery)")
def test_criterion_6_lemmas():
    beta_grid = [round(0.05 * k, 2) for k in range(20)]
    for qv in (0.2, 0.5, 0.9):
        q = QBase(qv)
        for b in beta_grid:
            assert sigma_limit(b, q) <= 2.0 / (1.0 - qv)
        assert abs(c_direct(0.0, q) - 0.5) <= 1e-12
        assert abs(c_direct(0.5, q) - 0.5) <= 1e-12
        for b in beta_grid[1:]:
            assert abs(c_direct(b, q) + c_direct(round(1 - b, 2), q) - 1.0) <= 1e-12
        for b in beta_grid[1:]:
            assert floor_case(b, q) == (0 if b < 0.5 else 1)

    # Lemma 6(ii) at f = 10.5, q = 0.5: n in {20, 21} sit in the 2f >= n branch,
    # so mu_n < f + 1/2 and ceil(mu_n) = 11 (spec's example flipped the case)
    for n in (20, 21):
        mu = kb_moments(
            KempBinomial(n, ScaledReal.from_q_power(-10.5, Q5), Q5)
        ).mean
        assert mu < 11.0
        assert math.ceil(mu) == 11
    mu23 = kb_moments(KempBinomial(23, ScaledReal.from_q_power(-10.5, Q5), Q5)).mean
    assert mu23 > 11.0 and math.floor(mu23) == 11


# -- 7: Theorem 5 (discrete normal limit) ---------------------------------------


@criterion("7 (Theorem 5 limit law)")
def test_criterion_7_subexponential_limit():
    rep = convergence_sweep(
        "subexponential",
        {"q": Q5, "slope": Fraction(1, 2), "offset": 0.3},
        list(range(20, 121, 2)),
    )
    assert rep.columns["n"][-1] == 120
    assert rep.columns["distance"][-1] <= 1e-4

    for beta in (0.0, 0.3, 0.5, 0.7):
        law = limit_law(beta, Q5)
        probs = law.lattice_probs
        assert abs(math.fsum(probs.probs.tolist()) - 1.0) <= 1e-10
        dn = dnorm_table(DiscreteNormal(dnorm_alpha(beta), Q5))
        best = min(
            max(abs(probs.prob(x) - dn.prob(x + s)) for x in range(-30, 31))
            for s in range(-5, 6)
        )
        assert best <= 1e-10

    for beta, shift in ((0.0, 1), (0.5, 0)):
        t = limit_law(beta, Q5).lattice_probs
        assert max(abs(t.prob(x) - t.prob(shift - x)) for x in range(-20, 21)) <= 1e-14
    t = limit_law(0.3, Q5).lattice_probs
    asym = min(
        max(abs(t.prob(x) - t.prob(s - x)) for x in range(-20, 21))
        for s in range(-6, 7)
    )
    assert asym > 1e-3


# -- 8: Theorems 6 and 7 (reflection, degenerate) -------------------------------


@criterion("8 (reflection duality + degenerate limit)")
def test_criterion_8_reflection_and_degenerate():
    theta = 2.0
    dual = ScaledReal.from_float(theta, Q5)
    for n in range(1, 61):
        d = KempBinomial(n, dual.q_shift(-n), Q5)
        lhs = reflect(kb_table(d), n)
        rhs = kb_table(KempBinomial(n, 0.5 / theta, Q5))
        assert float(np.max(np.abs(lhs.probs - rhs.probs))) <= 1e-12

    d80 = KempBinomial(80, dual.q_shift(-80), Q5)
    tv = tv_distance(reflect(kb_table(d80), 80), tabulate(Heine(0.5 / theta, Q5)))
    assert tv <= 1e-6

    f = math.sqrt(400)
    d = KempBinomial(400, ScaledReal.from_q_power(-(400 + f), Q5), Q5)
    p0 = reflect(kb_table(d), 400).prob(0)
    assert p0 >= 1 - 1e-5


# -- 9: boundary limits ----------------------------------------------------------


@criterion("9a (q->1 binomial boundary)")
def test_criterion_9a_binomial_boundary():
    q = QBase(1 - 1e-4)
    tv = tv_distance(
        kb_table(KempBinomial(10, 1.0, q)), tabulate(Binomial(10, 0.5))
    )
    assert tv <= 1e-3


@criterion("9b (Euler-Maclaurin c -> 1/2)")
def test_criterion_9b_c_near_q_one():
    assert abs(c_direct(0.3, QBase(0.999)) - 0.5) <= 0.01


@pytest.mark.xfail(
    strict=True,
    reason="The q->0 limit of the residue series is 1/2 - beta, but convergence "
    "is governed by q^beta; at q=1e-3, q^0.3 = 0.126 and the series equals "
    "0.09595 (confirmed against the direct mu_n sum to 3e-16), not 0.2 +- 1e-2. "
    "The stated tolerance becomes attainable only around q <= 1e-8; the paper "
    "claim itself is verified at q=1e-8 in test_asymptotics.",
)
@criterion("9c (q->0 series value at q=1e-3)")
def test_criterion_9c_series_q_to_0_as_stated():
    series = c_fourier(0.3, QBase(1e-3)) - 0.5
    assert abs(series - (0.5 - 0.3)) <= 1e-2


# -- 10: sampling ---------------------------------------------------------------


@criterion("10 (seeded sampling: TV, chi-square, determinism)")
def test_criterion_10_sampling():
    scipy_stats = pytest.importorskip("scipy.stats")
    d = KempBinomial(20, 1.3, QBase(0.6))
    t = kb_table(d)
    seed = 20260810
    draws = kb_sample(d, np.random.default_rng(seed), size=1_000_000)
    again = kb_sample(d, np.random.default_rng(seed), size=1_000_000)
    assert draws.tobytes() == again.tobytes()

    counts = np.bincount(draws, minlength=21).astype(float)
    emp = counts / draws.size
    assert 0.5 * float(np.abs(emp - t.probs).sum()) <= 0.005

    expected = t.probs * draws.size
    keep = expected >= 5.0
    lo, hi = int(np.argmax(keep)), 20 - int(np.argmax(keep[::-1]))
    obs = np.array([counts[: lo + 1].sum(), *counts[lo + 1 : hi], counts[hi:].sum()])
    exp = np.array(
        [expected[: lo + 1].sum(), *expected[lo + 1 : hi], expected[hi:].sum()]
    )
    exp *= obs.sum() / exp.sum()
    assert scipy_stats.chisquare(obs, exp).pvalue > 1e-3
