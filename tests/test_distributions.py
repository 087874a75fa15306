import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from qbinomial.distributions import (
    Binomial,
    DiscreteNormal,
    Heine,
    KempBinomial,
    PMFTable,
    Poisson,
    SupportError,
    TableMassError,
    dnorm_pmf,
    dnorm_table,
    heine_mean,
    heine_pmf,
    heine_table,
    kb_moments,
    kb_pmf,
    kb_sample,
    kb_table,
    poisson_table,
    reference_pmf,
    reflect,
    sample_by_inversion,
)
from qbinomial.qcalc import QBase, ScaledReal, q_pochhammer_inf

Q5 = QBase(0.5)


def table_moments(t: PMFTable):
    xs = t.x_values().astype(float)
    mean = math.fsum((xs * t.probs).tolist())
    var = math.fsum(((xs - mean) ** 2 * t.probs).tolist())
    return mean, var


def bernoulli_sample(d: KempBinomial, rng, size: int) -> np.ndarray:
    """Oracle sampler: KB(n, theta, q) as a sum of n independent Bernoulli trials.

    Trial i succeeds with probability theta q^i / (1 + theta q^i); O(n) per draw.
    """
    probs = expit(d.log_theta + np.arange(d.n) * d.q.log)
    out = np.empty(size, dtype=np.int64)
    step = max(1, (1 << 21) // max(d.n, 1))
    for start in range(0, size, step):
        k = min(step, size - start)
        out[start : start + k] = (rng.random((k, d.n)) < probs).sum(axis=1)
    return out


def window_half_width(q: QBase) -> int:
    """Least K with ln(1/q) K (K - 1) / 2 >= 760: P(mode +- k) < e^-760 beyond it."""
    K = 1
    while -q.log * K * (K - 1) / 2 < 760.0:
        K += 1
    return K


def kb_log_pmf_mp(d: KempBinomial, xs) -> dict:
    """ln P(X = x) at 30 digits from the exact binary64 inputs.

    ln P = ln [n choose x]_q - sum_{i<x} softplus(-t_i) - sum_{x<=i<n} softplus(t_i),
    t_i = ln theta + i ln q. Terms with |t_i| > 300 and factors 1 - q^i with
    q^i < e^-300 are below 1e-100 in total and are left out.
    """
    with mp.workdps(30):
        lq = mp.log(d.q.value)
        lt = mp.log(d.theta.mantissa) + d.theta.exponent * lq
        h = -lq
        cut = int(mp.ceil(300 / h))

        log_qq = [mp.mpf(0)]  # ln (q; q)_k for k <= cut
        for i in range(1, cut + 1):
            log_qq.append(log_qq[-1] + mp.log(-mp.expm1(i * lq)))
        centre = int(mp.floor(lt / h))
        lo, hi = max(0, centre - cut), min(d.n, centre + cut)
        t = [lt + i * lq for i in range(lo, hi)]
        neg = [mp.log1p(mp.exp(-v)) for v in t]  # softplus(-t_i)
        pos = [mp.log1p(mp.exp(v)) for v in t]  # softplus(t_i)
        out = {}
        for x in xs:
            j = min(max(x - lo, 0), hi - lo)
            binom = log_qq[min(d.n, cut)] - log_qq[min(x, cut)] - log_qq[min(d.n - x, cut)]
            out[x] = binom - mp.fsum(neg[:j]) - mp.fsum(pos[j:])
        return out


class TestKempBinomialPMF:
    def test_exact_small_case(self):
        # (-1; 0.5)_2 = (1+1)(1+0.5) = 3
        d = KempBinomial(2, 1.0, Q5)
        assert kb_pmf(d, 0) == pytest.approx(1 / 3, rel=1e-14)
        assert kb_pmf(d, 1) == pytest.approx(1 / 2, rel=1e-14)
        assert kb_pmf(d, 2) == pytest.approx(1 / 6, rel=1e-14)

    def test_outside_support(self):
        d = KempBinomial(2, 1.0, Q5)
        assert kb_pmf(d, -1) == 0.0
        assert kb_pmf(d, 3) == 0.0

    def test_binomial_limit_q_to_1(self):
        d = KempBinomial(5, 1.0, QBase(0.9999))
        b = Binomial(5, 0.5)
        worst = max(abs(kb_pmf(d, x) - reference_pmf(b, x)) for x in range(6))
        assert worst < 1e-3

    def test_n_zero_point_mass(self):
        d = KempBinomial(0, 1.0, Q5)
        assert kb_pmf(d, 0) == 1.0
        t = kb_table(d)
        assert t.probs.tolist() == [1.0]

    def test_table_matches_pointwise(self):
        d = KempBinomial(17, 2.5, QBase(0.7))
        t = kb_table(d)
        for x in range(18):
            assert t.prob(x) == pytest.approx(kb_pmf(d, x), rel=1e-12)

    @pytest.mark.parametrize("qv", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("theta_kind", ["0.1", "1", "5", "q^-n"])
    def test_normalization_grid(self, qv, theta_kind):
        q = QBase(qv)
        for n in range(0, 61, 7):
            theta = (
                ScaledReal.one(q).q_shift(-n)
                if theta_kind == "q^-n"
                else float(theta_kind)
            )
            total = math.fsum(kb_table(KempBinomial(n, theta, q)).probs.tolist())
            assert total == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(0, 40),
        theta=st.floats(0.01, 20),
        qv=st.floats(0.1, 0.95),
    )
    def test_normalization_property(self, n, theta, qv):
        t = kb_table(KempBinomial(n, theta, QBase(qv)))
        assert math.fsum(t.probs.tolist()) == pytest.approx(1.0, abs=1e-11)


class TestKempBinomialMoments:
    def test_closed_form_small_case(self):
        m = kb_moments(KempBinomial(2, 1.0, Q5))
        assert m.mean == pytest.approx(5 / 6, rel=1e-14)
        assert m.variance == pytest.approx(17 / 36, rel=1e-14)

    def test_degenerate_theta(self):
        m = kb_moments(KempBinomial(10, ScaledReal.zero(Q5), Q5))
        assert m.mean == 0.0 and m.variance == 0.0

    def test_vanishing_theta(self):
        m = kb_moments(KempBinomial(10, 1e-300, Q5))
        assert m.mean == pytest.approx(0.0, abs=1e-290)
        assert m.variance == pytest.approx(0.0, abs=1e-290)

    def test_against_table_moments(self):
        d = KempBinomial(20, 1.3, QBase(0.6))
        mean, var = table_moments(kb_table(d))
        m = kb_moments(d)
        assert m.mean == pytest.approx(mean, abs=1e-10)
        assert m.variance == pytest.approx(var, abs=1e-10)

    @pytest.mark.parametrize("qv", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("theta", [0.1, 1.0, 5.0])
    def test_moment_consistency_grid(self, qv, theta):
        for n in (1, 3, 10, 35, 60):
            d = KempBinomial(n, theta, QBase(qv))
            mean, var = table_moments(kb_table(d))
            m = kb_moments(d)
            assert m.mean == pytest.approx(mean, abs=1e-10)
            assert m.variance == pytest.approx(var, abs=1e-10)


class TestKempBinomialSampler:
    def test_bounds_and_determinism(self):
        d = KempBinomial(9, 1.5, Q5)
        a = kb_sample(d, np.random.default_rng(3), size=500)
        b = kb_sample(d, np.random.default_rng(3), size=500)
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() <= 9

    def test_degenerate_always_zero(self):
        d = KempBinomial(6, ScaledReal.zero(Q5), Q5)
        assert kb_sample(d, np.random.default_rng(0)) == 0
        assert not kb_sample(d, np.random.default_rng(0), size=100).any()

    def test_single_draw_is_int(self):
        v = kb_sample(KempBinomial(4, 1.0, Q5), np.random.default_rng(1))
        assert isinstance(v, int)

    def test_empirical_mean_clt_band(self):
        d = KempBinomial(20, 1.3, QBase(0.6))
        m = kb_moments(d)
        draws = kb_sample(d, np.random.default_rng(20260810), size=1_000_000)
        band = 4.0 * math.sqrt(m.variance) / 1000.0
        assert abs(draws.mean() - m.mean) < band


class TestWindowedTable:
    """kb_table keeps only mode +- K, where K is the window_half_width of q."""

    @staticmethod
    def exponential_regime(n, q):
        return KempBinomial(n, ScaledReal.from_q_power(-(0.37 * n + 0.3), q), q)

    def test_million_trials_against_mpmath(self):
        d = self.exponential_regime(10**6, Q5)
        t = kb_table(d)
        mode = t.offset + int(np.argmax(t.probs))
        xs = range(mode - 20, mode + 21)
        ref = kb_log_pmf_mp(d, xs)
        for x in xs:
            want = mp.exp(ref[x])
            assert abs(kb_pmf(d, x) / want - 1) < 1e-12, x
            assert abs(t.prob(x) / want - 1) < 1e-12, x

    def test_million_trials_window_size_and_pointwise(self):
        d = self.exponential_regime(10**6, Q5)
        t = kb_table(d)
        assert len(t) <= 2 * window_half_width(Q5) + 5
        assert 0 < t.offset and t.last < d.n
        assert t.captured_mass == pytest.approx(1.0, abs=1e-15)
        for x, p in zip(t.x_values(), t.probs):
            want = kb_pmf(d, int(x))
            if want > 1e-300:
                assert p == pytest.approx(want, rel=1e-12), x

    @pytest.mark.parametrize("n, qv, count", [(5000, 0.5, 4000), (10**5, 0.999, 500)])
    def test_sampler_against_bernoulli_oracle(self, n, qv, count):
        scipy_stats = pytest.importorskip("scipy.stats")
        q = QBase(qv)
        d = self.exponential_regime(n, q)
        t = kb_table(d)
        assert t.offset > 0 and t.last < n  # the window is narrower than the support
        oracle = bernoulli_sample(d, np.random.default_rng(11), count)
        draws = kb_sample(d, np.random.default_rng(12), size=20_000)
        assert scipy_stats.ks_2samp(oracle, draws).pvalue > 1e-3
        m = kb_moments(d)
        for sample in (oracle, draws):
            assert abs(sample.mean() - m.mean) < 5.0 * math.sqrt(m.variance / sample.size)


class TestHeine:
    def test_p0_is_eq_of_minus_theta(self):
        # oracle: truncated product for 1/(-0.5; 0.5)_inf
        prod = 1.0
        for i in range(60):
            prod *= 1.0 + 0.5 * 0.5**i
        d = Heine(0.5, Q5)
        assert heine_pmf(d, 0) == pytest.approx(1.0 / prod, rel=1e-12)
        assert heine_pmf(d, 0) == pytest.approx(0.4194, abs=5e-5)

    def test_negative_x(self):
        assert heine_pmf(Heine(0.5, Q5), -2) == 0.0

    def test_normalization(self):
        d = Heine(0.5, Q5)
        total = math.fsum(heine_pmf(d, x) for x in range(61))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_poisson_limit(self):
        q = QBase(0.999)
        d = Heine((1 - 0.999) * 1.0, q)
        assert heine_pmf(d, 0) == pytest.approx(math.exp(-1.0), abs=1e-3)

    def test_mean_zero_theta(self):
        assert heine_mean(Heine(0.0, Q5)) == 0.0

    def test_mean_against_table(self):
        d = Heine(0.5, Q5)
        mean = math.fsum(x * heine_pmf(d, x) for x in range(1, 80))
        assert heine_mean(d) == pytest.approx(mean, abs=1e-10)

    def test_mean_large_theta_against_table(self):
        d = Heine(3.7, Q5)
        mean = math.fsum(x * heine_pmf(d, x) for x in range(1, 100))
        assert heine_mean(d) == pytest.approx(mean, abs=1e-10)

    def test_mean_is_kb_limit(self):
        kb = kb_moments(KempBinomial(200, 0.5, Q5)).mean
        assert heine_mean(Heine(0.5, Q5)) == pytest.approx(kb, abs=1e-10)

    def test_table_tail_certified(self):
        t = heine_table(Heine(0.5, Q5))
        assert t.captured_mass >= 1 - 1e-12
        # paper tail rule: mass complete once q^{x(x-1)/2} theta^x/(q;q)_inf < 1e-16
        # in log form, since the float product underflows to 0 at x = len(t)
        qq_inf = q_pochhammer_inf(0.5, Q5)
        x = len(t)
        log_tail = x * (x - 1) / 2 * math.log(0.5) + x * math.log(0.5) - math.log(qq_inf)
        assert log_tail < math.log(1e-16)
        partial = math.fsum(t.probs.tolist())
        assert partial == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("qv", [0.998, 0.999])
    def test_table_near_q_one(self, qv):
        # ln (q;q)_inf is about -1645 at q = 0.999, so (q;q)_inf underflows
        # and (-1; q)_inf overflows: both normalisers must stay in log form
        d = Heine(1.0, QBase(qv))
        t = heine_table(d)
        assert t.captured_mass >= 1 - 1e-12
        assert math.fsum(t.probs.tolist()) == pytest.approx(1.0, abs=1e-12)
        assert heine_pmf(d, 3) == pytest.approx(t.prob(3), rel=1e-12)
        assert heine_mean(d) == pytest.approx(table_moments(t)[0], rel=1e-11)

    def test_window_from_zero_past_k(self):
        # at q = 0.999, theta = 5 the mode (about 1790) lies past K = 1236,
        # and the window still starts at 0, so index i holds P(X = i)
        d = Heine(5.0, QBase(0.999))
        t = heine_table(d)
        mode = int(np.argmax(t.probs))
        assert t.offset == 0
        assert mode > 1236
        for x in range(mode - 50, mode + 51):
            assert t.prob(x) == pytest.approx(heine_pmf(d, x), rel=1e-11)
        assert table_moments(t)[0] == pytest.approx(heine_mean(d), rel=1e-11)

    @pytest.mark.parametrize("qv", [0.998, 0.999])
    def test_pmf_near_q_one_against_mpmath(self, qv):
        theta = 0.5
        d = Heine(theta, QBase(qv))
        with mp.workdps(30):
            lq = mp.log(qv)
            # Euler: ln(-theta; q)_inf = sum_k (-1)^(k-1) theta^k / (k (1 - q^k)), theta < 1
            log_norm = mp.fsum((-1) ** (k - 1) * mp.mpf(theta) ** k / (k * -mp.expm1(k * lq))
                               for k in range(1, 120))
            for x in (0, 3, 400):
                log_qq = mp.fsum(mp.log(-mp.expm1(i * lq)) for i in range(1, x + 1))
                ref = mp.exp(mp.mpf(x) * (x - 1) / 2 * lq + x * mp.log(theta) - log_qq - log_norm)
                assert heine_pmf(d, x) == pytest.approx(float(ref), rel=1e-12)


class TestDiscreteNormal:
    def test_symmetry_at_alpha_zero(self):
        d = DiscreteNormal(0.0, Q5)
        for x in (1, 2, 5, 9):
            assert dnorm_pmf(d, x) == dnorm_pmf(d, -x)

    def test_normalization(self):
        d = DiscreteNormal(0.7, Q5)
        total = math.fsum(dnorm_pmf(d, x) for x in range(-50, 51))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_p0_against_theta_sum_oracle(self):
        norm = math.fsum(0.5 ** (k * k / 2.0) for k in range(-40, 41))
        d = DiscreteNormal(0.0, Q5)
        assert dnorm_pmf(d, 0) == pytest.approx(1.0 / norm, rel=1e-12)
        assert dnorm_pmf(d, 0) == pytest.approx(0.33214, abs=1e-5)

    def test_table_symmetric(self):
        t = dnorm_table(DiscreteNormal(0.0, Q5))
        assert np.allclose(t.probs, t.probs[::-1], rtol=0, atol=0)
        assert t.captured_mass >= 1 - 1e-12

    @pytest.mark.parametrize("qv", [0.3, 0.5, 0.95])
    @pytest.mark.parametrize("alpha", [1000.7, 10000.3])
    def test_large_alpha_against_mpmath(self, alpha, qv):
        # x^2/2 - x alpha cancels at large alpha; the weights are built from (x - alpha)^2/2
        d = DiscreteNormal(alpha, QBase(qv))
        t = dnorm_table(d)
        c = round(alpha)
        with mp.workdps(40):
            lq = mp.log(qv)
            w = {int(x): mp.exp((int(x) - mp.mpf(alpha)) ** 2 / 2 * lq) for x in t.x_values()}
            z = mp.fsum(w.values())
            ref = {x: wx / z for x, wx in w.items()}
        assert t.offset < c < t.last
        assert t.captured_mass >= 1 - 1e-12
        top = t.probs.max()
        for x, p in zip(t.x_values(), t.probs):
            r = ref[int(x)]
            if p >= 1e-12 * top:
                assert p == pytest.approx(float(r), rel=5e-14)
            else:
                # far entries: the rounding of their log-weight grows with |ln p|;
                # 5e-324, one subnormal ulp, covers the final rounding of exp
                tol = 1e-15 * (1 + abs(float(mp.log(r)))) * float(r) + 5e-324
                assert abs(p - float(r)) <= tol
        assert dnorm_pmf(d, c + 1) == pytest.approx(float(ref[c + 1]), rel=5e-14)


class TestReferenceLaws:
    def test_bernoulli(self):
        b = Binomial(1, 0.5)
        assert reference_pmf(b, 0) == pytest.approx(0.5, rel=1e-15)
        assert reference_pmf(b, 1) == pytest.approx(0.5, rel=1e-15)

    def test_binomial_quarter(self):
        assert reference_pmf(Binomial(4, 0.25), 0) == pytest.approx(
            0.31640625, rel=1e-13
        )

    def test_poisson(self):
        assert reference_pmf(Poisson(1.0), 0) == pytest.approx(
            math.exp(-1), rel=1e-13
        )
        assert reference_pmf(Poisson(1.0), -1) == 0.0

    def test_poisson_table_mass(self):
        t = poisson_table(Poisson(3.0))
        assert t.captured_mass >= 1 - 1e-12


class TestInversionSampling:
    def test_point_table(self):
        t = PMFTable(0, np.array([1.0]), 1.0)
        assert sample_by_inversion(t, np.random.default_rng(0)) == 0

    def test_determinism(self):
        t = heine_table(Heine(0.5, Q5))
        a = sample_by_inversion(t, np.random.default_rng(11), size=200)
        b = sample_by_inversion(t, np.random.default_rng(11), size=200)
        assert np.array_equal(a, b)

    def test_mass_precondition(self):
        leaky = PMFTable(0, np.array([0.5, 0.3]), 0.8)
        with pytest.raises(TableMassError):
            sample_by_inversion(leaky, np.random.default_rng(0))

    def test_empirical_tv(self):
        t = heine_table(Heine(0.5, Q5))
        draws = sample_by_inversion(t, np.random.default_rng(99), size=1_000_000)
        counts = np.bincount(draws, minlength=len(t))[: len(t)]
        emp = counts / draws.size
        tv = 0.5 * np.abs(emp - t.probs).sum()
        assert tv < 0.005


class TestReflect:
    def test_involution(self):
        t = kb_table(KempBinomial(7, 1.2, Q5))
        back = reflect(reflect(t, 7), 7)
        assert back.offset == t.offset
        assert np.array_equal(back.probs, t.probs)

    def test_small_case_values(self):
        t = reflect(kb_table(KempBinomial(2, 1.0, Q5)), 2)
        assert t.prob(0) == pytest.approx(1 / 6, rel=1e-13)
        assert t.prob(1) == pytest.approx(1 / 2, rel=1e-13)
        assert t.prob(2) == pytest.approx(1 / 3, rel=1e-13)

    def test_support_precondition(self):
        t = kb_table(KempBinomial(5, 1.0, Q5))
        with pytest.raises(SupportError):
            reflect(t, 4)

    @pytest.mark.parametrize("n", [1, 10, 35, 60])
    def test_exponential_reflection_identity(self, n):
        # reflect of KB(n, theta q^-n, q) equals KB(n, q/theta, q) exactly
        theta = 2.0
        d = KempBinomial(n, ScaledReal.from_float(theta, Q5).q_shift(-n), Q5)
        lhs = reflect(kb_table(d), n)
        rhs = kb_table(KempBinomial(n, 0.5 / theta, Q5))
        assert np.max(np.abs(lhs.probs - rhs.probs)) < 1e-12


class TestSamplerGoodnessOfFit:
    def test_chi_square_significance(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        d = KempBinomial(20, 1.3, QBase(0.6))
        t = kb_table(d)
        draws = kb_sample(d, np.random.default_rng(424242), size=1_000_000)
        counts = np.bincount(draws, minlength=21).astype(float)
        expected = t.probs * draws.size
        # merge bins with expectation < 5 into their neighbors
        keep = expected >= 5.0
        lo, hi = np.argmax(keep), 20 - np.argmax(keep[::-1])
        obs = np.array(
            [counts[: lo + 1].sum(), *counts[lo + 1 : hi], counts[hi:].sum()]
        )
        exp = np.array(
            [expected[: lo + 1].sum(), *expected[lo + 1 : hi], expected[hi:].sum()]
        )
        exp *= obs.sum() / exp.sum()
        result = scipy_stats.chisquare(obs, exp)
        assert result.pvalue > 1e-3


class TestValidation:
    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            KempBinomial(3, -1.0, Q5)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            KempBinomial(-1, 1.0, Q5)

    def test_table_rejects_negative_probs(self):
        with pytest.raises(ValueError):
            PMFTable(0, np.array([0.5, -0.1]), 0.4)

    def test_table_rejects_nan_entry(self):
        with pytest.raises(ValueError):
            PMFTable(0, np.array([np.nan, 0.5]), 1.0)

    def test_table_rejects_inconsistent_mass(self):
        with pytest.raises(ValueError):
            PMFTable(0, np.array([0.5, 0.5]), 0.7)
