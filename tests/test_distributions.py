import copy
import math
import pickle

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import qbinomial.distributions as D
from qbinomial.distributions import (
    Binomial,
    DiscreteNormal,
    Heine,
    KempBinomial,
    MomentPair,
    PMFTable,
    Poisson,
    SupportError,
    binomial_table,
    dnorm_table,
    heine_mean,
    heine_table,
    kb_log_pmf,
    kb_moments,
    kb_pmf,
    kb_sample,
    kb_table,
    poisson_table,
    reflect,
    sample_by_inversion,
)
from qbinomial.metrics import tv_distance
from qbinomial.qcalc import E_q, QBase, ScaledReal, _lattice_parts

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
    probs = expit(d.theta.log_abs() + np.arange(d.n) * d.q.log)
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


def binomial_pmf(n: int, p: float, x: int) -> float:
    """P(X = x) of Binomial(n, p) from math.lgamma, for 0 < p < 1 and 0 <= x <= n."""
    log_comb = math.lgamma(n + 1) - math.lgamma(x + 1) - math.lgamma(n - x + 1)
    return math.exp(log_comb + x * math.log(p) + (n - x) * math.log1p(-p))


def heine_pmf_mp(theta: float, q: float, x: int) -> mp.mpf:
    """P(X = x) of H(theta) at 40 digits, as 1 / sum_y P(y)/P(x) over y = x +- W.

    P(y+1)/P(y) = theta q^y / (1 - q^(y+1)), so no normaliser is needed. With x the
    mode, P(x +- k)/P(x) <= q^(k(k-1)/2), below e^-110 past W = sqrt(220/ln(1/q)) + 2.
    """
    with mp.workdps(40):
        lt, lq = mp.log(theta), mp.log(q)
        width = math.ceil(math.sqrt(220 / -math.log(q))) + 2

        def log_ratio(y):
            return lt + y * lq - mp.log(-mp.expm1((y + 1) * lq))

        total, up, down = mp.mpf(1), mp.mpf(0), mp.mpf(0)
        for k in range(width):
            up += log_ratio(x + k)
            total += mp.exp(up)
            if x - 1 - k >= 0:
                down -= log_ratio(x - 1 - k)
                total += mp.exp(down)
        return 1 / total


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
        worst = max(abs(kb_pmf(d, x) - binomial_pmf(5, 0.5, x)) for x in range(6))
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
                ScaledReal.from_float(1.0, q).q_shift(-n)
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
        m = kb_moments(KempBinomial(10, ScaledReal.from_float(0.0, Q5), Q5))
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
        d = KempBinomial(6, ScaledReal.from_float(0.0, Q5), Q5)
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

    @pytest.mark.parametrize("n, f", [(2000, 0.8), (3000, 0.3)], ids=["x>n/2", "block-below-e^-746"])
    def test_binomial_block_forms_against_mpmath(self, n, f):
        # ln [n choose x]_q is summed as ln [n choose m]_q, m = min(x, n - x): m = n - x near
        # the mode at n = 2000; at n = 3000, m = x, and every term of its block is below e^-746
        q = Q5
        d = KempBinomial(n, ScaledReal.from_q_power(-(f * n + 0.3), q), q)
        t = kb_table(d)
        mode = t.offset + int(np.argmax(t.probs))
        assert (2 * mode > n) == (f > 0.5) and ((n - mode) * -q.log > 746) == (f < 0.5)
        xs = range(mode - 10, mode + 11, 5)
        ref = kb_log_pmf_mp(d, xs)
        for x in xs:
            assert abs(kb_pmf(d, x) / mp.exp(ref[x]) - 1) < 1e-12, x

    def test_skipped_block_is_zero(self):
        # kb_log_pmf leaves out a block that starts at t = -746 or below: all its parts are 0.0
        for h in (1e-4, 0.1, 0.7, 3.0):
            for x in (1, 2, 100, 10**6):
                assert not any(_lattice_parts(("log1mexp",), [(-746.0, x)], h)[0][0])

    def test_million_trials_window_size_and_pointwise(self):
        d = self.exponential_regime(10**6, Q5)
        t = kb_table(d)
        assert len(t) <= 2 * window_half_width(Q5) + 5
        assert 0 < t.offset and t.last < d.n
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
        assert kb_pmf(d, 0) == pytest.approx(1.0 / prod, rel=1e-12)
        assert kb_pmf(d, 0) == pytest.approx(0.4194, abs=5e-5)

    def test_negative_x(self):
        assert kb_pmf(Heine(0.5, Q5), -2) == 0.0

    def test_normalization(self):
        d = Heine(0.5, Q5)
        total = math.fsum(kb_pmf(d, x) for x in range(61))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("qv", [0.3, 0.5, 0.9, 0.99])
    def test_is_kb_at_a_million_trials_bit_for_bit(self, qv):
        # q^(1e6) is 0.0 in binary64 at every qv here, so H(theta) and KB(1e6, theta, q),
        # which keeps a float theta as given, are the same law to the last bit
        q = QBase(qv)
        for theta in (0.05, 0.37, 0.8, 1.7, 3.0, 12.5, 1e3):
            kb, heine = KempBinomial(10**6, theta, q), Heine(theta, q)
            assert kb_moments(kb) == kb_moments(heine), theta
            assert [kb_pmf(kb, x) for x in range(5)] == [kb_pmf(heine, x) for x in range(5)], theta

    def test_is_kb_of_infinite_n(self):
        # H(theta) is KB(inf, theta, q) itself, with a float or an exact theta past DBL_MAX,
        # so it keeps its table for kb_sample as any KB law does
        q = QBase(0.7)
        for theta in (0.5, ScaledReal(1, 1.0, -2500, q)):
            d = Heine(theta, q)
            assert d == KempBinomial(math.inf, theta, q)
            assert pickle.dumps(d) == pickle.dumps(KempBinomial(math.inf, theta, q))
            draws = kb_sample(d, np.random.default_rng(3), 1000)
            assert draws.tolist() == sample_by_inversion(heine_table(d), np.random.default_rng(3), 1000).tolist()
        for n in (-math.inf, math.nan, 2.0, True):
            with pytest.raises(ValueError, match="n must be"):
                KempBinomial(n, 1.0, q)
        for theta in (math.inf, math.nan, -1.0):
            with pytest.raises(ValueError, match="theta must be finite and nonnegative"):
                Heine(theta, q)

    def test_poisson_limit(self):
        q = QBase(0.999)
        d = Heine((1 - 0.999) * 1.0, q)
        assert kb_pmf(d, 0) == pytest.approx(math.exp(-1.0), abs=1e-3)

    @pytest.mark.parametrize("qv, theta", [(0.99, 1e6), (0.999, 1e30), (0.5, 1e200)])
    def test_pmf_at_mode_large_theta(self, qv, theta):
        # x ln theta and ln e_q(-theta) are 2e4 to 5e6 here, so a pmf that formed
        # both and cancelled them would miss by 1e-12 to 1e-10
        d = Heine(theta, QBase(qv))
        mode = int(np.argmax(heine_table(d).probs))
        assert kb_pmf(d, mode) == pytest.approx(float(heine_pmf_mp(theta, qv, mode)), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("theta", [1.0, 4.0, 1e3])
    def test_is_kb_at_large_n(self, theta):
        # q^n underflows at n = 1e6, so KB(n, theta, q) is H(theta) in binary64
        d = Heine(theta, Q5)
        for x in range(11):
            assert kb_pmf(KempBinomial(10**6, theta, Q5), x) == pytest.approx(kb_pmf(d, x), rel=1e-14, abs=0.0)

    def test_mean_zero_theta(self):
        assert heine_mean(Heine(0.0, Q5)) == 0.0

    def test_mean_against_table(self):
        d = Heine(0.5, Q5)
        mean = math.fsum(x * kb_pmf(d, x) for x in range(1, 80))
        assert heine_mean(d) == pytest.approx(mean, abs=1e-10)

    def test_mean_large_theta_against_table(self):
        d = Heine(3.7, Q5)
        mean = math.fsum(x * kb_pmf(d, x) for x in range(1, 100))
        assert heine_mean(d) == pytest.approx(mean, abs=1e-10)

    def test_mean_is_kb_limit(self):
        kb = kb_moments(KempBinomial(200, 0.5, Q5)).mean
        assert heine_mean(Heine(0.5, Q5)) == pytest.approx(kb, abs=1e-10)

    def test_table_tail_certified(self):
        t = heine_table(Heine(0.5, Q5))
        # paper tail rule: mass complete once q^{x(x-1)/2} theta^x/(q;q)_inf < 1e-16
        # in log form, since the float product underflows to 0 at x = len(t)
        qq_inf = E_q(-0.5, Q5)
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
        assert math.fsum(t.probs.tolist()) == pytest.approx(1.0, abs=1e-12)
        assert kb_pmf(d, 3) == pytest.approx(t.prob(3), rel=1e-12)
        assert heine_mean(d) == pytest.approx(table_moments(t)[0], rel=1e-11)

    def test_window_from_zero_past_k(self):
        # at q = 0.999, theta = 5 the mode (about 1790) lies past K = 1236: heine_table
        # still starts at 0, so index i holds P(X = i), and is kb_table's window with
        # exact zeros in front
        d = Heine(5.0, QBase(0.999))
        t, kb = heine_table(d), kb_table(d)
        mode = int(np.argmax(t.probs))
        assert t.offset == 0
        assert mode > 1236 and kb.offset > 0
        assert not t.probs[: kb.offset].any()
        assert np.array_equal(t.probs[kb.offset :], kb.probs)
        for x in range(mode - 50, mode + 51):
            assert t.prob(x) == pytest.approx(kb_pmf(d, x), rel=1e-11)
        assert table_moments(t)[0] == pytest.approx(heine_mean(d), rel=1e-11)

    @pytest.mark.parametrize("qv, theta, n", [(0.9999, 1e3, 2 * 10**6), (0.999, 5.0, 10**5), (0.999, 1e300, 10**6)])
    def test_table_is_kb_table_past_k(self, qv, theta, n):
        # the mode lies past K, and q^(n - mode - K) is below half an ulp, so H(theta)'s
        # window is KB(n, theta, q)'s, mode +- K, and its entries are the same bit for bit
        q = QBase(qv)
        t, kb = kb_table(Heine(theta, q)), kb_table(KempBinomial(n, theta, q))
        assert t.offset == kb.offset > 0
        assert np.array_equal(t.probs, kb.probs)
        assert len(t) <= 2 * window_half_width(q) + 5  # 2K + 1 with the library's K: 2,473 at q = 0.999

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
                assert kb_pmf(d, x) == pytest.approx(float(ref), rel=1e-12)


@pytest.mark.parametrize("d", [KempBinomial(10, 0.0, Q5), KempBinomial(0, 2.0, Q5)])
def test_kb_point_mass(d):
    assert kb_log_pmf(d, 0) == 0.0 and kb_log_pmf(d, 1) == -math.inf
    assert kb_pmf(d, 0) == 1.0 and kb_pmf(d, 1) == 0.0
    assert kb_moments(d) == MomentPair(0.0, 0.0)
    assert (kb_table(d).offset, kb_table(d).probs.tolist()) == (0, [1.0])


def test_heine_zero_theta_is_point_mass():
    d = Heine(0.0, Q5)
    assert kb_pmf(d, 0) == 1.0 and kb_pmf(d, 1) == 0.0
    assert heine_mean(d) == 0.0 and kb_moments(d) == MomentPair(0.0, 0.0)
    assert (heine_table(d).offset, heine_table(d).probs.tolist()) == (0, [1.0])


class TestDiscreteNormal:
    def test_symmetry_at_alpha_zero(self):
        t = dnorm_table(DiscreteNormal(0.0, Q5))
        for x in (1, 2, 5, 9):
            assert t.prob(x) == t.prob(-x)

    def test_normalization(self):
        t = dnorm_table(DiscreteNormal(0.7, Q5))
        total = math.fsum(t.prob(x) for x in range(-50, 51))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_p0_against_theta_sum_oracle(self):
        norm = math.fsum(0.5 ** (k * k / 2.0) for k in range(-40, 41))
        t = dnorm_table(DiscreteNormal(0.0, Q5))
        assert t.prob(0) == pytest.approx(1.0 / norm, rel=1e-12)
        assert t.prob(0) == pytest.approx(0.33214, abs=1e-5)

    def test_table_symmetric(self):
        t = dnorm_table(DiscreteNormal(0.0, Q5))
        assert np.allclose(t.probs, t.probs[::-1], rtol=0, atol=0)

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
        assert t.prob(c + 1) == pytest.approx(float(ref[c + 1]), rel=5e-14)


class TestReferenceLaws:
    def test_bernoulli(self):
        t = binomial_table(Binomial(1, 0.5))
        assert t.prob(0) == pytest.approx(0.5, rel=1e-15)
        assert t.prob(1) == pytest.approx(0.5, rel=1e-15)

    def test_binomial_quarter(self):
        assert binomial_table(Binomial(4, 0.25)).prob(0) == pytest.approx(
            0.31640625, rel=1e-13
        )

    def test_poisson(self):
        t = poisson_table(Poisson(1.0))
        assert t.prob(0) == pytest.approx(math.exp(-1), rel=1e-13)
        assert t.prob(-1) == 0.0

    def test_poisson_table_mass(self):
        t = poisson_table(Poisson(3.0))
        assert math.fsum(t.probs.tolist()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("lam", [1e-322, 5e-324])
    def test_poisson_tiny_lambda(self, lam):
        # lam / (x + 1) underflows to 0.0 on the far entries; the table holds no warning
        t = poisson_table(Poisson(lam))
        assert (t.offset, t.probs[0], t.probs[1]) == (0, 1.0, lam)

    def test_poisson_zero_is_point_mass(self):
        t = poisson_table(Poisson(0.0))
        assert (t.offset, t.probs.tolist()) == (0, [1.0])

    @pytest.mark.parametrize("law, offset", [(Binomial(7, 1.0), 7), (Binomial(7, 0.0), 0)])
    def test_binomial_point_masses(self, law, offset):
        t = binomial_table(law)
        assert (t.offset, t.probs.tolist()) == (offset, [1.0])

    @pytest.mark.parametrize(
        "law",
        [Binomial(100_000, 0.3), Binomial(1_000_000, 0.5), Poisson(1e4), Poisson(1e6)],
        ids=repr,
    )
    def test_large_laws_against_mpmath(self, law):
        # the Bernstein window mean +- d, d = T/3 + sqrt(T^2/9 + 2 T var), T = 760
        if isinstance(law, Binomial):
            mean, var = law.n * law.p, law.n * law.p * (1 - law.p)
        else:
            mean = var = law.lam
        t = binomial_table(law) if isinstance(law, Binomial) else poisson_table(law)
        d = 760 / 3 + math.sqrt(760**2 / 9 + 2 * 760 * var)
        assert len(t) <= 2 * d + 3
        sd = math.sqrt(var)
        with mp.workdps(40):
            for k in (-5, -2, 0, 2, 5):
                x = math.floor(mean + k * sd)
                if isinstance(law, Binomial):
                    p = mp.mpf(law.p)
                    ref = mp.binomial(law.n, x) * p**x * (1 - p) ** (law.n - x)
                else:
                    lam = mp.mpf(law.lam)
                    ref = mp.exp(-lam + x * mp.log(lam) - mp.loggamma(x + 1))
                assert t.prob(x) == pytest.approx(float(ref), rel=1e-11, abs=0)


class TestInversionSampling:
    def test_point_table(self):
        t = PMFTable(0, np.array([1.0]))
        assert sample_by_inversion(t, np.random.default_rng(0)) == 0

    def test_determinism(self):
        t = heine_table(Heine(0.5, Q5))
        a = sample_by_inversion(t, np.random.default_rng(11), size=200)
        b = sample_by_inversion(t, np.random.default_rng(11), size=200)
        assert np.array_equal(a, b)

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


def _convolved(a: PMFTable, b: PMFTable) -> PMFTable:
    """The table of X + Y for independent X ~ a and Y ~ b."""
    return PMFTable(a.offset + b.offset, np.convolve(a.probs, b.probs))


class TestSplitIdentities:
    """KB is a sum of independent Bernoullis, trial i with odds theta q^i, so splitting the
    trials after the first n is an exact convolution identity of the tables:
    KB(n + m, theta) = KB(n, theta) * KB(m, theta q^n) and H(theta) = KB(n, theta) * H(theta q^n).
    Each side rounds once per entry, so the tolerance is eps per window entry."""

    # (q, n, m, theta's mantissa, theta's q-exponent): theta = q^-(n + m - 5) or q^-(n + m - 10)
    # puts the window at the support's end, where ln(1 - q^(n - x)) is far from 0; at
    # q = 0.99999, n + m <= 2500 keeps the support shorter than the window
    LAWS = [
        (0.5, 40, 60, 1.3, 0),
        (0.5, 40, 60, 1.0, -95),
        (0.9, 300, 200, 7.0, 0),
        (0.999, 3000, 2000, 1.0, -4990),
        (0.999, 5000, 5000, 1e3, 0),
        (0.9999, 10**6, 10**6, 1.0, -(10**6 + 2000)),
        (0.9999, 3000, 2000, 1.0, -4995),
        (0.99999, 1500, 1000, 1.0, -2490),
        (0.99999, 1500, 1000, 0.5, 0),
    ]

    @pytest.mark.parametrize("qv, n, m, mantissa, exponent", LAWS)
    def test_kb_split(self, qv, n, m, mantissa, exponent):
        q = QBase(qv)
        theta = ScaledReal(1, mantissa, exponent, q)
        whole = kb_table(KempBinomial(n + m, theta, q))
        split = _convolved(kb_table(KempBinomial(n, theta, q)), kb_table(KempBinomial(m, theta.q_shift(n), q)))
        assert tv_distance(whole, split) <= np.finfo(float).eps * len(whole)

    @pytest.mark.parametrize("qv, n, m, mantissa, exponent", LAWS)
    def test_moment_split(self, qv, n, m, mantissa, exponent):
        """The moments of the split add, with its m and with m = inf (a Heine tail).

        Each kb_moments mean is within the solvers' rounding certificate
        eps (mean + var (1 + |ln theta|)) of the exact one: eps per part of its fsum, and a
        logit t_i off by about eps |ln theta| moves sigmoid(t_i) by dsigmoid(t_i) times that,
        and the dsigmoids sum to var. |dsigmoid'| <= dsigmoid, so a variance is within
        eps var (1 + |ln theta|). The exact moments add, so each gap is within the sum of its
        three laws' certificates.
        """
        q, eps = QBase(qv), np.finfo(float).eps
        theta = ScaledReal(1, mantissa, exponent, q)
        for tail in (m, math.inf):
            laws = [
                KempBinomial(n + tail, theta, q), KempBinomial(n, theta, q), KempBinomial(tail, theta.q_shift(n), q)
            ]
            whole, head, rest = moments = [kb_moments(d) for d in laws]
            spread = math.fsum(eps * mo.variance * (1.0 + abs(d.theta.log_abs())) for d, mo in zip(laws, moments))
            mean_tol = spread + eps * math.fsum(mo.mean for mo in moments)
            assert abs(whole.mean - (head.mean + rest.mean)) <= mean_tol, tail
            assert abs(whole.variance - (head.variance + rest.variance)) <= spread, tail

    # theta = q^-1210 and q^-7000 pass DBL_MAX, so only a ScaledReal theta can carry them
    @pytest.mark.parametrize(
        "qv, n, theta",
        [
            (0.5, 30, 2.0),
            (0.9, 50, 10.0),
            (0.999, 500, 2.0),
            (0.9999, 5000, 2.0),
            pytest.param(0.5, 30, ScaledReal(1, 1.0, -1210, QBase(0.5)), id="0.5-30-q^-1210"),
            pytest.param(0.9, 50, ScaledReal(1, 1.0, -7000, QBase(0.9)), id="0.9-50-q^-7000"),
        ],
    )
    def test_heine_split(self, qv, n, theta):
        q = QBase(qv)
        first = KempBinomial(n, theta, q)
        head = kb_table(first)
        tail = heine_table(Heine(first.theta.q_shift(n), q))
        whole = heine_table(Heine(theta, q))
        assert tv_distance(whole, _convolved(head, tail)) <= np.finfo(float).eps * len(whole)


def _law_grid(count: int, seed: int) -> list:
    """Seeded KB laws: n log-uniform in [1, 1e5], q in [0.05, 0.999], theta constant or ~ q^-(s n)."""
    rng = np.random.default_rng(seed)
    laws = []
    for k in range(count):
        n = int(math.exp(rng.uniform(0.0, math.log(1e5))))
        q = QBase(float(rng.uniform(0.05, 0.999)))
        if k % 2:
            theta = ScaledReal.from_q_power(-float(rng.uniform(0.1, 0.9)) * n, q)
        else:
            theta = float(math.exp(rng.uniform(-3.0, 3.0)))
        laws.append(KempBinomial(n, theta, q))
    return laws


class TestSamplingTableCache:
    """A law's table and a table's cumulative sums are built on first use and kept."""

    def test_law_tabulated_once(self, monkeypatch):
        builds = []
        build = D.kb_table
        monkeypatch.setattr(D, "kb_table", lambda d: builds.append(d) or build(d))
        d = KempBinomial(20, 1.3, QBase(0.6))
        rng = np.random.default_rng(0)
        for _ in range(100):
            kb_sample(d, rng)
        kb_sample(d, rng, size=50)
        kb_sample(d, rng, size=50)
        assert len(builds) == 1

    def test_golden_draws(self):
        d = KempBinomial(20, 1.3, QBase(0.6))
        rng = np.random.default_rng(42)
        assert [kb_sample(d, rng) for _ in range(5)] == [3, 2, 3, 2, 1]
        assert kb_sample(d, np.random.default_rng(42), size=8).tolist() == [3, 2, 3, 2, 1, 4, 3, 3]
        t = heine_table(Heine(0.5, Q5))
        assert sample_by_inversion(t, np.random.default_rng(11), size=8).tolist() == [0, 1, 1, 0, 0, 2, 0, 0]
        t = dnorm_table(DiscreteNormal(0.3, Q5))
        assert sample_by_inversion(t, np.random.default_rng(5), size=8).tolist() == [1, 1, 0, 0, -2, 0, 0, -2]

    @pytest.mark.parametrize("d", _law_grid(30, 20261019), ids=repr)
    def test_draws_equal_fresh_inversion(self, d):
        t = kb_table(d)
        cdf = np.cumsum(t.probs)

        def fresh(rng, size):
            i = np.searchsorted(cdf, rng.random(size), side="right")
            return t.offset + np.minimum(i, len(t) - 1).astype(np.int64)

        a, b = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(3):
            v = kb_sample(d, a)
            assert type(v) is int and v == int(fresh(b, None))
        for size in (1, 257):
            v = kb_sample(d, a, size=size)
            assert v.dtype == np.int64 and np.array_equal(v, fresh(b, size))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: kb_table(KempBinomial(30, 2.0, Q5)),
            lambda: reflect(kb_table(KempBinomial(30, 2.0, Q5)), 30),
            lambda: heine_table(Heine(1.5, Q5)),
            lambda: dnorm_table(DiscreteNormal(0.3, Q5)),
            lambda: binomial_table(Binomial(12, 0.3)),
            lambda: poisson_table(Poisson(2.0)),
            lambda: PMFTable(0, np.array([0.25, 0.75])),
        ],
    )
    def test_tables_read_only(self, build):
        t = build()
        sample_by_inversion(t, np.random.default_rng(0), size=4)
        with pytest.raises(ValueError):
            t.probs[0] = 0.5
        with pytest.raises(ValueError):
            t._cdf[0] = 0.5

    def test_table_copies_a_writeable_array(self):
        probs = np.array([0.5, 0.5])
        t = PMFTable(0, probs)
        before = sample_by_inversion(t, np.random.default_rng(0), size=64)
        probs[:] = [1.0, 0.0]
        assert t.probs.tolist() == [0.5, 0.5]
        assert np.array_equal(sample_by_inversion(t, np.random.default_rng(0), size=64), before)

    def test_sampled_law_equals_hashes_and_pickles_like_unsampled(self):
        sampled, fresh = KempBinomial(20, 1.3, QBase(0.6)), KempBinomial(20, 1.3, QBase(0.6))
        kb_sample(sampled, np.random.default_rng(0))
        assert sampled == fresh and hash(sampled) == hash(fresh) and repr(sampled) == repr(fresh)
        assert pickle.dumps(sampled) == pickle.dumps(fresh)
        back = pickle.loads(pickle.dumps(sampled))
        assert back == fresh and "_table" not in vars(back)
        t = sampled._table
        assert pickle.dumps(t) == pickle.dumps(kb_table(fresh))
        back = pickle.loads(pickle.dumps(t))
        assert "_cdf" not in vars(back) and not back.probs.flags.writeable

    def test_single_draw_tuple_built_once(self):
        t = kb_table(KempBinomial(20, 1.3, QBase(0.6)))
        rng = np.random.default_rng(0)
        sample_by_inversion(t, rng)
        kept = vars(t)["_cdf_floats"]
        assert type(kept) is tuple and kept == tuple(t._cdf.tolist())
        for _ in range(20):
            sample_by_inversion(t, rng)
        sample_by_inversion(t, rng, size=20)
        assert vars(t)["_cdf_floats"] is kept

    def test_batch_draws_never_build_tuple(self):
        d = KempBinomial(20, 1.3, QBase(0.6))
        kb_sample(d, np.random.default_rng(0), size=100)
        t = heine_table(Heine(1.5, Q5))
        sample_by_inversion(t, np.random.default_rng(0), size=100)
        assert "_cdf" in vars(d._table) and "_cdf_floats" not in vars(d._table)
        assert "_cdf" in vars(t) and "_cdf_floats" not in vars(t)

    def test_tuple_not_in_pickles_or_copies(self):
        t = kb_table(KempBinomial(20, 1.3, QBase(0.6)))
        before = pickle.dumps(t)
        sample_by_inversion(t, np.random.default_rng(0))
        assert "_cdf_floats" in vars(t) and pickle.dumps(t) == before
        for back in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
            assert "_cdf_floats" not in vars(back) and "_cdf" not in vars(back)


class _Stream:
    """A stand-in generator whose random() returns the given values of u in order."""

    def __init__(self, us):
        self._us = iter(us)

    def random(self):
        return next(self._us)


class TestSingleDrawRule:
    """A single draw is searchsorted(side="right") on the cumulative sums, clipped to the last entry."""

    @pytest.mark.parametrize(
        "build",
        [
            # cumulative sums end at 0.9999999999999996: u above them clips to the last entry
            lambda: kb_table(KempBinomial(1000, 0.653, Q5)),
            lambda: kb_table(KempBinomial(2000, 1.7, QBase(0.999))),
            lambda: heine_table(Heine(1.5, Q5)),
            lambda: dnorm_table(DiscreteNormal(0.3, Q5)),
            lambda: reflect(kb_table(KempBinomial(30, 2.0, Q5)), 30),
            lambda: PMFTable(-7, kb_table(KempBinomial(30, 2.0, Q5)).probs),
            lambda: PMFTable(0, np.array([0.25, 0.0, 0.75])),
        ],
        ids=["kb-short", "kb-q0.999", "heine", "dnorm", "reflect", "shifted", "zero-entry"],
    )
    def test_draws_equal_searchsorted_right(self, build):
        t = build()
        cdf = np.cumsum(t.probs)
        us = {0.0, math.nextafter(1.0, 0.0)}
        for c in cdf.tolist():
            us |= {c, math.nextafter(c, 0.0), math.nextafter(c, 1.0)}
        us = sorted(u for u in us if 0.0 <= u < 1.0)
        stream = _Stream(us)
        draws = [sample_by_inversion(t, stream) for _ in us]
        want = [t.offset + min(int(np.searchsorted(cdf, u, side="right")), len(t) - 1) for u in us]
        assert all(type(v) is int for v in draws)
        assert draws == want

    def test_short_table_clips(self):
        t = kb_table(KempBinomial(1000, 0.653, Q5))
        u = math.nextafter(1.0, 0.0)
        assert t._cdf[-1] < u
        assert sample_by_inversion(t, _Stream([u])) == t.last


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

    def test_bool_n_rejected(self):
        with pytest.raises(ValueError):
            KempBinomial(True, 1.0, Q5)

    # only rejected values: a table for a huge finite lambda or n holds O(sqrt(lambda)) or O(sqrt(n)) entries
    @pytest.mark.parametrize("lam", [math.inf, -1.0, math.nan])
    def test_poisson_rejects(self, lam):
        with pytest.raises(ValueError):
            Poisson(lam)

    @pytest.mark.parametrize("n, p", [(2.5, 0.3), (True, 0.5), (-1, 0.5), (3, 1.5)])
    def test_binomial_rejects(self, n, p):
        with pytest.raises(ValueError):
            Binomial(n, p)

    def test_table_rejects_negative_probs(self):
        with pytest.raises(ValueError, match="negative"):
            PMFTable(0, np.array([1.1, -0.1]))

    def test_table_rejects_nan_entry(self):
        with pytest.raises(ValueError, match="NaN"):
            PMFTable(0, np.array([np.nan, 0.5]))

    def test_table_rejects_inconsistent_mass(self):
        # a table holds all of its law's mass, so entries that miss 1 are rejected
        with pytest.raises(ValueError, match="sum"):
            PMFTable(0, np.array([0.5, 0.3]))
