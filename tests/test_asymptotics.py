import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from qbinomial import asymptotics, distributions, qcalc
from qbinomial.asymptotics import (
    ConsistencyError,
    DriftRangeError,
    FractionalDrift,
    c_direct,
    c_fourier,
    dnorm_alpha,
    dnorm_moments,
    floor_case,
    limit_law,
    mean_expansion,
    sigma_limit,
)
from qbinomial.distributions import (
    DiscreteNormal,
    KempBinomial,
    dnorm_table,
    kb_moments,
)
from qbinomial.qcalc import QBase, ScaledReal, _lattice_sums

Q5 = QBase(0.5)
# betas just below 1/2, where c + beta is within 1e-9 of the integer 1
BETAS_BELOW_HALF = [0.5 - 1e-9, 0.5 - 1e-14, math.nextafter(0.5, 0.0)]


def c_residue_ref(beta: float, q: float, terms: int = 3):
    """c(beta, q) from its residue series at 30 digits; terms fall like e^(-2 pi^2 k / |ln q|)."""
    with mp.workdps(30):
        lq = mp.log(q)
        return mp.mpf(1) / 2 + mp.fsum(
            2 * mp.pi * mp.sin(2 * k * mp.pi * beta) / (lq * mp.sinh(2 * k * mp.pi**2 / lq))
            for k in range(1, terms + 1)
        )


BETA_GRID = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
Q_GRID = [0.2, 0.5, 0.8]


def mu_direct(n: int, f: float, q: QBase) -> float:
    """Brute-force mean of KB(n, q^-f, q) straight from the Bernoulli sum."""
    return kb_moments(KempBinomial(n, ScaledReal.from_q_power(-f, q), q)).mean


class TestFractionalDrift:
    def test_values_and_exact_beta(self):
        d = FractionalDrift(Fraction(3, 10), 0.25)
        assert d.value(200) == pytest.approx(60.25, rel=1e-15)
        assert d.beta_fraction(200) == Fraction(1, 4)
        assert d.beta_fraction(201) == Fraction(3, 10) + Fraction(1, 4)

    def test_value_is_the_rounded_rational(self):
        rng = random.Random(7)
        for _ in range(2000):
            r = rng.choice([2, 3, 7, 10, 97, 1000, 10**6 + 3, 2**61 - 1])
            slope, offset = Fraction(rng.randrange(1, r), r), rng.uniform(-5.0, 5.0)
            n = rng.choice([rng.randrange(10**3), rng.randrange(10**15), 10**15 - rng.randrange(100)])
            got = FractionalDrift(slope, offset).value(n)
            assert got.hex() == (float(slope * n) + offset).hex()

    def test_beta_periodicity(self):
        d = FractionalDrift(Fraction(1, 2), 0.3)
        assert d.beta_fraction(10) == d.beta_fraction(12)
        assert d.beta_fraction(11) == d.beta_fraction(13)
        assert d.beta_fraction(10) != d.beta_fraction(11)

    def test_beta_half_is_exact(self):
        d = FractionalDrift(Fraction(1, 2))
        assert d.beta_fraction(21) == Fraction(1, 2)

    @pytest.mark.parametrize("slope", [Fraction(0), Fraction(1), Fraction(3, 2)])
    def test_slope_range(self, slope):
        with pytest.raises(ValueError):
            FractionalDrift(slope)


class TestCDirect:
    @pytest.mark.parametrize("qv", [0.2, 0.5, 0.9])
    def test_lemma_values_at_zero_and_half(self, qv):
        q = QBase(qv)
        assert c_direct(0.0, q) == pytest.approx(0.5, abs=1e-12)
        assert c_direct(0.5, q) == pytest.approx(0.5, abs=1e-12)

    def test_complement_identity(self):
        assert c_direct(0.3, Q5) + c_direct(0.7, Q5) == pytest.approx(1.0, abs=1e-12)
        for b in (0.1, 0.25, 0.4):
            for qv in Q_GRID:
                q = QBase(qv)
                assert c_direct(b, q) + c_direct(1 - b, q) == pytest.approx(
                    1.0, abs=1e-12
                )

    def test_euler_maclaurin_limit_q_to_1(self):
        q = QBase(1 - 1e-3)
        for b in BETA_GRID[1:]:
            assert abs(c_direct(b, q) - 0.5) < 0.01

    def test_rejects_beta_outside_unit_interval(self):
        with pytest.raises(ValueError):
            c_direct(1.0, Q5)

    @pytest.mark.parametrize("beta", [0.14932739855783705, 0.5, 0.83])
    @pytest.mark.parametrize("qv", [0.9, 0.999, 0.9999, 0.99999])
    def test_near_q_one_against_mpmath(self, beta, qv):
        # each half of the bilateral series is ~0.7/|ln q|; differencing the
        # two sums missed 1e-13 at q = 0.999, beta = 0.1493...
        assert abs(c_direct(beta, QBase(qv)) - c_residue_ref(beta, qv)) < 1e-13

    @pytest.mark.parametrize("qv", [1e-8, 1e-3, 0.0118, 0.3, 0.9, 0.999, 0.99999])
    def test_within_1e_15_of_residue_ref(self, qv):
        # enough reference terms that the first one dropped is below e^-46
        terms = int(46.0 * -math.log(qv) / (2.0 * math.pi**2)) + 3
        for beta in (0.0, 0.13, 0.3, 0.4999, 0.5, 0.77, 0.999):
            assert abs(c_direct(beta, QBase(qv)) - c_residue_ref(beta, qv, terms)) <= 1e-15


class TestCFourier:
    def test_integer_f_is_exactly_half(self):
        assert c_fourier(5.0, Q5) == 0.5
        assert c_fourier(123.0, QBase(0.2)) == 0.5

    def test_matches_direct_representation(self):
        assert c_fourier(0.3, Q5) == pytest.approx(
            c_direct(0.3, Q5), abs=1e-12
        )

    @pytest.mark.parametrize("qv", Q_GRID)
    def test_representation_equivalence_grid(self, qv):
        # c_fourier takes the full f; the series only sees its fractional part
        q = QBase(qv)
        for b in BETA_GRID:
            assert abs(c_direct(b, q) - c_fourier(b + 7.0, q)) < 1e-12

    def test_q_to_0_limit_of_series(self):
        # series -> 1/2 - beta; convergence is governed by q^beta, so the
        # regime only opens up around q ~ 1e-8 for beta = 0.3
        series = c_fourier(0.3, QBase(1e-8)) - 0.5
        assert abs(series - 0.2) <= 1e-2

    def test_no_overflow_near_q_one(self):
        # sinh argument overflows naive evaluation for q -> 1
        value = c_fourier(0.37, QBase(0.99))
        assert math.isfinite(value)

    @pytest.mark.parametrize("beta", [0.9655, 0.9755, 0.9845, 0.9986])
    def test_centred_sines_near_one(self, beta, oracle):
        # sines at 2 pi k (f - round(f)), not next to 2 pi k: sines at 2 pi k {f} read up to 3.7e-16 off here
        with mp.workdps(oracle.DPS):
            assert abs(c_fourier(beta, QBase(1.63e-8)) - oracle.c_ref(beta, 1.63e-8)) <= 1.3e-16


class TestMeanExpansion:
    def test_matches_direct_sum_at_q_half(self):
        drift = FractionalDrift(Fraction(3, 10), 0.25)
        for n in (200, 300, 400):
            r = mean_expansion(n, drift, Q5)
            assert abs(mu_direct(n, r.f_value, Q5) - r.estimate) < 1e-12

    def test_integer_drift_limit_is_half(self):
        # integer f, n >> f: direct mu_n - f -> 1/2
        drift = FractionalDrift(Fraction(1, 4))
        r = mean_expansion(400, drift, Q5)
        assert r.f_value == 100.0
        assert r.estimate - r.f_value == 0.5
        assert mu_direct(400, 100.0, Q5) - 100.0 == pytest.approx(0.5, abs=1e-12)

    def test_error_bound_envelope(self):
        # past n ~ 330 the bound (~q^(f/2)) sinks below the float noise of the
        # 400-term oracle sum (~1 ulp of mu = 1.4e-14 observed); allow that floor
        drift = FractionalDrift(Fraction(3, 10), 0.25)
        noise_floor = 1e-13
        for n in range(50, 401, 7):
            r = mean_expansion(n, drift, Q5)
            err = abs(mu_direct(n, r.f_value, Q5) - r.estimate)
            assert err <= r.error_bound + noise_floor

    @staticmethod
    def remainder(oracle, n: int, f: float, qv: float):
        """mu_n - f - c({f}) at 40 digits, at the float f the library uses."""
        with mp.workdps(oracle.DPS):
            h = -oracle.qlog(qv)
            return oracle.lattice_sum("sigmoid", mp.mpf(f) * h, h, n) - f - oracle.c_ref(f - math.floor(f), qv)

    @pytest.mark.parametrize("qv", [0.3, 0.5, 0.9, 0.99])
    def test_error_bound_holds_the_remainder(self, qv, oracle):
        # the remainder is L - R and the bound max(L, R)'s, so it holds whether the low or
        # the high end of the sum dominates
        for slope in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
            for n in (20, 40, 80):
                r = mean_expansion(n, FractionalDrift(slope, 0.37), QBase(qv))
                rem = self.remainder(oracle, n, r.f_value, qv)
                assert abs(rem) <= r.error_bound, (slope, n, rem, r.error_bound)

    def test_error_bound_is_tight_at_readme_example(self, oracle):
        # asym --slope 3/10 --offset 0.25 --q 0.5, n = 200: the remainder is L ~ q^(f+1)/(1-q) = 7.29e-19
        r = mean_expansion(200, FractionalDrift(Fraction(3, 10), 0.25), Q5)
        rem = abs(self.remainder(oracle, 200, r.f_value, 0.5))
        assert rem <= r.error_bound <= 1.01 * rem

    def test_drift_range_error(self):
        drift = FractionalDrift(Fraction(1, 2), 30.0)
        with pytest.raises(DriftRangeError):
            mean_expansion(10, drift, Q5)

    def test_half_integer_mean_ordering(self):
        # f = 10.5: mu_n < f + 1/2 when 2f >= n, mu_n > f + 1/2 when 2f <= n-1,
        # equality exactly at 2f = n-1
        f = 10.5
        assert mu_direct(20, f, Q5) < 11.0
        assert mu_direct(21, f, Q5) < 11.0
        assert math.ceil(mu_direct(21, f, Q5)) == 11
        assert abs(mu_direct(22, f, Q5) - 11.0) <= 1e-12
        assert mu_direct(23, f, Q5) > 11.0
        assert math.floor(mu_direct(23, f, Q5)) == 11


class TestSigmaLimit:
    def test_value_against_series_oracle(self):
        # oracle: raw logistic-series sum, 200 terms each side
        total = 0.0
        for i in range(200):
            u = 0.5 ** (-0.0 - i)
            total += u / (1 + u) ** 2
            v = 0.5 ** (i + 1 - 0.0)
            total += v / (1 + v) ** 2
        assert sigma_limit(0.0, Q5) == pytest.approx(total, abs=1e-13)
        assert sigma_limit(0.0, Q5) == pytest.approx(1.4427, abs=1e-4)

    @pytest.mark.parametrize("qv", Q_GRID)
    def test_variance_bound(self, qv):
        q = QBase(qv)
        for b in BETA_GRID:
            assert sigma_limit(b, q) <= 2.0 / (1.0 - qv)

    def test_reflection_symmetry(self):
        for b in (0.1, 0.3, 0.45):
            assert sigma_limit(b, Q5) == pytest.approx(
                sigma_limit(1.0 - b, Q5), abs=1e-12
            )

    @pytest.mark.parametrize(
        "qv,dual",
        [(0.01, False), (0.0117, False), (0.0118, True), (0.02, True),
         (0.5, True), (0.9, True), (0.999, True), (0.9999, True)],
    )
    def test_dual_against_lattice(self, qv, dual):
        # the Poisson-summation dual serves ln(1/q) < pi sqrt 2, i.e. q > 0.01176;
        # below that the two dsigmoid lattice sums are returned as they are
        h = -math.log(qv)
        for b in BETA_GRID:
            points = [(-b * h, math.inf), (-(1.0 - b) * h, math.inf)]
            lattice = math.fsum(_lattice_sums(("dsigmoid",), points, h)[0])
            got = sigma_limit(b, QBase(qv))
            if dual:
                assert abs(got - lattice) <= 1e-15 * lattice
            else:
                assert got == lattice

    @pytest.mark.parametrize("qv", [1e-4, 0.0118, 0.5, 0.999])
    def test_against_mpmath(self, qv, oracle):
        # beta = 0.3, 0.5 at qv, and seeded random (beta, q) on qv's side of q = 0.01176:
        # q log-uniform in [1e-8, 0.0117] (lattice form) or 1 - q log-uniform in [1e-3, 0.988] (dual)
        rng = random.Random(qv)
        lattice = qv < 0.01176
        points = [(0.3, qv), (0.5, qv)] + [
            (rng.random(), math.exp(rng.uniform(math.log(1e-8), math.log(0.0117))) if lattice
             else -math.expm1(rng.uniform(math.log(1e-3), math.log(0.988))))
            for _ in range(4)
        ]
        with mp.workdps(oracle.DPS):
            for b, q in points:
                ref = oracle.sigma2_ref(b, q)
                assert abs(sigma_limit(b, QBase(q)) - ref) <= 1e-15 * ref, (b, q)

    @pytest.mark.parametrize("qv", [1e-3, 0.02, 0.1, 0.3])
    def test_is_one_plus_c_prime_over_h(self, qv):
        # the KB variance is d mean / d ln theta, so h sigma^2 - 1 = c'(beta): against c_fourier's
        # central difference, on both the lattice (q = 1e-3) and the dual branch
        q, step = QBase(qv), 1e-5
        for b in (0.0, 0.05, 0.2, 0.37, 0.5, 0.71, 0.95):
            slope = (c_fourier(b + step, q) - c_fourier(b - step, q)) / (2.0 * step)
            assert abs(-q.log * sigma_limit(b, q) - 1.0 - slope) <= 1e-8, b

    def test_finite_n_variance_converges_to_limit(self):
        drift = FractionalDrift(Fraction(1, 2), 0.3)
        n = 120
        d = KempBinomial(n, ScaledReal.from_q_power(-drift.value(n), Q5), Q5)
        assert kb_moments(d).variance == pytest.approx(
            sigma_limit(drift.beta(n), Q5), abs=1e-9
        )


class TestFloorCase:
    @pytest.mark.parametrize("qv", [0.2, 0.5, 0.9])
    def test_case_table(self, qv):
        q = QBase(qv)
        for b in [round(0.05 * k, 2) for k in range(1, 20)]:
            expected = 0 if b < 0.5 else 1
            assert floor_case(b, q) == expected

    def test_exact_half_fraction(self):
        assert floor_case(Fraction(1, 2), Q5) == 1

    @pytest.mark.parametrize("qv", [0.05, 0.5, 0.9])
    @pytest.mark.parametrize("beta", BETAS_BELOW_HALF)
    def test_beta_just_below_half(self, beta, qv):
        assert floor_case(beta, QBase(qv)) == 0
        assert limit_law(beta, QBase(qv)).delta == 0

    def test_wrong_c_raises(self, monkeypatch):
        true_c = asymptotics.c_fourier
        monkeypatch.setattr(asymptotics, "c_fourier", lambda f, q: true_c(f, q) + 0.6)
        for b in (0.1, 0.3, 0.4999):
            with pytest.raises(ConsistencyError):
                floor_case(b, Q5)
            with pytest.raises(ConsistencyError):
                limit_law(b, Q5)

    def test_chat_strictly_increasing(self):
        # c_hat(beta) = c(beta,q) - 1 + beta increases in beta
        for qv in Q_GRID:
            q = QBase(qv)
            vals = [c_direct(b, q) - 1 + b for b in BETA_GRID]
            assert all(a < b for a, b in zip(vals, vals[1:]))


class TestDnormAlpha:
    def test_case_table(self):
        assert dnorm_alpha(0.5) == 0.0
        assert dnorm_alpha(0.0) == 0.5
        assert dnorm_alpha(0.7) == pytest.approx(0.2, rel=1e-15)
        assert dnorm_alpha(0.3) == pytest.approx(0.8, rel=1e-15)


def _dnorm_laws(count: int, seed: int) -> list:
    """(alpha, q) pairs: two laws whose means are far smaller than |alpha|, then random ones."""
    rng = random.Random(seed)
    laws = [(-0.0028885502395401552, 1.07e-7), (0.3, 1e-8)]
    for _ in range(count):
        alpha = math.exp(rng.uniform(math.log(1e-4), math.log(2.0))) * rng.choice((-1.0, 1.0))
        laws.append((alpha, math.exp(rng.uniform(math.log(1e-8), math.log(0.95)))))
    return laws


class TestDnormMoments:
    @pytest.mark.parametrize("alpha, qv", _dnorm_laws(24, seed=7))
    def test_against_mpmath(self, alpha, qv, oracle):
        # the sines' arguments 2 pi k (alpha - round(alpha)) lie near 0, so the mean keeps eps |alpha|
        # (3.0 eps |alpha| at worst over 500 random laws; c's sines at 2 pi k {alpha + 1/2} gave 3.0e3)
        got = dnorm_moments(DiscreteNormal(alpha, QBase(qv))).mean
        with mp.workdps(oracle.DPS):
            mean, _ = oracle.dnorm_moments_ref(alpha, qv)
            assert abs(got - mean) <= 4 * 2.0**-52 * abs(alpha)

    @pytest.mark.parametrize("qv", [1e-8, 0.3, 0.9, 0.9999])
    def test_zero_alpha_has_mean_zero(self, qv):
        assert dnorm_moments(DiscreteNormal(0.0, QBase(qv))).mean == 0.0

    @pytest.mark.parametrize("qv", [1e-6, 0.5, 0.99])
    def test_mean_is_odd_in_alpha(self, qv):
        q = QBase(qv)
        for alpha in [0.5, 2.5, -3.5, 0.3, 1e-9, 12.77, 4503599627370495.5] + [a for a, _ in _dnorm_laws(8, 1)]:
            assert dnorm_moments(DiscreteNormal(-alpha, q)).mean == -dnorm_moments(DiscreteNormal(alpha, q)).mean


class TestLimitLaw:
    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.5, 0.7])
    def test_normalization(self, beta):
        law = limit_law(beta, Q5)
        assert math.fsum(law.lattice_probs.probs.tolist()) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_delta_cases(self):
        assert limit_law(0.3, Q5).delta == 0
        assert limit_law(0.5, Q5).delta == 1
        assert limit_law(0.7, Q5).delta == 1

    def test_c_direct_is_only_the_reference(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("library code called c_direct")

        monkeypatch.setattr(asymptotics, "c_direct", refuse)
        assert limit_law(0.3, Q5).delta == 0
        assert floor_case(0.7, Q5) == 1

    @pytest.mark.parametrize("qv", [0.5, 0.9, 0.9999])
    def test_no_lattice_sum_from_q_half(self, monkeypatch, qv):
        def refuse(*args):
            raise AssertionError("called _lattice_sums")

        for module in (qcalc, distributions, asymptotics):
            monkeypatch.setattr(module, "_lattice_sums", refuse)
        for beta in (0.0, 0.3, 0.5, 0.7):
            law = limit_law(beta, QBase(qv))
            assert law.sigma == math.sqrt(sigma_limit(beta, QBase(qv)))

    @pytest.mark.parametrize("qv", [1e-8, 1e-4, 0.05, 0.5, 0.9, 0.999, 0.9999])
    def test_c_value_against_residue_ref(self, qv):
        # enough reference terms that the first one dropped is below e^-46
        terms = int(46.0 * -math.log(qv) / (2.0 * math.pi**2)) + 3
        for beta in (0.0, 0.13, 0.3, 0.4999, 0.5, 0.5001, 0.9):
            c = limit_law(beta, QBase(qv)).c_value
            assert abs(c - c_residue_ref(beta, qv, terms)) < 1e-13

    @pytest.mark.parametrize("beta,shift", [(0.0, 1), (0.5, 0)])
    def test_symmetry_for_special_betas(self, beta, shift):
        t = limit_law(beta, Q5).lattice_probs
        gap = max(
            abs(t.prob(x) - t.prob(shift - x)) for x in range(-20, 21)
        )
        assert gap < 1e-15

    def test_asymmetry_for_generic_beta(self):
        t = limit_law(0.3, Q5).lattice_probs
        best = min(
            max(abs(t.prob(x) - t.prob(s - x)) for x in range(-20, 21))
            for s in range(-6, 7)
        )
        assert best > 1e-3

    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.5, 0.7])
    def test_matches_discrete_normal_up_to_shift(self, beta):
        law = limit_law(beta, Q5)
        dn = dnorm_table(DiscreteNormal(dnorm_alpha(beta), Q5))
        t = law.lattice_probs
        gaps = []
        for shift in range(-5, 6):
            gaps.append(
                max(
                    abs(t.prob(x) - dn.prob(x + shift))
                    for x in range(-30, 31)
                )
            )
        assert min(gaps) < 1e-10

    @pytest.mark.parametrize("qv", [0.2, 0.5, 0.9])
    def test_window_is_round_alpha_plus_minus_k(self, qv):
        # K is the least integer with ln(1/q) K(K-1)/2 >= 760, plus 2
        h = -math.log(qv)
        K = next(k for k in range(1, 10**4) if h * k * (k - 1) / 2 >= 760) + 2
        t = limit_law(0.3, QBase(qv)).lattice_probs
        assert (t.offset, len(t)) == (round(dnorm_alpha(0.3)) - K, 2 * K + 1)

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("qv", [0.99, 0.998, 0.999])
    def test_near_q_one_against_mpmath(self, beta, qv):
        # the constant e_q(q) e_q(-q^beta) e_q(-q^(1-beta)) overflows as a
        # float product at q >= 0.998, and +-50 drops 4e-7 of the mass at 0.99
        law = limit_law(beta, QBase(qv))
        t = law.lattice_probs
        assert math.fsum(t.probs.tolist()) == pytest.approx(1.0, abs=1e-12)
        with mp.workdps(30):
            if beta < 0.5:
                expo = lambda x: mp.mpf(x - 1) * (x - 2 * mp.mpf(beta)) / 2
            else:
                expo = lambda x: mp.mpf(x) * (1 + x - 2 * mp.mpf(beta)) / 2
            lq = mp.log(qv)
            reach = int(math.sqrt(200 / -float(lq))) + 2
            norm = mp.fsum(mp.exp(expo(x) * lq) for x in range(-reach, reach + 1))
            for x in (-40, 0, 1, 25, 120):
                assert t.prob(x) == pytest.approx(float(mp.exp(expo(x) * lq) / norm), rel=1e-11)

    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.5, 0.7])
    @pytest.mark.parametrize("qv", [0.3, 0.5, 0.9, 0.99, 0.999])
    def test_jacobi_triple_product_closed_form(self, beta, qv):
        # by Jacobi's triple product the lattice law is C q^expo(x) with
        # C = 1 / [(q;q)_inf (-q^beta;q)_inf (-q^(1-beta);q)_inf]; C overflows a
        # float at q >= 0.998, so ln C is taken from the lattice kernel
        h = -math.log(qv)
        log_c = -math.fsum([
            *_lattice_sums(("log1mexp",), [(-h, math.inf)], h)[0],
            *_lattice_sums(("softplus",), [(-beta * h, math.inf), (-(1.0 - beta) * h, math.inf)], h)[0],
        ])
        if beta < 0.5:
            expo = lambda x: 0.5 * (x - 1.0) * (x - 2.0 * beta)
        else:
            expo = lambda x: 0.5 * x * (1.0 + x - 2.0 * beta)
        t = limit_law(beta, QBase(qv)).lattice_probs
        for x in range(-20, 21):
            assert t.prob(x) == pytest.approx(math.exp(log_c + expo(x) * math.log(qv)), rel=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 0.73])
    @pytest.mark.parametrize("qv", [0.3, 0.5, 0.9, 0.999])
    def test_lattice_moments(self, qv, beta):
        # lattice point x sits at (x - (beta + c - delta))/sigma, so the lattice law has mean
        # beta + c - delta and variance sigma^2; the table's sums round about eps per unit of E|x|
        eps = 2.0**-52
        law = limit_law(beta, QBase(qv))
        t = law.lattice_probs
        xs = t.x_values().astype(float)
        mean = math.fsum((xs * t.probs).tolist())
        variance = math.fsum(((xs - mean) ** 2 * t.probs).tolist())
        assert abs(mean - (beta + law.c_value - law.delta)) <= 4.0 * eps * (1.0 + law.sigma)
        assert variance == pytest.approx(law.sigma**2, rel=4.0 * eps, abs=0.0)

    def test_sigma_is_sqrt_of_variance_series(self):
        law = limit_law(0.3, Q5)
        assert law.sigma == pytest.approx(math.sqrt(sigma_limit(0.3, Q5)), rel=1e-14)
