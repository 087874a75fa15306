import math
import pickle
import random
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbinomial.distributions import KempBinomial, kb_log_pmf, kb_pmf
from qbinomial.qcalc import (
    E_q,
    PoleError,
    QBase,
    ScaledReal,
    _fold,
    e_q,
    q_number,
    q_pochhammer,
)


def product_oracle(z, q, n):
    """Plain-float reference product for (z; q)_n."""
    acc = 1.0
    for i in range(n):
        acc *= 1.0 - z * q**i
    return acc


class TestQBase:
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.5, math.nan, math.inf])
    def test_rejects_outside_open_interval(self, bad):
        with pytest.raises(ValueError):
            QBase(bad)

    def test_log_cached(self):
        q = QBase(0.5)
        assert q.log == math.log(0.5)

    def test_pickles_by_value(self):
        q = QBase(0.5)
        before = pickle.dumps(q)
        assert q.log and pickle.dumps(q) == before == pickle.dumps(QBase(0.5))


class TestQPochhammer:
    def test_empty_product(self):
        q = QBase(0.5)
        assert q_pochhammer(0.7, q, 0).to_float() == 1.0
        assert q_pochhammer(ScaledReal.from_float(3.0, q), q, 0).to_float() == 1.0
        for z in (0.0, ScaledReal.from_float(0.0, q)):
            assert q_pochhammer(z, q, 7).to_float() == 1.0

    def test_direct_products(self):
        # (1-0.5)(1-0.25) and (2)(1.5)(1.25)
        assert q_pochhammer(0.5, QBase(0.5), 2).to_float() == pytest.approx(0.375, rel=1e-14)
        assert q_pochhammer(-1.0, QBase(0.5), 3).to_float() == pytest.approx(3.75, rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @example(z=5.0, qv=0.9460236757631252, n=28)  # the factor is -0.059, near its zero
    @given(
        z=st.floats(-5, 5),
        qv=st.floats(0.05, 0.95),
        n=st.integers(0, 30),
    )
    def test_incremental_factor_property(self, z, qv, n):
        # (z; q)_(n+1) = (z; q)_n (1 - z q^n), each side's ln within pochhammer_tol: the
        # factor is exact (mpmath), since near its zero its rounding would be amplified
        q = QBase(qv)
        a = q_pochhammer(z, q, n + 1)
        b = q_pochhammer(z, q, n)
        with mp.workdps(50):
            factor = 1 - mp.mpf(z) * mp.mpf(qv) ** n
            if a.is_zero or b.is_zero:  # a factor that is zero up to the rounding of its logit
                assert a.is_zero and (b.is_zero or abs(factor) < 1e-13)
                return
            assert a.sign == b.sign * mp.sign(factor)
            gap = mp.mpf(a.log_abs()) - mp.mpf(b.log_abs()) - mp.log(abs(factor))
        assert abs(gap) <= pochhammer_tol(qv, n) + pochhammer_tol(qv, n + 1)

    def test_scaled_argument_matches_float_argument(self):
        q = QBase(0.5)
        z = ScaledReal.from_float(0.7, q)
        assert q_pochhammer(z, q, 8).to_float() == pytest.approx(
            q_pochhammer(0.7, q, 8).to_float(), rel=1e-14
        )

    def test_exact_zero_factor(self):
        # (4; 1/2)_2 = (1 - 4)(1 - 2) = 3; the i = 2 factor 1 - 4/4 is zero
        q = QBase(0.5)
        assert q_pochhammer(4.0, q, 2).to_float() == pytest.approx(3.0, rel=1e-14)
        assert q_pochhammer(4.0, q, 3).is_zero

    def test_other_base_rejected(self):
        with pytest.raises(ValueError):
            q_pochhammer(ScaledReal.from_float(0.7, QBase(0.4)), QBase(0.5), 3)

    @pytest.mark.parametrize("qv", [0.5, 0.9, 0.999])
    def test_million_factors_reach_the_infinite_product(self, qv):
        q = QBase(qv)
        got = q_pochhammer(-0.5, q, 10**6).to_float()
        assert got == pytest.approx(E_q(0.5, q), rel=1e-13)


def pochhammer_tol(qv, n):
    """The fixed tolerance on ln|(z; q)_n|."""
    return 1e-13 + 1e-14 * n * (1.0 + math.log(1.0 / qv))


def check_against_mpmath(z, qv, n):
    """q_pochhammer vs a 50-digit product of the n factors, z = sign m q^e exactly."""
    q = QBase(qv)
    got = q_pochhammer(z, q, n)
    with mp.workdps(50):
        qm = mp.mpf(qv)
        if isinstance(z, ScaledReal):
            zi = z.sign * mp.mpf(z.mantissa) * qm**z.exponent
        else:
            zi = mp.mpf(z)
        ref = mp.mpf(1)
        for _ in range(n):
            ref *= 1 - zi
            zi *= qm
        assert got.sign == mp.sign(ref)
        got_log = mp.log(got.mantissa) + got.exponent * mp.log(qm)
        assert abs(got_log - mp.log(abs(ref))) <= pochhammer_tol(qv, n)


def _float_cases(count, seed=20081):
    rng = random.Random(seed)
    cases = []
    for k in range(count):
        qv = 10 ** rng.uniform(-8, math.log10(0.999)) if k % 2 else rng.uniform(0.05, 0.999)
        cases.append(pytest.param(rng.uniform(-5, 5), qv, rng.randint(0, 1000), id=f"A{k}"))
    return cases


def _scaled_cases(seed=20082):
    rng = random.Random(seed)
    cases = []
    for qv in (1e-8, 0.05, 0.5, 0.9, 0.99):
        for scale in (0.5, 1, 2):
            for sign, n in ((1, 3000), (-1, 400)):
                m = rng.uniform(1.0, min(1.0 / qv, 1e8))
                case = (sign, m, -int(scale * n), qv, n)
                cases.append(pytest.param(*case, id=f"q{qv}-e{case[2]}-n{n}"))
    return cases


_CROSSING = (1.0100526470797924, 0.999, 100)  # factor i = 10 is about 5e-6


class TestQPochhammerReference:
    @pytest.mark.parametrize(
        "z,qv,n",
        [pytest.param(*_CROSSING, id="crossing"), *_float_cases(40)],
    )
    def test_float_argument(self, z, qv, n):
        check_against_mpmath(z, qv, n)

    def test_crossing_as_scaled_argument(self):
        # from_float keeps z as given, so this is the float case's product, which meets the
        # mpmath check above; a z rounded into [1, 1/q) q^e would cost 4.4e-11 in ln
        z, qv, n = _CROSSING
        q = QBase(qv)
        assert q_pochhammer(ScaledReal.from_float(z, q), q, n) == q_pochhammer(z, q, n)

    # z = +-m q^e with e in {-n/2, -n, -2n}: the factors reach q^-2n, past binary64
    @pytest.mark.parametrize("sign,m,e,qv,n", _scaled_cases())
    def test_scaled_argument(self, sign, m, e, qv, n):
        q = QBase(qv)
        check_against_mpmath(ScaledReal(sign, m, e, q), qv, n)


class TestQPochhammerInf:
    """(z; q)_inf, read as E_q(-z)."""

    def test_zero_argument(self):
        assert E_q(-0.0, QBase(0.5)) == 1.0

    def test_against_truncated_product_oracle(self):
        q = 0.5
        oracle = product_oracle(0.5, q, 60)
        assert E_q(-0.5, QBase(q)) == pytest.approx(oracle, rel=1e-13)
        assert E_q(-0.5, QBase(q)) == pytest.approx(0.2887880951, abs=1e-9)

    def test_negative_argument(self):
        oracle = product_oracle(-1.0, 0.5, 60)
        assert E_q(1.0, QBase(0.5)) == pytest.approx(oracle, rel=1e-13)
        assert E_q(1.0, QBase(0.5)) == pytest.approx(4.768, abs=5e-4)


class TestQBinomial:
    """The Gaussian binomial [n choose x]_q, read through KB's pmf
    P(x) = [n choose x]_q q^(x(x-1)/2) theta^x / (-theta; q)_n."""

    def test_gaussian_polynomial_value(self):
        # [4 choose 2]_q = 1 + q + 2q^2 + q^3 + q^4 = 35/16 at q = 0.5, and (-1; q)_4 = 135/32
        assert kb_pmf(KempBinomial(4, 1.0, QBase(0.5)), 2) == pytest.approx(7 / 27, rel=1e-14)

    def test_symmetry(self):
        # [n choose x]_q = [n choose n - x]_q makes KB(n, theta, q) at x equal
        # KB(n, q^(1-n) / theta, q) at n - x; theta = m q^e reflects to (1/m) q^(1-n-e)
        for qv in (0.3, 0.9):
            q = QBase(qv)
            for n in (1, 5, 30, 400):
                thetas = [ScaledReal.from_float(0.1, q), ScaledReal.from_float(1.0, q),
                          ScaledReal.from_q_power(-n / 2, q), ScaledReal.from_q_power(-n - 0.3, q)]
                for theta in thetas:
                    m, e = theta.mantissa, theta.exponent
                    d = KempBinomial(n, theta, q)
                    reflected = KempBinomial(n, ScaledReal.from_float(1 / m, q).q_shift(1 - n - e), q)
                    for x in range(n + 1):
                        got, want = kb_log_pmf(reflected, n - x), kb_log_pmf(d, x)
                        tol = 1e-13 + 8 * sys.float_info.epsilon * abs(want)
                        assert abs(got - want) <= tol, (qv, n, theta, x)

    def test_outside_range_is_zero(self):
        d = KempBinomial(5, 1.0, QBase(0.3))
        assert kb_pmf(d, -1) == 0.0
        assert kb_pmf(d, 6) == 0.0


class TestQNumber:
    def test_values(self):
        assert q_number(0, QBase(0.5)) == 0.0
        assert q_number(2, QBase(0.5)) == pytest.approx(1.5, rel=1e-14)

    def test_tends_to_x_near_q_one(self):
        assert q_number(3, QBase(0.999)) == pytest.approx(3.0, abs=0.01)


class TestQExponentials:
    def test_at_zero(self):
        q = QBase(0.5)
        assert e_q(0.0, q) == 1.0
        assert E_q(0.0, q) == 1.0

    @pytest.mark.parametrize("z", [0.1, 0.5, 0.99])
    @pytest.mark.parametrize("qv", [0.1, 0.5, 0.9])
    def test_inverse_pair_identity(self, z, qv):
        q = QBase(qv)
        assert e_q(z, q) * E_q(-z, q) == pytest.approx(1.0, abs=1e-12)

    def test_pole_guard(self):
        # z = q^-1 = 2 makes the i=1 factor vanish
        with pytest.raises(PoleError):
            e_q(2.0, QBase(0.5))

    def test_z_equal_one_is_a_pole(self):
        # the i=0 factor of (z;q)_inf vanishes at z=1
        with pytest.raises(PoleError):
            e_q(1.0, QBase(0.5))
        assert E_q(-1.0, QBase(0.5)) == 0.0

    def test_classical_exponential_limit(self):
        q = QBase(0.999)
        assert e_q((1 - 0.999) * 1.0, q) == pytest.approx(math.e, abs=0.01)


def test_fold_rounds_once_like_fraction():
    # _fold(M, x, E, h) is M x - E h rounded once from its exact value
    rng = random.Random(15)
    for _ in range(2000):
        M, E = rng.randrange(10**7), rng.randrange(10**13)
        x, h = rng.uniform(-50.0, 50.0), math.exp(rng.uniform(-20.0, 5.0))
        assert _fold(M, x, E, h) == float(M * Fraction(x) - E * Fraction(h))


# Seeded (name, z, q) whose e_q / E_q value is below 2^-1022: each z was set by
# bisection so that the value falls just below a random cut in [e^-744, e^-708.5]
# (e_q(-z) falls as z grows, E_q(-x) = (x; q)_inf as x rises to 1). They are kept as
# literals so that a last-bit change in e_q or E_q does not move the cases it tests.
_SUBNORMAL_CASES = [
    ("e_q", -3532944029.5321355, 0.7145665383580331),
    ("E_q", -0.6974377549160392, 0.9988017884021618),
    ("E_q", -0.3697756680498681, 0.9994365502807271),
    ("e_q", -3.190366850419321e+17, 0.30766396723408196),
    ("E_q", -0.7642746476070905, 0.9985958051045454),
    ("E_q", -0.898433744259463, 0.9982153764986701),
    ("e_q", -2.584792714748478e+16, 0.3658038528670503),
    ("E_q", -0.6631800348244883, 0.9988591251083746),
    ("E_q", -0.7385472219055855, 0.9986529856464316),
    ("e_q", -7.209863605985693e+17, 0.3066350632641001),
    ("e_q", -8359959477687.698, 0.5321358900704279),
]


class TestUnderflowRule:
    """Normal results keep the README's relative tolerance, 1e-13 + 8 eps |ln value|;
    a subnormal result may add one subnormal ulp, 2^-1074, of absolute error."""

    @pytest.mark.parametrize(
        "name,z,q",
        _SUBNORMAL_CASES,
    )
    def test_subnormal_results(self, name, z, q, oracle):
        fn = {"e_q": e_q, "E_q": E_q}[name]
        got = fn(z, QBase(q))
        assert 0.0 < got < sys.float_info.min
        # e_q(z) = 1/(z; q)_inf and E_q(z) = (-z; q)_inf
        sign, arg = {"e_q": (-1, z), "E_q": (1, -z)}[name]
        with mp.workdps(oracle.DPS):
            log_ref = sign * oracle.log_pochhammer_inf_ref(arg, q)
            ref = mp.exp(log_ref)
            tol = oracle.README_SERIES_REL + oracle.LOG_ULPS * abs(float(log_ref))
            assert abs(mp.mpf(got) - ref) <= tol * ref + mp.mpf(2) ** -1074


# (name, z, q, value) whose e_q / E_q value is past DBL_MAX: ln |value| runs from 5.8e3 to 3.4e5
_OVERFLOW_CASES = [
    ("e_q", 0.5, 0.9999, math.inf),
    ("e_q", 0.999, 0.99999, math.inf),
    ("E_q", 5.0, 0.9999, math.inf),
    ("E_q", 1e300, 0.5, math.inf),
    # (1e300; 0.5)_inf: the 997 factors 1 - 1e300 * 0.5^i with i <= 996 are negative
    ("E_q", -1e300, 0.5, -math.inf),
]


@pytest.mark.parametrize("name,z,q,value", _OVERFLOW_CASES)
def test_overflow_gives_signed_inf(name, z, q, value):
    # as ScaledReal.to_float gives a value past DBL_MAX
    assert {"e_q": e_q, "E_q": E_q}[name](z, QBase(q)) == value


def reflection_log(z, q, n):
    """ln of q^(n(n-1)/2) z^n prod_{i<n} (1 + q^-i / z), the reflected (-z; q)_n."""
    lz = z.log_abs()
    terms = [math.log1p(math.exp(-i * q.log - lz)) for i in range(n)]
    return math.fsum([n * (n - 1) // 2 * q.log, n * lz, *terms])


class TestReflectionIdentity:
    @pytest.mark.parametrize("zv", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [1, 5, 17, 30])
    def test_scaled_reflection(self, zv, n):
        # prod (1 + z q^i) = q^(n(n-1)/2) z^n prod (1 + (z q^i)^-1)
        q = QBase(0.5)
        z = ScaledReal.from_float(zv, q)
        lhs = q_pochhammer(ScaledReal(-1, z.mantissa, z.exponent, q), q, n)
        assert lhs.sign == 1
        assert abs(lhs.log_abs() - reflection_log(z, q, n)) < 1e-12

    def test_reflection_with_huge_argument(self):
        q = QBase(0.5)
        z = ScaledReal.from_float(1.0, q).q_shift(-40)  # q^-40, overflow-prone
        n = 25
        lhs = q_pochhammer(ScaledReal(-1, z.mantissa, z.exponent, q), q, n)
        assert lhs.sign == 1
        assert abs(lhs.log_abs() - reflection_log(z, q, n)) < 1e-12


def test_product_limit_for_convergent_parameters():
    # prod_{i<n} (1 + theta_n q^i) -> E_q(theta) for theta_n = theta + 1/n.
    # The gap is first-order in theta_n - theta, i.e. ~3.6e-4/n-step at n=1e4.
    q = QBase(0.5)
    theta = 0.5
    err4 = abs(q_pochhammer(-(theta + 1e-4), q, 10_000).to_float() - E_q(theta, q))
    err3 = abs(q_pochhammer(-(theta + 1e-3), q, 1_000).to_float() - E_q(theta, q))
    assert err4 < 1e-3
    assert err4 < 0.2 * err3  # gap shrinks like 1/n

    # at n = 4e6 the 1/n rate brings the gap under 1e-6
    n = 4_000_000
    theta_n = theta + 1.0 / n
    assert abs(q_pochhammer(-theta_n, q, n).to_float() - E_q(theta, q)) < 1e-6


class TestScaledReal:
    @settings(max_examples=80, deadline=None)
    @example(x=1e308, qv=0.5, sign=1.0)
    @example(x=1e308, qv=0.9, sign=-1.0)
    @given(
        x=st.floats(min_value=1e-280, max_value=1e308),
        qv=st.floats(0.05, 0.95),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_round_trip(self, x, qv, sign):
        q = QBase(qv)
        s = ScaledReal.from_float(sign * x, q)
        assert s.to_float() == pytest.approx(sign * x, rel=1e-15)
        again = ScaledReal.from_float(s.to_float(), q)
        assert again.sign == s.sign
        assert again.to_float() == pytest.approx(s.to_float(), rel=1e-15)

    def test_zero_canonical(self):
        s = ScaledReal.from_float(0.0, QBase(0.5))
        assert (s.sign, s.mantissa, s.exponent) == (1, 0.0, 0)
        assert s.to_float() == 0.0

    def test_q_power_constructor(self):
        q = QBase(0.5)
        s = ScaledReal.from_q_power(-60.25, q)
        assert s.log_abs() == pytest.approx(-60.25 * q.log, rel=1e-15)

    def test_overflow_free_magnitudes(self):
        q = QBase(0.5)
        huge = ScaledReal.from_float(1.5, q).q_shift(-5000)  # 1.5 * 2^5000
        assert huge.to_float() == math.inf
        assert huge.log_abs() == pytest.approx(math.log(1.5) + 5000 * math.log(2.0), rel=1e-15)
        assert huge.q_shift(5000).to_float() == 1.5

    @settings(max_examples=200, deadline=None)
    @example(m=5e-324, qv=0.5, t=709.0, sign=1)  # the least mantissa, a result near DBL_MAX
    @example(m=5e-324, qv=0.9999, t=-700.0, sign=-1)
    @example(m=sys.float_info.max, qv=0.5, t=-744.0, sign=1)  # the greatest, a subnormal result
    @example(m=sys.float_info.max, qv=1e-8, t=709.7, sign=1)
    @example(m=1.0, qv=0.9999, t=-2000.0, sign=1)  # e = 1e5 in both directions
    @example(m=1.0, qv=0.9999, t=2000.0, sign=-1)
    @given(
        m=st.floats(min_value=5e-324, max_value=sys.float_info.max),
        qv=st.floats(1e-8, 0.9999),
        t=st.floats(-760.0, 720.0),
        sign=st.sampled_from([1, -1]),
    )
    def test_to_float_against_mpmath(self, m, qv, t, sign):
        # the exponent that puts ln|value| near t, within |e| <= 1e5
        e = max(-10**5, min(10**5, round((math.log(m) - t) / -math.log(qv))))
        got = ScaledReal(sign, m, e, QBase(qv)).to_float()
        with mp.workdps(40):
            ref = sign * mp.mpf(m) * mp.mpf(qv) ** e
            if abs(got) == math.inf:  # past DBL_MAX, up to the top floats' rounding
                assert got == sign * math.inf and abs(ref) >= sys.float_info.max * (1 - 4e-16)
            else:
                assert abs(got - ref) <= 4 * sys.float_info.epsilon * abs(ref) + 2.0**-1073
