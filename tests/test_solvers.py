import math

import mpmath as mp
import pytest

from qbinomial import solvers
from qbinomial.distributions import Heine, KempBinomial, heine_mean, kb_moments
from qbinomial.qcalc import QBase, q_number
from qbinomial.solvers import (
    RESIDUAL_TARGET,
    BracketError,
    ConvergenceError,
    theta_for_mean,
    theta_for_poisson,
    theta_limit_for_mean,
)

Q5 = QBase(0.5)


def mp_mean(theta: float, q: float, n) -> mp.mpf:
    """sum_{i<n} sigmoid(ln theta - i h), h = -ln q, at 40 digits from the exact floats.

    Terms with |t| < 1 are added directly. Below, sigmoid(t) = sum_k (-1)^(k-1)
    e^(kt), each term summed over the block as a geometric series in i; above,
    sigmoid(t) = 1 - sigmoid(-t) mirrors the block. n may be math.inf.
    """
    with mp.workdps(40):
        a, h = mp.log(mp.mpf(theta)), -mp.log(mp.mpf(q))

        def series(s, count):  # sum_{j<count} sigmoid(s - j h), s <= -1
            total, k = mp.mpf(0), 1
            while True:
                term = mp.exp(k * s) / -mp.expm1(-k * h)
                total += (-1) ** (k - 1) * term * (1 if count == math.inf else -mp.expm1(-k * h * count))
                if term < mp.mpf(10) ** -45:
                    return total
                k += 1

        iu = 0 if a < 1 else min(n, int(mp.floor((a - 1) / h)) + 1)  # t >= 1 for i < iu
        il = max(iu, min(n, int(mp.ceil((a + 1) / h))))  # t <= -1 for i >= il
        total = iu - series((iu - 1) * h - a, iu) if iu else mp.mpf(0)
        total += mp.fsum(1 / (1 + mp.exp(i * h - a)) for i in range(iu, il))
        return total + (series(a - il * h, n - il) if il < n else 0)


class TestThetaForPoisson:
    def test_direct_value(self):
        # [1]_q = 1, so theta = lambda
        assert theta_for_poisson(2, Q5, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_formula(self):
        assert theta_for_poisson(10, Q5, 2.0) == pytest.approx(
            2.0 / q_number(8, Q5), rel=1e-15
        )

    def test_q_to_1_gives_binomial_success_probability(self):
        theta = theta_for_poisson(10, QBase(0.9999), 2.0)
        assert theta / (1 + theta) == pytest.approx(0.2, abs=1e-3)

    def test_lambda_range(self):
        with pytest.raises(ValueError):
            theta_for_poisson(5, Q5, 5.0)
        with pytest.raises(ValueError):
            theta_for_poisson(5, Q5, 0.0)


class TestThetaForMean:
    def test_inverts_known_moment(self):
        # KB(2, 1, 0.5) has mean 5/6
        sol = theta_for_mean(2, Q5, 5.0 / 6.0)
        assert sol.theta == pytest.approx(1.0, abs=1e-10)
        assert sol.residual <= 1e-12

    def test_small_mu_gives_small_theta(self):
        sol = theta_for_mean(10, Q5, 1e-8)
        assert 0 < sol.theta < 1e-7
        assert sol.residual <= 1e-12

    def test_residual_meets_target_across_grid(self):
        for n in (2, 5, 20, 100, 200):
            sol = theta_for_mean(n, Q5, 1.0)
            assert sol.residual <= 1e-12
            back = kb_moments(KempBinomial(n, sol.theta, Q5)).mean
            assert back == pytest.approx(1.0, abs=1e-11)

    def test_theta_sequence_strictly_decreasing(self):
        thetas = [theta_for_mean(n, Q5, 1.0).theta for n in range(2, 51)]
        assert all(a > b for a, b in zip(thetas, thetas[1:]))

    def test_bracket_error(self):
        with pytest.raises(BracketError):
            theta_for_mean(3, Q5, 2.0)

    def test_large_n(self):
        # linear bisection over [0, q^-(n-1)] would need n log2(1/q) + 60 = 1560 steps
        sol = theta_for_mean(1500, Q5, 3.0)
        assert sol.theta == pytest.approx(4.96206219648585, rel=1e-13)
        assert sol.residual <= RESIDUAL_TARGET and sol.iterations <= 20

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(solvers, "MAX_ITERATIONS", 1)
        with pytest.raises(ConvergenceError):
            theta_for_mean(20, Q5, 1.0)

    def test_overflowing_root_raises(self):
        with pytest.raises(ConvergenceError, match="overflows"):
            theta_for_mean(100_000, Q5, 50_000.0)  # theta = 2^49999.5

    def test_determinism(self):
        a = theta_for_mean(37, QBase(0.35), 2.5)
        b = theta_for_mean(37, QBase(0.35), 2.5)
        assert (a.theta, a.residual, a.iterations) == (b.theta, b.residual, b.iterations)


class TestLockstep:
    """_thetas_for_mean runs a sweep's solves together, one kernel call a round."""

    @pytest.mark.parametrize("qv, mu, ns", [(0.8, 1.984, [50, 100, 150, 200, 250, 300]),
                                            (0.5, 3.0, [6, 7, 40, 1000, 1500]),
                                            (0.2, 1.0845, [395, 398, 400])])
    def test_equals_solo_solves(self, qv, mu, ns):
        q = QBase(qv)
        limit, *rows = solvers._thetas_for_mean(q, mu, [math.inf, *ns])
        assert limit == theta_limit_for_mean(q, mu)  # theta, residual and iterations
        assert rows == [theta_for_mean(n, q, mu) for n in ns]

    def test_first_failure_in_sequential_order(self):
        # the limit overflows and the row is unbracketed: solved in turn, the limit raises first
        with pytest.raises(ConvergenceError, match="overflows"):
            solvers._thetas_for_mean(Q5, 1100.0, [math.inf, 100])
        with pytest.raises(BracketError):
            solvers._thetas_for_mean(Q5, 3.0, [math.inf, 5, 100_000])
        with pytest.raises(ConvergenceError, match="overflows"):
            solvers._thetas_for_mean(Q5, 50_000.0, [math.inf, 100_000, 10])


class TestThetaLimitForMean:
    def test_finite_solution_converges_to_limit(self):
        lim = theta_limit_for_mean(Q5, 1.0)
        fin = theta_for_mean(200, Q5, 1.0)
        assert abs(fin.theta - lim.theta) < 1e-8

    def test_small_mu(self):
        sol = theta_limit_for_mean(Q5, 1e-9)
        assert 0 < sol.theta < 1e-8

    def test_poisson_scaling_near_q_one(self):
        q = QBase(1 - 1e-4)
        sol = theta_limit_for_mean(q, 1.0)
        assert sol.theta / 1e-4 == pytest.approx(1.0, abs=1e-2)

    def test_residual(self):
        sol = theta_limit_for_mean(Q5, 2.7)
        assert sol.residual <= 1e-12
        assert heine_mean(Heine(sol.theta, Q5)) == pytest.approx(2.7, abs=1e-11)

    def test_mu_validation(self):
        with pytest.raises(ValueError):
            theta_limit_for_mean(Q5, 0.0)


class TestMonotonicityProperties:
    def test_mean_increasing_in_theta(self):
        means = [
            kb_moments(KempBinomial(15, th, Q5)).mean
            for th in (0.1, 0.5, 1.0, 2.0, 5.0, 20.0)
        ]
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_mean_increasing_in_q(self):
        means = [
            kb_moments(KempBinomial(15, 1.0, QBase(qv))).mean
            for qv in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_lemma2_roots_decrease_and_converge(self):
        # roots of mu_n(theta) = mu decrease in n toward the limit root;
        # past n ~ 53 consecutive roots differ by less than 1 ulp (gap ~ q^n)
        limit = theta_limit_for_mean(Q5, 1.0).theta
        prev = math.inf
        for n in (2, 5, 10, 30, 50):
            theta_n = theta_for_mean(n, Q5, 1.0).theta
            assert theta_n < prev
            assert theta_n >= limit - 1e-12
            prev = theta_n
        assert theta_for_mean(200, Q5, 1.0).theta == pytest.approx(limit, abs=1e-8)


def _grid():
    for qv in (1e-8, 0.2, 0.5, 0.999, 0.9999):
        for n in (2, 7, 50, 1500, 10**6):
            for mu in sorted({1e-9, 1.0, 3.0, n / 4, n / 2}):
                if n >= 2 * mu:
                    yield pytest.param(qv, n, mu, id=f"q={qv}-n={n}-mu={mu:g}")
    for qv in (0.5, 0.9999):
        for mu in (1e-9, 1.0, 2.7, 50.0):
            yield pytest.param(qv, math.inf, mu, id=f"q={qv}-heine-mu={mu:g}")


@pytest.mark.parametrize("qv,n,mu", _grid())
def test_solution_verified_against_mpmath_or_raises(qv, n, mu):
    """A returned theta meets RESIDUAL_TARGET at 40 digits; only an overflowing
    root (ln theta > 700) or a mean whose float spacing nears 1e-12 may raise."""
    try:
        sol = theta_for_mean(n, qv, mu) if n < math.inf else theta_limit_for_mean(qv, mu)
    except ConvergenceError:
        assert mu * -math.log(qv) > 700 or mu >= 1e4
        return
    assert sol.iterations <= 100
    assert sol.residual <= RESIDUAL_TARGET
    assert abs(mp_mean(sol.theta, qv, n) - mu) <= RESIDUAL_TARGET
