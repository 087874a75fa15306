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


@pytest.fixture
def kernel_calls(monkeypatch):
    """The number of points of each lattice-sum call the solvers make, in order."""
    kernel, sizes = solvers._lattice_sums, []

    def counted(kinds, points, h):
        sizes.append(len(points))
        return kernel(kinds, points, h)

    monkeypatch.setattr(solvers, "_lattice_sums", counted)
    return sizes


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

    @pytest.mark.parametrize("qv", [0.3, 0.5, 0.9, 0.99])
    def test_residual_reproduces_at_the_returned_theta(self, qv):
        # KempBinomial keeps sol.theta as given, so its mean is the one the solver certified
        q = QBase(qv)
        for n, mu in ((10, 1.0), (100, 3.0), (1000, 7.5), (10**6, 40.0)):
            sol = theta_for_mean(n, q, mu)
            assert abs(kb_moments(KempBinomial(n, sol.theta, q)).mean - mu) == sol.residual, (n, mu)

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

    @pytest.mark.parametrize("qv, n, mu", [(0.5, 1500, 3.0), (0.2, 1000, 50.0), (0.9, 10**4, 10.0),
                                           (1e-8, 100, 1.0)])
    def test_skipped_overflow_probe_leaves_theta(self, monkeypatch, qv, n, mu):
        # (n - 1) ln(1/q) > ln DBL_MAX, so the bracket reaches DBL_MAX, but mu is far below mean(DBL_MAX)
        skipped = theta_for_mean(n, qv, mu)
        monkeypatch.setattr(solvers, "_PROBE_SHARE", 0.0)  # every such bracket evaluates DBL_MAX
        probed = theta_for_mean(n, qv, mu)
        assert (probed.theta, probed.residual) == (skipped.theta, skipped.residual)
        assert probed.iterations == skipped.iterations + 1

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

    def test_each_round_has_points(self, kernel_calls):
        results = solvers._thetas_for_mean(Q5, 3.0, [math.inf, 6, 40, 1500])
        assert min(kernel_calls) > 0 and len(kernel_calls) == max(r.iterations for r in results)
        with pytest.raises(BracketError):
            solvers._thetas_for_mean(Q5, 3.0, [5])
        assert len(kernel_calls) == max(r.iterations for r in results)

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


# The grid of scripts/solve_counts.py: every n >= 2 mu, n = inf for the Heine limit.
_GRID_NS = (2, 5, 7, 20, 50, 100, 185, 397, 1000, 1500, 10**4, 10**6, math.inf)
_GRID_MUS = (1e-9, 1e-4, 0.01, 0.1, 0.5, 0.8333, 1.0, 1.1859, 2.0022, 3.0, 10.0, 50.0, 300.0, 3000.0)
# Mean evaluations of each grid solve when Newton started at the bracket's lower end, one character
# per (n, mu) in the order above: a base-36 digit, or where the solve raised ConvergenceError, the
# letter that many places after "A".
_LOWER_END_START = {
    1e-08: "787769d288787agc288787fge9288787fkeje399898kmfbc399898kmfbcB399898kmfbcB3998"
           "98kmfbcB399898kmfbcBB399898kmfbcBB399898kmfbcBBB399898kmfbcBBB288787ahf9gBBB",
    0.05: "786668678466979778856666877a4566868797a45668687d7a45668687ca7a45668687ea8b56"
          "779798fc8b56779798fcB8b56779798fcB8b56779798fcBB8b56779798fcBB7a456686879aBB",
    0.2: "88675768765666688768576687883776678777737669967777376699677h77376699677k7737"
         "6699677k884877aa788la884877aa788la884877aa788laB884877aa788laB77376699677haB",
    0.3: "78766968374577768866565666877676586688776777966987767779669987767779669a8776"
         "7779669b9887888a77add9887888a77add9887888a77addB9887888a77addB87767779669adB",
    0.4: "87765767874855677876675768786655757998835768576788357685767888357685767a8835"
         "7685767c99468796878ek99468796878ek99468796878ekB99468796878ekB883576857678kB",
    0.5: "87745977867567567877566677783668556677367565567778645575678b78645575678h7864"
         "5575678h78645575678lb89756686789la89756686789laB89756686789laB78645575678gbB",
    0.7: "7747577877668656877646755683744858556287556655572844465655777867468557687867"
         "46855768786746855768b786746855768c897857966879dB897857966879dB7867468557689B",
    0.8: "8877586887456566787447655786665466566876777455662666455775677767756456677767"
         "75645667776775645667b776775645667a887886756778dV887886756778dV776775645667aV",
    0.9: "7767677776767665267665565887674845676778647544657737677658588667477748898663"
         "47774867866347774867b866347774867b977458885978fN977458885978fN8663477748679L",
    0.99: "7877676786747886877864956787378776757273788775757777637647687787666356568686"
          "76775475867666647446676866647487787686767677766K8797878788877O7686767677766K",
    0.999: "7747687876775556777865556687637776556778687784457686676744767684763788658688"
           "87677746876776774646586776673777657863676366678I8978787878777I7867676767666H",
    0.9999: "7837758284748656886766776726637476766868687646658686765447568673777687757687"
            "76767764787866666787588783767663668776878843667F8867887888637G8867887888637G",
}


def _count(digit: str) -> int:
    return ord(digit) - ord("A") if digit.isupper() else int(digit, 36)


def test_estimate_start_saves_evaluations_on_the_grid(kernel_calls):
    """Against a start at the bracket's lower end: the same solves raise, none takes more than
    2 extra evaluations, no q's total grows and the grid's total falls by at least 15%."""
    now_total = before_total = 0
    for qv, digits in _LOWER_END_START.items():
        cases = [(n, mu) for n in _GRID_NS for mu in _GRID_MUS if n >= 2 * mu]
        assert len(cases) == len(digits)
        now = 0
        for (n, mu), digit in zip(cases, digits):
            start = len(kernel_calls)
            try:
                solvers._thetas_for_mean(qv, mu, [n])
                raised = False
            except ConvergenceError:
                raised = True
            assert raised == digit.isupper(), (qv, n, mu)
            assert sum(kernel_calls[start:]) <= _count(digit) + 2, (qv, n, mu)
            now += sum(kernel_calls[start:])
        before = sum(map(_count, digits))
        assert now <= before, qv
        now_total, before_total = now_total + now, before_total + before
    assert now_total <= 0.85 * before_total
