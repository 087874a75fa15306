import math
import time
from fractions import Fraction

import numpy as np
import pytest

from qbinomial.asymptotics import FractionalDrift, dnorm_alpha, limit_law
from qbinomial.distributions import (
    Binomial,
    DiscreteNormal,
    Heine,
    KempBinomial,
    PMFTable,
    Poisson,
    _half_width,
    _logit_rows,
    _logits,
    kb_moments,
    kb_pmf,
    kb_table,
    reflect,
)
from qbinomial.metrics import (
    convergence_sweep,
    tabulate,
    tv_distance,
)
from qbinomial.qcalc import QBase, ScaledReal
from qbinomial.solvers import theta_limit_for_mean

Q5 = QBase(0.5)


def point_mass(x: int) -> PMFTable:
    return PMFTable(x, np.array([1.0]))


class TestTabulate:
    def test_kb_exact_three_entries(self):
        t = tabulate(KempBinomial(2, 1.0, Q5))
        assert len(t) == 3

    def test_heine_mass(self):
        t = tabulate(Heine(0.5, Q5))
        assert math.fsum(t.probs.tolist()) == pytest.approx(1.0, abs=1e-12)

    def test_dnorm_symmetric(self):
        t = tabulate(DiscreteNormal(0.0, Q5))
        assert np.array_equal(t.probs, t.probs[::-1])

    def test_reference_laws(self):
        assert tabulate(Binomial(4, 0.25)).prob(0) == pytest.approx(0.31640625)

    @pytest.mark.parametrize("qv", [0.05, 0.5, 0.999])
    @pytest.mark.parametrize("name", ["kb", "heine", "dnorm", "limit", "poisson", "binomial", "reflect"])
    def test_table_contract(self, name, qv):
        # every builder cuts where the omitted entries are 0.0 in binary64, so a table holds all its mass
        t, pmf, support = _contract_case(name, QBase(qv))
        assert not t.probs.flags.writeable
        assert abs(math.fsum(t.probs.tolist()) - 1.0) <= 1e-12
        top = t.probs.max()
        for x in (t.offset - 1, t.last + 1):
            if support[0] <= x <= support[1]:
                assert pmf(x) < 1e-300 * top


def _dnorm_point_pmf(alpha: float, q: QBase):
    """pmf of the discrete normal from its weights q^((x - alpha)^2/2), for small |alpha|."""
    log_z = math.log(math.fsum(math.exp(0.5 * (x - alpha) ** 2 * q.log) for x in range(-4000, 4001)))
    return lambda x: math.exp(0.5 * (x - alpha) ** 2 * q.log - log_z)


def _binomial_point_pmf(n: int, p: float):
    """pmf of Binomial(n, p) on {0, ..., n} from math.lgamma, for 0 < p < 1."""
    return lambda x: math.exp(
        math.lgamma(n + 1) - math.lgamma(x + 1) - math.lgamma(n - x + 1)
        + x * math.log(p) + (n - x) * math.log1p(-p)
    )


def _poisson_point_pmf(lam: float):
    """pmf of Poisson(lam) on {0, 1, ...} from math.lgamma, for lam > 0."""
    return lambda x: math.exp(x * math.log(lam) - lam - math.lgamma(x + 1))


def _contract_case(name: str, q: QBase):
    """(a table, its law's point pmf, its support) for the table-contract test."""
    if name in ("kb", "reflect"):
        d = KempBinomial(10_000, ScaledReal.from_q_power(-5000.3, q), q)
        if name == "reflect":
            return reflect(kb_table(d), d.n), lambda x: kb_pmf(d, d.n - x), (0, d.n)
        return tabulate(d), lambda x: kb_pmf(d, x), (0, d.n)
    if name == "heine":
        d = Heine(5.0, q)
        return tabulate(d), lambda x: kb_pmf(d, x), (0, math.inf)
    if name == "dnorm":
        return tabulate(DiscreteNormal(0.3, q)), _dnorm_point_pmf(0.3, q), (-math.inf, math.inf)
    if name == "limit":
        return limit_law(0.3, q).lattice_probs, _dnorm_point_pmf(dnorm_alpha(0.3), q), (-math.inf, math.inf)
    if name == "poisson":
        lam = q.value / (1.0 - q.value)
        return tabulate(Poisson(lam)), _poisson_point_pmf(lam), (0, math.inf)
    return tabulate(Binomial(20, q.value)), _binomial_point_pmf(20, q.value), (0, 20)


class TestDistances:
    def test_identical_tables(self):
        t = tabulate(KempBinomial(5, 1.0, Q5))
        assert tv_distance(t, t) == 0.0

    def test_disjoint_point_masses(self):
        assert tv_distance(point_mass(0), point_mass(1)) == 1.0

    def test_far_apart_windows_build_no_gap_array(self):
        # the union lattice between these windows would hold 10**12 entries, 7.3 TiB of float64
        start = time.perf_counter()
        assert tv_distance(point_mass(0), point_mass(10**12)) == 1.0
        assert tv_distance(point_mass(10**12), point_mass(0)) == 1.0
        assert time.perf_counter() - start < 1.0

    def test_tv_stays_within_unit_interval(self):
        # entries may sum to 1 + 1e-12 within PMFTable's consistency tolerance
        a = PMFTable(0, np.array([0.5, 0.5 + 1e-12]))
        assert tv_distance(a, point_mass(5)) == 1.0

    def test_bernoulli_gap(self):
        a = tabulate(Binomial(1, 0.5))
        b = tabulate(Binomial(1, 0.25))
        assert tv_distance(a, b) == pytest.approx(0.25, rel=1e-12)

    def test_metric_axioms_on_sampled_triples(self):
        tables = [
            tabulate(KempBinomial(6, 1.0, Q5)),
            tabulate(Binomial(6, 0.4)),
            tabulate(Heine(0.7, Q5)),
        ]
        for a in tables:
            for b in tables:
                assert tv_distance(a, b) >= 0.0
                assert tv_distance(a, b) == pytest.approx(tv_distance(b, a), rel=1e-14)
        a, b, c = tables
        assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-14


class TestSweeps:
    def test_poisson_coupling(self):
        rep = convergence_sweep(
            "poisson-coupling", {"q": Q5, "lam": 2.0}, list(range(10, 101, 10))
        )
        assert rep.passed
        dists = rep.columns["distance"]
        assert dists[-1] < 1e-8
        tail = dists[len(dists) // 2 :]
        assert all(a >= b for a, b in zip(tail, tail[1:]))

    def test_constant_mean(self):
        rep = convergence_sweep(
            "constant-mean", {"q": Q5, "mu": 1.0}, [5, 10, 20, 40, 80]
        )
        assert rep.passed
        dists = rep.columns["distance"]
        assert dists[-1] < 1e-6
        assert all(a >= b for a, b in zip(dists, dists[1:]))

    def test_subexponential_requires_constant_beta(self):
        with pytest.raises(ValueError):
            convergence_sweep(
                "subexponential",
                {"q": Q5, "slope": Fraction(1, 2), "offset": 0.3},
                [10, 11],
            )

    def test_subexponential_even_subsequence(self):
        rep = convergence_sweep(
            "subexponential",
            {"q": Q5, "slope": Fraction(1, 2), "offset": 0.3},
            list(range(20, 121, 2)),
        )
        assert rep.passed
        dists = rep.columns["distance"]
        assert dists[-1] < 1e-4
        # monotone decrease down to the pmf-evaluation noise floor (~1e-13)
        tail = dists[len(dists) // 2 :]
        assert all(a >= b - 1e-12 for a, b in zip(tail, tail[1:]))

    def test_subexponential_beta_half_branch(self):
        rep = convergence_sweep(
            "subexponential",
            {"q": Q5, "slope": Fraction(1, 2), "offset": 0.0},
            list(range(21, 122, 2)),
        )
        assert rep.passed

    def test_exponential_reflection(self):
        rep = convergence_sweep(
            "exponential-reflection", {"q": Q5, "theta": 2.0}, list(range(10, 81, 10))
        )
        assert rep.passed
        dists = rep.columns["distance"]
        assert dists[-1] < 1e-6
        assert all(g < 1e-12 for g in rep.columns["exact_identity_gap"])
        tail = dists[len(dists) // 2 :]
        assert all(a >= b - 1e-12 for a, b in zip(tail, tail[1:]))

    def test_exponential_reflection_tied_mode(self):
        # theta = 1, q = 0.5: P(0) = P(1), so the mode is a tie, and the reflected
        # and the direct windowed tables end one entry apart
        rep = convergence_sweep("exponential-reflection", {"q": Q5, "theta": 1.0}, [1517])
        assert rep.columns["exact_identity_gap"][0] < 1e-12

    def test_degenerate(self):
        rep = convergence_sweep(
            "degenerate", {"q": Q5, "fn": "sqrt"}, [100, 200, 400]
        )
        assert rep.passed
        assert rep.columns["p0"][-1] >= 1 - 1e-5
        dists = rep.columns["distance"]
        assert all(a >= b - 1e-12 for a, b in zip(dists, dists[1:]))

    def test_threshold_override(self):
        rep = convergence_sweep(
            "poisson-coupling",
            {"q": Q5, "lam": 2.0, "threshold": 1e-30},
            [10, 20],
        )
        assert not rep.passed
        assert rep.verdict == "fail"

    def test_q_to_1_binomial(self):
        rep = convergence_sweep(
            "q-to-1-binomial",
            {"q": 0.5, "n": 10, "theta": 1.0, "q_list": [0.9, 0.99, 0.999, 0.9999]},
            [],
        )
        assert rep.passed
        dists = rep.columns["distance"]
        assert dists[-1] <= 1e-3
        assert all(a >= b for a, b in zip(dists, dists[1:]))

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            convergence_sweep("nope", {"q": Q5}, [1, 2])

    def test_n_list_must_increase(self):
        with pytest.raises(ValueError):
            convergence_sweep("poisson-coupling", {"q": Q5, "lam": 1.0}, [10, 10])

    def test_missing_parameters(self):
        with pytest.raises(ValueError):
            convergence_sweep("poisson-coupling", {"q": Q5}, [10, 20])

    @pytest.mark.parametrize("theta", [0.0, -1.0, math.inf, math.nan])
    def test_reflection_needs_positive_finite_theta(self, theta):
        with pytest.raises(ValueError, match="theta"):
            convergence_sweep("exponential-reflection", {"q": Q5, "theta": theta}, [10, 20])

    @pytest.mark.parametrize("theta", [-1.0, -0.5, math.inf, math.nan])
    def test_q_to_1_needs_nonnegative_finite_theta(self, theta):
        with pytest.raises(ValueError, match="theta"):
            convergence_sweep("q-to-1-binomial", {"q": Q5, "n": 10, "theta": theta}, [])

    def test_q_to_1_theta_zero_is_the_point_mass(self):
        rep = convergence_sweep("q-to-1-binomial", {"q": Q5, "n": 10, "theta": 0.0, "q_list": [0.9]}, [])
        assert rep.columns["distance"][0] == 0.0

    @pytest.mark.parametrize("threshold", [-1.0, -1e-300, math.nan, math.inf])
    def test_threshold_must_be_finite_and_nonnegative(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            convergence_sweep(
                "poisson-coupling", {"q": Q5, "lam": 2.0, "threshold": threshold}, [10, 20]
            )


def two_array_tv(a: PMFTable, b: PMFTable) -> float:
    """tv_distance as two zero-padded arrays on the union lattice."""
    lo = min(a.offset, b.offset)
    pa = np.zeros(max(a.last, b.last) - lo + 1)
    pb = np.zeros_like(pa)
    pa[a.offset - lo : a.offset - lo + len(a)] = a.probs
    pb[b.offset - lo : b.offset - lo + len(b)] = b.probs
    return min(1.0, 0.5 * math.fsum(np.abs(pa - pb).tolist()))


class TestSweepReference:
    """Each sweep row equals the plain per-row formula, bit for bit."""

    @pytest.mark.parametrize("qv", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize(
        "slope, offset, n_list",
        [
            (Fraction(1, 2), 0.3, range(20, 121, 2)),
            (Fraction(1, 3), 0.88, range(30, 151, 3)),
            (Fraction(3, 10), 0.25, range(20, 301, 10)),
        ],
    )
    def test_subexponential(self, qv, slope, offset, n_list):
        self._check_subexponential(QBase(qv), slope, offset, list(n_list))

    @pytest.mark.parametrize(
        "slope, offset, n_list",
        [
            (Fraction(1, 2), 0.0, range(21, 122, 2)),  # 2 f(n) = n: ceil
            (Fraction(1, 4), 0.5, range(20, 121, 4)),  # 2 f(n) = n/2 + 1 <= n - 1: floor
        ],
    )
    def test_subexponential_beta_half(self, slope, offset, n_list):
        self._check_subexponential(Q5, slope, offset, list(n_list))

    @staticmethod
    def _check_subexponential(q, slope, offset, n_list):
        rep = convergence_sweep(
            "subexponential", {"q": q, "slope": slope, "offset": offset}, n_list
        )
        drift = FractionalDrift(slope, offset)
        cols = rep.columns
        assert list(cols) == ["n", "distance", "mean", "shift", "beta"]
        assert cols["n"] == n_list
        for i, n in enumerate(n_list):
            beta = drift.beta_fraction(n)
            d = KempBinomial(n, ScaledReal.from_q_power(-drift.value(n), q), q)
            mu = kb_moments(d).mean
            shift = math.floor(mu)
            if beta == Fraction(1, 2) and 2 * (drift.slope * n + Fraction(drift.offset)) > n - 1:
                shift = math.ceil(mu)
            t = kb_table(d)
            shifted = PMFTable(t.offset - shift, t.probs)
            limit = limit_law(beta, q).lattice_probs
            ref = two_array_tv(shifted, limit)
            assert tv_distance(shifted, limit) == ref
            assert tv_distance(limit, shifted) == two_array_tv(limit, shifted)
            assert cols["distance"][i] == ref
            assert (cols["mean"][i], cols["shift"][i], cols["beta"][i]) == (mu, float(shift), float(beta))

    def test_poisson_coupling_mean(self):
        rep = convergence_sweep("poisson-coupling", {"q": Q5, "lam": 2.0}, list(range(10, 101, 10)))
        cols = rep.columns
        for n, theta, mean in zip(cols["n"], cols["theta"], cols["mean"], strict=True):
            assert mean == kb_moments(KempBinomial(n, theta, Q5)).mean


def union_gap(a: PMFTable, b: PMFTable) -> np.ndarray:
    """a - b entry by entry on the union lattice min(offsets), ..., max(lasts)."""
    lo = min(a.offset, b.offset)
    gap = np.zeros(max(a.last, b.last) - lo + 1)
    gap[a.offset - lo : a.offset - lo + len(a)] = a.probs
    gap[b.offset - lo : b.offset - lo + len(b)] -= b.probs
    return gap


BATCH_QS = [0.05, 0.3, 0.5, 0.9, 0.999]


def batch_laws(q: QBase) -> list:
    """KB laws at q whose windows are clipped at 0, at n, at both or at neither, theta = 0 and n = 0."""
    laws = []
    for n in [0, 1, 2, 7, 20, 45, 80, 150, 1000, 20000]:
        laws += [KempBinomial(n, th, q) for th in (0.0, 0.4, 1.3, 9.0)]
        drifts = (0.3 * n, n / 2, n - 0.5, n + n**0.5)
        laws += [KempBinomial(n, ScaledReal.from_q_power(-f, q), q) for f in drifts]
    return laws


class TestBatchedRows:
    """Sweeps build their tables as rows of one array; every row equals the per-row path bit for bit."""

    @pytest.mark.parametrize("qv", BATCH_QS)
    def test_builder_rows_are_kb_tables(self, qv):
        q = QBase(qv)
        laws = batch_laws(q)
        first, probs = _logit_rows([_logits(d) for d in laws], q)
        assert probs.shape[0] == len(laws)
        assert probs.shape[1] <= 2 * _half_width(q) + 1
        clipped = 0
        for d, f, row in zip(laws, first, probs):
            t = kb_table(d)
            i = t.offset - f
            clipped += len(t) < 2 * _half_width(q) + 1
            assert (row[i : i + len(t)] == t.probs).all()
            assert not row[:i].any() and not row[i + len(t) :].any()
        assert clipped > 0

    @pytest.mark.parametrize("qv", BATCH_QS)
    def test_kb_table_is_the_one_row_case(self, qv):
        q = QBase(qv)
        for d in batch_laws(q):
            first, probs = _logit_rows([_logits(d)], q)
            t = kb_table(d)
            assert first == [t.offset] and probs.shape == (1, len(t))
            assert (probs[0] == t.probs).all()

    @pytest.mark.parametrize("qv", BATCH_QS)
    def test_poisson_coupling(self, qv):
        q = QBase(qv)
        rep = convergence_sweep("poisson-coupling", {"q": q, "lam": 2.0}, list(range(10, 401, 10)))
        limit = tabulate(Heine((1.0 - qv) * 2.0, q))
        cols = rep.columns
        assert list(cols) == ["n", "distance", "theta", "mean"]
        for n, dist, theta, mean in zip(*cols.values(), strict=True):
            d = KempBinomial(n, theta, q)
            assert dist == tv_distance(kb_table(d), limit)
            assert mean == kb_moments(d).mean

    @pytest.mark.parametrize("qv", BATCH_QS)
    def test_constant_mean(self, qv):
        q = QBase(qv)
        rep = convergence_sweep("constant-mean", {"q": q, "mu": 1.5}, [3, 10, 40, 200])
        limit = tabulate(Heine(theta_limit_for_mean(q, 1.5).theta, q))
        cols = rep.columns
        for n, dist, theta in zip(cols["n"], cols["distance"], cols["theta"], strict=True):
            assert dist == tv_distance(kb_table(KempBinomial(n, theta, q)), limit)

    @pytest.mark.parametrize("qv", BATCH_QS)
    @pytest.mark.parametrize(
        "slope, offset, n_list",
        [
            (Fraction(1, 2), 0.3, range(20, 121, 2)),
            (Fraction(1, 2), 0.0, range(21, 122, 2)),  # beta = 1/2 and 2 f(n) = n: ceil
            (Fraction(1, 4), 0.5, range(20, 121, 4)),  # beta = 1/2 and 2 f(n) <= n - 1: floor
        ],
    )
    def test_subexponential(self, qv, slope, offset, n_list):
        TestSweepReference._check_subexponential(QBase(qv), slope, offset, list(n_list))

    @pytest.mark.parametrize("qv", BATCH_QS)
    @pytest.mark.parametrize("theta", [1.0, 2.5])
    def test_exponential_reflection(self, qv, theta):
        q = QBase(qv)
        n_list = list(range(1, 61, 2))
        rep = convergence_sweep("exponential-reflection", {"q": q, "theta": theta}, n_list)
        limit = tabulate(Heine(qv / theta, q))
        assert list(rep.columns) == ["n", "distance", "exact_identity_gap"]
        assert rep.columns["n"] == n_list
        for n, dist, gap in zip(*rep.columns.values(), strict=True):
            d = KempBinomial(n, ScaledReal.from_float(theta, q).q_shift(-n), q)
            reflected = reflect(kb_table(d), n)
            exact = kb_table(KempBinomial(n, qv / theta, q))
            assert dist == tv_distance(reflected, limit)
            assert gap == float(np.max(np.abs(union_gap(reflected, exact))))

    @pytest.mark.parametrize("qv", BATCH_QS)
    @pytest.mark.parametrize("fn", ["sqrt", Fraction(1, 2)])
    def test_degenerate(self, qv, fn):
        q = QBase(qv)
        n_list = [1, 4, 9, 30, 100, 400]
        rep = convergence_sweep("degenerate", {"q": q, "fn": fn}, n_list)
        assert list(rep.columns) == ["n", "distance", "p0"]
        assert rep.columns["n"] == n_list
        for n, dist, p0 in zip(*rep.columns.values(), strict=True):
            f = math.sqrt(n) if fn == "sqrt" else FractionalDrift(fn).value(n)
            reflected = reflect(kb_table(KempBinomial(n, ScaledReal.from_q_power(-(n + f), q), q)), n)
            assert dist == tv_distance(reflected, point_mass(0))
            assert p0 == reflected.prob(0)

    def test_tv_uses_the_union_gap(self):
        kb = kb_table(KempBinomial(30, 2.0, Q5))
        tables = [point_mass(-3), point_mass(4), tabulate(Binomial(6, 0.4)), kb]
        for a in tables:
            for b in tables:
                gap = union_gap(a, b)
                assert tv_distance(a, b) == min(1.0, 0.5 * math.fsum(np.abs(gap).tolist()))
