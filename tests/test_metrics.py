import math
from fractions import Fraction

import numpy as np
import pytest

from qbinomial.asymptotics import dnorm_alpha, limit_law
from qbinomial.distributions import (
    Binomial,
    DiscreteNormal,
    Heine,
    KempBinomial,
    PMFTable,
    Poisson,
    heine_pmf,
    kb_pmf,
    reference_pmf,
)
from qbinomial.metrics import (
    convergence_sweep,
    kolmogorov_distance,
    tabulate,
    tv_distance,
)
from qbinomial.qcalc import QBase, ScaledReal

Q5 = QBase(0.5)


def point_mass(x: int) -> PMFTable:
    return PMFTable(x, np.array([1.0]), 1.0)


class TestTabulate:
    def test_kb_exact_three_entries(self):
        t = tabulate(KempBinomial(2, 1.0, Q5))
        assert len(t) == 3
        assert t.captured_mass == pytest.approx(1.0, abs=1e-14)

    def test_heine_mass(self):
        t = tabulate(Heine(0.5, Q5))
        assert t.captured_mass >= 1 - 1e-12

    def test_dnorm_symmetric(self):
        t = tabulate(DiscreteNormal(0.0, Q5))
        assert np.array_equal(t.probs, t.probs[::-1])

    def test_reference_laws(self):
        assert tabulate(Binomial(4, 0.25)).prob(0) == pytest.approx(0.31640625)
        assert tabulate(Poisson(2.0)).captured_mass >= 1 - 1e-12

    def test_passthrough_table(self):
        t = point_mass(3)
        assert tabulate(t) is t

    @pytest.mark.parametrize("qv", [0.05, 0.5, 0.999])
    @pytest.mark.parametrize("name", ["kb", "heine", "dnorm", "limit", "poisson", "binomial"])
    def test_table_contract(self, name, qv):
        # every builder cuts where the omitted entries are 0.0 in binary64
        law, pmf, support = _contract_case(name, QBase(qv))
        t = tabulate(law)
        assert t.captured_mass == 1.0
        assert abs(math.fsum(t.probs.tolist()) - 1.0) <= 1e-12
        top = t.probs.max()
        for x in (t.offset - 1, t.last + 1):
            if support[0] <= x <= support[1]:
                assert pmf(x) < 1e-300 * top


def _dnorm_point_pmf(alpha: float, q: QBase):
    """pmf of the discrete normal from its weights q^((x - alpha)^2/2), for small |alpha|."""
    log_z = math.log(math.fsum(math.exp(0.5 * (x - alpha) ** 2 * q.log) for x in range(-4000, 4001)))
    return lambda x: math.exp(0.5 * (x - alpha) ** 2 * q.log - log_z)


def _contract_case(name: str, q: QBase):
    """(law, its point pmf, its support) for the table-contract test."""
    if name == "kb":
        d = KempBinomial(10_000, ScaledReal.from_q_power(-5000.3, q), q)
        return d, lambda x: kb_pmf(d, x), (0, d.n)
    if name == "heine":
        d = Heine(5.0, q)
        return d, lambda x: heine_pmf(d, x), (0, math.inf)
    if name == "dnorm":
        return DiscreteNormal(0.3, q), _dnorm_point_pmf(0.3, q), (-math.inf, math.inf)
    if name == "limit":
        return limit_law(0.3, q), _dnorm_point_pmf(dnorm_alpha(0.3), q), (-math.inf, math.inf)
    if name == "poisson":
        law = Poisson(q.value / (1.0 - q.value))
        return law, lambda x: reference_pmf(law, x), (0, math.inf)
    law = Binomial(20, q.value)
    return law, lambda x: reference_pmf(law, x), (0, law.n)


class TestDistances:
    def test_identical_tables(self):
        t = tabulate(KempBinomial(5, 1.0, Q5))
        assert tv_distance(t, t) == 0.0
        assert kolmogorov_distance(t, t) == 0.0

    def test_disjoint_point_masses(self):
        assert tv_distance(point_mass(0), point_mass(1)) == 1.0
        assert kolmogorov_distance(point_mass(0), point_mass(1)) == 1.0

    def test_tv_stays_within_unit_interval(self):
        # entries may sum to 1 + 1e-12 within PMFTable's consistency tolerance
        a = PMFTable(0, np.array([0.5, 0.5 + 1e-12]), 1.0)
        assert tv_distance(a, point_mass(5)) == 1.0

    def test_bernoulli_gap(self):
        a = tabulate(Binomial(1, 0.5))
        b = tabulate(Binomial(1, 0.25))
        assert tv_distance(a, b) == pytest.approx(0.25, rel=1e-12)
        assert kolmogorov_distance(a, b) == pytest.approx(0.25, rel=1e-12)

    def test_metric_axioms_on_sampled_triples(self):
        tables = [
            tabulate(KempBinomial(6, 1.0, Q5)),
            tabulate(Binomial(6, 0.4)),
            tabulate(Heine(0.7, Q5)),
        ]
        for m in (tv_distance, kolmogorov_distance):
            for a in tables:
                for b in tables:
                    assert m(a, b) >= 0.0
                    assert m(a, b) == pytest.approx(m(b, a), rel=1e-14)
            a, b, c = tables
            assert m(a, c) <= m(a, b) + m(b, c) + 1e-14

    def test_kolmogorov_below_tv(self):
        pairs = [
            (tabulate(KempBinomial(6, 1.0, Q5)), tabulate(Binomial(6, 0.4))),
            (tabulate(Heine(0.7, Q5)), tabulate(Poisson(0.7))),
        ]
        for a, b in pairs:
            assert kolmogorov_distance(a, b) <= tv_distance(a, b) + 1e-14

    def test_tv_is_upper_end_under_uncaptured_mass(self):
        # each table may hold its missing 1e-7 anywhere, so the true TV of two
        # tables with equal entries can be as large as 1e-7
        a = PMFTable(0, np.array([0.5, 0.5 - 1e-7]), 1.0 - 1e-7)
        b = PMFTable(0, np.array([0.5, 0.5 - 1e-7]), 1.0 - 1e-7)
        assert tv_distance(a, b) == pytest.approx(1e-7, rel=1e-6)

    def test_uncaptured_mass_slack(self):
        full = point_mass(0)
        leaky = PMFTable(0, np.array([1.0 - 1e-7]), 1.0 - 1e-7)
        assert tv_distance(full, leaky) == pytest.approx(1e-7, rel=1e-6)


class TestSweeps:
    def test_poisson_coupling(self):
        rep = convergence_sweep(
            "poisson-coupling", {"q": Q5, "lam": 2.0}, list(range(10, 101, 10))
        )
        assert rep.passed
        assert rep.rows[-1].distance < 1e-8
        tail = [r.distance for r in rep.rows[len(rep.rows) // 2 :]]
        assert all(a >= b for a, b in zip(tail, tail[1:]))

    def test_constant_mean(self):
        rep = convergence_sweep(
            "constant-mean", {"q": Q5, "mu": 1.0}, [5, 10, 20, 40, 80]
        )
        assert rep.passed
        dists = [r.distance for r in rep.rows]
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
        assert rep.rows[-1].distance < 1e-4
        # monotone decrease down to the pmf-evaluation noise floor (~1e-13)
        tail = [r.distance for r in rep.rows[len(rep.rows) // 2 :]]
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
        assert rep.rows[-1].distance < 1e-6
        assert all(r.auxiliary["exact_identity_gap"] < 1e-12 for r in rep.rows)
        tail = [r.distance for r in rep.rows[len(rep.rows) // 2 :]]
        assert all(a >= b - 1e-12 for a, b in zip(tail, tail[1:]))

    def test_exponential_reflection_tied_mode(self):
        # theta = 1, q = 0.5: P(0) = P(1), so the mode is a tie, and the reflected
        # and the direct windowed tables end one entry apart
        rep = convergence_sweep("exponential-reflection", {"q": Q5, "theta": 1.0}, [1517])
        assert rep.rows[0].auxiliary["exact_identity_gap"] < 1e-12

    def test_degenerate(self):
        rep = convergence_sweep(
            "degenerate", {"q": Q5, "fn": "sqrt"}, [100, 200, 400]
        )
        assert rep.passed
        assert rep.rows[-1].auxiliary["p0"] >= 1 - 1e-5
        dists = [r.distance for r in rep.rows]
        assert all(a >= b - 1e-12 for a, b in zip(dists, dists[1:]))

    def test_limit_law_tabulates(self):
        from qbinomial.asymptotics import limit_law

        law = limit_law(0.3, Q5)
        assert tabulate(law) is law.lattice_probs

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
        dists = [r.distance for r in rep.rows]
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
