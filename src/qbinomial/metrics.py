"""Distances between lattice laws and convergence sweeps over n.

Total variation on the union lattice is the primary metric (the limit
theorems state pointwise pmf convergence, which on these tight families is TV
convergence); the Kolmogorov metric is kept as a cross-check. Sweeps turn
each limit theorem into a per-n distance table with a pass/fail verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .asymptotics import FractionalDrift, LimitLaw, limit_law
from .distributions import (
    Binomial,
    DiscreteNormal,
    Heine,
    KempBinomial,
    PMFTable,
    Poisson,
    _logit_sum,
    binomial_table,
    dnorm_table,
    heine_table,
    kb_table,
    poisson_table,
    reflect,
)
from .qcalc import QBase, ScaledReal, as_qbase
from .solvers import theta_for_mean, theta_for_poisson, theta_limit_for_mean

__all__ = [
    "ConvergenceRow",
    "SweepReport",
    "convergence_sweep",
    "kolmogorov_distance",
    "tabulate",
    "tv_distance",
]

SCENARIOS = (
    "poisson-coupling",
    "constant-mean",
    "subexponential",
    "exponential-reflection",
    "degenerate",
    "q-to-1-binomial",
)


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    distance: float
    auxiliary: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SweepReport:
    scenario: str
    rows: tuple
    threshold: float
    passed: bool

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


def tabulate(law) -> PMFTable:
    """Finite table for any supported law; a PMFTable is passed through."""
    if isinstance(law, PMFTable):
        return law
    if isinstance(law, KempBinomial):
        return kb_table(law)
    if isinstance(law, Heine):
        return heine_table(law)
    if isinstance(law, DiscreteNormal):
        return dnorm_table(law)
    if isinstance(law, Binomial):
        return binomial_table(law)
    if isinstance(law, Poisson):
        return poisson_table(law)
    if isinstance(law, LimitLaw):
        return law.lattice_probs
    raise TypeError(f"cannot tabulate {law!r}")


def _gap(a: PMFTable, b: PMFTable) -> np.ndarray:
    """a - b, entry by entry, on the union lattice min(offsets), ..., max(lasts)."""
    lo = min(a.offset, b.offset)
    gap = np.zeros(max(a.last, b.last) - lo + 1)
    gap[a.offset - lo : a.offset - lo + len(a)] = a.probs
    gap[b.offset - lo : b.offset - lo + len(b)] -= b.probs
    return gap


def tv_distance(a: PMFTable, b: PMFTable) -> float:
    """Upper end of the true TV, min(1, core + (u_a + u_b)/2).

    core is half the l1 gap on the union lattice and u a table's uncaptured mass;
    that mass may sit anywhere, so the true TV lies within (u_a + u_b)/2 of core.
    """
    core = 0.5 * math.fsum(np.abs(_gap(a, b)).tolist())
    return min(1.0, core + 0.5 * ((1.0 - a.captured_mass) + (1.0 - b.captured_mass)))


def kolmogorov_distance(a: PMFTable, b: PMFTable) -> float:
    """Max CDF gap over the union lattice."""
    return float(np.max(np.abs(np.cumsum(_gap(a, b)))))


# ---------------------------------------------------------------------------
# sweeps

_DEFAULT_THRESHOLDS = {
    "poisson-coupling": 1e-6,
    "constant-mean": 1e-6,
    "subexponential": 1e-4,
    "exponential-reflection": 1e-6,
    "degenerate": 1e-5,
    "q-to-1-binomial": 1e-3,
}


def _require(params: dict, *names: str) -> list:
    missing = [k for k in names if k not in params]
    if missing:
        raise ValueError(f"scenario parameters missing: {', '.join(missing)}")
    return [params[k] for k in names]


def _sweep_poisson(q: QBase, params: dict, n_list) -> list:
    (lam,) = _require(params, "lam")
    limit = tabulate(Heine((1.0 - q.value) * lam, q))
    rows = []
    for n in n_list:
        theta = theta_for_poisson(n, q, lam)
        d = KempBinomial(n, theta, q)
        rows.append(
            ConvergenceRow(
                n,
                tv_distance(kb_table(d), limit),
                {"theta": theta, "mean": _logit_sum("sigmoid", d)},
            )
        )
    return rows


def _sweep_constant_mean(q: QBase, params: dict, n_list) -> list:
    (mu,) = _require(params, "mu")
    theta_inf = theta_limit_for_mean(q, mu).theta
    limit = tabulate(Heine(theta_inf, q))
    rows = []
    for n in n_list:
        sol = theta_for_mean(n, q, mu)
        rows.append(
            ConvergenceRow(
                n,
                tv_distance(kb_table(KempBinomial(n, sol.theta, q)), limit),
                {
                    "theta": sol.theta,
                    "residual": sol.residual,
                    "theta_limit_gap": abs(sol.theta - theta_inf),
                },
            )
        )
    return rows


def _sweep_subexponential(q: QBase, params: dict, n_list) -> list:
    slope, offset = _require(params, "slope", "offset")
    drift = FractionalDrift(Fraction(slope), float(offset))
    # beta_fraction(n) depends only on n mod the slope's denominator
    betas = {drift.beta_fraction(r) for r in {n % drift.slope.denominator for n in n_list}}
    if len(betas) != 1:
        raise ValueError(
            "subexponential sweep needs a constant fractional part; "
            f"n_list spans {sorted(float(b) for b in betas)}"
        )
    beta = betas.pop()
    limit = limit_law(beta, q).lattice_probs
    # shift floor(mu_n); at beta = 1/2 the half-integer rule takes ceil(mu_n) once 2 f(n) > n - 1
    half = beta == Fraction(1, 2)
    exact_offset = Fraction(drift.offset)
    beta_value = float(beta)
    rows = []
    for n in n_list:
        f = drift.value(n)
        if not 0.0 < f < n:
            raise ValueError(f"f({n}) = {f} outside (0, n)")
        d = KempBinomial(n, ScaledReal.from_q_power(-f, q), q)
        mu = _logit_sum("sigmoid", d)
        up = half and 2 * (drift.slope * n + exact_offset) > n - 1
        shift = math.ceil(mu) if up else math.floor(mu)
        rows.append(
            ConvergenceRow(
                n,
                tv_distance(kb_table(d).shifted(shift), limit),
                {"mean": mu, "shift": float(shift), "beta": beta_value},
            )
        )
    return rows


def _sweep_reflection(q: QBase, params: dict, n_list) -> list:
    (theta,) = _require(params, "theta")
    limit = tabulate(Heine(q.value / theta, q))
    dual_base = ScaledReal.from_float(theta, q)
    rows = []
    for n in n_list:
        d = KempBinomial(n, dual_base.q_shift(-n), q)
        reflected = reflect(kb_table(d), n)
        exact = kb_table(KempBinomial(n, q.value / theta, q))
        gap = _gap(reflected, exact)  # windows may differ at a tied mode
        rows.append(
            ConvergenceRow(
                n,
                tv_distance(reflected, limit),
                {"exact_identity_gap": float(np.max(np.abs(gap)))},
            )
        )
    return rows


def _sweep_degenerate(q: QBase, params: dict, n_list) -> list:
    fn = params.get("fn", "sqrt")
    rows = []
    for n in n_list:
        f = math.sqrt(n) if fn == "sqrt" else FractionalDrift(Fraction(fn)).value(n)
        d = KempBinomial(n, ScaledReal.from_q_power(-(n + f), q), q)
        reflected = reflect(kb_table(d), n)
        point = PMFTable(0, np.array([1.0]), 1.0)
        rows.append(
            ConvergenceRow(n, tv_distance(reflected, point), {"p0": reflected.prob(0)})
        )
    return rows


def _sweep_q_to_1(q: QBase, params: dict, n_list) -> list:
    n, theta = _require(params, "n", "theta")
    q_list = params.get("q_list") or [q.value]
    limit = binomial_table(Binomial(n, theta / (1.0 + theta)))
    rows = []
    for qv in q_list:
        d = KempBinomial(n, theta, QBase(qv))
        rows.append(
            ConvergenceRow(n, tv_distance(kb_table(d), limit), {"q": qv})
        )
    return rows


_SWEEPS = {
    "poisson-coupling": _sweep_poisson,
    "constant-mean": _sweep_constant_mean,
    "subexponential": _sweep_subexponential,
    "exponential-reflection": _sweep_reflection,
    "degenerate": _sweep_degenerate,
    "q-to-1-binomial": _sweep_q_to_1,
}


def convergence_sweep(scenario: str, params: dict, n_list: Sequence[int]) -> SweepReport:
    """Distance-to-limit table for one theorem's scenario, with verdict.

    n_list must be strictly increasing (for q-to-1-binomial the rows sweep the
    q ladder in params['q_list'] at fixed n instead). The verdict compares the
    final row's distance against the scenario threshold, overridable through
    params['threshold'].
    """
    if scenario not in _SWEEPS:
        raise ValueError(f"unknown scenario {scenario!r}; choose from {SCENARIOS}")
    q = as_qbase(params["q"]) if "q" in params else None
    if q is None:
        raise ValueError("scenario parameters missing: q")
    if scenario != "q-to-1-binomial":
        if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
            raise ValueError("n_list must be nonempty and strictly increasing")
    threshold = float(params.get("threshold", _DEFAULT_THRESHOLDS[scenario]))
    rows = _SWEEPS[scenario](q, params, list(n_list))
    return SweepReport(
        scenario=scenario,
        rows=tuple(rows),
        threshold=threshold,
        passed=rows[-1].distance <= threshold,
    )
