"""Distances between lattice laws and convergence sweeps over n.

Total variation on the union lattice is the metric (the limit theorems state
pointwise pmf convergence, which on these tight families is TV convergence).
Sweeps turn each limit theorem into a per-n distance table with a pass/fail
verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .asymptotics import FractionalDrift, limit_law
from .distributions import (
    Binomial,
    DiscreteNormal,
    Heine,
    KempBinomial,
    PMFTable,
    Poisson,
    _half_width,
    _logit_rows,
    _logit_sums,
    _logits,
    binomial_table,
    dnorm_table,
    heine_table,
    kb_table,
    poisson_table,
)
from .qcalc import QBase, ScaledReal, as_qbase
from .solvers import _thetas_for_mean, theta_for_poisson

__all__ = ["SweepReport", "convergence_sweep", "tabulate", "tv_distance"]


@dataclass(frozen=True)
class SweepReport:
    """A sweep's table: each column name maps to a list, one value per row, in document order."""

    scenario: str
    columns: dict
    threshold: float
    passed: bool

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    # the row indexes; not a field: the benchmark's sweep hook (perfbench/tracing.py) reads len(rows)
    rows = property(lambda self: range(len(self.columns["n"])))


def tabulate(law) -> PMFTable:
    """Finite table for any supported law."""
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
    raise TypeError(f"cannot tabulate {law!r}")


def _rows(t: PMFTable) -> tuple:
    """t as a set of one table: (first x of each row, rows of probs)."""
    return [t.offset], t.probs[None]


def _at(first: list, width: int, lo: int, rows: int) -> tuple:
    """Where a set's entries go in a gap array whose lattice starts at lo; one row goes in every row."""
    if len(first) == 1:
        return slice(None), slice(first[0] - lo, first[0] - lo + width)
    return np.arange(rows)[:, None], np.array(first)[:, None] - lo + np.arange(width)


def _gaps(a: tuple, b: tuple) -> np.ndarray:
    """a - b, row by row, on one lattice that holds every row of both sets.

    A set of one table pairs with every row of the other. Row r of the result is
    the union-lattice gap of row r's pair, padded with 0.0.
    """
    (fa, pa), (fb, pb) = a, b
    lo = min(min(fa), min(fb))
    gap = np.zeros((max(len(fa), len(fb)), max(max(fa) + pa.shape[1], max(fb) + pb.shape[1]) - lo))
    gap[_at(fa, pa.shape[1], lo, len(gap))] = pa
    gap[_at(fb, pb.shape[1], lo, len(gap))] -= pb
    return gap


def _tv_rows(a: tuple, b: tuple) -> list[float]:
    """tv_distance of each row pair of two sets of tables (see _gaps)."""
    # largest first: fsum slows with the range of magnitudes it has met, and a row spans ~300 decades
    rows = np.sort(np.abs(_gaps(a, b)), axis=1)[:, ::-1]
    return [min(1.0, 0.5 * math.fsum(g)) for g in rows.tolist()]


def tv_distance(a: PMFTable, b: PMFTable) -> float:
    """Total variation of a and b: half the l1 gap on the union lattice, at most 1.

    Rounding can put the half sum an ulp above 1, hence the cap. math.fsum rounds
    the sum exactly once, so neither the 0.0 padding of a set of tables nor the
    order of the terms, which it takes largest first for speed, can change a distance.
    """
    # disjoint windows share no point: b moved next to a keeps every gap, in len(a) + len(b) entries
    first = a.last + 1 if a.last < b.offset or b.last < a.offset else b.offset
    return _tv_rows(_rows(a), ([first], b.probs[None]))[0]


# ---------------------------------------------------------------------------
# sweeps


def _require(params: dict, *names: str) -> list:
    missing = [k for k in names if k not in params]
    if missing:
        raise ValueError(f"scenario parameters missing: {', '.join(missing)}")
    return [params[k] for k in names]


def _kb_sets(laws: list, q: QBase):
    """kb_table of each law, as (slice of laws, set of rows) pairs of at most 2^16 entries.

    Every law has base q. A set's rows are built in one pass (distributions._logit_rows);
    the bound keeps a sweep's memory at that of a few short tables, whatever its length.
    """
    step = max(1, 2**16 // (2 * _half_width(q) + 1))
    for i in range(0, len(laws), step):
        yield slice(i, i + step), _logit_rows([_logits(d) for d in laws[i : i + step]], q)


def _reflected(rows: tuple, ns: list) -> tuple:
    """Each row's table of n - X, as reflect gives it; a row's 0.0 padding reflects with it."""
    first, probs = rows
    return [n - f - (probs.shape[1] - 1) for n, f in zip(ns, first)], probs[:, ::-1]


def _kb_distances(laws: list, q: QBase, limit: tuple, shifts: list | None = None) -> list[float]:
    """tv_distance(table of X - k for X ~ d, limit) for each law d and its shift k (default 0)."""
    out = []
    for part, (first, probs) in _kb_sets(laws, q):
        if shifts is not None:
            first = [f - k for f, k in zip(first, shifts[part])]
        out += _tv_rows((first, probs), limit)
    return out


def _sweep_poisson(q: QBase, params: dict, n_list) -> dict:
    (lam,) = _require(params, "lam")
    limit = _rows(tabulate(Heine((1.0 - q.value) * lam, q)))
    thetas = [theta_for_poisson(n, q, lam) for n in n_list]
    laws = [KempBinomial(n, theta, q) for n, theta in zip(n_list, thetas)]
    (means,) = _logit_sums(("sigmoid",), laws)
    return {"n": n_list, "distance": _kb_distances(laws, q, limit), "theta": thetas, "mean": means}


def _sweep_constant_mean(q: QBase, params: dict, n_list) -> dict:
    (mu,) = _require(params, "mu")
    limit_sol, *sols = _thetas_for_mean(q, mu, [math.inf, *n_list])
    theta_inf = limit_sol.theta
    limit = _rows(tabulate(Heine(theta_inf, q)))
    laws = [KempBinomial(n, sol.theta, q) for n, sol in zip(n_list, sols)]
    return {
        "n": n_list,
        "distance": _kb_distances(laws, q, limit),
        "theta": [sol.theta for sol in sols],
        "residual": [sol.residual for sol in sols],
        "theta_limit_gap": [abs(sol.theta - theta_inf) for sol in sols],
    }


def _sweep_subexponential(q: QBase, params: dict, n_list) -> dict:
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
    limit = _rows(limit_law(beta, q).lattice_probs)
    # shift floor(mu_n); at beta = 1/2 the half-integer rule takes ceil(mu_n) once 2 f(n) > n - 1
    half = beta == Fraction(1, 2)
    exact_offset = Fraction(drift.offset)
    laws = []
    for n in n_list:
        f = drift.value(n)
        if not 0.0 < f < n:
            raise ValueError(f"f({n}) = {f} outside (0, n)")
        laws.append(KempBinomial(n, ScaledReal.from_q_power(-f, q), q))
    (means,) = _logit_sums(("sigmoid",), laws)
    shifts = [
        math.ceil(mu) if half and 2 * (drift.slope * n + exact_offset) > n - 1 else math.floor(mu)
        for n, mu in zip(n_list, means)
    ]
    return {
        "n": n_list,
        "distance": _kb_distances(laws, q, limit, shifts),
        "mean": means,
        "shift": [float(k) for k in shifts],
        "beta": [float(beta)] * len(n_list),
    }


def _sweep_reflection(q: QBase, params: dict, n_list) -> dict:
    (theta,) = _require(params, "theta")
    if not 0.0 < theta < math.inf:
        raise ValueError(f"theta must be positive and finite, got {theta!r}")
    limit = _rows(tabulate(Heine(q.value / theta, q)))
    dual_base = ScaledReal.from_float(theta, q)
    laws = [KempBinomial(n, dual_base.q_shift(-n), q) for n in n_list]
    exact = _kb_sets([KempBinomial(n, q.value / theta, q) for n in n_list], q)
    distances, gaps = [], []
    for (part, rows), (_, exact_rows) in zip(_kb_sets(laws, q), exact):
        reflected = _reflected(rows, n_list[part])
        distances += _tv_rows(reflected, limit)
        # on the union lattice: the windows may differ at a tied mode
        gaps += np.abs(_gaps(reflected, exact_rows)).max(axis=1).tolist()
    return {"n": n_list, "distance": distances, "exact_identity_gap": gaps}


def _sweep_degenerate(q: QBase, params: dict, n_list) -> dict:
    fn = params.get("fn", "sqrt")
    f = math.sqrt if fn == "sqrt" else FractionalDrift(Fraction(fn)).value
    laws = [KempBinomial(n, ScaledReal.from_q_power(-(n + f(n)), q), q) for n in n_list]
    point = _rows(PMFTable(0, np.array([1.0])))
    distances, p0 = [], []
    for part, rows in _kb_sets(laws, q):
        first, probs = reflected = _reflected(rows, n_list[part])
        distances += _tv_rows(reflected, point)
        p0 += [float(p[-x]) if 0 <= -x < p.size else 0.0 for p, x in zip(probs, first)]
    return {"n": n_list, "distance": distances, "p0": p0}


def _sweep_q_to_1(q: QBase, params: dict, n_list) -> dict:
    n, theta = _require(params, "n", "theta")
    if not 0.0 <= theta < math.inf:
        raise ValueError(f"theta must be nonnegative and finite, got {theta!r}")
    q_list = list(params.get("q_list") or [q.value])
    limit = binomial_table(Binomial(n, theta / (1.0 + theta)))
    distances = [tv_distance(kb_table(KempBinomial(n, theta, QBase(qv))), limit) for qv in q_list]
    return {"n": [n] * len(q_list), "distance": distances, "q": q_list}


# scenario: (sweep, default threshold)
_SWEEPS = {
    "poisson-coupling": (_sweep_poisson, 1e-6),
    "constant-mean": (_sweep_constant_mean, 1e-6),
    "subexponential": (_sweep_subexponential, 1e-4),
    "exponential-reflection": (_sweep_reflection, 1e-6),
    "degenerate": (_sweep_degenerate, 1e-5),
    "q-to-1-binomial": (_sweep_q_to_1, 1e-3),
}
SCENARIOS = tuple(_SWEEPS)


def convergence_sweep(scenario: str, params: dict, n_list: Sequence[int]) -> SweepReport:
    """Distance-to-limit table for one theorem's scenario, with verdict.

    n_list must be strictly increasing (for q-to-1-binomial the rows sweep the
    q ladder in params['q_list'] at fixed n instead). The verdict compares the
    final row's distance against the scenario threshold, overridable through
    params['threshold']. The report's columns are n, distance, then the scenario's own:
    theta, mean (poisson-coupling); theta, residual, theta_limit_gap (constant-mean);
    mean, shift, beta (subexponential); exact_identity_gap (exponential-reflection);
    p0 (degenerate); q (q-to-1-binomial).
    """
    if scenario not in _SWEEPS:
        raise ValueError(f"unknown scenario {scenario!r}; choose from {SCENARIOS}")
    sweep, default_threshold = _SWEEPS[scenario]
    q = as_qbase(*_require(params, "q"))
    if scenario != "q-to-1-binomial":
        if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
            raise ValueError("n_list must be nonempty and strictly increasing")
    threshold = float(params.get("threshold", default_threshold))
    if not 0.0 <= threshold < math.inf:
        raise ValueError(f"threshold must be nonnegative and finite, got {threshold!r}")
    columns = sweep(q, params, list(n_list))
    return SweepReport(scenario, columns, threshold, passed=columns["distance"][-1] <= threshold)
