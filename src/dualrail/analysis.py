"""Scaling-law fits, physical-unit conversions, and figure datasets.

Single source of truth for physical constants: hbar/k_B, used by every
natural-unit <-> laboratory-unit conversion in the package.  All emitted
datasets are deterministic given their parameters; a sha256 digest of the
data section is embedded in the CSV header.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._csvio import render_csv
from .chain_core import ChainSpec, build_sector_hamiltonian, diagonalize, first_peak
from .noise import NoiseParams, p_infinity_estimate, p_infinity_exact
from .scheduler import greedy_run

#: hbar / k_B in ns * K (CODATA, 5 significant figures)
HBAR_OVER_KB_NS_K = 7.6382e-3


def _check_coupling(coupling_kelvin: float) -> None:
    if not (math.isfinite(coupling_kelvin) and coupling_kelvin > 0):
        raise ValueError(f"coupling must be finite and positive, got {coupling_kelvin} K")


def natural_time_to_ns(t_natural: float, coupling_kelvin: float) -> float:
    """Convert a time in hbar/J units to ns, given J/k_B in Kelvin."""
    _check_coupling(coupling_kelvin)
    return t_natural * HBAR_OVER_KB_NS_K / coupling_kelvin


def ns_to_natural_time(t_ns: float, coupling_kelvin: float) -> float:
    _check_coupling(coupling_kelvin)
    return t_ns * coupling_kelvin / HBAR_OVER_KB_NS_K


def gamma_to_natural(j_over_gamma_kelvin_ns: float) -> float:
    """Damping rate in natural units from the figure parameter J/Gamma (K ns)."""
    if not (math.isfinite(j_over_gamma_kelvin_ns) and j_over_gamma_kelvin_ns > 0):
        raise ValueError(f"J/Gamma must be finite and positive, got {j_over_gamma_kelvin_ns}")
    return HBAR_OVER_KB_NS_K / j_over_gamma_kelvin_ns


def gamma_ns_to_natural(rate_per_ns: float, coupling_kelvin: float) -> float:
    """Damping rate in natural units from a laboratory rate in 1/ns."""
    if not (math.isfinite(rate_per_ns) and rate_per_ns >= 0):
        raise ValueError(f"rate must be finite and >= 0, got {rate_per_ns}")
    _check_coupling(coupling_kelvin)
    return rate_per_ns * HBAR_OVER_KB_NS_K / coupling_kelvin


@dataclass(frozen=True)
class PowerLawFit:
    """y = prefactor * x^exponent, fitted by least squares in log-log space."""

    prefactor: float
    exponent: float
    residual_rms: float
    sample_range: tuple

    def evaluate(self, x: float) -> float:
        return self.prefactor * x**self.exponent


def fit_power_law(x_values: Sequence[float], y_values: Sequence[float]) -> PowerLawFit:
    """Least-squares line through (ln x, ln y)."""
    x = np.asarray(x_values, dtype=float)
    y = np.asarray(y_values, dtype=float)
    if len(x) != len(y) or len(x) < 2:
        raise ValueError("need at least two matching samples")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit needs positive samples")
    lx, ly = np.log(x), np.log(y)
    exponent, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (exponent * lx + intercept)
    return PowerLawFit(
        prefactor=float(np.exp(intercept)),
        exponent=float(exponent),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        sample_range=(float(np.min(x)), float(np.max(x))),
    )


def _decomposition(n: int):
    return diagonalize(build_sector_hamiltonian(ChainSpec(n)))


def fit_peak_scaling(n_values: Sequence[int]) -> PowerLawFit:
    """Power law of the first-arrival peak probability vs chain length.

    The fitted quantity is the probability |f_{N,1}|^2 at the first-arrival
    maximum (``first_peak``), not the amplitude.  The paper's law is stated
    for the amplitude, |f_{N,1}| ~ 1.35 N^{-1/3} (Bose, PRL 91, 207901), so
    for this quantity it reads (1.35 N^{-1/3})^2 ~ 1.82 N^{-2/3}.  Fits at
    N <= 200 are pre-asymptotic: N = 20..200 gives 1.674 N^{-0.652}, while
    the square root of the peak over N = 200..1600 gives 1.332 N^{-0.332}.
    """
    ns = sorted(set(int(n) for n in n_values))
    if len(ns) < 5:
        raise ValueError(f"need at least 5 distinct chain lengths, got {len(ns)}")
    if min(ns) < 20:
        raise ValueError(f"peak scaling is asymptotic; use N >= 20, got {min(ns)}")
    peaks = [first_peak(_decomposition(n))[1] for n in ns]
    return fit_power_law(ns, peaks)


def failure_crossing_times(
    n: int, p_targets: Sequence[float], l_cap: int = 2000
) -> dict[float, float]:
    """Absolute greedy-protocol time at which P(l) first crosses each target.

    Raises ThresholdNotReached when ``l_cap`` measurements do not reach the
    smallest target.
    """
    targets = sorted(p_targets, reverse=True)
    run = greedy_run(_decomposition(n), p_target=min(targets), l_max=l_cap)
    out = {}
    for target in targets:
        rec = next(r for r in run.records if r.joint_failure <= target)
        out[target] = rec.absolute_time
    return out


def fit_time_scaling(
    n_values: Sequence[int],
    p_values: Sequence[float],
    l_cap: int = 2000,
) -> PowerLawFit:
    """Fit t(N, P) = c * N^a * |ln P| from greedy transfer-time data.

    One incremental greedy run per chain length supplies the crossing times
    of every failure target; the fit is a least-squares line through
    (ln N, ln t - ln|ln P|) over all samples.
    """
    ns = sorted(set(int(n) for n in n_values))
    ps = sorted(set(float(p) for p in p_values), reverse=True)
    if len(ns) < 4:
        raise ValueError(f"need at least 4 chain lengths, got {len(ns)}")
    if max(ps) / min(ps) < 100.0:
        raise ValueError("failure targets must span at least two decades")
    xs, ys = [], []
    for n in ns:
        times = failure_crossing_times(n, ps, l_cap=l_cap)
        for p in ps:
            xs.append(n)
            ys.append(times[p] / abs(math.log(p)))
    return fit_power_law(xs, ys)


# ---------------------------------------------------------------------------
# figure datasets
# ---------------------------------------------------------------------------

FIG2_N_SET = (10, 20, 50, 100)
FIG3_N_SET = (10, 15, 20, 30, 40)
FIG3_P_SET = (0.1, 0.01, 0.001)
FIG4_N_SET = (10, 20, 30, 40)
FIG4_J_OVER_GAMMA_SET = (10.0, 20.0, 50.0, 100.0)


@dataclass
class FigureDataset:
    figure: int
    metadata: dict
    columns: tuple
    rows: list

    def to_csv(self) -> str:
        return render_csv(self.columns, self.rows, metadata=self.metadata)


def reproduce_figure(fig_id: int, **params) -> FigureDataset:
    """Deterministic dataset behind one of the paper-style figures.

    fig 2: joint failure P(l) vs measurement count for several chain lengths
           (greedy schedules); columns N, l, P_l.
    fig 3: transfer time to reach a failure target, with the fitted power law;
           columns N, P, t_natural, t_fit.
    fig 4: limiting failure probability under amplitude damping, exact plateau
           vs truncated product estimate; columns N, J_over_Gamma_K_ns,
           P_inf_exact, P_inf_estimate.

    The paper does not state its figure grids; the N and J/Gamma sets used
    here are artifact choices recorded in the dataset metadata.
    """
    if fig_id == 2:
        n_set = tuple(params.get("n_set", FIG2_N_SET))
        l_max = int(params.get("l_max", 50))
        rows = [
            (n, r.index, r.joint_failure)
            for n in n_set
            for r in greedy_run(_decomposition(n), l_max=l_max).records
        ]
        return FigureDataset(
            figure=2,
            metadata={"fig": 2, "n_set": " ".join(map(str, n_set)), "l_max": l_max,
                      "schedule": "greedy"},
            columns=("N", "l", "P_l"),
            rows=rows,
        )

    if fig_id == 3:
        n_set = tuple(params.get("n_set", FIG3_N_SET))
        p_set = tuple(params.get("p_set", FIG3_P_SET))
        l_cap = int(params.get("l_cap", 2000))
        times = {n: failure_crossing_times(n, p_set, l_cap) for n in n_set}
        fit = fit_power_law(
            [n for n in n_set for _ in p_set],
            [times[n][p] / abs(math.log(p)) for n in n_set for p in p_set],
        )
        rows = [
            (n, p, times[n][p], fit.prefactor * n**fit.exponent * abs(math.log(p)))
            for n in n_set
            for p in sorted(p_set, reverse=True)
        ]
        return FigureDataset(
            figure=3,
            metadata={"fig": 3, "n_set": " ".join(map(str, n_set)),
                      "p_set": " ".join(map(str, p_set)),
                      "fit_prefactor": fit.prefactor, "fit_exponent": fit.exponent},
            columns=("N", "P", "t_natural", "t_fit"),
            rows=rows,
        )

    if fig_id == 4:
        n_set = tuple(params.get("n_set", FIG4_N_SET))
        jg_set = tuple(params.get("j_over_gamma_set", FIG4_J_OVER_GAMMA_SET))
        stop_tol = float(params.get("stop_tol", 1e-10))
        l_cap = int(params.get("l_cap", 50_000))

        def cell(n, jg):
            gamma = gamma_to_natural(jg)
            exact = p_infinity_exact(
                _decomposition(n), NoiseParams(gamma), stop_tol=stop_tol, l_cap=l_cap
            )
            return (n, jg, exact, p_infinity_estimate(n, gamma))

        rows = [cell(n, jg) for n in n_set for jg in jg_set]
        return FigureDataset(
            figure=4,
            metadata={"fig": 4, "n_set": " ".join(map(str, n_set)),
                      "j_over_gamma_set": " ".join(map(str, jg_set)),
                      "stop_tol": stop_tol},
            columns=("N", "J_over_Gamma_K_ns", "P_inf_exact", "P_inf_estimate"),
            rows=rows,
        )

    raise ValueError(f"unknown figure id {fig_id!r}; expected 2, 3 or 4")
