"""Scaling-law fits, physical-unit conversions, and figure datasets.

Single source of truth for physical constants: hbar/k_B, used by every
natural-unit <-> laboratory-unit conversion in the package.  All emitted
datasets are deterministic given their parameters, whatever the number of
CPUs: figure 4 spreads its independent cells over forked worker processes,
one per usable CPU, and assembles their values in one fixed order.  A sha256
digest of the data section is embedded in the CSV header.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass
from typing import Callable, NoReturn, Sequence

import numpy as np

from ._csvio import render_csv
from .chain_core import ChainSpec, build_sector_hamiltonian, diagonalize, first_peak, require_int
from .noise import p_infinity_estimate, p_infinity_exact
from .protocol import NoiseParams
from .scheduler import greedy_run

#: hbar / k_B in ns * K (CODATA, 5 significant figures)
HBAR_OVER_KB_NS_K = 7.6382e-3

_COUPLING_CHECK = "coupling must be finite and positive, got {kelvin} K"


def _times_hbar_over_kb(x, kelvin: float, check: str, overflow: str):
    """x * hbar/k_B / kelvin, x a float or an array; the message templates are formatted only
    on failure, an array's for its first value whose result is not finite."""
    if not (math.isfinite(kelvin) and kelvin > 0):
        raise ValueError(check.format(kelvin=kelvin))
    if isinstance(x, np.ndarray):
        with np.errstate(over="ignore"):
            value = x * HBAR_OVER_KB_NS_K / kelvin
        bad = x[~np.isfinite(value)].tolist()
    else:  # a scalar (a damping rate, a single time): no numpy call
        value = x * HBAR_OVER_KB_NS_K / kelvin
        bad = [] if math.isfinite(value) else [x]
    if bad:
        raise ValueError(overflow.format(x=bad[0], kelvin=kelvin))
    return value


def natural_time_to_ns(t_natural, coupling_kelvin: float):
    """Convert a time (a float or an array) in hbar/J units to ns, given J/k_B in Kelvin."""
    return _times_hbar_over_kb(t_natural, coupling_kelvin, _COUPLING_CHECK,
                               "time {x} hbar/J in ns is not finite at J/k_B = {kelvin} K")


def gamma_to_natural(j_over_gamma_kelvin_ns: float) -> float:
    """Damping rate in natural units from the figure parameter J/Gamma (K ns)."""
    return _times_hbar_over_kb(1.0, j_over_gamma_kelvin_ns,
                               "J/Gamma must be finite and positive, got {kelvin}",
                               "damping rate is not finite at J/Gamma = {kelvin} K ns")


def gamma_ns_to_natural(rate_per_ns: float, coupling_kelvin: float) -> float:
    """Damping rate in natural units from a laboratory rate in 1/ns."""
    if not (math.isfinite(rate_per_ns) and rate_per_ns >= 0):
        raise ValueError(f"rate must be finite and >= 0, got {rate_per_ns}")
    return _times_hbar_over_kb(rate_per_ns, coupling_kelvin, _COUPLING_CHECK,
                               "rate {x}/ns in J/hbar units is not finite at J/k_B = {kelvin} K")


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
    bad = ~(np.isfinite(x) & np.isfinite(y) & (x > 0) & (y > 0))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"power-law fit needs finite positive samples, got x[{i}] = {x[i]}, y[{i}] = {y[i]}")
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
    ns = sorted(set(require_int(n, "n_sites", 2) for n in n_values))
    if len(ns) < 5:
        raise ValueError(f"need at least 5 distinct chain lengths, got {len(ns)}")
    if min(ns) < 20:
        raise ValueError(f"peak scaling is asymptotic; use N >= 20, got {min(ns)}")
    peaks = [first_peak(_decomposition(n))[1] for n in ns]
    return fit_power_law(ns, peaks)


def failure_crossing_times(n: int, p_targets: Sequence[float]) -> dict[float, float]:
    """Absolute greedy-protocol time at which P(l) first crosses each target.

    Raises ThresholdNotReached when 2000 measurements do not reach the
    smallest target, and ValueError unless there is a target and each is in (0, 1).
    """
    targets = sorted(p_targets, reverse=True)
    if not targets:
        raise ValueError("need at least one failure target, got []")
    _require_failure_targets(targets)
    run = greedy_run(_decomposition(n), p_target=min(targets), l_max=2000)
    out = {}
    for target in targets:
        rec = next(r for r in run.records if r.joint_failure <= target)
        out[target] = rec.absolute_time
    return out


def _require_failure_targets(ps: Sequence[float]) -> None:
    bad = [p for p in ps if not 0.0 < p < 1.0]
    if bad:
        raise ValueError(f"failure targets must be finite and in (0, 1), got {bad}")


def _crossing_fit(ns: Sequence[int], ps: Sequence[float]) -> tuple[dict, PowerLawFit]:
    """Crossing times per chain length and their t = c * N^a * |ln P| fit.

    The fit is a least-squares line through (ln N, ln t - ln|ln P|) over all
    samples, in the order of ``ns`` then ``ps``.
    """
    times = {n: failure_crossing_times(n, ps) for n in ns}
    fit = fit_power_law(
        [n for n in ns for _ in ps],
        [times[n][p] / abs(math.log(p)) for n in ns for p in ps],
    )
    return times, fit


def fit_time_scaling(n_values: Sequence[int], p_values: Sequence[float]) -> PowerLawFit:
    """Fit t(N, P) = c * N^a * |ln P| from greedy transfer-time data.

    One incremental greedy run per chain length supplies the crossing times
    of every failure target.
    """
    ns = sorted(set(require_int(n, "n_sites", 2) for n in n_values))
    ps = sorted(set(float(p) for p in p_values), reverse=True)
    if len(ns) < 4:
        raise ValueError(f"need at least 4 chain lengths, got {len(ns)}")
    _require_failure_targets(ps)
    if len(ps) < 2:
        raise ValueError(f"need at least 2 distinct failure targets, got {list(p_values)}")
    if max(ps) / min(ps) < 100.0:
        raise ValueError("failure targets must span at least two decades")
    return _crossing_fit(ns, ps)[1]


# ---------------------------------------------------------------------------
# figure datasets
# ---------------------------------------------------------------------------

FIG2_N_SET = (10, 20, 50, 100)
FIG2_L_MAX = 50
FIG3_N_SET = (10, 15, 20, 30, 40)
FIG3_P_SET = (0.1, 0.01, 0.001)
FIG4_N_SET = (10, 20, 30, 40)
FIG4_J_OVER_GAMMA_SET = (10.0, 20.0, 50.0, 100.0)
FIG4_STOP_TOL = 1e-10


@dataclass
class FigureDataset:
    figure: int
    metadata: dict
    columns: tuple
    rows: list

    def to_csv(self) -> str:
        return render_csv(self.columns, self.rows, metadata=self.metadata)


def reproduce_figure(fig_id: int) -> FigureDataset:
    """Deterministic dataset behind one of the paper-style figures.

    fig 2: joint failure P(l) vs measurement count for several chain lengths
           (greedy schedules); columns N, l, P_l.
    fig 3: transfer time to reach a failure target, with the fitted power law;
           columns N, P, t_natural, t_fit.
    fig 4: limiting failure probability under amplitude damping, exact plateau
           vs truncated product estimate; columns N, J_over_Gamma_K_ns,
           P_inf_exact, P_inf_estimate.

    The paper does not state its figure grids; the ``FIG*`` sets used here
    are artifact choices recorded in the dataset metadata.
    """
    if fig_id == 2:
        rows = [
            (n, r.index, r.joint_failure)
            for n in FIG2_N_SET
            for r in greedy_run(_decomposition(n), l_max=FIG2_L_MAX).records
        ]
        return FigureDataset(
            figure=2,
            metadata={"fig": 2, "n_set": " ".join(map(str, FIG2_N_SET)), "l_max": FIG2_L_MAX,
                      "schedule": "greedy"},
            columns=("N", "l", "P_l"),
            rows=rows,
        )

    if fig_id == 3:
        times, fit = _crossing_fit(FIG3_N_SET, FIG3_P_SET)
        rows = [
            (n, p, times[n][p], fit.evaluate(n) * abs(math.log(p)))
            for n in FIG3_N_SET
            for p in sorted(FIG3_P_SET, reverse=True)
        ]
        return FigureDataset(
            figure=3,
            metadata={"fig": 3, "n_set": " ".join(map(str, FIG3_N_SET)),
                      "p_set": " ".join(map(str, FIG3_P_SET)),
                      "fit_prefactor": fit.prefactor, "fit_exponent": fit.exponent},
            columns=("N", "P", "t_natural", "t_fit"),
            rows=rows,
        )

    if fig_id == 4:

        def cell(n, dec, jg):
            gamma = gamma_to_natural(jg)
            exact = p_infinity_exact(dec, NoiseParams(gamma), stop_tol=FIG4_STOP_TOL)
            return (n, jg, exact, p_infinity_estimate(n, gamma))

        decs = {n: _decomposition(n) for n in FIG4_N_SET}  # one spectrum per chain length
        cells = [(n, jg) for n in FIG4_N_SET for jg in FIG4_J_OVER_GAMMA_SET]
        # a greedy run lasts longer at larger N and at larger J/Gamma (weaker damping)
        longest_first = sorted(range(len(cells)), key=cells.__getitem__, reverse=True)
        rows = _forked_map(lambda n, jg: cell(n, decs[n], jg), cells, longest_first)
        return FigureDataset(
            figure=4,
            metadata={"fig": 4, "n_set": " ".join(map(str, FIG4_N_SET)),
                      "j_over_gamma_set": " ".join(map(str, FIG4_J_OVER_GAMMA_SET)),
                      "stop_tol": FIG4_STOP_TOL},
            columns=("N", "J_over_Gamma_K_ns", "P_inf_exact", "P_inf_estimate"),
            rows=rows,
        )

    raise ValueError(f"unknown figure id {fig_id!r}; expected 2, 3 or 4")


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------

#: most processes one dataset runs on, figure 4's cell count
_MAX_WORKERS = 16


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork workers.

    cgroup CPU quotas are not read.  A forked child holds only the calling
    thread, so any other Python thread makes this 1.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _outcomes(fn: Callable, jobs: list, tickets: int) -> dict:
    """{index: (value, None) or (None, exception)} of each job whose index,
    one byte, this process reads from the ``tickets`` pipe before it runs dry."""
    done = {}
    while ticket := os.read(tickets, 1):
        i = ticket[0]
        try:
            done[i] = (fn(*jobs[i]), None)
        except Exception as exc:  # re-raised by _forked_map, in job order
            done[i] = (None, exc)
    return done


def _child(fn: Callable, jobs: list, tickets: int, sink: int) -> NoReturn:
    """A forked worker: runs jobs from ``tickets``, writes their pickled outcomes
    to ``sink`` and ends through ``os._exit``, 0 only when they were all sent."""
    code = 1
    try:
        blob = pickle.dumps(_outcomes(fn, jobs, tickets))
        pickle.loads(blob)  # an outcome that cannot come back runs again in the parent
        with open(sink, "wb") as fh:
            fh.write(blob)
        code = 0
    finally:
        os._exit(code)


def _forked_map(fn: Callable, jobs: list, order: Sequence[int]) -> list:
    """``[fn(*job) for job in jobs]``, spread over this process and forked children.

    One process runs per usable CPU, at most ``_MAX_WORKERS`` and one per job,
    so at most 256 jobs.  Each process takes the next job index from one pipe,
    where they queue in ``order`` (longest first), so a process that finishes
    early takes more.  A child sends back each job's value or exception and
    ends through ``os._exit``; every child is reaped on every path, and killed
    first when this process fails before its outcomes arrive.  A job whose
    outcome does not come back (a child killed, or an outcome that does not
    pickle) runs again here.  The first job in list order that raised then
    re-raises its exception here, as a serial loop would.
    """
    workers = min(_MAX_WORKERS, _usable_cpus(), len(jobs))
    if workers < 2:
        return [fn(*job) for job in jobs]
    tickets, feed = os.pipe()
    os.write(feed, bytes(order))
    os.close(feed)
    children = []  # (pid, read end of its result pipe)
    payloads, statuses = {}, {}
    try:
        for _ in range(workers - 1):
            result, sink = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the others take its jobs
                os.close(result)
                os.close(sink)
                break
            if pid == 0:
                _child(fn, jobs, tickets, sink)
            os.close(sink)
            children.append((pid, result))
        done = _outcomes(fn, jobs, tickets)
        for pid, result in children:
            with open(result, "rb", closefd=False) as fh:
                payloads[pid] = fh.read()
    finally:
        os.close(tickets)
        for pid, result in children:
            os.close(result)
            if pid not in payloads:  # this process failed first
                os.kill(pid, signal.SIGKILL)
            statuses[pid] = os.waitpid(pid, 0)[1]
    for pid, payload in payloads.items():
        if os.waitstatus_to_exitcode(statuses[pid]) == 0:
            done.update(pickle.loads(payload))
    values = []
    for i, job in enumerate(jobs):
        value, error = done[i] if i in done else (fn(*job), None)
        if error is not None:
            raise error
        values.append(value)
    return values
