"""Measurement schedules: the uniform heuristic and greedy numerical optimization.

The greedy optimizer chooses each interval in protocol order: from the current
projected state it maximizes the next joint success probability |(F(tau) c)_N|^2
over a tau grid inside a window, then refines the best grid point by
golden-section search.  This matches the sequential information structure of
the protocol (the receiver picks the next waiting time only after seeing a
failure) and is fully deterministic, with grid ties broken toward smaller tau.

Window default (0.1 * N/2, 3 * N/2): significant amplitude peaks at the far
end recur on the one-way transit scale N/2, so three transits bound the search
without wasting scan time.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import protocol
from .chain_core import PhaseGrid, SpectralDecomposition


class ThresholdNotReached(RuntimeError):
    """Greedy run exhausted its measurement cap above the failure target."""

    def __init__(self, p_target: float, l_cap: int, p_reached: float, total_time: float):
        super().__init__(
            f"P(l) reached {p_reached:.3e} after {l_cap} measurements "
            f"(target {p_target:.3e}, elapsed {total_time:.6g})"
        )
        self.p_target = p_target
        self.l_cap = l_cap
        self.p_reached = p_reached
        self.total_time = total_time


@dataclass(frozen=True)
class Schedule:
    """Ordered positive inter-measurement intervals, natural time units."""

    intervals: np.ndarray

    def __post_init__(self) -> None:
        intervals = np.asarray(self.intervals, dtype=float)
        if intervals.ndim != 1 or intervals.size == 0:
            raise ValueError("schedule needs a non-empty 1-d interval list")
        if not np.all(np.isfinite(intervals) & (intervals > 0)):
            raise ValueError("all intervals must be finite and strictly positive")
        object.__setattr__(self, "intervals", intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    @property
    def absolute_times(self) -> np.ndarray:
        return np.cumsum(self.intervals)

    def to_json(self, path=None) -> Optional[str]:
        text = json.dumps({"intervals": list(self.intervals)}, indent=2)
        if path is None:
            return text
        with io.open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        return None

    @classmethod
    def from_json(cls, path) -> "Schedule":
        with io.open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        return cls(intervals=np.asarray(payload["intervals"], dtype=float))


def uniform_schedule(n_sites: int, l_max: int) -> Schedule:
    """Equal intervals of one round-trip time 2*tau_max = N (natural units)."""
    if l_max < 1:
        raise ValueError(f"l_max must be >= 1, got {l_max}")
    return Schedule(intervals=np.full(l_max, float(n_sites)))


def default_window(n_sites: int) -> tuple[float, float]:
    return 0.1 * n_sites / 2.0, 3.0 * n_sites / 2.0


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization of f on [a, b] to interval width tol."""
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


class _EndpointObjective:
    """Per-run cache for the greedy objective over a fixed tau grid.

    The objective is exp(-2*gamma*tau) * |(F(tau) c)_N|^2; in the eigenbasis
    this is |w . exp(-i E tau)|^2 for w_k = v_k(N) * (V^T c)_k, up to a
    positive factor that moves no maximum, so the state's noiseless mode
    coefficients a give the weights w = V[N-1, :] * a directly.  The tau grid's
    phases are cached once per run as a factored PhaseGrid, O(N * sqrt(G))
    memory for G grid points instead of a (G x modes) table, so every scan is
    one small matrix product.
    """

    def __init__(
        self,
        dec: SpectralDecomposition,
        window: tuple[float, float],
        grid_step: float,
        gamma: float,
    ):
        t_lo, t_hi = window
        if not (0 <= t_lo < t_hi):
            raise ValueError(f"degenerate search window ({t_lo}, {t_hi})")
        if grid_step <= 0:
            raise ValueError("grid_step must be positive")
        n_pts = int(math.floor((t_hi - t_lo) / grid_step + 1e-9)) + 1
        self.taus = t_lo + grid_step * np.arange(n_pts)
        self.window = (t_lo, t_hi)
        self.grid_step = grid_step
        self.gamma = gamma
        self.dec = dec
        self._grid = PhaseGrid(dec.energies, t_lo, grid_step, n_pts)
        self._damp = np.exp(-2.0 * gamma * self.taus)

    def best_tau(self, w: np.ndarray, refine_tol: float) -> float:
        obj = self._damp * np.abs(self._grid.sums(w)) ** 2
        best_grid = float(np.max(obj))

        # grid local maxima (and boundary points beating their neighbour)
        # close enough to the best that refinement could promote them
        left = np.empty_like(obj)
        right = np.empty_like(obj)
        left[0], left[1:] = -np.inf, obj[:-1]
        right[-1], right[:-1] = -np.inf, obj[1:]
        is_peak = (obj >= left) & (obj > right)
        candidates = np.nonzero(is_peak & (obj >= 0.95 * best_grid))[0]
        if candidates.size == 0:
            candidates = np.array([int(np.argmax(obj))])

        def f(tau: float) -> float:
            amp = np.sum(w * np.exp(-1j * self.dec.energies * tau))
            return math.exp(-2.0 * self.gamma * tau) * abs(amp) ** 2

        refined = []
        for j in candidates:
            tau_grid, val_grid = float(self.taus[j]), float(obj[j])
            a = max(self.window[0], tau_grid - self.grid_step)
            b = min(self.window[1], tau_grid + self.grid_step)
            tau_ref, val_ref = _golden_max(f, a, b, refine_tol)
            # golden section assumes local unimodality; keep the raw grid
            # point whenever refinement did not actually improve
            if val_ref > val_grid:
                refined.append((tau_ref, val_ref))
            else:
                refined.append((tau_grid, val_grid))

        # smallest tau among values tied with the best (relative 1e-9)
        best_val = max(v for _, v in refined)
        for tau, val in refined:  # ascending tau
            if val >= best_val * (1.0 - 1e-9):
                return float(tau)
        return float(refined[-1][0])


@dataclass
class GreedyRun:
    """Output of one greedy run: the chosen schedule and its trajectory."""

    schedule: Schedule
    records: list
    state: protocol.DualRailState

    @property
    def p_trajectory(self) -> np.ndarray:
        return np.array([r.joint_failure for r in self.records])


def greedy_run(
    dec: SpectralDecomposition,
    *,
    l_max: Optional[int] = None,
    p_target: Optional[float] = None,
    step_success_tol: Optional[float] = None,
    gamma: float = 0.0,
    window: Optional[tuple[float, float]] = None,
    grid_step: float = 0.05,
    refine_tol: float = 1e-6,
) -> GreedyRun:
    """Run the protocol with greedily optimized intervals until a stop condition.

    Stop conditions (at least one required): ``l_max`` measurements done,
    joint failure below ``p_target``, or last joint step success below
    ``step_success_tol`` (plateau detection for damped runs).  ``gamma`` > 0
    damps the run at that symmetric rate; the objective then includes the
    exp(-2*gamma*tau) penalty for waiting.

    Raises ThresholdNotReached when ``p_target`` is given and the run stops
    above it.
    """
    if l_max is None and p_target is None and step_success_tol is None:
        raise ValueError("need at least one stop condition")
    if p_target is not None and not 0.0 < p_target < 1.0:
        raise ValueError(f"p_target must be in (0, 1), got {p_target}")
    if window is None:
        window = default_window(dec.n_sites)

    objective = _EndpointObjective(dec, window, grid_step, gamma)
    state = protocol.init_state(dec, gamma)
    end_row = dec.modes[-1, :]
    while l_max is None or len(state.records) < l_max:
        protocol.evolve(state, objective.best_tau(end_row * state.coefficients, refine_tol))
        protocol.measure(state)
        rec = state.records[-1]
        if p_target is not None and rec.joint_failure <= p_target:
            break
        if step_success_tol is not None and rec.step_success < step_success_tol:
            break

    schedule = Schedule(intervals=np.array([r.interval for r in state.records]))
    last = state.records[-1]
    if p_target is not None and last.joint_failure > p_target:
        raise ThresholdNotReached(p_target, last.index, last.joint_failure, last.absolute_time)
    return GreedyRun(schedule=schedule, records=list(state.records), state=state)


def greedy_optimize(
    dec: SpectralDecomposition,
    l_max: int,
    window: Optional[tuple[float, float]] = None,
    grid_step: float = 0.05,
    refine_tol: float = 1e-6,
) -> Schedule:
    """Greedy per-step optimized schedule of ``l_max`` intervals (noiseless)."""
    if l_max < 1:
        raise ValueError(f"l_max must be >= 1, got {l_max}")
    run = greedy_run(
        dec,
        l_max=l_max,
        window=window,
        grid_step=grid_step,
        refine_tol=refine_tol,
    )
    return run.schedule


def time_to_failure_threshold(
    dec: SpectralDecomposition,
    p_target: float,
    l_cap: int = 2000,
    **greedy_options,
) -> tuple[float, int]:
    """Greedy measurements until P(l) <= p_target; total time and count used.

    Raises ThresholdNotReached when ``l_cap`` measurements do not suffice.
    """
    last = greedy_run(dec, l_max=l_cap, p_target=p_target, **greedy_options).records[-1]
    return last.absolute_time, last.index
