"""Measurement schedules: the uniform heuristic and greedy numerical optimization.

The greedy optimizer chooses each interval in protocol order: from the current
projected state it maximizes the next joint success probability |(F(tau) c)_N|^2
over a tau grid inside a window, then refines the best grid point by
golden-section search.  This matches the sequential information structure of
the protocol (the receiver picks the next waiting time only after seeing a
failure) and is fully deterministic, with grid ties broken toward smaller tau.

The search window is default_window(N) = (0.1 * N/2, 3 * N/2): significant
amplitude peaks at the far end recur on the one-way transit scale N/2, so
three transits bound the search without wasting scan time.  The grid step
0.05 and the refine tolerance 1e-6 are fixed.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import protocol
from .chain_core import PhaseGrid, SpectralDecomposition, _golden_max
from .protocol import ProtocolResult, Schedule

_GRID_STEP = 0.05
_REFINE_TOL = 1e-6


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


def uniform_schedule(n_sites: int, l_max: int) -> Schedule:
    """Equal intervals of one round-trip time 2*tau_max = N (natural units)."""
    if l_max < 1:
        raise ValueError(f"l_max must be >= 1, got {l_max}")
    return Schedule(intervals=np.full(l_max, float(n_sites)))


def default_window(n_sites: int) -> tuple[float, float]:
    return 0.1 * n_sites / 2.0, 3.0 * n_sites / 2.0


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

    def __init__(self, dec: SpectralDecomposition, gamma: float):
        t_lo, t_hi = default_window(dec.n_sites)
        n_pts = int(math.floor((t_hi - t_lo) / _GRID_STEP + 1e-9)) + 1
        self.taus = t_lo + _GRID_STEP * np.arange(n_pts)
        self.window = (t_lo, t_hi)
        self.gamma = gamma
        self.dec = dec
        self._grid = PhaseGrid(dec.energies, t_lo, _GRID_STEP, n_pts)
        self._damp = np.exp(-2.0 * gamma * self.taus)

    def best_tau(self, w: np.ndarray) -> float:
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
            a = max(self.window[0], tau_grid - _GRID_STEP)
            b = min(self.window[1], tau_grid + _GRID_STEP)
            tau_ref, val_ref = _golden_max(f, a, b, _REFINE_TOL)
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


def greedy_run(
    dec: SpectralDecomposition,
    *,
    l_max: Optional[int] = None,
    p_target: Optional[float] = None,
    step_success_tol: Optional[float] = None,
    gamma: float = 0.0,
) -> ProtocolResult:
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
    if l_max is not None and l_max < 1:
        raise ValueError(f"l_max must be >= 1, got {l_max}")
    if p_target is not None and not 0.0 < p_target < 1.0:
        raise ValueError(f"p_target must be in (0, 1), got {p_target}")

    objective = _EndpointObjective(dec, gamma)
    state = protocol.init_state(dec, gamma)
    end_row = dec.modes[-1, :]
    while l_max is None or len(state.records) < l_max:
        protocol.evolve(state, objective.best_tau(end_row * state.coefficients))
        protocol.measure(state)
        rec = state.records[-1]
        if p_target is not None and rec.joint_failure <= p_target:
            break
        if step_success_tol is not None and rec.step_success < step_success_tol:
            break

    last = state.records[-1]
    if p_target is not None and last.joint_failure > p_target:
        raise ThresholdNotReached(p_target, last.index, last.joint_failure, last.absolute_time)
    return ProtocolResult(records=list(state.records), state=state)


def greedy_optimize(dec: SpectralDecomposition, l_max: int) -> Schedule:
    """Greedy per-step optimized schedule of ``l_max`` intervals (noiseless)."""
    return greedy_run(dec, l_max=l_max).schedule
