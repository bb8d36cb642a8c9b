"""Measurement schedules: the uniform heuristic and greedy numerical optimization.

The greedy optimizer chooses each interval in protocol order: from the current
projected state it maximizes the next joint success probability |(F(tau) c)_N|^2
over a tau grid inside a window.  It refines by golden-section search every
grid peak within 0.95 of the best grid value, and takes the earliest refined
tau whose value is within a relative 1e-9 of the best refined value.  This
matches the sequential information structure of the protocol (the receiver
picks the next waiting time only after seeing a failure) and is fully
deterministic, with near-ties broken toward smaller tau.

The search window is default_window(N) = (0.05 T, 1.5 T) with
T = chain_core.time_scale(N), scanned at ``chain_core.SCAN_STEP`` (0.05
hbar/J, the step of every refined scan) by one ``chain_core.PhaseGrid``,
which also finds and refines the grid's peaks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import protocol
from .chain_core import SCAN_STEP, PhaseGrid, SpectralDecomposition, require_int, time_scale
from .protocol import DualRailState, NoiseParams, Schedule


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
    """Equal intervals of one chain time scale T = ``time_scale(N)``."""
    t = time_scale(require_int(n_sites, "n_sites", 2))
    return Schedule(intervals=np.full(require_int(l_max, "l_max", 1), t))


def default_window(n_sites: int) -> tuple[float, float]:
    t = time_scale(n_sites)
    return 0.05 * t, 1.5 * t


class _EndpointObjective:
    """Greedy's pick rule over one ``PhaseGrid`` of the window, planned once per run.

    The objective is exp(-2*gamma*tau) * |(F(tau) c)_N|^2; in the eigenbasis
    this is |w . exp(-i E tau)|^2 for w_k = v_k(N) * (V^T c)_k, up to a
    positive factor that moves no maximum, so the state's noiseless mode
    coefficients a and the receiver row alone give the weights w = v(N) * a.
    The grid finds and refines the peaks; this class keeps those within 0.95
    of the best grid value and returns the earliest refined tau within 1e-9
    of the best refined value.
    """

    def __init__(self, dec: SpectralDecomposition, gamma: float):
        self.grid = PhaseGrid(dec.energies, *default_window(dec.n_sites), SCAN_STEP)
        self._decay = -2.0 * gamma
        self._damp = np.exp(self._decay * self.grid.times)

    def best_tau(self, w: np.ndarray) -> float:
        obj = self._damp * np.abs(self.grid.sums(w)) ** 2
        peaks = self.grid.peaks(obj)
        candidates = peaks[obj[peaks] >= 0.95 * float(np.max(obj))]
        refined = [self.grid.refine(w, self._decay, j, obj[j]) for j in candidates]
        best_val = max(val for _, val in refined)
        return next(tau for tau, val in refined if val >= best_val * (1.0 - 1e-9))


def greedy_run(
    dec: SpectralDecomposition,
    *,
    l_max: int,
    p_target: Optional[float] = None,
    step_success_tol: Optional[float] = None,
    noise: NoiseParams = NoiseParams(0.0),
) -> DualRailState:
    """Run the protocol with greedily optimized intervals for at most ``l_max`` measurements.

    The cap ``l_max`` is required, so every run ends: a damped P(l) can
    stall above any ``p_target``.  Two optional conditions stop it earlier:
    joint failure below ``p_target``, or last joint step success below
    ``step_success_tol`` (plateau detection for damped runs); each must be
    in (0, 1).  ``noise`` damps the run at any rates.  Equal rates gamma
    weight the objective by exp(-2*gamma*tau), the cost of waiting for every
    input qubit; unequal rates have no qubit-independent weight, so their
    intervals are the noiseless ``greedy_optimize`` ones.

    Raises ThresholdNotReached when ``p_target`` is given and the run stops
    above it.
    """
    require_int(l_max, "l_max", 1)
    for name, value in (("p_target", p_target), ("step_success_tol", step_success_tol)):
        if value is not None and not 0.0 < value < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {value}")

    objective = _EndpointObjective(dec, noise.gamma_1 if noise.symmetric else 0.0)
    state = DualRailState(dec, noise)
    while len(state.records) < l_max:
        protocol.evolve(state, objective.best_tau(dec.receiver * state.coefficients))
        rec = protocol.measure(state)
        if p_target is not None and rec.joint_failure <= p_target:
            break
        if step_success_tol is not None and rec.step_success < step_success_tol:
            break

    if p_target is not None and rec.joint_failure > p_target:
        raise ThresholdNotReached(p_target, rec.index, rec.joint_failure, rec.absolute_time)
    return state


def greedy_optimize(dec: SpectralDecomposition, l_max: int) -> Schedule:
    """Greedy per-step optimized schedule of ``l_max`` intervals (noiseless)."""
    return greedy_run(dec, l_max=l_max).schedule
