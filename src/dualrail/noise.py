"""Amplitude damping as scalar factors on the noiseless protocol.

In the single-excitation sector the conditional (no-jump) evolution under
amplitude damping factorizes exactly into exp(-Gamma*t) times the unitary
propagator on each rail; a quantum jump dumps the excitation into the global
ground state, which can never herald a success at the receiving end.
``protocol`` applies that factor in its one evolve/measure loop: a
``NoiseParams`` (re-exported here) passed to ``run_schedule`` or
``greedy_run`` weights every step by its ``success_weight`` and bookkeeps
the jump branch as a scalar loss probability, which keeps the damped
protocol exact at O(N) state cost.

Unequal rates keep one shared spatial vector (the rails are identical and
the failure projection treats them symmetrically), so the same loop runs
them: its records carry the balanced input qubit's joint success, and
``NoiseParams.worst_case_fidelity`` gives its decoded fidelity, the worst
case over the Bloch sphere.  ``greedy_run`` alone decides how damping weights
its objective (not at all for unequal rates).  This module adds P_inf.
"""

from __future__ import annotations

import math

import numpy as np

from . import protocol
from .chain_core import SpectralDecomposition, require_int, time_scale
from .protocol import DualRailState, NoiseParams
from .scheduler import greedy_run


def p_infinity_estimate(n_sites: int, gamma: float) -> float:
    """Truncated product estimate of the limiting joint failure probability.

    P_inf ~ prod_{l>=1} (1 - 1.35 N^{-2/3} exp(-2 Gamma T l)) with measurement
    times t(l) = T l, T = ``time_scale(N)``.  The truncation error of log P is
    bounded by the geometric tail 1.35 N^{-2/3} q^{L+1} / (1 - q), q = exp(-2 Gamma T),
    which is negligible for the L = 10^4 terms taken at any gamma of interest.
    Every factor is at least 1 - 1.35 * 2^{-2/3} = 0.149, as N >= 2 and 0 <= q < 1.

    The product does not approximate ``p_infinity_exact``.  It uses the amplitude law's constant 1.35 with the
    probability exponent -2/3 as the per-step success probability (the
    first-arrival probability law is 1.82 N^{-2/3}; see
    ``analysis.fit_peak_scaling``), and each factor ignores the population
    that has already decayed.  At N = 40, J/Gamma = 50 it gives 6.31e-5
    against an exact greedy plateau of 6.40e-2, about 1000x lower.
    """
    require_int(n_sites, "n_sites", 2)
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    if gamma == 0.0:
        return 0.0
    peak = 1.35 * n_sites ** (-2.0 / 3.0)
    q = math.exp(-2.0 * gamma * time_scale(n_sites))
    ls = np.arange(1, 10_001)
    return float(math.exp(np.sum(np.log(1.0 - peak * q**ls))))


def p_infinity_exact(
    dec: SpectralDecomposition,
    noise: NoiseParams,
    stop_tol: float = 1e-12,
) -> float:
    """Plateau of P(l) under damping with greedy scheduling.

    Runs the exact damped protocol until the joint per-step success falls
    below ``stop_tol`` (``greedy_run``'s ``step_success_tol``, so in (0, 1)),
    at most 100,000 steps; the missed tail of successes is
    O(stop_tol / (2 Gamma T)), T = ``time_scale(N)``, for the smaller rate
    Gamma.  With unequal rates it is the balanced qubit's plateau under the
    noiseless greedy intervals, as in ``greedy_run``.
    """
    run = greedy_run(dec, noise=noise, step_success_tol=stop_tol, l_max=100_000)
    return float(run.records[-1].joint_failure)


def asymmetric_run(dec: SpectralDecomposition, noise: NoiseParams, schedule) -> DualRailState:
    """``protocol.run_schedule(dec, schedule, noise)``, kept under its historical argument order."""
    return protocol.run_schedule(dec, schedule, noise)
