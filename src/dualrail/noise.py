"""Amplitude damping as scalar factors on the noiseless protocol.

In the single-excitation sector the conditional (no-jump) evolution under
symmetric damping factorizes exactly into exp(-Gamma*t) times the unitary
propagator; a quantum jump dumps the excitation into the global ground state,
which can never herald a success at the receiving end.  ``protocol`` applies
that factor in its one evolve/measure loop (``NoiseParams`` passed to
``run_schedule``, ``gamma`` to ``greedy_run``) and bookkeeps the jump branch
as a scalar loss probability, which keeps the damped protocol exact at O(N)
state cost.

Asymmetric rates keep one shared spatial vector (the rails are identical and
the failure projection treats them symmetrically), so ``asymmetric_run``
weights the step successes of the noiseless run by two scalar damping factors
on the logical components.  It yields ordinary measurement records, each
carrying the balanced input qubit's joint success and its decoded fidelity,
the worst case over the Bloch sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import protocol
from .chain_core import SpectralDecomposition, time_scale
from .scheduler import greedy_run


@dataclass(frozen=True)
class NoiseParams:
    """Amplitude-damping rates per rail, natural units (J/hbar).

    ``gamma_2`` defaults to ``gamma_1`` (symmetric damping).
    """

    gamma_1: float
    gamma_2: Optional[float] = None

    def __post_init__(self) -> None:
        if self.gamma_2 is None:
            object.__setattr__(self, "gamma_2", self.gamma_1)
        for g in (self.gamma_1, self.gamma_2):
            if not (math.isfinite(g) and g >= 0):
                raise ValueError(f"damping rates must be finite and >= 0, got {g}")

    @property
    def symmetric(self) -> bool:
        return self.gamma_1 == self.gamma_2

    @property
    def gamma(self) -> float:
        if not self.symmetric:
            raise ValueError("gamma is only defined for symmetric damping")
        return self.gamma_1


def p_infinity_estimate(n_sites: int, gamma: float) -> float:
    """Truncated product estimate of the limiting joint failure probability.

    P_inf ~ prod_{l>=1} (1 - 1.35 N^{-2/3} exp(-2 Gamma T l)) with measurement
    times t(l) = T l, T = ``time_scale(N)``.  The truncation error of log P is
    bounded by the geometric tail 1.35 N^{-2/3} q^{L+1} / (1 - q), q = exp(-2 Gamma T),
    which is negligible for the L = 10^4 terms taken at any gamma of interest.

    The product does not approximate ``p_infinity_exact``.  It uses the amplitude law's constant 1.35 with the
    probability exponent -2/3 as the per-step success probability (the
    first-arrival probability law is 1.82 N^{-2/3}; see
    ``analysis.fit_peak_scaling``), and each factor ignores the population
    that has already decayed.  At N = 40, J/Gamma = 50 it gives 6.31e-5
    against an exact greedy plateau of 6.40e-2, about 1000x lower.
    """
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    if gamma == 0.0:
        return 0.0
    peak = 1.35 * n_sites ** (-2.0 / 3.0)
    q = math.exp(-2.0 * gamma * time_scale(n_sites))
    ls = np.arange(1, 10_001)
    factors = 1.0 - peak * q**ls
    if np.any(factors <= 0):
        return 0.0
    return float(math.exp(np.sum(np.log(factors))))


def p_infinity_exact(
    dec: SpectralDecomposition,
    noise: NoiseParams,
    stop_tol: float = 1e-12,
) -> float:
    """Plateau of P(l) under symmetric damping with greedy scheduling.

    Runs the exact damped protocol until the joint per-step success falls
    below ``stop_tol``, at most 100,000 steps; the missed tail of successes is
    O(stop_tol / (2 Gamma T)), T = ``time_scale(N)``.
    """
    if not noise.symmetric:
        raise ValueError("p_infinity_exact requires symmetric damping")
    run = greedy_run(dec, gamma=noise.gamma, step_success_tol=stop_tol, l_max=100_000)
    return float(run.records[-1].joint_failure)


@dataclass(frozen=True)
class AsymmetricStep(protocol.MeasurementRecord):
    """Measurement record of a run with unequal rail damping.

    ``step_success`` is the balanced input qubit's joint success and
    ``joint_failure`` is 1 minus the running total of those.
    """

    worst_case_fidelity: float


@dataclass
class AsymmetricRunResult:
    records: list
    total_success: float

    @property
    def min_worst_case_fidelity(self) -> float:
        return min(r.worst_case_fidelity for r in self.records)


def asymmetric_run(
    dec: SpectralDecomposition,
    noise: NoiseParams,
    schedule: Union[Sequence[float], "object"],
) -> AsymmetricRunResult:
    """Protocol run with rail-dependent damping rates.

    The logical components share one spatial vector c (identical chains,
    symmetric projections), the one of the noiseless run of ``schedule``
    (``protocol.run_schedule``), and carry separate scalar factors
    a(t) = exp(-gamma_2 t) on the alpha component and b(t) = exp(-gamma_1 t)
    on the beta component.  On success at time t:

        joint success  = (|alpha|^2 a^2 + |beta|^2 b^2) * |c_N|^2
        decoded state  ~ alpha a |0> + beta b |1>
        fidelity       = (|alpha|^2 a + |beta|^2 b)^2 / (|alpha|^2 a^2 + |beta|^2 b^2)

    The run is for the balanced input qubit alpha = beta = 1/sqrt(2), where the
    fidelity attains its worst case over the Bloch sphere,
    (a+b)^2 / (2 (a^2+b^2)); it equals 1 for symmetric rates and decreases as
    |gamma_1 - gamma_2| * t grows.
    """
    h = (1.0 / math.sqrt(2.0)) ** 2  # |alpha|^2 = |beta|^2 = 0.4999999999999999, not 0.5

    records = []
    total = 0.0
    for rec in protocol.run_schedule(dec, schedule).records:
        t = rec.absolute_time
        a = math.exp(-noise.gamma_2 * t)
        b = math.exp(-noise.gamma_1 * t)
        weight = h * a * a + h * b * b
        joint = weight * rec.step_success
        total += joint
        records.append(
            AsymmetricStep(
                index=rec.index,
                interval=rec.interval,
                absolute_time=t,
                step_success=joint,
                joint_failure=1.0 - total,
                worst_case_fidelity=(a + b) ** 2 / (2.0 * (a * a + b * b)),
            )
        )
    return AsymmetricRunResult(records=records, total_success=total)
