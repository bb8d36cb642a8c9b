"""Dual-rail conclusive-transfer protocol in the reduced representation.

Because the two rails are identical and the end measurement treats them
symmetrically, the whole protocol is captured by one complex amplitude
vector c over the N sites of one chain, independent of the logical input
qubit.  The state is kept *unnormalized*: after a failed measurement the end
amplitude is projected out without renormalizing, so |c_N|^2 at the next
measurement is directly the joint (not conditional) success probability of
that step.  The normalized post-failure state of the paper is c / ||c||.

Every run is one loop of ``evolve`` and ``measure`` on the noiseless mode
coefficients a = V^T c of the eigenbasis V of the chain, at O(N) per step:

    evolve:   a <- exp(-i E tau) a
    measure:  c_N = u . a with u = V[N-1, :], then a <- a - c_N u

Symmetric amplitude damping at rate gamma is a scalar factor on top:
c = exp(-gamma t) V a in the no-jump picture, so a step's joint success is
exp(-2 gamma t) |c_N|^2.  A quantum jump dumps the excitation into the
global ground state, which can never herald a success; it is never
simulated as a state but bookkept as the scalar ``DualRailState.loss``, so
that total_success + ||c||^2 + loss = 1 at all times.

Failure bookkeeping: P(l) = 1 - sum of the first l joint step successes, so
decayed population stays inside P(l).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .chain_core import SpectralDecomposition


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

    def to_json(self) -> str:
        return json.dumps({"intervals": list(self.intervals)}, indent=2)

    @classmethod
    def from_json(cls, path) -> "Schedule":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or "intervals" not in payload:
            raise ValueError(f"schedule file {path} must hold an object with 'intervals'")
        return cls(intervals=np.asarray(payload["intervals"], dtype=float))


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome bookkeeping of one end-point measurement.

    ``step_success`` is the joint probability that this measurement succeeds
    and all earlier ones failed; ``joint_failure`` is P(l).
    """

    index: int
    interval: float
    absolute_time: float
    step_success: float
    joint_failure: float


@dataclass
class DualRailState:
    """Noiseless mode coefficients of the failure branch plus bookkeeping.

    ``coefficients`` holds a = V^T c_0, where c_0 is the site vector the run
    would have without damping; ``gamma`` is the symmetric damping rate.
    """

    dec: SpectralDecomposition
    coefficients: np.ndarray
    gamma: float = 0.0
    records: list = field(default_factory=list)
    total_success: float = 0.0
    loss: float = 0.0
    time: float = 0.0
    _pending_interval: float = 0.0

    @property
    def n_sites(self) -> int:
        return self.dec.n_sites

    @property
    def joint_failure(self) -> float:
        return 1.0 - self.total_success

    @property
    def amplitudes(self) -> np.ndarray:
        """Site amplitudes c = exp(-gamma t) V a, derived on each call.

        Exactly e_1 before the first evolution, and c_N is exactly 0 right
        after a measurement, as in the exact state.
        """
        if self.time == 0.0:
            c = np.zeros(self.n_sites, dtype=complex)
            c[0] = 1.0
            return c
        c = math.exp(-self.gamma * self.time) * (self.dec.modes @ self.coefficients)
        if self._pending_interval == 0.0:
            c[-1] = 0.0
        return c

    def norm_sq(self) -> float:
        a = self.coefficients
        return math.exp(-2.0 * self.gamma * self.time) * float(np.vdot(a, a).real)

    def normalized(self) -> np.ndarray:
        return self.amplitudes / math.sqrt(self.norm_sq())


def init_state(dec: SpectralDecomposition, gamma: float = 0.0) -> DualRailState:
    """Excitation at site 1, nothing measured yet.

    The unit vector e_1 stands for the excitation shared by both rails; the
    logical amplitudes never enter because the reduced dynamics is identical
    for every input qubit.  Its mode coefficients are the first row of V.
    """
    if dec.n_sites < 2:
        raise ValueError(f"n_sites must be >= 2, got {dec.n_sites}")
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"damping rate must be finite and >= 0, got {gamma}")
    return DualRailState(dec=dec, coefficients=dec.modes[0, :].astype(complex), gamma=gamma)


def evolve(state: DualRailState, tau: float) -> DualRailState:
    """Conditional evolution c <- exp(-gamma tau) F(tau) c, as a <- exp(-i E tau) a.

    The squared-norm deficit of the damping goes into ``state.loss`` (jump
    probability); without damping the evolution is norm preserving.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"evolution interval must be finite and positive, got {tau}")
    state.loss += state.norm_sq() * -math.expm1(-2.0 * state.gamma * tau)
    state.coefficients *= np.exp(-1j * state.dec.energies * tau)
    state.time += tau
    state._pending_interval += tau
    return state


def measure(state: DualRailState) -> tuple[float, DualRailState]:
    """Projective end-point measurement; failure branch kept unnormalized.

    Returns the joint success probability of this step and mutates the state:
    c_N is projected out and a MeasurementRecord is appended.
    """
    u = state.dec.modes[-1, :]
    c_n = complex(u @ state.coefficients)
    state.coefficients -= c_n * u
    step_success = math.exp(-2.0 * state.gamma * state.time) * abs(c_n) ** 2
    state.total_success += step_success
    record = MeasurementRecord(
        index=len(state.records) + 1,
        interval=state._pending_interval,
        absolute_time=state.time,
        step_success=step_success,
        joint_failure=1.0 - state.total_success,
    )
    state.records.append(record)
    state._pending_interval = 0.0
    return step_success, state


@dataclass
class ProtocolResult:
    """Output of one protocol run, however its intervals were chosen.

    The records hold the measurement times and P(l) after each measurement;
    ``state`` is the final failure branch.
    """

    records: list
    state: DualRailState

    @property
    def total_success(self) -> float:
        return self.state.total_success

    @property
    def p_trajectory(self) -> np.ndarray:
        return np.array([r.joint_failure for r in self.records])

    @property
    def schedule(self) -> Schedule:
        """The intervals this run waited, in measurement order."""
        return Schedule(intervals=np.array([r.interval for r in self.records]))


def run_schedule(
    dec: SpectralDecomposition,
    schedule: Union[Sequence[float], "object"],
    noise=None,
) -> ProtocolResult:
    """Alternate evolution and measurement for every interval of ``schedule``.

    ``schedule`` is anything with an ``intervals`` attribute (a Schedule) or a
    plain sequence of finite positive times, which ``evolve`` checks.
    ``noise`` (symmetric NoiseParams) damps the run at its rate ``gamma``.
    """
    intervals = np.asarray(getattr(schedule, "intervals", schedule), dtype=float)
    if intervals.size == 0:
        raise ValueError("schedule must contain at least one interval")
    state = init_state(dec, gamma=0.0 if noise is None else noise.gamma)
    for tau in intervals:
        evolve(state, float(tau))
        measure(state)
    return ProtocolResult(records=list(state.records), state=state)
