"""Dual-rail conclusive-transfer protocol in the reduced representation.

Because the two rails are identical and the end measurement treats them
symmetrically, the whole protocol is captured by a single complex amplitude
vector c over the N sites of one chain, independent of the logical input
qubit.  The state is kept *unnormalized*: after a failed measurement the end
amplitude is zeroed without renormalizing, so |c_N|^2 at the next measurement
is directly the joint (not conditional) success probability of that step.
The normalized post-failure state of the paper is c / ||c||.

Failure bookkeeping: P(l) = 1 - sum of the first l joint step successes.
Under amplitude damping the population destroyed by a quantum jump can never
herald a success, so it stays inside P(l); it is additionally tracked in
``DualRailState.loss`` so that total_success + ||c||^2 + loss = 1 at all
times.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .chain_core import SpectralDecomposition, apply_propagator


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
    """Unnormalized site amplitudes plus measurement bookkeeping."""

    amplitudes: np.ndarray
    records: list = field(default_factory=list)
    total_success: float = 0.0
    loss: float = 0.0
    time: float = 0.0
    _pending_interval: float = 0.0

    @property
    def n_sites(self) -> int:
        return len(self.amplitudes)

    @property
    def joint_failure(self) -> float:
        return 1.0 - self.total_success

    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def normalized(self) -> np.ndarray:
        return self.amplitudes / np.sqrt(self.norm_sq())


def init_state(n_sites: int) -> DualRailState:
    """Excitation at site 1, nothing measured yet.

    The unit vector e_1 stands for the excitation shared by both rails; the
    logical amplitudes never enter because the reduced dynamics is identical
    for every input qubit.
    """
    if n_sites < 2:
        raise ValueError(f"n_sites must be >= 2, got {n_sites}")
    c = np.zeros(n_sites, dtype=complex)
    c[0] = 1.0
    return DualRailState(amplitudes=c)


def evolve(state: DualRailState, dec: SpectralDecomposition, tau: float) -> DualRailState:
    """Free evolution c <- F(tau) c.  Norm preserving."""
    if tau <= 0:
        raise ValueError(f"evolution interval must be positive, got {tau}")
    state.amplitudes = apply_propagator(dec, tau, state.amplitudes)
    state.time += tau
    state._pending_interval += tau
    return state


def measure(state: DualRailState) -> tuple[float, DualRailState]:
    """Projective end-point measurement; failure branch kept unnormalized.

    Returns the joint success probability of this step and mutates the state:
    c_N is set to zero exactly and a MeasurementRecord is appended.
    """
    step_success = float(abs(state.amplitudes[-1]) ** 2)
    state.amplitudes[-1] = 0.0
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
    """Full P(l) trajectory of one protocol run plus the final state."""

    records: list
    state: DualRailState

    @property
    def total_success(self) -> float:
        return self.state.total_success

    @property
    def p_trajectory(self) -> np.ndarray:
        return np.array([r.joint_failure for r in self.records])

    def to_csv(self, path=None) -> Optional[str]:
        from ._csvio import render_csv, write_text

        rows = [
            (r.index, r.interval, r.absolute_time, r.step_success, r.joint_failure)
            for r in self.records
        ]
        text = render_csv(
            columns=("l", "tau_l", "t_abs", "step_success", "P_l"),
            rows=rows,
            metadata={"n_sites": self.state.n_sites},
        )
        if path is None:
            return text
        write_text(path, text)
        return None

    def to_json(self, path=None) -> Optional[str]:
        payload = {
            "n_sites": self.state.n_sites,
            "total_success": self.state.total_success,
            "loss": self.state.loss,
            "records": [
                {
                    "l": r.index,
                    "tau_l": r.interval,
                    "t_abs": r.absolute_time,
                    "step_success": r.step_success,
                    "P_l": r.joint_failure,
                }
                for r in self.records
            ],
        }
        text = json.dumps(payload, indent=2)
        if path is None:
            return text
        with io.open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        return None


def run_schedule(
    dec: SpectralDecomposition,
    schedule: Union[Sequence[float], "object"],
    noise=None,
) -> ProtocolResult:
    """Alternate evolution and measurement for every interval of ``schedule``.

    ``schedule`` is anything with an ``intervals`` attribute (a Schedule) or a
    plain sequence of positive times.  With ``noise`` given (symmetric
    NoiseParams) the conditional damped evolution is used instead of the
    unitary one.
    """
    intervals = np.asarray(getattr(schedule, "intervals", schedule), dtype=float)
    if intervals.size == 0:
        raise ValueError("schedule must contain at least one interval")
    if not np.all(np.isfinite(intervals) & (intervals > 0)):
        raise ValueError("all schedule intervals must be finite and positive")

    state = init_state(dec.n_sites)
    if noise is None:
        for tau in intervals:
            evolve(state, dec, float(tau))
            measure(state)
    else:
        from .noise import evolve_damped

        for tau in intervals:
            evolve_damped(state, dec, float(tau), noise)
            measure(state)
    return ProtocolResult(records=list(state.records), state=state)
