"""Dual-rail conclusive-transfer protocol in the reduced representation.

Because the two rails are identical and the end measurement treats them
symmetrically, the whole protocol is captured by one complex amplitude
vector c over the N sites of one chain, independent of the logical input
qubit.  The state is kept *unnormalized*: after a failed measurement the end
amplitude is projected out without renormalizing, so |c_N|^2 at the next
measurement is directly the joint (not conditional) success probability of
that step.  The paper's normalized post-failure state is a / ||a|| in the
mode basis below; the site vector c itself is never formed.

Every run is one loop of ``evolve`` and ``measure`` on the noiseless mode
coefficients a = V^T c of the eigenbasis V of the chain, at O(N) per step:

    evolve:   a <- exp(-i E tau) a
    measure:  c_N = u . a with u = v(N), the receiver row of V, then a <- a - c_N u

A ``DualRailState`` holds the run's constants from its construction: the
rates -i E, the receiver row u as a complex vector and the damping weight
W(0).  A step then does only its O(N) work: an interval equal to the one
before reuses its phase vector exp(-i E tau) (a uniform schedule computes it
once), and ``measure`` reads the weight W(t) that ``evolve`` last computed.

Amplitude damping (``NoiseParams``) is one scalar weight on top.  In the
no-jump picture rail r's component decays as exp(-gamma_r t) while the two
rails keep the one shared vector c, so a step's joint success is
W(t) |c_N|^2 with W(t) = (exp(-2 gamma_2 t) + exp(-2 gamma_1 t)) / 2, the
balanced input qubit's no-jump weight; for equal rates W(t) = exp(-2 gamma t)
holds for every input qubit.  A quantum jump dumps the excitation into the
global ground state, which can never herald a success; it is never
simulated as a state but bookkept as the scalar ``DualRailState.loss``, so
that total_success + ||c||^2 + loss = 1 at all times.

Failure bookkeeping: P(l) = 1 - sum of the first l joint step successes, so
decayed population stays inside P(l).

A run returns its final ``DualRailState``: the failure branch plus the
``MeasurementRecord`` of every measurement, from which its P(l) trajectory
and the schedule it waited follow.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from ._csvio import typed
from .chain_core import SpectralDecomposition, advance_clock, require_finite_phases


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

    def success_weight(self, t: float) -> float:
        """No-jump weight of the balanced qubit at time t, exactly exp(-2 gamma t) for equal rates.

        gamma * t goes first, so that a rate whose double overflows still gives
        weight 1 at t = 0; doubling is exact, so no other value changes.
        """
        return 0.5 * (math.exp(-2.0 * (self.gamma_2 * t)) + math.exp(-2.0 * (self.gamma_1 * t)))

    def worst_case_fidelity(self, t: float) -> float:
        """Decoded fidelity of the balanced qubit at time t, the worst over the Bloch sphere.

        With a = exp(-gamma_2 t) on alpha (rail 2) and b = exp(-gamma_1 t) on
        beta (rail 1) it is (a+b)^2 / (2 (a^2+b^2)), evaluated through the
        ratio r = exp(-|gamma_1 - gamma_2| t) <= 1 as (1+r)^2 / (2 (1+r^2)) so
        that it stays defined when a and b underflow; exactly 1.0 for equal rates.
        """
        r = math.exp(-abs(self.gamma_1 - self.gamma_2) * t)
        return (1.0 + r) ** 2 / (2.0 * (1.0 + r * r))


@dataclass(frozen=True)
class Schedule:
    """Ordered positive inter-measurement intervals, natural time units, from times or another Schedule."""

    intervals: np.ndarray

    def __post_init__(self) -> None:
        intervals = np.asarray(getattr(self.intervals, "intervals", self.intervals), dtype=float)
        if intervals.ndim != 1 or intervals.size == 0 or not np.all(np.isfinite(intervals) & (intervals > 0)):
            raise ValueError("a schedule is a non-empty 1-d list of finite positive intervals")
        object.__setattr__(self, "intervals", intervals)

    def to_json(self) -> str:
        return json.dumps({"intervals": list(self.intervals)}, indent=2)

    @classmethod
    def from_json(cls, path) -> "Schedule":
        """Schedule from a JSON object whose one key 'intervals' lists JSON numbers."""
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or set(payload) != {"intervals"}:
            raise ValueError(f"schedule file {path} must hold an object with only 'intervals'")
        intervals = typed(payload["intervals"], list, "intervals")
        return cls(intervals=[typed(t, float, "intervals entry") for t in intervals])


class MeasurementRecord(NamedTuple):
    """Outcome bookkeeping of one end-point measurement.

    ``step_success`` is the joint probability that this measurement succeeds
    and all earlier ones failed; ``joint_failure`` is P(l).
    """

    index: int
    interval: float
    absolute_time: float
    step_success: float
    joint_failure: float


class DualRailState:
    """Failure branch of one run: noiseless mode coefficients plus bookkeeping.

    A new state has the excitation at site 1 (the unit vector e_1 stands for
    the excitation both rails share; the logical amplitudes never enter), so
    ``coefficients`` starts as the sender row v(1) of V.  It holds a = V^T c_0,
    where c_0 is the site vector the run would have without damping; ``noise``
    weights it by ``success_weight``, so ``norm_sq()`` = ||c||^2 = W(t) ||a||^2.

    The run's constants are ``_rates`` (-i E) and ``_receiver`` (v(N) as
    complex); ``evolve`` keeps the weight ``_weight`` = W(time) current and
    reuses ``_phases`` = exp(-i E tau) while the interval ``_tau`` repeats.
    """

    def __init__(self, dec: SpectralDecomposition, noise: NoiseParams = NoiseParams(0.0)):
        if dec.n_sites < 2:
            raise ValueError(f"n_sites must be >= 2, got {dec.n_sites}")
        self.dec = dec
        self.noise = noise
        self.coefficients = dec.sender.astype(complex)
        self._rates = -1j * dec.energies
        self._receiver = dec.receiver.astype(complex)
        self._weight = noise.success_weight(0.0)
        self.records: list = []
        self.total_success = self.loss = self.time = 0.0
        self._pending_interval = self._tau = 0.0
        self._phases: Optional[np.ndarray] = None

    @property
    def p_trajectory(self) -> np.ndarray:
        return np.array([r.joint_failure for r in self.records])

    @property
    def schedule(self) -> Schedule:
        """The intervals this run waited, in measurement order; ValueError before any."""
        return Schedule(intervals=np.array([r.interval for r in self._measured()]))

    @property
    def min_worst_case_fidelity(self) -> float:
        """Lowest balanced-qubit decoded fidelity over the run's measurements; ValueError before any."""
        return min(self.noise.worst_case_fidelity(r.absolute_time) for r in self._measured())

    def _measured(self) -> list:
        if not self.records:
            raise ValueError("no measurement recorded yet")
        return self.records

    def norm_sq(self) -> float:
        a = self.coefficients
        return self._weight * float(np.vdot(a, a).real)


def evolve(state: DualRailState, tau: float) -> None:
    """Conditional evolution c <- F(tau) c under the damping weight, as a <- exp(-i E tau) a.

    The squared-norm deficit of the damping, ||a||^2 (W(t) - W(t + tau)),
    goes into ``state.loss`` (jump probability); without damping the
    evolution is norm preserving.  The phases of an interval equal to the
    last one are reused, and a rejected interval leaves the state as it was.
    """
    time = advance_clock(state.time, tau)
    if tau != state._tau:
        require_finite_phases(state.dec.energies, tau)
        state._phases = np.exp(state._rates * tau)
        state._tau = tau
    weight = state.noise.success_weight(time)
    if weight != state._weight:
        a = state.coefficients
        state.loss += float(np.vdot(a, a).real) * (state._weight - weight)
        state._weight = weight
    state.coefficients *= state._phases
    state.time = time
    state._pending_interval += tau


def measure(state: DualRailState) -> MeasurementRecord:
    """Projective end-point measurement; failure branch kept unnormalized.

    Projects c_N out of the state and returns the MeasurementRecord it
    appends, whose ``step_success`` is the joint success of this step.
    """
    u = state._receiver
    c_n = complex(u @ state.coefficients)
    state.coefficients -= c_n * u
    step_success = state._weight * abs(c_n) ** 2
    state.total_success += step_success
    record = MeasurementRecord(len(state.records) + 1, state._pending_interval, state.time,
                               step_success, 1.0 - state.total_success)
    state.records.append(record)
    state._pending_interval = 0.0
    return record


def run_schedule(
    dec: SpectralDecomposition,
    schedule: Union[Sequence[float], Schedule],
    noise: NoiseParams = NoiseParams(0.0),
) -> DualRailState:
    """Alternate evolution and measurement for every interval of ``schedule``.

    ``schedule`` is a Schedule or a sequence of times, either checked by ``Schedule``.
    ``noise`` damps the run; with unequal rates every record is the balanced
    input qubit's.
    """
    state = DualRailState(dec, noise)
    for tau in Schedule(schedule).intervals:
        evolve(state, float(tau))
        measure(state)
    return state
