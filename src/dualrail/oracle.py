"""Brute-force full-Hilbert-space validator.

Everything the reduced modules claim is re-derived here from first principles:
the full 2^N chain Hamiltonian (all excitation sectors), the 4^N two-chain
dual-rail protocol with explicit encode/decode gates, and structural
decoherence-free-subspace checks.  Sizes are capped so the whole suite runs
in minutes; this module is ground truth, not a performance path.

Conventions (used everywhere in this module):
  * sz|excited> = +|excited>, sz|ground> = -|ground>.
  * Chain basis index: site 1 is the most significant bit, so the
    single-excitation state |n> has index 2^(N-n).
  * Two-chain state: chain-1 index major, i.e. a (2^N, 2^N) matrix with
    chain-1 rows and chain-2 columns.
  * Time evolution exp(-i H t), matching chain_core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .chain_core import ChainSpec, SpectralDecomposition, build_sector_hamiltonian

_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SY = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
_SZ = np.array([[-1.0, 0.0], [0.0, 1.0]])  # sz|1> = +|1>

MAX_SINGLE_CHAIN_SITES = 8
MAX_DUAL_RAIL_SITES = 6


@dataclass(frozen=True)
class LogicalQubit:
    """Input qubit amplitudes alpha|vacuum> + beta|excitation>."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"qubit not normalized: |a|^2+|b|^2 = {norm}")


def _op_at(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """Embed a one-qubit operator at a site (1-based, site 1 most significant)."""
    out = np.array([[1.0]])
    for pos in range(1, n_sites + 1):
        out = np.kron(out, op if pos == site else np.eye(2))
    return out


def excitation_index(n_sites: int, site: int) -> int:
    """Basis index of the single-excitation state at ``site``."""
    return 1 << (n_sites - site)


def excitation_counts(n_sites: int) -> np.ndarray:
    """Number of excited spins for every basis index of one chain."""
    return np.array([bin(b).count("1") for b in range(1 << n_sites)])


def full_hamiltonian(spec: ChainSpec, debug_flip_xy: bool = False) -> np.ndarray:
    """Dense 2^N chain Hamiltonian minus the ferromagnetic ground energy.

    H = -J sum [sx sx + sy sy + delta sz sz] + B sum sz - E_g.  The all-ground
    basis state gets exactly eigenvalue 0 and total-sz blocks are preserved.
    ``debug_flip_xy`` negates the hopping term; it exists so the conformance
    suite can demonstrate that the sector-equivalence check has power.
    """
    n = spec.n_sites
    if n > MAX_SINGLE_CHAIN_SITES:
        raise ValueError(f"full Hamiltonian capped at {MAX_SINGLE_CHAIN_SITES} sites, got {n}")
    dim = 1 << n
    h = np.zeros((dim, dim), dtype=complex)
    j = spec.coupling
    xy_sign = 1.0 if debug_flip_xy else -1.0
    for site in range(1, n):
        sx1 = _op_at(_SX, site, n)
        sx2 = _op_at(_SX, site + 1, n)
        sy1 = _op_at(_SY, site, n)
        sy2 = _op_at(_SY, site + 1, n)
        sz1 = _op_at(_SZ, site, n)
        sz2 = _op_at(_SZ, site + 1, n)
        h += xy_sign * j * (sx1 @ sx2 + sy1 @ sy2)
        h += -j * spec.anisotropy * (sz1 @ sz2)
    for site in range(1, n + 1):
        h += spec.field * _op_at(_SZ, site, n)
    ground_energy = -j * spec.anisotropy * (n - 1) - spec.field * n
    h -= ground_energy * np.eye(dim)
    return h


def single_excitation_block(h_full: np.ndarray, n_sites: int) -> np.ndarray:
    """Extract the N x N single-excitation block, ordered by site."""
    idx = [excitation_index(n_sites, s) for s in range(1, n_sites + 1)]
    return h_full[np.ix_(idx, idx)]


def full_transition_amplitude(spec: ChainSpec, r: int, s: int, t: float) -> complex:
    """<r| exp(-i H t) |s> from the dense 2^N eigendecomposition."""
    n = spec.n_sites
    if not (1 <= r <= n and 1 <= s <= n):
        raise ValueError(f"site indices {r},{s} outside 1..{n}")
    h = full_hamiltonian(spec)
    energies, vectors = np.linalg.eigh(h)
    ir = excitation_index(n, r)
    is_ = excitation_index(n, s)
    w = vectors[ir, :] * vectors[is_, :].conj()
    return complex(np.sum(w * np.exp(-1j * energies * t)))


@dataclass(frozen=True)
class FullStepRecord:
    index: int
    interval: float
    absolute_time: float
    step_success: float
    joint_failure: float
    decoded_qubit: tuple
    decoded_fidelity: float


@dataclass
class DualRailFullResult:
    """Per-step statistics of the explicit two-chain protocol."""

    steps: list
    total_success: float
    final_state: np.ndarray  # unnormalized failure-branch (2^N, 2^N) matrix

    @property
    def p_trajectory(self) -> np.ndarray:
        return np.array([s.joint_failure for s in self.steps])


def _zero_controlled_not(psi: np.ndarray, n_sites: int) -> np.ndarray:
    """Alice's encode: flip chain-2 site 1 where chain-1 site 1 is ground."""
    dim = psi.shape[0]
    mask = 1 << (n_sites - 1)
    rows = (np.arange(dim) & mask) == 0
    perm = np.arange(dim) ^ mask
    psi = psi.copy()
    psi[rows, :] = psi[rows, :][:, perm]
    return psi


def _decode_cnot(psi: np.ndarray, n_sites: int) -> np.ndarray:
    """Bob's decode: flip chain-2 site N where chain-1 site N is excited."""
    dim = psi.shape[0]
    rows = (np.arange(dim) & 1) == 1
    perm = np.arange(dim) ^ 1
    psi = psi.copy()
    psi[rows, :] = psi[rows, :][:, perm]
    return psi


def dual_rail_protocol_full(
    spec: ChainSpec,
    qubit: LogicalQubit,
    schedule: Sequence[float],
    gamma: float = 0.0,
    dephasing: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> DualRailFullResult:
    """Explicit two-chain protocol: encode, evolve, decode, measure, repeat.

    Joint evolution is exp(-i H t) per chain (kron structure) times the
    no-jump damping factor exp(-gamma t m) on every m-excitation component
    when ``gamma`` > 0.  The failure branch is kept unnormalized so every
    recorded probability is joint, exactly as in the reduced protocol.
    ``dephasing``, if given, is applied to the state matrix after each
    evolution interval (used by the decoherence-free-subspace checks).
    """
    n = spec.n_sites
    if n > MAX_DUAL_RAIL_SITES:
        raise ValueError(f"dual-rail oracle capped at {MAX_DUAL_RAIL_SITES} sites, got {n}")
    intervals = np.asarray(schedule if not hasattr(schedule, "intervals") else schedule.intervals, dtype=float)
    if intervals.size == 0 or not np.all(np.isfinite(intervals) & (intervals > 0)):
        raise ValueError("schedule must be non-empty with finite positive intervals")
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"damping rate must be finite and >= 0, got {gamma}")

    dim = 1 << n
    h = full_hamiltonian(spec)
    if np.max(np.abs(h.imag)) < 1e-14:
        energies, vectors = np.linalg.eigh(h.real)
    else:  # pragma: no cover - h is real for this model
        energies, vectors = np.linalg.eigh(h)
    counts = excitation_counts(n)

    # |psi>_1^(1) (x) |vac>^(2), then the dual-rail encode
    psi = np.zeros((dim, dim), dtype=complex)
    psi[0, 0] = qubit.alpha
    psi[excitation_index(n, 1), 0] = qubit.beta
    psi = _zero_controlled_not(psi, n)

    steps = []
    total_success = 0.0
    t_abs = 0.0
    success_cols = (np.arange(dim) & 1) == 1  # chain-2 site N excited

    for tau in intervals:
        u = (vectors * np.exp(-1j * energies * tau)) @ vectors.conj().T
        psi = u @ psi @ u.T
        if gamma > 0.0:
            damp = np.exp(-gamma * tau * counts)
            psi = psi * np.outer(damp, damp)
        if dephasing is not None:
            psi = dephasing(psi)
        psi = _decode_cnot(psi, n)
        t_abs += tau

        success_branch = psi[:, success_cols]
        step_success = float(np.sum(np.abs(success_branch) ** 2))
        # success branch must sit on chain-2 = |N>, chain-1 = alpha|vac>+beta|N>
        a_out = psi[0, 1]
        b_out = psi[excitation_index(n, n), 1]
        branch_norm = math.sqrt(step_success) if step_success > 0 else 1.0
        overlap = np.conj(qubit.alpha) * a_out + np.conj(qubit.beta) * b_out
        fidelity = float(abs(overlap) ** 2 / step_success) if step_success > 1e-300 else 0.0
        total_success += step_success

        psi = psi.copy()
        psi[:, success_cols] = 0.0
        steps.append(
            FullStepRecord(
                index=len(steps) + 1,
                interval=float(tau),
                absolute_time=t_abs,
                step_success=step_success,
                joint_failure=1.0 - total_success,
                decoded_qubit=(a_out / branch_norm, b_out / branch_norm),
                decoded_fidelity=fidelity,
            )
        )

    return DualRailFullResult(steps=steps, total_success=total_success, final_state=psi)


def rail_amplitudes(result_state: np.ndarray, n_sites: int, qubit: LogicalQubit) -> tuple:
    """Per-site amplitudes of each logical component of a failure-branch state.

    Returns (c_rail1, c_rail2): the coefficients of beta|n,vac> and
    alpha|vac,n>.  For symmetric dynamics both equal the reduced vector c.
    """
    c1 = np.zeros(n_sites, dtype=complex)
    c2 = np.zeros(n_sites, dtype=complex)
    for site in range(1, n_sites + 1):
        idx = excitation_index(n_sites, site)
        if abs(qubit.beta) > 0:
            c1[site - 1] = result_state[idx, 0] / qubit.beta
        if abs(qubit.alpha) > 0:
            c2[site - 1] = result_state[0, idx] / qubit.alpha
    return c1, c2


def excitation_sector_weights(psi: np.ndarray, n_sites: int) -> np.ndarray:
    """Probability weight in each total-excitation sector of a two-chain state."""
    counts = excitation_counts(n_sites)
    total = counts[:, None] + counts[None, :]
    weights = np.zeros(2 * n_sites + 1)
    p = np.abs(psi) ** 2
    for m in range(2 * n_sites + 1):
        weights[m] = float(np.sum(p[total == m]))
    return weights


# ---------------------------------------------------------------------------
# collective dephasing / decoherence-free subspace
# ---------------------------------------------------------------------------


def _site_sz_values(n_sites: int) -> np.ndarray:
    """sz eigenvalue (+1 excited / -1 ground) per (basis index, site)."""
    b = np.arange(1 << n_sites)
    return np.array(
        [np.where((b >> (n_sites - s)) & 1, 1.0, -1.0) for s in range(1, n_sites + 1)]
    ).T  # shape (dim, n_sites)


def collective_dephasing(psi: np.ndarray, phases: Sequence[float], n_sites: int) -> np.ndarray:
    """Apply prod_n exp(i phi_n S_{z,n}) with S_{z,n} = sz_n^(1) + sz_n^(2)."""
    z = _site_sz_values(n_sites)
    d = np.exp(1j * z @ np.asarray(phases, dtype=float))
    return psi * np.outer(d, d)


def rail_local_dephasing(psi: np.ndarray, phases: Sequence[float], n_sites: int) -> np.ndarray:
    """Dephasing acting on chain 1 only; breaks the code space."""
    z = _site_sz_values(n_sites)
    d = np.exp(1j * z @ np.asarray(phases, dtype=float))
    return psi * d[:, None]


def dephasing_free_check(spec: ChainSpec, m: int) -> tuple[bool, dict]:
    """Structural decoherence-free-subspace check for the code site ``m``.

    Both logical basis states (excitation at site m on rail 1 vs rail 2) must
    be eigenstates of every collective S_{z,n} with identical eigenvalues:
    0 at n = m and -2 elsewhere.  Any collective-dephasing unitary then acts
    as one global phase on the code space.
    """
    n = spec.n_sites
    if n > MAX_DUAL_RAIL_SITES:
        raise ValueError(f"dual-rail oracle capped at {MAX_DUAL_RAIL_SITES} sites, got {n}")
    if not 1 <= m <= n:
        raise ValueError(f"site {m} outside 1..{n}")
    idx = excitation_index(n, m)
    z = _site_sz_values(n)
    table = {}
    passed = True
    for site in range(1, n + 1):
        lam1 = z[idx, site - 1] + z[0, site - 1]  # |m,vac>
        lam2 = z[0, site - 1] + z[idx, site - 1]  # |vac,m>
        expected = 0.0 if site == m else -2.0
        table[site] = (float(lam1), float(lam2))
        if lam1 != lam2 or lam1 != expected:
            passed = False
    return passed, table


# ---------------------------------------------------------------------------
# conformance report
# ---------------------------------------------------------------------------


@dataclass
class ConformanceCheck:
    name: str
    max_deviation: float
    tolerance: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "check": self.name,
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def conformance_report(
    inject_sign_error: bool = False,
    seed: int = 1234,
) -> dict:
    """Run the full reduced-vs-brute-force conformance suite.

    Returns a machine-readable report: one entry per check with the observed
    maximum deviation, the tolerance, and pass/fail, plus an info section
    recording the asymmetric-damping operating point.  ``inject_sign_error``
    flips the hopping sign in the full Hamiltonian used by the
    sector-equivalence check; the check must then fail, demonstrating that
    the comparison has power.
    """
    from . import chain_core, protocol
    from .noise import NoiseParams, asymmetric_run
    from .scheduler import greedy_optimize

    rng = np.random.default_rng(seed)
    checks = []

    # 1. single-excitation block of the full Hamiltonian vs chain_core
    dev = 0.0
    for n in range(2, MAX_SINGLE_CHAIN_SITES + 1):
        for delta in (0.5, 1.0, 1.5):
            for field in (-0.3, 0.0, 0.4):
                spec = ChainSpec(n, anisotropy=delta, field=field)
                block = single_excitation_block(
                    full_hamiltonian(spec, debug_flip_xy=inject_sign_error), n
                )
                dense = build_sector_hamiltonian(spec).to_dense()
                dev = max(dev, float(np.max(np.abs(block - dense))))
    checks.append(ConformanceCheck("sector_block_equivalence", dev, 1e-12, dev < 1e-12))

    # 2. transition amplitudes vs full 2^N evolution
    dev = 0.0
    for n in range(2, MAX_SINGLE_CHAIN_SITES + 1):
        spec = ChainSpec(n)
        dec = chain_core.diagonalize(build_sector_hamiltonian(spec))
        for t in rng.uniform(0.0, 3.0 * n, size=20):
            r = int(rng.integers(1, n + 1))
            s = int(rng.integers(1, n + 1))
            f_red = chain_core.transition_amplitude(dec, r, s, float(t))
            f_full = full_transition_amplitude(spec, r, s, float(t))
            dev = max(dev, abs(f_red - f_full))
    checks.append(ConformanceCheck("transition_amplitude_equivalence", dev, 1e-10, dev < 1e-10))

    # 3. reduced P(l) vs full dual-rail, three input qubits, 5-step schedules
    qubits = [
        LogicalQubit(1.0, 0.0),
        LogicalQubit(0.0, 1.0),
        LogicalQubit(0.6, 0.8j),
    ]
    dev = 0.0
    fid_dev = 0.0
    for n in range(2, 6):
        spec = ChainSpec(n)
        dec = chain_core.diagonalize(build_sector_hamiltonian(spec))
        schedule = greedy_optimize(dec, l_max=5)
        reduced = protocol.run_schedule(dec, schedule)
        for qb in qubits:
            full = dual_rail_protocol_full(spec, qb, schedule)
            dev = max(dev, float(np.max(np.abs(full.p_trajectory - reduced.p_trajectory))))
            for step in full.steps:
                if step.step_success > 1e-12:
                    fid_dev = max(fid_dev, abs(step.decoded_fidelity - 1.0))
    checks.append(ConformanceCheck("protocol_p_trajectory_equivalence", dev, 1e-9, dev < 1e-9))
    checks.append(ConformanceCheck("conclusive_fidelity_noiseless", fid_dev, 1e-9, fid_dev < 1e-9))

    # 4. conclusiveness under symmetric damping
    fid_dev = 0.0
    for n in (3, 4):
        spec = ChainSpec(n)
        dec = chain_core.diagonalize(build_sector_hamiltonian(spec))
        schedule = greedy_optimize(dec, l_max=4)
        for gamma in (0.01, 0.1):
            full = dual_rail_protocol_full(spec, LogicalQubit(0.6, 0.8j), schedule, gamma=gamma)
            for step in full.steps:
                if step.step_success > 1e-12:
                    fid_dev = max(fid_dev, abs(step.decoded_fidelity - 1.0))
    checks.append(ConformanceCheck("conclusive_fidelity_damped", fid_dev, 1e-9, fid_dev < 1e-9))

    # 5. evolution never leaves the <= 1 excitation sectors (failure branch)
    dev = 0.0
    for n in (3, 4, 5):
        spec = ChainSpec(n)
        full = dual_rail_protocol_full(
            spec, LogicalQubit(0.6, 0.8j), [0.7 * n, 0.4 * n, 0.9 * n]
        )
        weights = excitation_sector_weights(full.final_state, n)
        dev = max(dev, float(np.sum(weights[2:])))
    checks.append(ConformanceCheck("excitation_conservation", dev, 1e-12, dev < 1e-12))

    # 6. decoherence-free subspace: structure, invariance, counterexample power
    ok = True
    for n in range(2, MAX_DUAL_RAIL_SITES + 1):
        for m in range(1, n + 1):
            passed, _ = dephasing_free_check(ChainSpec(n), m)
            ok = ok and passed
    checks.append(ConformanceCheck("dfs_structure", 0.0 if ok else 1.0, 0.5, ok))

    n = 4
    spec = ChainSpec(n)
    dec = chain_core.diagonalize(build_sector_hamiltonian(spec))
    schedule = greedy_optimize(dec, l_max=3)
    qb = LogicalQubit(0.6, 0.8j)
    base = dual_rail_protocol_full(spec, qb, schedule)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
    collective = dual_rail_protocol_full(
        spec, qb, schedule, dephasing=lambda p: collective_dephasing(p, phases, n)
    )
    dev = max(
        abs(s.decoded_fidelity - b.decoded_fidelity)
        for s, b in zip(collective.steps, base.steps)
    )
    checks.append(ConformanceCheck("collective_dephasing_invariance", float(dev), 1e-12, dev < 1e-12))

    local = dual_rail_protocol_full(
        spec, qb, schedule, dephasing=lambda p: rail_local_dephasing(p, phases, n)
    )
    worst = min(s.decoded_fidelity for s in local.steps if s.step_success > 1e-12)
    detected = worst < 1.0 - 1e-6
    checks.append(
        ConformanceCheck("rail_local_dephasing_detected", float(1.0 - worst), 1e-6, detected)
    )

    # info: asymmetric-damping operating point of the paper's worked example
    from .analysis import HBAR_OVER_KB_NS_K

    j_kelvin = 20.0
    g1 = (1.0 / 4.0) * HBAR_OVER_KB_NS_K / j_kelvin
    g2 = (1.0 / 4.2) * HBAR_OVER_KB_NS_K / j_kelvin
    spec20 = ChainSpec(20)
    dec20 = chain_core.diagonalize(build_sector_hamiltonian(spec20))
    sched = greedy_optimize(dec20, l_max=10)
    asym = asymmetric_run(dec20, NoiseParams(gamma_1=g1, gamma_2=g2), sched)
    info = {
        "asymmetric_total_success": asym.total_success,
        "asymmetric_success_gap_to_0.75": asym.total_success - 0.75,
        "asymmetric_min_worst_case_fidelity": asym.min_worst_case_fidelity,
    }

    return {
        "passed": all(c.passed for c in checks),
        "checks": [c.as_dict() for c in checks],
        "info": info,
        "seed": seed,
        "inject_sign_error": inject_sign_error,
    }
