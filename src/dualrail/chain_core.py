"""Single-excitation dynamics of an open spin chain.

Everything in this package works in natural units: hbar = 1 and energies in
units of the exchange coupling J, so one time unit is hbar/J.

Sign convention: time evolution is exp(-i H t).  Transfer probabilities and
every quantity measured by the protocol depend only on |amplitude|^2 or on
products of amplitudes along one branch, so the opposite convention would give
identical observables.

The chain Hamiltonian (Pauli matrices, open boundary) is

    H = -J sum_n [sx_n sx_{n+1} + sy_n sy_{n+1} + delta * sz_n sz_{n+1}]
        + B sum_n sz_n  -  E_g

with sz|excited> = +|excited> and E_g the fully-polarized ground energy, so
the zero-excitation state sits exactly at energy zero and accrues no phase.
Restricted to the single-excitation subspace span{|n>} this is a real
symmetric tridiagonal matrix: off-diagonal -2J, diagonal
2*J*delta*(bonds touching site n) + 2B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal


@dataclass(frozen=True)
class ChainSpec:
    """Physical definition of one open XXZ chain.

    Parameters
    ----------
    n_sites : number of spins, at least 2.
    coupling : exchange constant J > 0 (natural units, default 1).
    anisotropy : z-coupling multiplier delta (1 = isotropic Heisenberg).
    field : uniform z-field B.  Shifts all sector energies by the same
        amount, so it changes no transfer probability; kept as a parameter
        to document robustness, default 0.
    """

    n_sites: int
    coupling: float = 1.0
    anisotropy: float = 1.0
    field: float = 0.0

    def __post_init__(self) -> None:
        if self.n_sites < 2:
            raise ValueError(f"n_sites must be >= 2, got {self.n_sites}")
        if not (math.isfinite(self.coupling) and self.coupling > 0):
            raise ValueError(f"coupling must be finite and positive, got {self.coupling}")
        if not (math.isfinite(self.anisotropy) and math.isfinite(self.field)):
            raise ValueError(
                f"anisotropy and field must be finite, got {self.anisotropy} and {self.field}"
            )


@dataclass(frozen=True)
class SectorHamiltonian:
    """Real symmetric tridiagonal matrix of the single-excitation sector."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.diagonal)

    def to_dense(self) -> np.ndarray:
        h = np.diag(self.diagonal)
        h += np.diag(self.off_diagonal, 1) + np.diag(self.off_diagonal, -1)
        return h


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a SectorHamiltonian.

    ``energies`` ascending; ``modes[:, k]`` is the orthonormal eigenvector of
    ``energies[k]`` with a deterministic sign (first non-negligible component
    positive).  Immutable; safe to share across threads.
    """

    energies: np.ndarray
    modes: np.ndarray

    @property
    def n_sites(self) -> int:
        return len(self.energies)


def build_sector_hamiltonian(spec: ChainSpec) -> SectorHamiltonian:
    """Single-excitation block of the shifted chain Hamiltonian.

    For the isotropic chain (delta=1, B=0) the diagonal is 2J at the two ends
    and 4J in the interior with off-diagonal -2J; the all-ones vector is then
    a zero mode (the k=0 magnon costs no energy after the ground shift).
    """
    n = spec.n_sites
    j = spec.coupling
    bonds = np.full(n, 2.0)
    bonds[0] = bonds[-1] = 1.0
    diagonal = 2.0 * j * spec.anisotropy * bonds + 2.0 * spec.field
    off_diagonal = np.full(n - 1, -2.0 * j)
    return SectorHamiltonian(diagonal=diagonal, off_diagonal=off_diagonal)


def diagonalize(h: SectorHamiltonian) -> SpectralDecomposition:
    """Full eigensystem of the tridiagonal sector matrix."""
    energies, modes = eigh_tridiagonal(h.diagonal, h.off_diagonal)
    # deterministic sign convention: first component with non-negligible
    # magnitude made positive
    lead = modes[np.argmax(np.abs(modes) > 1e-8, axis=0), np.arange(modes.shape[1])]
    modes *= np.where(lead < 0, -1.0, 1.0)
    modes.setflags(write=False)
    energies.setflags(write=False)
    return SpectralDecomposition(energies=energies, modes=modes)


def _check_site(dec: SpectralDecomposition, site: int) -> None:
    if not 1 <= site <= dec.n_sites:
        raise ValueError(f"site index {site} outside 1..{dec.n_sites}")


def transition_amplitude(dec: SpectralDecomposition, r: int, s: int, t: float) -> complex:
    """Amplitude <r| exp(-i H t) |s> between site-excitation states (1-based)."""
    _check_site(dec, r)
    _check_site(dec, s)
    w = dec.modes[r - 1, :] * dec.modes[s - 1, :]
    return complex(np.sum(w * np.exp(-1j * dec.energies * t)))


def transition_amplitudes(
    dec: SpectralDecomposition, r: int, s: int, times: np.ndarray
) -> np.ndarray:
    """Vectorized transition_amplitude over an array of times."""
    _check_site(dec, r)
    _check_site(dec, s)
    times = np.asarray(times, dtype=float)
    w = dec.modes[r - 1, :] * dec.modes[s - 1, :]
    return np.exp(-1j * np.outer(times, dec.energies)) @ w


class PhaseGrid:
    """Phase sums S(t_j) = sum_k w_k exp(-i E_k t_j) on t_j = t0 + j*step, j < G.

    The (G x modes) table exp(-i E t_j) is never formed.  With B = ceil(sqrt(G)),
    Q = ceil(G/B) and j = q*B + m it factors as base[q] * inner[m], where
    base = exp(-i E (t0 + step*B*q)) is (Q x modes) and inner = exp(-i E step*m)
    is (B x modes).  The grid costs (B+Q)*modes exponentials and O(modes * sqrt(G))
    memory, and each ``sums`` call is one cache-resident matrix product.
    """

    def __init__(self, energies: np.ndarray, t0: float, step: float, n_points: int):
        if n_points < 1:
            raise ValueError(f"grid needs at least one point, got {n_points}")
        b = math.isqrt(n_points - 1) + 1
        q = -(-n_points // b)
        self.n_points = n_points
        self._base = np.exp(-1j * np.outer(t0 + step * b * np.arange(q), energies))
        self._inner = np.exp(-1j * np.outer(energies, step * np.arange(b)))

    def sums(self, weights: np.ndarray) -> np.ndarray:
        """S(t_j) for every grid point, shape (G,)."""
        return ((self._base * weights) @ self._inner).ravel()[: self.n_points]


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization of f on [a, b] to interval width tol.

    The one refine step of every grid scan here: ``first_peak`` and the greedy
    scheduler's objective each pick their own grid candidates, then refine them
    with this routine.
    """
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


def grid_transition_amplitudes(
    dec: SpectralDecomposition, r: int, s: int, t0: float, step: float, n_points: int
) -> np.ndarray:
    """transition_amplitudes over the uniform grid t_j = t0 + j*step, j < n_points."""
    _check_site(dec, r)
    _check_site(dec, s)
    w = dec.modes[r - 1, :] * dec.modes[s - 1, :]
    return PhaseGrid(dec.energies, t0, step, n_points).sums(w)


def propagator_matrix(dec: SpectralDecomposition, tau: float) -> np.ndarray:
    """Unitary F(tau) with F[r-1, s-1] = f_{r,s}(tau)."""
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    phases = np.exp(-1j * dec.energies * tau)
    return (dec.modes * phases) @ dec.modes.T


def first_peak(dec: SpectralDecomposition) -> tuple[float, float]:
    """Location and height of the first-arrival maximum of |f_{N,1}(t)|^2.

    Scans t in (0, 1.5*N/2] on a uniform grid of step 0.01 hbar/J, far below
    the O(1) width of magnon-bandwidth features, and refines the largest
    interior local maximum by golden section within one step either side.
    The scan's G = 75N points are evaluated through a factored PhaseGrid, so
    it holds O(N * sqrt(G)) = O(N^1.5) memory, not a (G x N) table.
    """
    n = dec.n_sites
    step = 0.01
    ts = np.arange(step, 1.5 * n / 2.0 + 0.5 * step, step)
    p = np.abs(grid_transition_amplitudes(dec, n, 1, step, step, len(ts))) ** 2

    interior = np.arange(1, len(ts) - 1)
    is_max = (p[interior] >= p[interior - 1]) & (p[interior] > p[interior + 1])
    candidates = interior[is_max]
    if len(candidates) == 0:
        i = int(np.argmax(p))
        return float(ts[i]), float(p[i])
    i = int(candidates[np.argmax(p[candidates])])

    w = dec.modes[-1, :] * dec.modes[0, :]
    phases = -1j * dec.energies
    t_ref, p_ref = _golden_max(
        lambda t: abs(w @ np.exp(phases * t)) ** 2, ts[i] - step, ts[i] + step, 1e-6
    )
    if p_ref >= p[i]:
        return float(t_ref), float(p_ref)
    return float(ts[i]), float(p[i])
