"""Single-excitation dynamics of an open spin chain.

Everything in this package works in natural units: hbar = 1 and energies in
units of the exchange coupling J, so J = 1 and one time unit is hbar/J.

Sign convention: time evolution is exp(-i H t).  Transfer probabilities and
every quantity measured by the protocol depend only on |amplitude|^2 or on
products of amplitudes along one branch, so the opposite convention would give
identical observables.

The chain Hamiltonian (Pauli matrices, open boundary) is

    H = -sum_n [sx_n sx_{n+1} + sy_n sy_{n+1} + delta * sz_n sz_{n+1}]  -  E_g

with sz|excited> = +|excited> and E_g the fully-polarized ground energy, so
the zero-excitation state sits exactly at energy zero and accrues no phase.
There is no Zeeman term: a uniform B sum_n sz_n adds 2B per excitation, and
every dual-rail state carries exactly one, so it is a global phase.
Restricted to the single-excitation subspace span{|n>} this is a real
symmetric tridiagonal matrix: off-diagonal -2, diagonal
2*delta*(bonds touching site n).
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

_PHYSICAL_MEMORY_BYTES = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
# Peak memory of ``diagonalize`` per N^2, as peak-RSS growth of eigh_tridiagonal in a
# fresh process at one BLAS thread (scipy 1.17, x86-64): 2.24 x the 8 N^2 bytes of the
# eigenvectors at N = 1000, falling to 2.03 x at N = 6400, rounded up.
_EIGENSOLVE_BYTES = 20


def require_physical_memory(n_bytes: float, what: str) -> None:
    """Raise ValueError when ``what``, sized before it is allocated, exceeds physical memory."""
    if n_bytes > _PHYSICAL_MEMORY_BYTES:
        # an int past the float range would not divide; its size reads inf
        gigabytes = n_bytes / 1e9 if n_bytes < sys.float_info.max else math.inf
        raise ValueError(
            f"{what} would take {gigabytes:.3g} GB, "
            f"more than the {_PHYSICAL_MEMORY_BYTES / 1e9:.3g} GB of physical memory"
        )


def require_int(value, name: str, minimum: int) -> int:
    """``value`` as a Python int; ValueError unless it is an integer >= ``minimum`` (bools are not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an int >= {minimum}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ChainSpec:
    """Physical definition of one open XXZ chain.

    Parameters
    ----------
    n_sites : number of spins, an int (or numpy integer, stored as int) >= 2.
    anisotropy : z-coupling multiplier delta (1 = isotropic Heisenberg).

    A chain whose eigensolve would not fit in physical memory is rejected
    here, before anything allocates it: the solve peaks at over twice the
    8 N^2 bytes of its N x N float64 eigenvector matrix.
    """

    n_sites: int
    anisotropy: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_sites", require_int(self.n_sites, "n_sites", 2))
        require_physical_memory(_EIGENSOLVE_BYTES * self.n_sites**2,
                                f"the eigensolve of n_sites={self.n_sites}")
        if not math.isfinite(self.anisotropy):
            raise ValueError(f"anisotropy must be finite, got {self.anisotropy}")


@dataclass(frozen=True)
class SectorHamiltonian:
    """Real symmetric tridiagonal matrix of the single-excitation sector."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray

    def to_dense(self) -> np.ndarray:
        h = np.diag(self.diagonal)
        h += np.diag(self.off_diagonal, 1) + np.diag(self.off_diagonal, -1)
        return h


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a SectorHamiltonian.

    ``energies`` ascending; ``modes[:, k]`` is the orthonormal eigenvector of
    ``energies[k]``, its sign the eigensolver's: each output multiplies two entries of
    one column, so none sees it.  The end rows ``sender`` = v(1) and ``receiver`` =
    v(N) are all the O(N) engine reads; ``modes`` has one reader, ``transition_amplitude``.
    Immutable; safe to share across threads.
    """

    energies: np.ndarray
    modes: np.ndarray
    sender: np.ndarray
    receiver: np.ndarray

    @property
    def n_sites(self) -> int:
        return len(self.energies)


def build_sector_hamiltonian(spec: ChainSpec) -> SectorHamiltonian:
    """Single-excitation block of the shifted chain Hamiltonian.

    For the isotropic chain (delta=1) the diagonal is 2 at the two ends
    and 4 in the interior with off-diagonal -2; the all-ones vector is then
    a zero mode (the k=0 magnon costs no energy after the ground shift).
    """
    n = spec.n_sites
    bonds = np.full(n, 2.0)
    bonds[0] = bonds[-1] = 1.0
    diagonal = 2.0 * spec.anisotropy * bonds
    off_diagonal = np.full(n - 1, -2.0)
    return SectorHamiltonian(diagonal=diagonal, off_diagonal=off_diagonal)


def diagonalize(h: SectorHamiltonian) -> SpectralDecomposition:
    """Full eigensystem of the tridiagonal sector matrix."""
    energies, modes = eigh_tridiagonal(h.diagonal, h.off_diagonal)
    modes.setflags(write=False)
    energies.setflags(write=False)
    return SpectralDecomposition(energies, modes, sender=modes[0, :], receiver=modes[-1, :])


def time_scale(n_sites: int) -> float:
    """Time scale T = N hbar/J of the uniform chain; every default time is a multiple of it.

    The far end's first arrival (``first_peak``) lies between 0.25 T and 0.40 T:
    0.393 T at N = 2, 0.306 T at N = 7, 0.278 T at N = 20 and 0.252 T at N = 1000.
    It tends to T/4 because the fastest magnons, E_k = 4J(1 - cos k), cross 4
    sites per hbar/J.  The defaults are:

    * ``default_window``, the greedy search window: (0.05 T, 1.5 T);
    * the ``uniform_schedule`` interval and the ``p_infinity_estimate`` spacing: T;
    * the end of ``first_peak``'s scan: 0.75 T;
    * the ``amplitude`` command's default ``--t-max``: 1.5 T.
    """
    return float(n_sites)


def require_finite_phases(energies: np.ndarray, t: float) -> None:
    """ValueError unless every phase E_k t of the ascending ``energies`` is finite; O(1)."""
    if not math.isfinite(max(abs(energies.item(0)), abs(energies.item(-1))) * float(t)):
        raise ValueError(f"the phases E*t are not finite at t = {t:g} (an overflow or a NaN time)")


def advance_clock(time: float, tau: float) -> float:
    """The clock time + tau after one evolution interval; ValueError unless tau > 0 and both are finite."""
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"evolution interval must be finite and positive, got {tau}")
    if not math.isfinite(time + tau):
        raise ValueError(f"the run's clock overflows at t = {time:g} + {tau:g}")
    return time + tau


def require_site(site, n_sites: int) -> int:
    """``site`` as an int in 1..``n_sites``; ValueError otherwise (bools and floats are not sites)."""
    site = require_int(site, "site", 1)
    if site > n_sites:
        raise ValueError(f"site must be in 1..{n_sites}, got {site}")
    return site


def transition_amplitude(dec: SpectralDecomposition, r: int, s: int, t: float) -> complex:
    """Amplitude <r| exp(-i H t) |s> between site-excitation states (1-based)."""
    r, s = require_site(r, dec.n_sites), require_site(s, dec.n_sites)
    require_finite_phases(dec.energies, t)
    w = dec.modes[r - 1, :] * dec.modes[s - 1, :]
    return complex(np.sum(w * np.exp(-1j * dec.energies * t)))


# The step of every refined scan (greedy's window, first_peak), in hbar/J.  At delta = 1
# the phase sums beat no faster than the spectrum's width of 8 J/hbar, so the step puts
# about 16 points in each beat period, and PhaseGrid.refine brackets +- one step.
SCAN_STEP = 0.05


def grid_points(t_lo: float, t_hi: float, step: float) -> int:
    """Number G of grid points t_lo + j*step that reach t_hi, allowing 1e-9 step of rounding."""
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"a grid step must be finite and > 0, got {step}")
    span = (t_hi - t_lo) / step
    if not math.isfinite(span):
        raise ValueError(f"a grid from {t_lo} to {t_hi} at step {step} has no finite size")
    return math.floor(span + 1e-9) + 1


# PhaseGrid.sums runs as a non-uniform FFT from this many modes on, else as the
# factored table.  A greedy scan (G = 29N) sums in about the same time both ways near
# N = 300, 0.33 ms by the table and 0.27 by the FFT; at N = 1000 the table takes
# 3.5 ms, the FFT 1.1 (one BLAS thread).  The point count picks no route: building
# and summing 600 points, the table takes 0.22 ms at N = 300 and 0.62 ms at N = 1000,
# the FFT 0.37 and 0.96; the table wins below about 2,000 and 1,500 points, on grids
# no default 300+ mode scan has (the shortest, first_peak's, has 15N >= 4,500).
_NUFFT_MIN_MODES = 300
# Gaussian kernel half-width in fine-grid cells, and the fine grid's oversampling
_NUFFT_HALF_WIDTH = 15
_NUFFT_OVERSAMPLING = 2
# 1/(2 pi) as the unevaluated sum hi + lo of two doubles
_INV_TWO_PI = (0.15915494309189535, -9.839338337591243e-18)


def two_product(a, b):
    """(p, e) with p = fl(a*b) and p + e = a*b exactly (Dekker's product, Veltkamp's split),
    for |a|, |b|, |a*b| < 2^1023 and a*b = 0 or |a*b| >= 2^-969: past the top a split or a
    partial product overflows (a near the largest double gives a NaN e), below it one underflows.
    """
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _split(a):
    """a = hi + lo, hi holding the top 26 bits of a's significand, for finite |a| < 2^1023:
    split on the mantissa, nothing overflows but hi, which rounds up to 2^1024 for an |a|
    within a relative 2^-27 of it."""
    mantissa, exponent = np.frexp(a)
    c = 134217729.0 * mantissa  # 2**27 + 1
    hi = c - (c - mantissa)
    return np.ldexp(hi, exponent), np.ldexp(mantissa - hi, exponent)


def _fft_size(n: int, multiple: int) -> int:
    """Smallest multiple * 2^a * 3^b * 5^c >= n, a length numpy's FFT factors quickly."""
    best = multiple * n
    f5 = multiple
    while f5 < best:
        f35 = f5
        while f35 < best:
            size = f35
            while size < n:
                size *= 2
            best = min(best, size)
            f35 *= 3
        f5 *= 5
    return best


def _phase_tables(energies: np.ndarray, *grids: tuple[float, float, int]) -> list[np.ndarray]:
    """For each (t0, dt, count) of ``grids``, exp(-i E_k (t0 + dt*j)) for j < count, (count x modes).

    With R = ceil(sqrt(count)), A = ceil(count/R) and j = a*R + r, row j is
    exp(-i E (t0 + dt*R*a)) * exp(-i E dt*r): the A + R factor rows of every
    table come from one ``np.exp`` and meet in one broadcast product, so each
    entry carries one rounding more than its own exponential, however large j is.
    """
    shapes, times = [], []
    for t0, dt, count in grids:
        r = math.isqrt(count - 1) + 1
        a = -(-count // r)
        shapes.append((a, r, count))
        times += (t0 + dt * r * np.arange(a), dt * np.arange(r))
    factors = np.exp(np.outer(np.concatenate(times), -1j * energies))
    tables, start = [], 0
    for a, r, count in shapes:
        outer, inner = factors[start:start + a], factors[start + a:start + a + r]
        tables.append((outer[:, None] * inner).reshape(a * r, -1)[:count])
        start += a + r
    return tables


class PhaseGrid:
    """Phase sums S(t_j) = sum_k w_k exp(-i E_k t_j) on ``times`` t_j = t_lo + j*step, j < G.

    The one time grid of every scan, G = ``grid_points(t_lo, t_hi, step)``,
    and the one owner of its peaks: ``peaks`` finds the local maxima of a scan
    and ``refine`` polishes one of them, so a caller keeps only its pick rule.
    The grid builds the ``_TaylorBasis`` of its step on its first ``refine``,
    about 44 us at N = 10-200 (one 2-vCPU Xeon core), so a scan that never
    refines, such as the 'amplitude' curve, does not build it.

    The (G x modes) table exp(-i E t_j) is never formed; ``sums`` takes one of
    two routes, chosen here from the mode count alone:

    * Below ``_NUFFT_MIN_MODES`` modes, a factored table.  With B = ceil(sqrt(G)),
      Q = ceil(G/B) and j = q*B + m,
      exp(-i E t_j) = base[q] * inner[m], where base = exp(-i E (t_lo + step*B*q))
      is (Q x modes) and inner = exp(-i E step*m) is (B x modes).  The grid
      holds (B+Q)*modes entries, O(modes * sqrt(G)), and ``_phase_tables``
      builds them from about 2 (sqrt(Q) + sqrt(B)) rows of exponentials,
      O(modes * G**(1/4)): 7,200 instead of 30,600 on greedy's window at N = 200.
      Every entry stays within 4u (1 + |E t_j|) of exp(-i E t_j), about the
      direct exponential's own phase rounding (2.5u measured at N = 200 and
      299, unit roundoff u).  Each ``sums`` is one cache-resident matrix
      product, O(G * modes).
    * Otherwise a type-1 non-uniform FFT with Gaussian gridding (Greengard &
      Lee, SIAM Rev. 46, 443 (2004)).  With the centre index j0,
      S(t_{j0+m}) = sum_k c_k exp(-i omega_k m) for omega_k = E_k*step and
      c_k = w_k exp(-i E_k (t_lo + step*j0)).  ``sums`` spreads each c_k onto
      2*_NUFFT_HALF_WIDTH cells of a periodic fine grid of M >= 2G points,
      takes one ``np.fft.fft`` and divides out the Gaussian's transform:
      O(modes + G log G) time and O(modes + G) memory.  Each mode's position
      on the fine grid and its centre phase are formed to double-double
      precision, so the sums are within 1e-14 * sum|w| of exact arithmetic,
      several times closer than the factored table (6e-14 at N = 1000-2000).
    """

    def __init__(self, energies: np.ndarray, t_lo: float, t_hi: float, step: float):
        n_points = grid_points(t_lo, t_hi, step)
        if n_points < 1:
            raise ValueError(f"grid needs at least one point, got {n_points}")
        require_finite_phases(energies, max(abs(t_lo), abs(t_hi)))
        self.times = t_lo + step * np.arange(n_points)
        self._energies, self._t_lo, self._t_hi, self._step = energies, t_lo, t_hi, step
        self._taylor = None  # built by the first refine
        self._fft_size = 0
        if len(energies) >= _NUFFT_MIN_MODES:
            self._plan_nufft(energies, t_lo, step)
            return
        b = math.isqrt(n_points - 1) + 1
        q = -(-n_points // b)
        self._base, inner = _phase_tables(energies, (t_lo, step * b, q), (0.0, step, b))
        self._inner = inner.T

    def _plan_nufft(self, energies: np.ndarray, t_lo: float, step: float) -> None:
        sigma, half = _NUFFT_OVERSAMPLING, _NUFFT_HALF_WIDTH
        m = _fft_size(sigma * len(self.times), 2 * sigma)
        centre = m // (2 * sigma)  # outputs j - centre span [-M/(2 sigma), M/(2 sigma))
        tau = math.pi * half / ((2 * centre) ** 2 * sigma * (sigma - 0.5))
        # omega_k in fine-grid cells, u = E*step*M/(2 pi), as hi + lo: its whole
        # cells and its fraction, the fraction exact to 1e-16 while u < 2**52
        s, s_err = two_product(step, float(m))
        k, k_err = two_product(s, _INV_TWO_PI[0])
        k_err += s * _INV_TWO_PI[1] + s_err * _INV_TWO_PI[0]
        u, u_err = two_product(energies, k)
        whole = np.floor(u)
        frac = (u - whole) + (u_err + energies * k_err)
        carry = np.floor(frac)  # -1 when u_err takes an integer u below it; large past 2**52 cells
        frac -= carry
        cell = np.mod(whole + carry, m)  # the grid is periodic in M cells
        offsets = np.arange(1 - half, half + 1)
        d = (frac[:, None] - offsets) * (2.0 * math.pi / m)
        self._spread = np.exp(d * d / (-4.0 * tau))
        cells = (cell.astype(np.int64)[:, None] + offsets) % m
        self._slots = (2 * cells[:, :, None] + np.arange(2)).ravel()  # real, imag of each cell
        # exp(-i E t_lo) from E*t_lo as hi + lo, and exp(-i omega centre) = exp(-i pi u / sigma)
        theta, theta_err = two_product(energies, t_lo)
        self._phase = (np.exp(-1j * theta) * np.exp(-1j * theta_err)
                       * np.exp(-1j * math.pi / sigma * (np.mod(cell, 2 * sigma) + frac)))
        j = np.arange(len(self.times)) - centre
        self._deconv = math.sqrt(math.pi / tau) / m * np.exp(tau * j * j)
        self._fft_size, self._centre = m, centre

    def sums(self, weights: np.ndarray) -> np.ndarray:
        """S(t_j) for every grid point, shape (G,)."""
        n_points = len(self.times)
        if not self._fft_size:
            return ((self._base * weights) @ self._inner).ravel()[:n_points]
        spread = (self._spread * (weights * self._phase)[:, None]).view(float).ravel()
        fine = np.fft.fft(np.bincount(self._slots, spread, 2 * self._fft_size).view(complex))
        m, centre = self._fft_size, self._centre
        return np.concatenate((fine[m - centre:], fine[: n_points - centre])) * self._deconv

    @staticmethod
    def peaks(values: np.ndarray) -> np.ndarray:
        """Ascending indices of the local maxima of ``values``, one value per grid point.

        A plateau counts at its first point, so ties go to the earlier time; an
        end point counts when it beats its one neighbour.
        """
        left = np.empty_like(values)
        right = np.empty_like(values)
        left[0], left[1:] = -np.inf, values[:-1]
        right[-1], right[:-1] = -np.inf, values[1:]
        return np.nonzero((values > left) & (values >= right))[0]

    def refine(self, w: np.ndarray, decay: float, j: int, value: float) -> tuple[float, float]:
        """(t, value) of the peak at grid point j of exp(decay*t) |S(t)|^2, ``value`` its grid value.

        Golden section on the exact ``_phase_sum_objective`` over t_j +- step,
        clipped to [t_lo, t_hi], with the Taylor model of this grid's step.
        Golden section assumes one maximum in the bracket, so the grid point
        is kept unless the refined value is strictly greater.
        """
        t_grid = float(self.times[j])
        a = max(self._t_lo, t_grid - self._step)
        b = min(self._t_hi, t_grid + self._step)
        if self._taylor is None:
            self._taylor = _TaylorBasis(self._energies, self._step)
        f = _phase_sum_objective(self._energies, w, decay)
        t, refined = _golden_max(f, a, b, self._taylor.model(w, decay, a, b))
        return (float(t), float(refined)) if refined > value else (t_grid, float(value))


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_REFINE_TOL = 1e-6


def _golden_max(f, a: float, b: float, model) -> tuple[float, float]:
    """Golden-section maximization of f on [a, b] to interval width _REFINE_TOL.

    Its one caller is ``PhaseGrid.refine``, with f its ``_phase_sum_objective``,
    so every refined peak has the same precision.

    ``model(t)`` returns (value, bound) with |value - f(t)| <= bound, from
    ``_TaylorBasis.model``.  A comparison f(c) >= f(d) is decided on the model
    only when the two values differ by more than the sum of their bounds;
    otherwise both points are evaluated with f, and an f value has bound 0.  So
    every decision, and with it (x, f(x)), is the one that f alone would give,
    at about 4-7 evaluations of f per refine on the default chain instead of 27.
    """
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    (fc, ec), (fd, ed) = model(c), model(d)
    while (b - a) > _REFINE_TOL:
        if not abs(fc - fd) > ec + ed:  # also taken for a NaN or infinite bound
            if ec:
                fc, ec = f(c), 0.0
            if ed:
                fd, ed = f(d), 0.0
        if fc >= fd:
            b, d, fd, ed = d, c, fc, ec
            c = b - _INV_GOLDEN * (b - a)
            fc, ec = model(c)
        else:
            a, c, fc, ec = c, d, fd, ed
            d = a + _INV_GOLDEN * (b - a)
            fd, ed = model(d)
    x = 0.5 * (a + b)
    return x, f(x)


_TAYLOR_DEGREE = 12
_UNIT_ROUNDOFF = 2.0**-53
# the spacing of subnormal floats: a product that underflows rounds by half of it
_SUBNORMAL_SPACING = 2.0**-1074
# each model bound is this multiple of the rounding analysis in _TaylorBasis
_MODEL_SAFETY = 4.0


class _TaylorBasis:
    """Local models of ``_phase_sum_objective`` on brackets of half-width <= h.

    Built once per ``PhaseGrid``, with h its step.
    With Ebar = (E_min + E_max)/2, x_k = (E_k - Ebar) h and a bracket midpoint
    t0, the degree-12 Taylor expansion in sigma = (t - t0)/h, |sigma| <= 1, is

        |sum_k w_k exp(-i E_k t)| ~ |T| = |sum_j a_j sigma^j|,
        a_j = sum_k rows[j, k] w_k exp(-i (E_k - Ebar) t0),  rows[j, k] = (-i x_k)^j / j!,

    one exponential pass and one 13 x N product per model.  With r = max|x_k|
    and u the unit roundoff, |T| is within

        eps = sum|w| r^13 / 13!                               (the Taylor remainder)
            + (2N + 128) u e^r sum|w|            (products, sums, Horner, exponentials)
            + u max(|a|, |b|, |t0|) sum_k |w_k| (2 e^r |E_k - Ebar| + |E_k|)   (phases)

    of the sum that ``_phase_sum_objective`` computes in floats; the phase term
    holds the exact evaluator's fl(E_k t), its largest error.  The objective
    D |S|^2, D = exp(decay t) <= 1, is then within
    D ((2|T| + eps) eps + 8u (|T| + eps)^2) + 2s: both D (|.|^2) round relative
    to themselves or, where they underflow, by up to the subnormal spacing s.
    From r = 8 on the remainder alone exceeds sum|w|, so no rows are built and
    every comparison goes to f.
    """

    def __init__(self, energies: np.ndarray, half_width: float):
        self._half_width = half_width
        shift = energies - 0.5 * (energies[0] + energies[-1])
        radius = half_width * max(abs(shift[0]), abs(shift[-1]))
        self._rows = None
        if radius >= 8.0:
            return
        m, growth = _TAYLOR_DEGREE, math.exp(radius)
        self._rates = -1j * shift
        rows = np.empty((m + 1, len(energies)), complex)
        rows[0] = 1.0
        for j in range(1, m + 1):
            rows[j] = rows[j - 1] * (half_width / j) * self._rates
        self._rows = rows
        self._per_weight = (radius ** (m + 1) / math.factorial(m + 1)
                            + (2 * len(energies) + 8 * m + 32) * _UNIT_ROUNDOFF * growth)
        self._phase_scale = _UNIT_ROUNDOFF * (2.0 * growth * np.abs(shift) + np.abs(energies))

    def model(self, w: np.ndarray, decay: float, a: float, b: float):
        """t -> (value, bound) for ``_phase_sum_objective(energies, w, decay)`` on [a, b].

        bound >= |value - f(t)| for every t in [a, b]; ValueError if the
        bracket is wider than 2h.
        """
        h = self._half_width
        if b - a > 2.0 * h * (1.0 + 1e-9):
            raise ValueError(f"bracket [{a}, {b}] is wider than the basis' 2 * {h}")
        if self._rows is None:
            return lambda t: (0.0, math.inf)
        t0 = 0.5 * (a + b)
        coefs = self._rows @ (w * np.exp(self._rates * t0))
        weight = np.abs(w)
        eps = (self._per_weight * float(weight.sum())
               + float(weight @ self._phase_scale) * max(abs(a), abs(b), abs(t0)))
        # with |T| <= sum|a_j| = A: 8u (|T| + eps)^2 <= 8u (|T| + eps)(A + eps), so the
        # bound is D (slope |T| + offset), linear in |T|
        square = 8.0 * _UNIT_ROUNDOFF * (float(np.abs(coefs).sum()) + eps)
        slope = _MODEL_SAFETY * (2.0 * eps + square)
        offset = _MODEL_SAFETY * eps * (eps + square)
        underflow = _MODEL_SAFETY * 2.0 * _SUBNORMAL_SPACING
        coefs = coefs.tolist()[::-1]
        inv_h = 1.0 / h

        def evaluate(t: float) -> tuple[float, float]:
            s = (t - t0) * inv_h
            acc = 0j
            for coef in coefs:
                acc = acc * s + coef
            mag = abs(acc)
            damp = math.exp(decay * t)
            return damp * (mag * mag), damp * (slope * mag + offset) + underflow

        return evaluate


def _phase_sum_objective(energies: np.ndarray, w: np.ndarray, decay: float = 0.0):
    """t -> exp(decay*t) * |sum_k w_k exp(-i E_k t)|^2, the exact objective of every golden refine.

    Bit-identical to that literal expression: only -i E is hoisted out of the closure.
    """
    rates = -1j * energies

    def f(t: float) -> float:
        return math.exp(decay * t) * abs((w * np.exp(rates * t)).sum()) ** 2

    return f


def first_peak(dec: SpectralDecomposition) -> tuple[float, float]:
    """Location and height of the first-arrival maximum of |f_{N,1}(t)|^2.

    Scans t in (0, 0.75 T], T = ``time_scale(N)``, on a ``PhaseGrid`` of step
    ``SCAN_STEP`` from t = ``SCAN_STEP`` on, 15N points, and refines its
    largest interior peak with ``PhaseGrid.refine``.  Interior excludes the
    scan's first and last points, whose rise may continue outside the scan;
    ValueError if there is no interior peak.
    """
    grid = PhaseGrid(dec.energies, SCAN_STEP, 0.75 * time_scale(dec.n_sites), SCAN_STEP)
    w = dec.receiver * dec.sender
    p = np.abs(grid.sums(w)) ** 2
    peaks = grid.peaks(p)
    interior = peaks[(peaks > 0) & (peaks < len(p) - 1)]
    if len(interior) == 0:
        raise ValueError(f"|f_N1(t)|^2 has no interior maximum in (0, {grid.times[-1]:g}]")
    i = int(interior[np.argmax(p[interior])])
    return grid.refine(w, 0.0, i, p[i])
