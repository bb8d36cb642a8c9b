"""Unit tests of the single-excitation sector: structure, spectra, dynamics."""

import dataclasses
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from dualrail import chain_core
from dualrail.chain_core import (
    _NUFFT_MIN_MODES,
    SCAN_STEP,
    ChainSpec,
    PhaseGrid,
    SectorHamiltonian,
    SpectralDecomposition,
    build_sector_hamiltonian,
    diagonalize,
    first_peak,
    grid_points,
    time_scale,
    transition_amplitude,
)
from dualrail.protocol import NoiseParams, run_schedule
from dualrail.scheduler import _EndpointObjective, greedy_run


class TestChainSpec:
    def test_defaults(self):
        spec = ChainSpec(5)
        assert spec.anisotropy == 1.0

    def test_fields(self):
        # J is the unit of energy, and a uniform z-field is a global phase on
        # the dual rail's one excitation, so neither is a parameter
        names = {f.name for f in dataclasses.fields(ChainSpec)}
        assert names == {"n_sites", "anisotropy"}

    @pytest.mark.parametrize("n", [0, 1, -3])
    def test_rejects_short_chains(self, n):
        with pytest.raises(ValueError, match="n_sites"):
            ChainSpec(n)

    @pytest.mark.parametrize("n", [2.5, 5.0, True])
    def test_rejects_non_integer_lengths(self, n):
        with pytest.raises(ValueError, match="n_sites must be an int"):
            ChainSpec(n)

    def test_accepts_numpy_integer_length(self):
        spec = ChainSpec(np.int64(5))
        assert spec.n_sites == 5 and type(spec.n_sites) is int

    def test_rejects_chain_too_large_for_memory(self):
        # 8 N^2 bytes of eigenvectors at N = 10^7 is 800 TB
        with pytest.raises(ValueError, match="physical memory"):
            ChainSpec(10**7)

    def test_rejects_chain_whose_eigensolve_exceeds_memory(self):
        # the 8 N^2 bytes of eigenvectors fit, but the solve peaks at over twice
        # that; building the spec allocates nothing, so no such chain is solved
        n = math.isqrt(chain_core._PHYSICAL_MEMORY_BYTES // 8)
        assert 8 * n**2 <= chain_core._PHYSICAL_MEMORY_BYTES
        with pytest.raises(ValueError, match="physical memory"):
            ChainSpec(n)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_parameters(self, bad):
        with pytest.raises(ValueError, match="anisotropy"):
            ChainSpec(4, anisotropy=bad)


class TestSectorHamiltonian:
    def test_two_site_matrix(self):
        h = build_sector_hamiltonian(ChainSpec(2))
        np.testing.assert_allclose(h.diagonal, [2.0, 2.0])
        np.testing.assert_allclose(h.off_diagonal, [-2.0])

    def test_three_site_matrix(self):
        h = build_sector_hamiltonian(ChainSpec(3))
        np.testing.assert_allclose(h.diagonal, [2.0, 4.0, 2.0])
        np.testing.assert_allclose(h.off_diagonal, [-2.0, -2.0])

    def test_anisotropy_enters_diagonal_only(self):
        h = build_sector_hamiltonian(ChainSpec(4, anisotropy=0.5))
        np.testing.assert_allclose(h.diagonal, [1.0, 2.0, 2.0, 1.0])
        np.testing.assert_allclose(h.off_diagonal, [-2.0, -2.0, -2.0])

    def test_to_dense_is_symmetric_tridiagonal(self):
        dense = build_sector_hamiltonian(ChainSpec(6)).to_dense()
        np.testing.assert_allclose(dense, dense.T)
        assert np.count_nonzero(np.triu(dense, 2)) == 0

    def test_isotropic_zero_mode(self):
        # after the ground-energy shift the uniform magnon costs nothing
        dense = build_sector_hamiltonian(ChainSpec(7)).to_dense()
        ones = np.ones(7)
        np.testing.assert_allclose(dense @ ones, np.zeros(7), atol=1e-12)


class TestDiagonalize:
    def test_two_site_spectrum(self):
        dec = diagonalize(build_sector_hamiltonian(ChainSpec(2)))
        np.testing.assert_allclose(dec.energies, [0.0, 4.0], atol=1e-12)

    def test_three_site_spectrum(self):
        dec = diagonalize(build_sector_hamiltonian(ChainSpec(3)))
        np.testing.assert_allclose(dec.energies, [0.0, 2.0, 6.0], atol=1e-12)

    def test_modes_orthonormal(self, dec_cache):
        dec = dec_cache(9)
        np.testing.assert_allclose(dec.modes.T @ dec.modes, np.eye(9), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 8, 57, 300])
    @pytest.mark.parametrize("delta, offset", [(1.0, 0.0), (0.5, 0.3), (1.7, -0.2)])
    def test_sign_flip_matches_column_loop(self, n, delta, offset):
        # no column's sign is flipped: the modes are eigh_tridiagonal's bytes, for
        # any real tridiagonal block, a uniformly offset diagonal too
        h = build_sector_hamiltonian(ChainSpec(n, anisotropy=delta))
        h = SectorHamiltonian(h.diagonal + offset, h.off_diagonal)
        energies, expected = eigh_tridiagonal(h.diagonal, h.off_diagonal)
        dec = diagonalize(h)
        assert dec.modes.tobytes() == expected.tobytes()
        assert dec.energies.tobytes() == energies.tobytes()

    @pytest.mark.parametrize("n", [7, 57, 300])
    def test_outputs_blind_to_column_signs(self, dec_cache, rng, n):
        # every output multiplies two entries of one column, so flipping the
        # signs of any columns changes no bit of any output
        dec = dec_cache(n)
        signs = rng.choice([-1.0, 1.0], size=n)
        signs[0] = -1.0
        modes = dec.modes * signs
        flipped = SpectralDecomposition(dec.energies, modes, modes[0, :], modes[-1, :])

        def outputs(d):
            t = 0.3 * n
            runs = [greedy_run(d, l_max=6), greedy_run(d, l_max=6, noise=NoiseParams(0.01)),
                    run_schedule(d, [0.4 * n, 0.7 * n, 0.2 * n], NoiseParams(0.01, 0.03))]
            amplitude = transition_amplitude(d, n, 1, t)
            grid = PhaseGrid(d.energies, 0.05 * n, 1.5 * n, 0.05)
            return (
                [[float.hex(float(x)) for r in run.records for x in tuple(r)]
                 for run in runs],
                [float.hex(x) for x in (*first_peak(d), amplitude.real, amplitude.imag)],
                grid.sums(d.receiver * d.sender).tobytes(),
            )

        assert outputs(flipped) == outputs(dec)

    def test_results_immutable(self, dec_cache):
        dec = dec_cache(4)
        with pytest.raises(ValueError):
            dec.energies[0] = 1.0


class TestTransitionAmplitude:
    def test_two_site_closed_form(self, dec_cache):
        # f_{2,1}(t) = (1 - exp(-4 i t)) / 2
        dec = dec_cache(2)
        for t in (0.1, 0.5, math.pi / 4, 2.3):
            expected = (1.0 - np.exp(-4j * t)) / 2.0
            assert transition_amplitude(dec, 2, 1, t) == pytest.approx(expected, abs=1e-12)

    def test_three_site_value(self, dec_cache):
        assert abs(transition_amplitude(dec_cache(3), 3, 1, math.pi / 2)) == pytest.approx(
            2.0 / 3.0, abs=1e-10
        )

    def test_symmetric_in_sites(self, dec_cache):
        dec = dec_cache(6)
        assert transition_amplitude(dec, 6, 2, 1.7) == pytest.approx(
            transition_amplitude(dec, 2, 6, 1.7), abs=1e-14
        )

    def test_identity_at_zero_time(self, dec_cache):
        dec = dec_cache(5)
        assert transition_amplitude(dec, 3, 3, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert transition_amplitude(dec, 4, 2, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_site_validation(self, dec_cache):
        dec = dec_cache(4)
        with pytest.raises(ValueError, match="^site must be"):
            transition_amplitude(dec, 0, 1, 1.0)
        with pytest.raises(ValueError, match="^site must be"):
            transition_amplitude(dec, 1, 5, 1.0)
        # a site is an integer, as a chain length is: no float, however whole, and no bool
        for r, s in ((2.5, 1), (True, 1), (1, 2.0), (1, np.bool_(True)), ("2", 1)):
            with pytest.raises(ValueError, match="^site must be"):
                transition_amplitude(dec, r, s, 1.0)
        assert transition_amplitude(dec, np.int64(4), 1, 1.0) == transition_amplitude(dec, 4, 1, 1.0)

    @pytest.mark.parametrize("t", [1e308, math.inf, math.nan])
    def test_non_finite_phase_rejected(self, dec_cache, t):
        # E_max = 7.2 at N = 5: E*t overflows or is NaN, so no NaN amplitude is returned
        message = f"the phases E*t are not finite at t = {t:g} (an overflow or a NaN time)"
        with pytest.raises(ValueError, match=re.escape(message)):
            transition_amplitude(dec_cache(5), 5, 1, t)


# (t_lo, t_hi) of the two refined scans: greedy's window and first_peak's grid
_TABLE_SCANS = {"greedy": lambda n: (0.05 * n, 1.5 * n), "first_peak": lambda n: (SCAN_STEP, 0.75 * n)}


class TestPhaseGrid:
    # 16/289 are perfect squares, 17/290/2000 leave a ragged last block; N = 299
    # is the largest chain the factored table sums, N = 300 and 400 go by the FFT
    @pytest.mark.parametrize("n", [2, 7, 50, 299, 300, 400])
    @pytest.mark.parametrize("t0", [0.0, 0.37])
    @pytest.mark.parametrize("n_points", [1, 2, 3, 16, 17, 289, 290, 2000])
    def test_matches_transition_amplitudes(self, dec_cache, n, t0, n_points):
        dec = dec_cache(n)
        step = 0.05
        grid = PhaseGrid(dec.energies, t0, t0 + step * (n_points - 1), step)
        assert bool(grid._fft_size) == (n >= _NUFFT_MIN_MODES)
        got = grid.sums(dec.modes[-1, :] * dec.modes[0, :])
        expected = [transition_amplitude(dec, n, 1, t0 + step * j) for j in range(n_points)]
        assert got.shape == grid.times.shape == (n_points,)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [10, 400])
    def test_taylor_basis_is_built_by_the_first_refine(self, dec_cache, monkeypatch, n):
        builds = []

        class Counted(chain_core._TaylorBasis):
            def __init__(self, *args):
                builds.append(args)
                super().__init__(*args)

        monkeypatch.setattr(chain_core, "_TaylorBasis", Counted)
        dec = dec_cache(n)
        w = dec.receiver * dec.sender
        grid = PhaseGrid(dec.energies, 0.0, 1.5 * n, 0.05)
        values = np.abs(grid.sums(w)) ** 2
        peaks = grid.peaks(values)
        assert builds == []  # a scan alone, as 'amplitude' makes, builds no basis
        for j in peaks[:3]:
            grid.refine(w, 0.0, int(j), values[j])
        assert len(builds) == 1

    @pytest.mark.parametrize("n", [400, 1000, 2000])
    def test_fft_sums_match_table(self, dec_cache, monkeypatch, rng, n):
        # the greedy window's grid, both ways, on random complex weights
        dec = dec_cache(n)
        window = (0.05 * n, 1.5 * n, 0.05)
        fft = PhaseGrid(dec.energies, *window)
        monkeypatch.setattr(chain_core, "_NUFFT_MIN_MODES", n + 1)
        table = PhaseGrid(dec.energies, *window)
        assert fft._fft_size and not table._fft_size
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.max(np.abs(fft.sums(w) - table.sums(w))) <= 1e-13 * np.sum(np.abs(w))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended long double")
    @pytest.mark.parametrize("n", [400, 2000])
    def test_fft_sums_match_extended_precision(self, dec_cache, rng, n):
        # the table's own phase rounding is most of the 1e-13 above; the FFT is
        # within 1e-14 of the exact sum, checked at both edges and a random sample
        dec = dec_cache(n)
        t_lo, step = 0.05 * n, 0.05
        grid = PhaseGrid(dec.energies, t_lo, 1.5 * n, step)
        g = len(grid.times)
        js = np.concatenate([np.arange(50), np.arange(g - 50, g), rng.integers(0, g, 100)])
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        t = np.longdouble(t_lo) + np.longdouble(step) * js.astype(np.longdouble)
        phase = np.outer(t, dec.energies.astype(np.longdouble))
        exact = (np.cos(phase) - 1j * np.sin(phase)) @ w.astype(np.clongdouble)
        assert np.max(np.abs(grid.sums(w)[js] - exact)) <= 1e-14 * np.sum(np.abs(w))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended long double")
    @pytest.mark.parametrize("n", [200, 299])
    @pytest.mark.parametrize("scan", _TABLE_SCANS)
    def test_table_sums_match_extended_precision(self, dec_cache, rng, n, scan):
        # the table route on greedy's window and first_peak's grid, at both edges and a
        # random sample: random weights are within 6e-14 * sum|w| (3.0e-14 measured),
        # and each mode alone within 4u (1 + |E t|) of exp(-i E t), about the direct
        # exponential's own phase rounding (2.2u with one exponential per entry, 2.5u
        # with square-root-many); rows built as running products or powers drift with
        # the row index, to 7-75u, though their random-weight sums pass the 6e-14
        dec = dec_cache(n)
        (t_lo, t_hi), step = _TABLE_SCANS[scan](n), SCAN_STEP
        grid = PhaseGrid(dec.energies, t_lo, t_hi, step)
        g = len(grid.times)
        assert not grid._fft_size
        js = np.concatenate([np.arange(50), np.arange(g - 50, g), rng.integers(0, g, 100)])
        t = np.longdouble(t_lo) + np.longdouble(step) * js.astype(np.longdouble)
        phase = np.outer(t, dec.energies.astype(np.longdouble))
        exact = np.cos(phase) - 1j * np.sin(phase)
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.max(np.abs(grid.sums(w)[js] - exact @ w.astype(np.clongdouble))) <= 6e-14 * np.sum(np.abs(w))
        modes = np.array([grid.sums(unit)[js] for unit in np.eye(n)]).T
        bound = 4.0 * 2.0**-53 * (1.0 + np.abs(phase))
        assert np.all(np.abs(modes - exact) <= bound)

    @pytest.mark.parametrize("scan", _TABLE_SCANS)
    def test_table_builds_from_square_root_many_exponentials(self, dec_cache, monkeypatch, scan):
        # the factored table holds (B + Q) N entries, 30,600 and 22,000 at N = 200; each
        # factor comes from about 2 sqrt(B) and 2 sqrt(Q) rows of exponentials, 7,200 and 6,000
        n, exp, counted = 200, np.exp, []

        def counting(x, *args, **kwargs):
            counted.append(np.size(x))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(chain_core.np, "exp", counting)
        grid = PhaseGrid(dec_cache(n).energies, *_TABLE_SCANS[scan](n), SCAN_STEP)
        g = len(grid.times)
        b = math.isqrt(g - 1) + 1
        q = -(-g // b)
        assert not grid._fft_size
        assert 3 * sum(counted) <= (b + q) * n

    @pytest.mark.parametrize("shift", [1e20, 1e300])
    def test_fft_sums_stay_finite_for_huge_energies(self, dec_cache, shift):
        # huge energies, all shifted alike: no step of the FFT plan may overflow
        dec = dec_cache(400)
        with np.errstate(over="raise", invalid="raise"):
            grid = PhaseGrid(dec.energies + shift, 0.0, 100.0, 0.05)
            sums = grid.sums(dec.modes[-1, :] * dec.modes[0, :])
        assert grid._fft_size and np.all(np.isfinite(sums))

    @pytest.mark.parametrize("step", [0.0, -0.05, math.nan, math.inf])
    def test_rejects_bad_step(self, step):
        with pytest.raises(ValueError, match="step"):
            grid_points(0.0, 1.0, step)
        with pytest.raises(ValueError, match="step"):
            PhaseGrid(np.zeros(1), 0.0, 1.0, step)

    @pytest.mark.parametrize("t_lo, t_hi", [(0.0, math.nan), (math.nan, 1.0)])
    def test_rejects_nan_grid_ends(self, dec_cache, t_lo, t_hi):
        with pytest.raises(ValueError, match="no finite size"):
            grid_points(t_lo, t_hi, 0.05)
        with pytest.raises(ValueError, match="no finite size"):
            PhaseGrid(dec_cache(5).energies, t_lo, t_hi, 0.05)

    @pytest.mark.parametrize("t_lo, t_hi", [(0.0, 1e308), (-1e308, 0.0)])
    def test_rejects_overflowing_phases(self, dec_cache, t_lo, t_hi):
        # E_max = 7.2 at N = 5, so a phase at |t| = 1e308 is inf and its sum NaN
        with pytest.raises(ValueError, match="overflow"):
            PhaseGrid(dec_cache(5).energies, t_lo, t_hi, 1e307)

    def test_rejects_empty_grid(self, dec_cache):
        with pytest.raises(ValueError, match="grid"):
            PhaseGrid(dec_cache(3).energies, 0.0, -0.1, 0.1)

    @settings(max_examples=300, deadline=None)
    @given(
        t_lo=st.floats(-1e3, 1e3),
        span=st.floats(0.0, 1e3),
        step=st.floats(1e-3, 10.0),
    )
    def test_times_reach_t_hi_and_stop_there(self, t_lo, span, step):
        t_hi = t_lo + span
        times = PhaseGrid(np.zeros(1), t_lo, t_hi, step).times
        assert len(times) == grid_points(t_lo, t_hi, step)
        # past t_hi only by the 1e-9 step of rounding slack, and short of it by less than a step
        assert times[-1] <= t_hi + 1e-9 * step + 1e-12 * max(1.0, abs(t_lo), abs(t_hi))
        assert t_hi - times[-1] < step

    def test_greedy_objective_memory_is_sublinear_in_grid(self, dec_cache):
        # the default window at N = 1000 has G = 29001 grid points; a dense
        # (G x N) complex table would hold 464 MB, the FFT plan holds about 1 MB
        dec = dec_cache(1000)
        tracemalloc.start()
        try:
            objective = _EndpointObjective(dec, 0.0)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert objective.grid.times.size == 29001
        assert held < 16 * 2**20


class TestFirstPeak:
    def test_two_site_perfect_transfer(self, dec_cache):
        t_peak, p_peak = first_peak(dec_cache(2))
        assert t_peak == pytest.approx(math.pi / 4, abs=1e-4)
        assert p_peak == pytest.approx(1.0, abs=1e-8)

    def test_peak_near_one_way_transit(self, dec_cache):
        # the first arrival rides the fastest magnons, t ~ N/4 in these units
        for n in (20, 40):
            t_peak, p_peak = first_peak(dec_cache(n))
            assert 0.15 * n < t_peak < 0.45 * n
            assert 0.0 < p_peak < 1.0

    def test_peak_height_decreases_with_length(self, dec_cache):
        heights = [first_peak(dec_cache(n))[1] for n in (10, 20, 40, 80)]
        assert all(a > b for a, b in zip(heights, heights[1:]))

    @pytest.mark.parametrize("n", [2, 3, 7, 20, 100, 1000])
    def test_first_arrival_in_units_of_time_scale(self, dec_cache, n):
        # the convention time_scale documents: 0.393 T at N = 2 down to 0.252 T at N = 1000
        assert 0.25 < first_peak(dec_cache(n))[0] / time_scale(n) < 0.40

    def test_no_interior_maximum_is_an_error(self):
        # at delta = 100 the three-site |f_31|^2 only rises over (0, 0.75 T] =
        # (0, 2.25]: the scan's end, 0.002 there, is no arrival to report
        dec = diagonalize(build_sector_hamiltonian(ChainSpec(3, anisotropy=100)))
        with pytest.raises(ValueError, match="no interior maximum"):
            first_peak(dec)


class TestTwoProduct:
    @pytest.mark.parametrize("k", [291, 292])
    def test_exact_at_the_largest_value_the_csv_kernel_scales(self, k):
        # the CSV kernel takes |x| < 2^1023 and multiplies it by 10^(16 - X), X = 307 or,
        # with log10's first guess one off, 308
        a = np.array([math.nextafter(2.0**1023, 0.0), -math.nextafter(2.0**1023, 0.0)])
        b = np.full(2, 1 / 10**k)  # an int / int quotient is correctly rounded
        with np.errstate(all="raise"):
            p, e = chain_core.two_product(a, b)
        assert np.all(np.isfinite(p)) and np.all(np.isfinite(e))
        for ai, bi, pi, ei in zip(a.tolist(), b.tolist(), p.tolist(), e.tolist()):
            assert Fraction(pi) + Fraction(ei) == Fraction(ai) * Fraction(bi)
            assert pi == ai * bi
