"""Unit tests of the single-excitation sector: structure, spectra, dynamics."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from dualrail.chain_core import (
    ChainSpec,
    build_sector_hamiltonian,
    diagonalize,
    first_peak,
    grid_transition_amplitudes,
    propagator_matrix,
    transition_amplitude,
    transition_amplitudes,
)
from dualrail.scheduler import _EndpointObjective


class TestChainSpec:
    def test_defaults(self):
        spec = ChainSpec(5)
        assert spec.coupling == 1.0
        assert spec.anisotropy == 1.0
        assert spec.field == 0.0

    @pytest.mark.parametrize("n", [0, 1, -3])
    def test_rejects_short_chains(self, n):
        with pytest.raises(ValueError, match="n_sites"):
            ChainSpec(n)

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ValueError, match="coupling"):
            ChainSpec(4, coupling=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_parameters(self, bad):
        with pytest.raises(ValueError, match="coupling"):
            ChainSpec(4, coupling=bad)
        with pytest.raises(ValueError, match="anisotropy"):
            ChainSpec(4, anisotropy=bad)
        with pytest.raises(ValueError, match="field"):
            ChainSpec(4, field=bad)


class TestSectorHamiltonian:
    def test_two_site_matrix(self):
        h = build_sector_hamiltonian(ChainSpec(2))
        np.testing.assert_allclose(h.diagonal, [2.0, 2.0])
        np.testing.assert_allclose(h.off_diagonal, [-2.0])

    def test_three_site_matrix(self):
        h = build_sector_hamiltonian(ChainSpec(3))
        np.testing.assert_allclose(h.diagonal, [2.0, 4.0, 2.0])
        np.testing.assert_allclose(h.off_diagonal, [-2.0, -2.0])

    def test_anisotropy_and_field_enter_diagonal_only(self):
        h = build_sector_hamiltonian(ChainSpec(4, anisotropy=0.5, field=0.3))
        np.testing.assert_allclose(h.diagonal, [1.6, 2.6, 2.6, 1.6])
        np.testing.assert_allclose(h.off_diagonal, [-2.0, -2.0, -2.0])

    def test_coupling_scales_everything_but_field(self):
        h = build_sector_hamiltonian(ChainSpec(3, coupling=2.0, field=0.25))
        np.testing.assert_allclose(h.diagonal, [4.5, 8.5, 4.5])
        np.testing.assert_allclose(h.off_diagonal, [-4.0, -4.0])

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

    def test_sign_convention_deterministic(self, dec_cache):
        dec = dec_cache(8)
        for k in range(8):
            col = dec.modes[:, k]
            lead = col[np.argmax(np.abs(col) > 1e-8)]
            assert lead > 0

    @pytest.mark.parametrize("n", [2, 8, 57, 300])
    @pytest.mark.parametrize("delta, field", [(1.0, 0.0), (0.5, 0.3), (1.7, -0.2)])
    def test_sign_flip_matches_column_loop(self, n, delta, field):
        h = build_sector_hamiltonian(ChainSpec(n, anisotropy=delta, field=field))
        _, expected = eigh_tridiagonal(h.diagonal, h.off_diagonal)
        for k in range(n):
            col = expected[:, k]
            if col[np.argmax(np.abs(col) > 1e-8)] < 0:
                expected[:, k] = -col
        assert diagonalize(h).modes.tobytes() == expected.tobytes()

    def test_field_shifts_all_energies_equally(self):
        base = diagonalize(build_sector_hamiltonian(ChainSpec(5)))
        shifted = diagonalize(build_sector_hamiltonian(ChainSpec(5, field=0.7)))
        np.testing.assert_allclose(shifted.energies, base.energies + 1.4, atol=1e-12)

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

    def test_vectorized_matches_scalar(self, dec_cache):
        dec = dec_cache(7)
        ts = np.linspace(0.0, 8.0, 17)
        batch = transition_amplitudes(dec, 7, 1, ts)
        single = [transition_amplitude(dec, 7, 1, float(t)) for t in ts]
        np.testing.assert_allclose(batch, single, atol=1e-13)

    def test_site_validation(self, dec_cache):
        dec = dec_cache(4)
        with pytest.raises(ValueError, match="site index"):
            transition_amplitude(dec, 0, 1, 1.0)
        with pytest.raises(ValueError, match="site index"):
            transition_amplitude(dec, 1, 5, 1.0)


class TestPhaseGrid:
    # 16/289 are perfect squares, 17/290 leave a ragged last block
    @pytest.mark.parametrize("n", [2, 7, 50])
    @pytest.mark.parametrize("t0", [0.0, 0.37])
    @pytest.mark.parametrize("n_points", [1, 2, 3, 16, 17, 289, 290])
    def test_matches_transition_amplitudes(self, dec_cache, n, t0, n_points):
        dec = dec_cache(n)
        step = 0.05
        got = grid_transition_amplitudes(dec, n, 1, t0, step, n_points)
        expected = transition_amplitudes(dec, n, 1, t0 + step * np.arange(n_points))
        assert got.shape == (n_points,)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_rejects_empty_grid(self, dec_cache):
        with pytest.raises(ValueError, match="grid"):
            grid_transition_amplitudes(dec_cache(3), 3, 1, 0.0, 0.1, 0)

    def test_greedy_objective_memory_is_sublinear_in_grid(self, dec_cache):
        # the default window at N = 1000 has G = 29001 grid points; a dense
        # (G x N) complex table would hold 464 MB
        dec = dec_cache(1000)
        tracemalloc.start()
        try:
            objective = _EndpointObjective(dec, 0.0)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert objective.taus.size == 29001
        assert held < 16 * 2**20


class TestPropagator:
    def test_unitary(self, dec_cache):
        f = propagator_matrix(dec_cache(6), 2.5)
        np.testing.assert_allclose(f @ f.conj().T, np.eye(6), atol=1e-12)

    def test_composition(self, dec_cache):
        dec = dec_cache(5)
        np.testing.assert_allclose(
            propagator_matrix(dec, 1.2) @ propagator_matrix(dec, 0.8),
            propagator_matrix(dec, 2.0),
            atol=1e-12,
        )

    def test_negative_time_rejected(self, dec_cache):
        with pytest.raises(ValueError, match="tau"):
            propagator_matrix(dec_cache(3), -0.1)


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
