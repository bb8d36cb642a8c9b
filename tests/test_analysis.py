"""Unit tests of unit conversions, power-law fits, and figure datasets."""

import math

import numpy as np
import pytest

from dualrail import analysis


class TestUnitConversions:
    def test_round_trip(self):
        t = 123.4
        ns = analysis.natural_time_to_ns(t, 20.0)
        assert analysis.ns_to_natural_time(ns, 20.0) == pytest.approx(t, rel=1e-14)

    def test_one_natural_unit_at_one_kelvin(self):
        assert analysis.natural_time_to_ns(1.0, 1.0) == pytest.approx(
            analysis.HBAR_OVER_KB_NS_K
        )

    def test_gamma_from_figure_parameter(self):
        # J/Gamma = 50 K ns at J = hbar means Gamma = (hbar/k_B)/50 per natural time
        assert analysis.gamma_to_natural(50.0) == pytest.approx(
            analysis.HBAR_OVER_KB_NS_K / 50.0
        )

    def test_gamma_lab_rate(self):
        # inverse lifetime 1/4 ns at J = 20 K
        g = analysis.gamma_ns_to_natural(0.25, 20.0)
        assert g == pytest.approx(0.25 * analysis.HBAR_OVER_KB_NS_K / 20.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            analysis.natural_time_to_ns(1.0, 0.0)
        with pytest.raises(ValueError):
            analysis.gamma_to_natural(-1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="J/Gamma"):
                analysis.gamma_to_natural(bad)
        with pytest.raises(ValueError):
            analysis.gamma_ns_to_natural(-0.1, 20.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="coupling"):
            analysis.natural_time_to_ns(1.0, bad)
        with pytest.raises(ValueError, match="coupling"):
            analysis.ns_to_natural_time(1.0, bad)
        with pytest.raises(ValueError, match="coupling"):
            analysis.gamma_ns_to_natural(0.25, bad)
        with pytest.raises(ValueError, match="rate"):
            analysis.gamma_ns_to_natural(bad, 20.0)


class TestPowerLawFit:
    def test_exact_power_law_recovered(self):
        x = np.array([3.0, 7.0, 20.0, 55.0])
        y = 2.5 * x**-1.25
        fit = analysis.fit_power_law(x, y)
        assert fit.prefactor == pytest.approx(2.5, rel=1e-12)
        assert fit.exponent == pytest.approx(-1.25, rel=1e-12)
        assert fit.residual_rms == pytest.approx(0.0, abs=1e-12)
        assert fit.evaluate(10.0) == pytest.approx(2.5 * 10.0**-1.25, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            analysis.fit_power_law([1.0], [2.0])
        with pytest.raises(ValueError):
            analysis.fit_power_law([1.0, -2.0], [1.0, 1.0])

    def test_peak_scaling_guards(self):
        with pytest.raises(ValueError, match="5 distinct"):
            analysis.fit_peak_scaling([20, 50, 100, 150])
        with pytest.raises(ValueError, match="N >= 20"):
            analysis.fit_peak_scaling([5, 20, 50, 100, 150])

    def test_time_scaling_guards(self):
        with pytest.raises(ValueError, match="4 chain lengths"):
            analysis.fit_time_scaling([10, 20, 30], [0.1, 0.001])
        with pytest.raises(ValueError, match="two decades"):
            analysis.fit_time_scaling([10, 20, 30, 40], [0.1, 0.05])


class TestCrossingTimes:
    def test_ordering(self):
        times = analysis.failure_crossing_times(10, [0.1, 0.01])
        assert times[0.01] > times[0.1] > 0

    def test_single_run_consistency(self):
        # a crossing time never decreases when the target tightens
        times = analysis.failure_crossing_times(12, [0.2, 0.05, 0.01])
        ordered = [times[p] for p in (0.2, 0.05, 0.01)]
        assert ordered == sorted(ordered)


class TestFigureDatasets:
    def test_fig2_structure(self):
        ds = analysis.reproduce_figure(2, n_set=(4, 6), l_max=5)
        assert ds.figure == 2
        assert ds.columns == ("N", "l", "P_l")
        assert len(ds.rows) == 10
        # P_l non-increasing within each chain length
        for n in (4, 6):
            ps = [row[2] for row in ds.rows if row[0] == n]
            assert all(a >= b - 1e-15 for a, b in zip(ps, ps[1:]))

    def test_fig3_structure(self):
        ds = analysis.reproduce_figure(3, n_set=(6, 8, 10, 12), p_set=(0.2, 0.02, 0.002))
        assert ds.columns == ("N", "P", "t_natural", "t_fit")
        assert len(ds.rows) == 12
        assert "fit_exponent" in ds.metadata

    def test_fig4_structure(self):
        ds = analysis.reproduce_figure(
            4, n_set=(6, 8), j_over_gamma_set=(20.0, 50.0), stop_tol=1e-8
        )
        assert len(ds.rows) == 4
        for _, _, exact, estimate in ds.rows:
            assert 0.0 <= exact < 1.0
            assert 0.0 <= estimate < 1.0

    def test_unknown_figure(self):
        with pytest.raises(ValueError, match="figure id"):
            analysis.reproduce_figure(7)

    def test_csv_digest_deterministic(self):
        a = analysis.reproduce_figure(2, n_set=(4,), l_max=3).to_csv()
        b = analysis.reproduce_figure(2, n_set=(4,), l_max=3).to_csv()
        strip = lambda text: [l for l in text.splitlines() if not l.startswith("# generated=")]
        assert strip(a) == strip(b)
