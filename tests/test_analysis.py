"""Unit tests of unit conversions, power-law fits, and figure datasets."""

import math
import os
import pathlib
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dualrail import analysis
from dualrail.chain_core import diagonalize


def assert_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


class TestUnitConversions:
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
        assert_message(lambda: analysis.natural_time_to_ns(1.0, bad),
                       f"coupling must be finite and positive, got {bad} K")
        assert_message(lambda: analysis.natural_time_to_ns(bad, 20.0),
                       f"time {bad} hbar/J in ns is not finite at J/k_B = 20.0 K")
        assert_message(lambda: analysis.gamma_ns_to_natural(0.25, bad),
                       f"coupling must be finite and positive, got {bad} K")
        assert_message(lambda: analysis.gamma_ns_to_natural(bad, 20.0),
                       f"rate must be finite and >= 0, got {bad}")

    def test_rejects_overflow_at_subnormal_coupling(self):
        # hbar/k_B / J overflows when J/k_B is subnormal
        assert_message(lambda: analysis.natural_time_to_ns(0.5, 1e-320),
                       "time 0.5 hbar/J in ns is not finite at J/k_B = 1e-320 K")
        assert_message(lambda: analysis.gamma_ns_to_natural(0.25, 1e-320),
                       "rate 0.25/ns in J/hbar units is not finite at J/k_B = 1e-320 K")
        with pytest.raises(ValueError, match="not finite"):
            analysis.gamma_to_natural(5e-324)
        assert analysis.natural_time_to_ns(0.0, 1e-320) == 0.0

    def test_array_of_times_is_the_per_value_product(self):
        times = np.linspace(0.0, 400.0, 40_001)
        for kelvin in (20.0, 17.3, 3e-300):
            got = analysis.natural_time_to_ns(times, kelvin)
            assert [v.hex() for v in got.tolist()] == [
                analysis.natural_time_to_ns(t, kelvin).hex() for t in times.tolist()]

    def test_array_overflow_names_its_first_value(self):
        # 0 converts at any coupling; 0.25 is the first time whose ns value overflows
        assert_message(lambda: analysis.natural_time_to_ns(np.array([0.0, 0.25, 0.5]), 1e-320),
                       "time 0.25 hbar/J in ns is not finite at J/k_B = 1e-320 K")
        assert_message(lambda: analysis.natural_time_to_ns(np.array([0.0, 1.0]), -1.0),
                       "coupling must be finite and positive, got -1.0 K")

    @given(
        x=st.floats(min_value=0.0, allow_infinity=False),
        kelvin=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    @example(x=0.5, kelvin=1e-320)
    @example(x=5e-324, kelvin=5e-324)
    @example(x=1e308, kelvin=0.5)
    def test_converters_are_one_product(self, x, kelvin):
        # each converter is x * hbar/k_B / kelvin to the last bit, or rejects its overflow
        product = x * analysis.HBAR_OVER_KB_NS_K / kelvin
        cases = [
            (lambda: analysis.natural_time_to_ns(x, kelvin), product),
            (lambda: analysis.gamma_ns_to_natural(x, kelvin), product),
            (lambda: analysis.gamma_to_natural(kelvin), analysis.HBAR_OVER_KB_NS_K / kelvin),
        ]
        for convert, literal in cases:
            if math.isfinite(literal):
                assert convert().hex() == literal.hex()
            else:
                with pytest.raises(ValueError, match="not finite"):
                    convert()


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

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf, 0.0])
    def test_rejects_non_finite_or_non_positive_samples(self, bad):
        # ln of inf or NaN would fit an all-NaN law; NaN also slips past a <= 0 test
        assert_message(lambda: analysis.fit_power_law([1, 2, 3], [1, bad, 3]),
                       f"power-law fit needs finite positive samples, got x[1] = 2.0, y[1] = {bad}")
        assert_message(lambda: analysis.fit_power_law([1, bad, 3], [1, 2, 3]),
                       f"power-law fit needs finite positive samples, got x[1] = {bad}, y[1] = 2.0")

    def test_peak_scaling_guards(self):
        with pytest.raises(ValueError, match="5 distinct"):
            analysis.fit_peak_scaling([20, 50, 100, 150])
        with pytest.raises(ValueError, match="N >= 20"):
            analysis.fit_peak_scaling([5, 20, 50, 100, 150])

    @pytest.mark.parametrize("bad", [20.9, 25.0, True, "30"])
    def test_fits_reject_non_integer_chain_lengths(self, monkeypatch, bad):
        # int(20.9) fitted N = 20, a length nobody asked for; checked before any run
        def no_run(*args, **kwargs):
            raise AssertionError("a chain was solved before validation")

        monkeypatch.setattr(analysis, "first_peak", no_run)
        monkeypatch.setattr(analysis, "greedy_run", no_run)
        with pytest.raises(ValueError, match="n_sites must be an int >= 2"):
            analysis.fit_peak_scaling([bad, 30, 40, 50, 60])
        with pytest.raises(ValueError, match="n_sites must be an int >= 2"):
            analysis.fit_time_scaling([bad, 15, 20, 30], [0.1, 0.01, 0.001])

    def test_time_scaling_guards(self, monkeypatch):
        with pytest.raises(ValueError, match="4 chain lengths"):
            analysis.fit_time_scaling([10, 20, 30], [0.1, 0.001])
        with pytest.raises(ValueError, match="two decades"):
            analysis.fit_time_scaling([10, 20, 30, 40], [0.1, 0.05])
        for p_values in ([], [0.01], [0.01, 0.01]):
            with pytest.raises(ValueError, match=r"at least 2 distinct failure targets, got \["):
                analysis.fit_time_scaling([10, 20, 30, 40], p_values)

        # every target must be finite and in (0, 1), checked before any greedy run
        def no_greedy(*args, **kwargs):
            raise AssertionError("greedy run started before validation")

        monkeypatch.setattr(analysis, "greedy_run", no_greedy)
        for p_values in ([1.0, 0.01, 0.001], [0.1, 0.0], [True, 0.01, 0.001], [2.0, 0.01],
                         [-0.5, 0.01], [math.nan, 0.01, 0.001], [math.inf, 0.01]):
            with pytest.raises(ValueError, match=r"in \(0, 1\)"):
                analysis.fit_time_scaling([4, 5, 6, 7], p_values)


class TestCrossingTimes:
    def test_ordering(self):
        times = analysis.failure_crossing_times(10, [0.1, 0.01])
        assert times[0.01] > times[0.1] > 0

    @pytest.mark.parametrize("targets, bad", [([0.5, 2.0], [2.0]), ([0.1, math.nan], [math.nan]),
                                              ([0.0, 0.1], [0.0]), ([True], [True])])
    def test_rejects_targets_outside_unit_interval(self, monkeypatch, targets, bad):
        # a target of 2.0 would read a crossing at the first measurement
        monkeypatch.setattr(analysis, "greedy_run", None)  # checked before any run
        with pytest.raises(ValueError, match=re.escape(f"in (0, 1), got {bad}")):
            analysis.failure_crossing_times(10, targets)

    def test_rejects_no_targets(self):
        assert_message(lambda: analysis.failure_crossing_times(10, []),
                       "need at least one failure target, got []")

    def test_single_run_consistency(self):
        # a crossing time never decreases when the target tightens
        times = analysis.failure_crossing_times(12, [0.2, 0.05, 0.01])
        ordered = [times[p] for p in (0.2, 0.05, 0.01)]
        assert ordered == sorted(ordered)


class TestFigureDatasets:
    @pytest.fixture
    def small_grids(self, monkeypatch):
        """Shrink the figure grids so each dataset builds in milliseconds."""
        for name, value in (
            ("FIG2_N_SET", (4, 6)),
            ("FIG2_L_MAX", 5),
            ("FIG3_N_SET", (6, 8, 10, 12)),
            ("FIG3_P_SET", (0.2, 0.02, 0.002)),
            ("FIG4_N_SET", (6, 8)),
            ("FIG4_J_OVER_GAMMA_SET", (20.0, 50.0)),
            ("FIG4_STOP_TOL", 1e-8),
        ):
            monkeypatch.setattr(analysis, name, value)

    def test_fig2_structure(self, small_grids):
        ds = analysis.reproduce_figure(2)
        assert ds.figure == 2
        assert ds.columns == ("N", "l", "P_l")
        assert len(ds.rows) == 10
        # P_l non-increasing within each chain length
        for n in (4, 6):
            ps = [row[2] for row in ds.rows if row[0] == n]
            assert all(a >= b - 1e-15 for a, b in zip(ps, ps[1:]))

    def test_fig3_structure(self, small_grids):
        ds = analysis.reproduce_figure(3)
        assert ds.columns == ("N", "P", "t_natural", "t_fit")
        assert len(ds.rows) == 12
        assert "fit_exponent" in ds.metadata

    def test_fig4_structure(self, small_grids):
        ds = analysis.reproduce_figure(4)
        assert len(ds.rows) == 4
        for _, _, exact, estimate in ds.rows:
            assert 0.0 <= exact < 1.0
            assert 0.0 <= estimate < 1.0

    def test_fig4_builds_one_spectrum_per_chain(self, monkeypatch):
        calls = []

        def counting(h):
            calls.append(len(h.diagonal))
            return diagonalize(h)

        monkeypatch.setattr(analysis, "diagonalize", counting)
        ds = analysis.reproduce_figure(4)
        assert sorted(calls) == sorted(analysis.FIG4_N_SET)
        assert len(ds.rows) == len(analysis.FIG4_N_SET) * len(analysis.FIG4_J_OVER_GAMMA_SET)

    def test_unknown_figure(self):
        with pytest.raises(ValueError, match="figure id"):
            analysis.reproduce_figure(7)

    def test_csv_digest_deterministic(self, monkeypatch):
        monkeypatch.setattr(analysis, "FIG2_N_SET", (4,))
        monkeypatch.setattr(analysis, "FIG2_L_MAX", 3)
        a = analysis.reproduce_figure(2).to_csv()
        b = analysis.reproduce_figure(2).to_csv()
        strip = lambda text: [l for l in text.splitlines() if not l.startswith("# generated=")]
        assert strip(a) == strip(b)


class TwoArgError(Exception):
    def __init__(self, index, reason):
        super().__init__(f"job {index}: {reason}")


class Interrupt(BaseException):
    """Not an Exception, so it is not a job's outcome: it ends the map, as KeyboardInterrupt does."""


def no_child_left():
    # waitpid(-1) finds a zombie too; it raises only when no child at all remains
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestFigure4Workers:
    """Figure 4's cells run in forked workers, one per usable CPU."""

    @staticmethod
    def hex_rows(monkeypatch, cpus):
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: cpus)
        return [tuple(v.hex() if isinstance(v, float) else v for v in row)
                for row in analysis.reproduce_figure(4).rows]

    def test_rows_do_not_depend_on_the_cpu_count(self, monkeypatch):
        serial = self.hex_rows(monkeypatch, 1)
        assert [row[:2] for row in serial] == [
            (n, jg.hex()) for n in analysis.FIG4_N_SET for jg in analysis.FIG4_J_OVER_GAMMA_SET]
        assert self.hex_rows(monkeypatch, 2) == serial
        assert self.hex_rows(monkeypatch, 3) == serial
        no_child_left()

    def test_serial_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert analysis._usable_cpus() == 1

    @pytest.fixture
    def four_cells(self, monkeypatch):
        monkeypatch.setattr(analysis, "FIG4_N_SET", (6, 8))
        monkeypatch.setattr(analysis, "FIG4_J_OVER_GAMMA_SET", (20.0, 50.0))
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: 4)

    def test_a_workers_error_reaches_the_caller(self, monkeypatch, four_cells):
        parent = os.getpid()

        def failing_in_a_child(dec, noise, stop_tol):
            if os.getpid() == parent:
                time.sleep(0.2)  # the children take the other cells
                return 0.5
            raise ValueError(f"no plateau at N = {len(dec.energies)} in a worker")

        monkeypatch.setattr(analysis, "p_infinity_exact", failing_in_a_child)
        with pytest.raises(ValueError, match=r"^no plateau at N = [68] in a worker$") as info:
            analysis.reproduce_figure(4)
        assert type(info.value) is ValueError
        no_child_left()

    def test_the_first_error_in_row_order_is_raised(self, monkeypatch, four_cells):
        def failing(dec, noise, stop_tol):
            raise ValueError(f"no plateau at N = {len(dec.energies)}, gamma = {noise.gamma_1!r}")

        monkeypatch.setattr(analysis, "p_infinity_exact", failing)
        assert_message(lambda: analysis.reproduce_figure(4),
                       f"no plateau at N = 6, gamma = {analysis.gamma_to_natural(20.0)!r}")
        no_child_left()

    @pytest.mark.parametrize("in_a_child", [
        lambda i: (i, lambda: i),  # a lambda does not pickle
        lambda i: TwoArgError(i, "x"),  # pickles, but its class cannot rebuild it from its args
    ], ids=["value", "exception"])
    def test_a_job_whose_outcome_cannot_come_back_runs_here(self, monkeypatch, in_a_child):
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: 2)
        parent = os.getpid()

        def job(i):
            if os.getpid() == parent:
                time.sleep(0.02)  # the child takes some jobs
                return i, None
            outcome = in_a_child(i)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        assert analysis._forked_map(job, [(i,) for i in range(6)], range(6)) == [
            (i, None) for i in range(6)]
        no_child_left()

    def test_an_interrupt_here_stops_the_children(self, monkeypatch):
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: 2)
        parent = os.getpid()

        def job(i):
            if os.getpid() != parent:
                time.sleep(60)  # the child holds one job; this process takes the next
            raise Interrupt

        start = time.monotonic()
        with pytest.raises(Interrupt):
            analysis._forked_map(job, [(i,) for i in range(4)], range(4))
        assert time.monotonic() - start < 30
        no_child_left()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs two usable CPUs")
    def test_cli_bytes_on_one_cpu_and_two(self, tmp_path):
        cpus = sorted(os.sched_getaffinity(0))
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(analysis.__file__).parents[1])}
        texts = []
        for allowed in ({cpus[0]}, set(cpus[:2])):
            out = tmp_path / f"fig4-{len(allowed)}.csv"
            done = subprocess.run(
                [sys.executable, "-m", "dualrail", "figure", "--fig", "4", "--out", str(out)],
                capture_output=True, text=True, env=env, timeout=120,
                preexec_fn=lambda allowed=allowed: os.sched_setaffinity(0, allowed))
            assert (done.returncode, done.stderr) == (0, "")
            texts.append([line for line in out.read_text(encoding="utf-8").splitlines()
                          if not line.startswith("# generated=")])
        assert texts[0] == texts[1]
