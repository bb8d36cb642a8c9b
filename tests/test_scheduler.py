"""Unit tests of schedules and the greedy interval optimizer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualrail import chain_core, protocol
from dualrail.noise import p_infinity_exact
from dualrail.protocol import NoiseParams
from dualrail.scheduler import (
    Schedule,
    ThresholdNotReached,
    _EndpointObjective,
    default_window,
    greedy_optimize,
    greedy_run,
    uniform_schedule,
)


class TestSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            Schedule(intervals=np.array([]))
        with pytest.raises(ValueError):
            Schedule(intervals=np.array([1.0, 0.0]))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                Schedule(intervals=np.array([bad, 1.0]))

    def test_json_round_trip(self, tmp_path):
        sched = Schedule(intervals=np.array([0.25, 1.75]))
        path = tmp_path / "sched.json"
        path.write_text(sched.to_json())
        again = Schedule.from_json(path)
        np.testing.assert_allclose(again.intervals, sched.intervals)
        assert again.intervals.shape == (2,)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
            min_size=1,
            max_size=30,
        )
    )
    def test_json_file_round_trip_is_bit_exact(self, tmp_path_factory, intervals):
        sched = Schedule(intervals=np.array(intervals))
        path = tmp_path_factory.getbasetemp() / "round-trip.json"
        path.write_text(sched.to_json())
        again = Schedule.from_json(path)
        assert again.intervals.tobytes() == sched.intervals.tobytes()

    def test_uniform_schedule(self):
        sched = uniform_schedule(12, 5)
        np.testing.assert_allclose(sched.intervals, [12.0] * 5)
        with pytest.raises(ValueError):
            uniform_schedule(12, 0)

    @pytest.mark.parametrize("n_sites", [2.5, 3.0, True, 1, np.float64(4.0), "3"])
    def test_uniform_schedule_rejects_non_chain_lengths(self, n_sites):
        # 2.5 gave three intervals of 2.5 and True two of 1.0: schedules for no chain
        with pytest.raises(ValueError, match="n_sites must be an int >= 2"):
            uniform_schedule(n_sites, 3)


class TestGreedy:
    def test_two_site_finds_perfect_interval(self, dec_cache):
        run = greedy_run(dec_cache(2), l_max=1)
        assert run.schedule.intervals[0] == pytest.approx(math.pi / 4, abs=1e-5)
        assert run.records[0].joint_failure < 1e-8

    def test_smaller_tau_wins_ties(self, dec_cache):
        # N=2 dynamics is pi/2-periodic: the peak at 3*pi/4 ties the one at
        # pi/4 exactly, and the optimizer must pick the earlier one
        run = greedy_run(dec_cache(2), l_max=1)
        assert run.schedule.intervals[0] < 1.0
        # exp(-2 gamma tau) is 0 over the whole window: every grid point ties,
        # so each step waits the window's lower edge
        run = greedy_run(dec_cache(5), l_max=2, noise=NoiseParams(1e300))
        assert run.schedule.intervals.tolist() == [default_window(5)[0]] * 2

    def test_deterministic(self, dec_cache):
        a = greedy_optimize(dec_cache(9), l_max=6)
        b = greedy_optimize(dec_cache(9), l_max=6)
        np.testing.assert_array_equal(a.intervals, b.intervals)

    def test_respects_window(self, dec_cache):
        lo, hi = default_window(7)
        run = greedy_run(dec_cache(7), l_max=5)
        assert np.all(run.schedule.intervals >= lo)
        assert np.all(run.schedule.intervals <= hi)

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_beats_uniform_schedule(self, dec_cache, n):
        l_max = 15
        greedy = greedy_run(dec_cache(n), l_max=l_max)
        uniform = protocol.run_schedule(dec_cache(n), uniform_schedule(n, l_max))
        assert greedy.records[-1].joint_failure <= uniform.records[-1].joint_failure + 1e-12

    def test_stop_on_p_target(self, dec_cache):
        run = greedy_run(dec_cache(6), p_target=1e-3, l_max=200)
        assert run.records[-1].joint_failure <= 1e-3
        assert run.records[-2].joint_failure > 1e-3

    def test_needs_a_measurement_cap(self, dec_cache):
        # p_target alone need not stop a run: at gamma = 0.5 and N = 4, P(l)
        # stalls at 0.809, so without the cap this call would never return
        for stop in ({}, {"p_target": 1e-3, "noise": NoiseParams(0.5)}):
            with pytest.raises(TypeError, match="l_max"):
                greedy_run(dec_cache(4), **stop)

    @pytest.mark.parametrize("l_max", [0, -3])
    def test_rejects_no_measurements(self, dec_cache, l_max):
        with pytest.raises(ValueError, match="l_max"):
            greedy_run(dec_cache(4), l_max=l_max)
        with pytest.raises(ValueError, match="l_max"):
            greedy_optimize(dec_cache(4), l_max=l_max)

    @pytest.mark.parametrize("l_max", [2.5, 3.0, True, np.float64(2.0), "3"])
    def test_rejects_non_integer_cap(self, dec_cache, l_max):
        # 2.5 would make 3 measurements and True 1; a float or a bool is no count
        for make in (lambda: greedy_run(dec_cache(4), l_max=l_max),
                     lambda: greedy_optimize(dec_cache(4), l_max=l_max),
                     lambda: uniform_schedule(4, l_max)):
            with pytest.raises(ValueError, match="l_max must be an int >= 1"):
                make()

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, 1.0, math.inf, True])
    def test_rejects_step_success_tol_outside_unit_interval(self, dec_cache, tol):
        # NaN, -1 and 0 never stopped a run (all l_max measurements), inf
        # stopped it after one; the rule is p_target's
        with pytest.raises(ValueError, match=r"^step_success_tol must be in \(0, 1\), got "):
            greedy_run(dec_cache(4), l_max=50, step_success_tol=tol, noise=NoiseParams(0.01))
        with pytest.raises(ValueError, match="step_success_tol"):
            p_infinity_exact(dec_cache(4), NoiseParams(0.01), stop_tol=tol)

    def test_raises_when_target_not_reached(self, dec_cache):
        with pytest.raises(ThresholdNotReached) as exc_info:
            greedy_run(dec_cache(10), p_target=1e-6, l_max=2)
        err = exc_info.value
        assert (err.p_target, err.l_cap) == (1e-6, 2)
        assert err.p_reached > 1e-6
        assert err.total_time > 0

    def test_rejects_negative_damping_rate(self, dec_cache):
        with pytest.raises(ValueError, match="damping rate"):
            greedy_run(dec_cache(10), l_max=20, noise=NoiseParams(-0.05))

    def test_damped_objective_penalizes_waiting(self, dec_cache):
        # with heavy damping the chosen intervals can only get shorter
        free = greedy_run(dec_cache(8), l_max=1)
        damped = greedy_run(dec_cache(8), l_max=1, noise=NoiseParams(0.5))
        assert damped.schedule.intervals[0] <= free.schedule.intervals[0] + 1e-9

    @pytest.mark.parametrize("n", [8, 300])
    def test_only_a_damped_objective_builds_its_weight(self, dec_cache, rng, n):
        # undamped, exp(-2 gamma t) would be G exact 1.0s that change no product
        dec = dec_cache(n)
        free, damped = _EndpointObjective(dec, 0.0), _EndpointObjective(dec, 0.01)
        assert free._damp is None
        assert np.array_equal(damped._damp, np.exp(-0.02 * damped.grid.times))
        w = dec.receiver * (rng.normal(size=n) + 1j * rng.normal(size=n))
        values = np.abs(free.grid.sums(w)) ** 2
        assert (np.exp(0.0 * free.grid.times) * values).tobytes() == values.tobytes()

    def test_matches_replayed_schedule(self, dec_cache):
        dec = dec_cache(7)
        run = greedy_run(dec, l_max=8)
        replay = protocol.run_schedule(dec, run.schedule)
        np.testing.assert_allclose(
            run.p_trajectory, replay.p_trajectory, atol=1e-12
        )

    @pytest.mark.parametrize("n, stop", [(450, {"l_max": 20}), (400, {"p_target": 1e-2, "l_max": 2000})])
    def test_fft_scan_moves_no_schedule(self, dec_cache, monkeypatch, n, stop):
        # the scan only picks candidates, so either grid route gives the same run
        runs = []
        for min_modes in (n + 1, n):  # the factored table, then the FFT
            monkeypatch.setattr(chain_core, "_NUFFT_MIN_MODES", min_modes)
            run = greedy_run(dec_cache(n), **stop)
            runs.append([[float.hex(float(x)) for x in run.schedule.intervals],
                         [float.hex(float(x)) for x in run.p_trajectory]])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("n", [2, 7, 40])
    @pytest.mark.parametrize("gamma", [0.0, 0.03])
    def test_refine_objective_is_bit_identical_to_literal_sum(self, dec_cache, rng, n, gamma):
        # the one exact objective both refines use: greedy's at decay -2 gamma on
        # complex weights, first_peak's at the default decay 0 on v_N * v_1
        dec = dec_cache(n)
        w = dec.modes[-1, :] * (rng.normal(size=n) + 1j * rng.normal(size=n))
        f = chain_core._phase_sum_objective(dec.energies, w, -2.0 * gamma)
        w_peak = dec.modes[-1, :] * dec.modes[0, :]
        f_peak = chain_core._phase_sum_objective(dec.energies, w_peak)
        for tau in rng.uniform(*default_window(n), size=50):
            literal = math.exp(-2.0 * gamma * tau) * abs(np.sum(w * np.exp(-1j * dec.energies * tau))) ** 2
            assert float.hex(float(f(tau))) == float.hex(float(literal))
            literal = abs(np.sum(w_peak * np.exp(-1j * dec.energies * tau))) ** 2
            assert float.hex(float(f_peak(tau))) == float.hex(float(literal))
