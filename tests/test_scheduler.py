"""Unit tests of schedules and the greedy interval optimizer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualrail import protocol
from dualrail.scheduler import (
    Schedule,
    ThresholdNotReached,
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

    def test_absolute_times(self):
        sched = Schedule(intervals=np.array([1.0, 2.0, 0.5]))
        np.testing.assert_allclose(sched.absolute_times, [1.0, 3.0, 3.5])
        assert len(sched) == 3

    def test_json_round_trip(self, tmp_path):
        sched = Schedule(intervals=np.array([0.25, 1.75]))
        path = tmp_path / "sched.json"
        path.write_text(sched.to_json())
        again = Schedule.from_json(path)
        np.testing.assert_allclose(again.intervals, sched.intervals)

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

    def test_needs_a_stop_condition(self, dec_cache):
        with pytest.raises(ValueError, match="stop condition"):
            greedy_run(dec_cache(4))

    @pytest.mark.parametrize("l_max", [0, -3])
    def test_rejects_no_measurements(self, dec_cache, l_max):
        with pytest.raises(ValueError, match="l_max"):
            greedy_run(dec_cache(4), l_max=l_max)
        with pytest.raises(ValueError, match="l_max"):
            greedy_optimize(dec_cache(4), l_max=l_max)

    def test_raises_when_target_not_reached(self, dec_cache):
        with pytest.raises(ThresholdNotReached) as exc_info:
            greedy_run(dec_cache(10), p_target=1e-6, l_max=2)
        err = exc_info.value
        assert (err.p_target, err.l_cap) == (1e-6, 2)
        assert err.p_reached > 1e-6
        assert err.total_time > 0

    def test_rejects_negative_damping_rate(self, dec_cache):
        with pytest.raises(ValueError, match="damping rate"):
            greedy_run(dec_cache(10), l_max=20, gamma=-0.05)

    def test_damped_objective_penalizes_waiting(self, dec_cache):
        # with heavy damping the chosen intervals can only get shorter
        free = greedy_run(dec_cache(8), l_max=1)
        damped = greedy_run(dec_cache(8), l_max=1, gamma=0.5)
        assert damped.schedule.intervals[0] <= free.schedule.intervals[0] + 1e-9

    def test_matches_replayed_schedule(self, dec_cache):
        dec = dec_cache(7)
        run = greedy_run(dec, l_max=8)
        replay = protocol.run_schedule(dec, run.schedule)
        np.testing.assert_allclose(
            run.p_trajectory, replay.p_trajectory, atol=1e-12
        )
