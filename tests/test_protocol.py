"""Unit tests of the reduced protocol: measurement bookkeeping and invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualrail import protocol
from dualrail.chain_core import SpectralDecomposition, propagator_matrix
from dualrail.scheduler import Schedule


class TestInitState:
    def test_excitation_at_sender(self, dec_cache):
        state = protocol.init_state(dec_cache(5))
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0, 0])
        assert state.total_success == 0.0
        assert state.loss == 0.0
        assert state.records == []

    def test_rejects_single_site(self):
        one_site = SpectralDecomposition(energies=np.zeros(1), modes=np.ones((1, 1)))
        with pytest.raises(ValueError, match="n_sites"):
            protocol.init_state(one_site)

    @pytest.mark.parametrize("gamma", [-0.05, math.nan, math.inf])
    def test_rejects_bad_damping_rate(self, dec_cache, gamma):
        with pytest.raises(ValueError, match="damping rate"):
            protocol.init_state(dec_cache(4), gamma)


class TestEvolveMeasure:
    def test_two_site_single_shot(self, dec_cache):
        state = protocol.init_state(dec_cache(2))
        protocol.evolve(state, math.pi / 4)
        step, _ = protocol.measure(state)
        assert step == pytest.approx(1.0, abs=1e-12)
        assert state.joint_failure == pytest.approx(0.0, abs=1e-12)
        assert abs(state.amplitudes[-1]) == 0.0

    def test_rejects_nonpositive_interval(self, dec_cache):
        state = protocol.init_state(dec_cache(3))
        with pytest.raises(ValueError, match="interval"):
            protocol.evolve(state, 0.0)

    def test_records_accumulate_intervals(self, dec_cache):
        dec = dec_cache(4)
        state = protocol.init_state(dec)
        protocol.evolve(state, 1.0)
        protocol.evolve(state, 0.5)  # two evolutions, one measurement
        protocol.measure(state)
        rec = state.records[0]
        assert rec.interval == pytest.approx(1.5)
        assert rec.absolute_time == pytest.approx(1.5)
        assert rec.index == 1

    def test_probability_conservation_noiseless(self, dec_cache):
        dec = dec_cache(6)
        state = protocol.init_state(dec)
        for tau in (2.1, 3.3, 1.7, 4.0):
            protocol.evolve(state, tau)
            protocol.measure(state)
            assert state.total_success + state.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_failure_branch_not_renormalized(self, dec_cache):
        dec = dec_cache(5)
        state = protocol.init_state(dec)
        protocol.evolve(state, 2.0)
        step, _ = protocol.measure(state)
        assert state.norm_sq() == pytest.approx(1.0 - step, abs=1e-12)

    def test_normalized_view(self, dec_cache):
        dec = dec_cache(5)
        state = protocol.init_state(dec)
        protocol.evolve(state, 2.0)
        protocol.measure(state)
        assert np.linalg.norm(state.normalized()) == pytest.approx(1.0, abs=1e-12)


class TestRunSchedule:
    def test_accepts_plain_sequence_and_schedule(self, dec_cache):
        dec = dec_cache(4)
        a = protocol.run_schedule(dec, [1.0, 2.0, 1.5])
        b = protocol.run_schedule(dec, Schedule(intervals=np.array([1.0, 2.0, 1.5])))
        np.testing.assert_allclose(a.p_trajectory, b.p_trajectory, atol=1e-15)

    def test_p_trajectory_monotone(self, dec_cache):
        result = protocol.run_schedule(dec_cache(8), [8.0] * 12)
        p = result.p_trajectory
        assert np.all(np.diff(p) <= 1e-15)
        assert result.total_success == pytest.approx(1.0 - p[-1], abs=1e-12)

    def test_rejects_bad_schedules(self, dec_cache):
        dec = dec_cache(3)
        with pytest.raises(ValueError):
            protocol.run_schedule(dec, [])
        with pytest.raises(ValueError):
            protocol.run_schedule(dec, [1.0, -2.0])
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                protocol.run_schedule(dec, [bad, 1.0])

    def test_schedule_is_the_intervals_waited(self, dec_cache):
        result = protocol.run_schedule(dec_cache(4), [2.0, 3.0])
        assert isinstance(result.schedule, Schedule)
        assert result.schedule.intervals.tolist() == [2.0, 3.0]


def site_basis_failures(dec, taus, gamma):
    """P(l) of a damped run propagated as a site vector through dense F(tau)."""
    c = np.zeros(dec.n_sites, dtype=complex)
    c[0] = 1.0
    p, out = 1.0, []
    for tau in taus:
        c = math.exp(-gamma * tau) * (propagator_matrix(dec, tau) @ c)
        p -= abs(c[-1]) ** 2
        c[-1] = 0.0
        out.append(p)
    return np.array(out)


@st.composite
def damped_runs(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    interval = st.floats(min_value=0.0, max_value=2.0 * n, exclude_min=True)
    taus = draw(st.lists(interval, min_size=1, max_size=20))
    gamma = draw(st.floats(min_value=0.0, max_value=0.1))
    return n, taus, gamma


class TestEngineProperties:
    @settings(max_examples=100, deadline=None, database=None)
    @given(damped_runs())
    def test_matches_site_basis_replay(self, dec_cache, run):
        n, taus, gamma = run
        dec = dec_cache(n)
        state = protocol.init_state(dec, gamma)
        for tau in taus:
            protocol.evolve(state, tau)
            step, _ = protocol.measure(state)
            assert step >= 0.0
            assert abs(state.total_success + state.norm_sq() + state.loss - 1.0) <= 1e-12
        p = np.array([r.joint_failure for r in state.records])
        assert np.all(np.diff(p) <= 0.0)
        np.testing.assert_allclose(p, site_basis_failures(dec, taus, gamma), rtol=0, atol=1e-12)
