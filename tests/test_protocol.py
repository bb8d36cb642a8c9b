"""Unit tests of the reduced protocol: measurement bookkeeping and invariants."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from dualrail import noise, oracle, protocol
from dualrail.chain_core import ChainSpec, SpectralDecomposition, build_sector_hamiltonian
from dualrail.protocol import NoiseParams
from dualrail.scheduler import Schedule, uniform_schedule


class TestInitState:
    def test_excitation_at_sender(self, dec_cache):
        dec = dec_cache(5)
        state = protocol.DualRailState(dec)
        np.testing.assert_array_equal(state.coefficients, dec.sender)
        assert state.total_success == 0.0
        assert state.loss == 0.0
        assert state.records == []

    def test_rejects_single_site(self):
        one_site = SpectralDecomposition(energies=np.zeros(1), modes=np.ones((1, 1)),
                                         sender=np.ones(1), receiver=np.ones(1))
        with pytest.raises(ValueError, match="^n_sites must be >= 2, got 1$"):
            protocol.DualRailState(one_site)

    def test_constructor_takes_only_the_spectrum_and_the_noise(self):
        assert list(inspect.signature(protocol.DualRailState).parameters) == ["dec", "noise"]

    def test_views_before_any_measurement(self, dec_cache):
        state = protocol.DualRailState(dec_cache(4))
        assert state.p_trajectory.size == 0
        for view in ("schedule", "min_worst_case_fidelity"):
            with pytest.raises(ValueError, match="^no measurement recorded yet$"):
                getattr(state, view)

    @pytest.mark.parametrize("gamma", [-0.05, math.nan, math.inf])
    def test_rejects_bad_damping_rate(self, dec_cache, gamma):
        with pytest.raises(ValueError, match="damping rate"):
            protocol.DualRailState(dec_cache(4), NoiseParams(gamma))


class TestEvolveMeasure:
    def test_two_site_single_shot(self, dec_cache):
        state = protocol.DualRailState(dec_cache(2))
        protocol.evolve(state, math.pi / 4)
        step = protocol.measure(state).step_success
        assert step == pytest.approx(1.0, abs=1e-12)
        assert state.records[-1].joint_failure == pytest.approx(0.0, abs=1e-12)
        assert state.norm_sq() == pytest.approx(0.0, abs=1e-12)

    def test_measure_returns_the_record_it_appends(self, dec_cache):
        state = protocol.DualRailState(dec_cache(4))
        assert protocol.evolve(state, 1.0) is None
        record = protocol.measure(state)
        assert record is state.records[-1]
        assert record._fields == ("index", "interval", "absolute_time", "step_success", "joint_failure")
        with pytest.raises(AttributeError):
            record.step_success = 0.0

    def test_rejects_nonpositive_interval(self, dec_cache):
        state = protocol.DualRailState(dec_cache(3))
        with pytest.raises(ValueError, match="interval"):
            protocol.evolve(state, 0.0)

    def test_rejects_overflowing_phase_or_clock(self, dec_cache):
        # E_max = 4 at N = 2: 4 * 1e308 overflows, 4 * 4e307 does not, but five
        # such intervals overflow the clock; the state is left as it was
        state = protocol.DualRailState(dec_cache(2))
        with pytest.raises(ValueError, match="overflow"):
            protocol.evolve(state, 1e308)
        for _ in range(4):
            protocol.evolve(state, 4e307)
        before = state.coefficients.copy()
        with pytest.raises(ValueError, match="overflow"):
            protocol.evolve(state, 4e307)
        assert state.time == 1.6e308 and np.array_equal(state.coefficients, before)

    def test_records_accumulate_intervals(self, dec_cache):
        dec = dec_cache(4)
        state = protocol.DualRailState(dec)
        protocol.evolve(state, 1.0)
        protocol.evolve(state, 0.5)  # two evolutions, one measurement
        protocol.measure(state)
        rec = state.records[0]
        assert rec.interval == pytest.approx(1.5)
        assert rec.absolute_time == pytest.approx(1.5)
        assert rec.index == 1

    def test_probability_conservation_noiseless(self, dec_cache):
        dec = dec_cache(6)
        state = protocol.DualRailState(dec)
        for tau in (2.1, 3.3, 1.7, 4.0):
            protocol.evolve(state, tau)
            protocol.measure(state)
            assert state.total_success + state.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_failure_branch_not_renormalized(self, dec_cache):
        dec = dec_cache(5)
        state = protocol.DualRailState(dec)
        protocol.evolve(state, 2.0)
        step = protocol.measure(state).step_success
        assert state.norm_sq() == pytest.approx(1.0 - step, abs=1e-12)


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

    @pytest.mark.parametrize("bad", [[[1.0, 2.0]], np.array([[1.0], [2.0]]), "12"])
    def test_malformed_interval_lists_are_value_errors(self, dec_cache, bad):
        # a 2-d list, a column array and a string are no interval list, for the
        # reduced protocol, its damped alias and the two-chain oracle alike
        qubit = oracle.LogicalQubit(0.6, 0.8)
        for run in (lambda: protocol.run_schedule(dec_cache(3), bad),
                    lambda: noise.asymmetric_run(dec_cache(3), NoiseParams(0.01, 0.03), bad),
                    lambda: oracle.dual_rail_protocol_full(ChainSpec(3), qubit, bad)):
            with pytest.raises(ValueError, match="finite positive intervals"):
                run()

    def test_schedule_is_the_intervals_waited(self, dec_cache):
        result = protocol.run_schedule(dec_cache(4), [2.0, 3.0])
        assert isinstance(result.schedule, Schedule)
        assert result.schedule.intervals.tolist() == [2.0, 3.0]


def site_basis_failures(n, taus, noise):
    """P(l) of the balanced qubit, each rail's site vector damped at its own rate through dense F(tau).

    F(tau) = expm(-i H tau) of the dense sector matrix, so the reference shares
    no eigensolver with the engine.
    """
    h = build_sector_hamiltonian(ChainSpec(n)).to_dense()
    rails = np.zeros((2, n), dtype=complex)
    rails[:, 0] = math.sqrt(0.5)
    rates = np.array([noise.gamma_1, noise.gamma_2])
    p, out = 1.0, []
    for tau in taus:
        rails = np.exp(-rates * tau)[:, None] * (rails @ expm(-1j * tau * h).T)
        p -= float(np.sum(np.abs(rails[:, -1]) ** 2))
        rails[:, -1] = 0.0
        out.append(p)
    return np.array(out)


@st.composite
def damped_runs(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    interval = st.floats(min_value=0.0, max_value=2.0 * n, exclude_min=True)
    taus = draw(st.lists(interval, min_size=1, max_size=20))
    rate = st.floats(min_value=0.0, max_value=0.1)
    noise = NoiseParams(draw(rate), draw(st.one_of(st.none(), rate)))  # None: equal rates
    return n, taus, noise


class TestEngineProperties:
    @settings(max_examples=100, deadline=None, database=None)
    @given(damped_runs())
    def test_matches_site_basis_replay(self, dec_cache, run):
        n, taus, noise = run
        dec = dec_cache(n)
        state = protocol.DualRailState(dec, noise)
        for tau in taus:
            protocol.evolve(state, tau)
            step = protocol.measure(state).step_success
            assert step >= 0.0
            assert abs(state.total_success + state.norm_sq() + state.loss - 1.0) <= 1e-12
        p = np.array([r.joint_failure for r in state.records])
        assert np.all(np.diff(p) <= 0.0)
        np.testing.assert_allclose(p, site_basis_failures(n, taus, noise), rtol=0, atol=1e-12)


MEASURE = None  # an op of ``parent_steps``: measure; any other op is an interval to evolve


def parent_steps(dec, ops, noise):
    """The engine's evolve and measure expressions before the state held its per-run constants.

    Returns every record field, the final coefficients, ``loss``,
    ``total_success`` and ``norm_sq()``, all as ``float.hex``.
    """
    a = dec.sender.astype(complex)
    weight = noise.success_weight
    time = pending = total = loss = 0.0
    records = []
    for op in ops:
        if op is MEASURE:
            u = dec.receiver
            c_n = complex(u @ a)
            a -= c_n * u
            step = weight(time) * abs(c_n) ** 2
            total += step
            records.append((len(records) + 1, pending, time, step, 1.0 - total))
            pending = 0.0
        else:
            tau = op
            loss += float(np.vdot(a, a).real) * (weight(time) - weight(time + tau))
            a *= np.exp(-1j * dec.energies * tau)
            time += tau
            pending += tau
    norm_sq = weight(time) * float(np.vdot(a, a).real)
    return step_bits(records, a, loss, total, norm_sq)


def step_bits(records, coefficients, loss, total, norm_sq):
    fields = [(index, *map(float.hex, rest)) for index, *rest in records]
    return fields, coefficients.tobytes(), float.hex(loss), float.hex(total), float.hex(norm_sq)


def engine_steps(dec, ops, noise):
    state = protocol.DualRailState(dec, noise)
    for op in ops:
        if op is MEASURE:
            protocol.measure(state)
        else:
            protocol.evolve(state, op)
    return state_bits(state)


def state_bits(state):
    records = [tuple(r) for r in state.records]
    return step_bits(records, state.coefficients, state.loss, state.total_success, state.norm_sq())


def pin_intervals(n, kind):
    rng = np.random.default_rng(n)
    if kind == "uniform":
        return [float(t) for t in uniform_schedule(n, 12).intervals]
    if kind == "random":
        return [float(t) for t in rng.uniform(0.25 * n, 0.75 * n, size=12)]
    # a repeated interval, a new one, then the first again
    first, second = (float(t) for t in rng.uniform(0.25 * n, 0.75 * n, size=2))
    return [first] * 5 + [second] * 4 + [first] * 3


PIN_NOISE = [NoiseParams(0.0), NoiseParams(0.01), NoiseParams(0.01, 0.03)]


class TestStepBits:
    """Reusing a phase vector, the complex receiver row and the kept weight change no bit."""

    @pytest.mark.parametrize("noise", PIN_NOISE, ids=["noiseless", "gamma", "rates"])
    @pytest.mark.parametrize("kind", ["uniform", "random", "repeat-then-new"])
    @pytest.mark.parametrize("n", [2, 7, 57, 300])
    def test_run_schedule_keeps_the_parent_bits(self, dec_cache, n, kind, noise):
        dec, taus = dec_cache(n), pin_intervals(n, kind)
        ops = [op for tau in taus for op in (tau, MEASURE)]
        assert state_bits(protocol.run_schedule(dec, taus, noise)) == parent_steps(dec, ops, noise)

    @pytest.mark.parametrize("noise", PIN_NOISE, ids=["noiseless", "gamma", "rates"])
    @pytest.mark.parametrize("n", [2, 7, 57, 300])
    def test_two_evolves_before_a_measure(self, dec_cache, n, noise):
        t1, t2 = 0.3 * n, 0.45 * n
        ops = [t1, t1, MEASURE, t2, MEASURE, t2, t1, MEASURE, t1, MEASURE, MEASURE, t2, t2, MEASURE]
        assert engine_steps(dec_cache(n), ops, noise) == parent_steps(dec_cache(n), ops, noise)

    @pytest.mark.parametrize("noise", PIN_NOISE, ids=["noiseless", "gamma", "rates"])
    def test_rejected_interval_after_a_repeat_changes_nothing(self, dec_cache, noise):
        # E_max = 4 at N = 2: at t = 8e307, after a repeated 4e307, 5e307
        # overflows the phases but not the clock, and at t = 1.6e308 a repeated
        # 4e307 overflows the clock; both leave the state and its kept phases
        # as they were
        dec = dec_cache(2)
        state = protocol.DualRailState(dec, noise)

        def rejected(tau):
            before = state_bits(state), state.time, state._pending_interval
            with pytest.raises(ValueError, match="overflow"):
                protocol.evolve(state, tau)
            assert (state_bits(state), state.time, state._pending_interval) == before

        protocol.evolve(state, 4e307)
        protocol.evolve(state, 4e307)
        rejected(5e307)
        protocol.measure(state)
        protocol.evolve(state, 4e307)
        protocol.evolve(state, 4e307)
        rejected(4e307)
        protocol.measure(state)
        ops = [4e307, 4e307, MEASURE, 4e307, 4e307, MEASURE]
        assert state_bits(state) == parent_steps(dec, ops, noise)
