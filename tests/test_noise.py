"""Unit tests of amplitude damping: no-jump evolution, plateaus, asymmetry."""

import math

import numpy as np
import pytest

from dualrail import analysis, protocol
from dualrail.noise import NoiseParams, asymmetric_run, p_infinity_estimate, p_infinity_exact
from dualrail.scheduler import greedy_optimize, greedy_run, uniform_schedule


class TestNoiseParams:
    def test_symmetric_default(self):
        noise = NoiseParams(0.02)
        assert noise.gamma_2 == 0.02
        assert noise.symmetric

    def test_asymmetric(self):
        noise = NoiseParams(gamma_1=0.02, gamma_2=0.03)
        assert not noise.symmetric

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            NoiseParams(-0.1)


class TestEvolveDamped:
    """Symmetric damping inside the protocol loop, seen through run_schedule states."""

    def test_amplitude_scaled_by_exp_gamma_tau(self, dec_cache):
        dec = dec_cache(5)
        gamma, tau = 0.07, 3.0
        free = protocol.run_schedule(dec, [tau])
        damped = protocol.run_schedule(dec, [tau], noise=NoiseParams(gamma))
        # damping is the scalar weight alone: the mode coefficients keep every bit
        assert damped.coefficients.tobytes() == free.coefficients.tobytes()
        assert damped.norm_sq() == pytest.approx(math.exp(-2.0 * gamma * tau) * free.norm_sq(),
                                                 rel=1e-14)

    def test_probability_conservation_with_loss(self, dec_cache):
        dec = dec_cache(6)
        taus = (2.0, 3.5, 1.5)
        # 1e308: twice the rate overflows, yet the weight at t = 0 is 1
        for noise in (NoiseParams(0.05), NoiseParams(0.05, 0.2), NoiseParams(1e308)):
            for l in range(1, len(taus) + 1):
                state = protocol.run_schedule(dec, taus[:l], noise=noise)
                assert state.total_success + state.norm_sq() + state.loss == pytest.approx(
                    1.0, abs=1e-12
                )

    def test_unequal_rates_weight_each_step(self, dec_cache):
        # the balanced qubit's joint step successes are the noiseless ones times W(t)
        dec = dec_cache(6)
        noise = NoiseParams(0.1, 0.02)
        free = protocol.run_schedule(dec, [1.0, 2.5, 4.0])
        damped = protocol.run_schedule(dec, [1.0, 2.5, 4.0], noise)
        for rec_f, rec_d in zip(free.records, damped.records):
            expected = noise.success_weight(rec_f.absolute_time) * rec_f.step_success
            assert rec_d.step_success == expected

    def test_step_success_factorization(self, dec_cache):
        # joint step successes pick up exactly exp(-2 Gamma t) vs noiseless
        dec = dec_cache(10)
        gamma = 0.01
        schedule = greedy_optimize(dec, l_max=6)
        free = protocol.run_schedule(dec, schedule)
        damped = protocol.run_schedule(dec, schedule, noise=NoiseParams(gamma))
        for rec_f, rec_d in zip(free.records, damped.records):
            expected = rec_f.step_success * math.exp(-2.0 * gamma * rec_f.absolute_time)
            assert rec_d.step_success == pytest.approx(expected, abs=1e-12)


class TestPInfinity:
    def test_estimate_zero_gamma(self):
        assert p_infinity_estimate(20, 0.0) == 0.0

    @pytest.mark.parametrize("gamma", [-0.01, math.nan, math.inf])
    def test_estimate_rejects_bad_rate(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            p_infinity_estimate(20, gamma)

    @pytest.mark.parametrize("n", [0, 1, -3, 2.5, 20.0, True, False, "20", None])
    def test_estimate_rejects_bad_chain_length(self, n):
        with pytest.raises(ValueError, match="n_sites"):
            p_infinity_estimate(n, 0.01)

    def test_estimate_monotone_in_gamma(self):
        values = [p_infinity_estimate(20, g) for g in (0.001, 0.003, 0.01)]
        assert values[0] < values[1] < values[2]

    def test_estimate_matches_log_sum(self):
        # hand-rolled product over the first few terms, heavy damping so the
        # tail beyond l=50 is irrelevant at 1e-12
        n, gamma = 10, 0.05
        peak = 1.35 * n ** (-2.0 / 3.0)
        product = 1.0
        for l in range(1, 51):
            product *= 1.0 - peak * math.exp(-2.0 * gamma * n * l)
        assert p_infinity_estimate(n, gamma) == pytest.approx(product, rel=1e-10)

    def test_exact_plateau_properties(self, dec_cache):
        p_inf = p_infinity_exact(dec_cache(10), NoiseParams(0.005), stop_tol=1e-10)
        assert 0.0 < p_inf < 1.0
        # more damping, higher plateau
        worse = p_infinity_exact(dec_cache(10), NoiseParams(0.02), stop_tol=1e-10)
        assert worse > p_inf

    def test_exact_long_run_pinned(self, dec_cache):
        # N = 40, J/Gamma = 50 K ns: the damped greedy run goes on until a step
        # succeeds with less than 1e-12, and its plateau must not drift
        gamma = analysis.gamma_to_natural(50.0)
        run = greedy_run(dec_cache(40), noise=NoiseParams(gamma), step_success_tol=1e-12,
                         l_max=100_000)
        assert len(run.records) == 174
        assert run.records[-1].joint_failure == pytest.approx(0.06396281942012771, abs=1e-12)
        state = run
        assert state.total_success + state.norm_sq() + state.loss == pytest.approx(1.0, abs=1e-12)
        p_inf = p_infinity_exact(dec_cache(40), NoiseParams(gamma), stop_tol=1e-12)
        assert p_inf == pytest.approx(0.06396281942012771, abs=1e-12)

    def test_exact_accepts_unequal_rates(self, dec_cache):
        # the balanced qubit's plateau under the noiseless greedy intervals
        dec, noise = dec_cache(6), NoiseParams(0.1, 0.2)
        p_inf = p_infinity_exact(dec, noise)
        run = greedy_run(dec, noise=noise, step_success_tol=1e-12, l_max=100_000)
        replay = protocol.run_schedule(dec, greedy_optimize(dec, len(run.records)), noise)
        assert 0.0 < p_inf < 1.0
        assert float.hex(p_inf) == float.hex(replay.records[-1].joint_failure)


class TestAsymmetricRun:
    @pytest.mark.parametrize("n", [2, 20, 300])
    @pytest.mark.parametrize("rates", [(0.01, 0.02), (0.3, 0.0)], ids=["unequal", "one-rail"])
    def test_greedy_run_is_noiseless_greedy_replay(self, dec_cache, n, rates):
        # no qubit-independent damped objective exists for unequal rates, so
        # greedy_run waits the noiseless intervals and damps only the records
        dec, noise = dec_cache(n), NoiseParams(*rates)
        run = greedy_run(dec, l_max=8, noise=noise)
        replay = protocol.run_schedule(dec, greedy_optimize(dec, 8), noise)

        def hexes(state):
            fields = [x for r in state.records for x in tuple(r)]
            return [float.hex(float(x)) for x in (*fields, state.total_success, state.loss)]

        assert hexes(run) == hexes(replay)
        assert run.coefficients.tobytes() == replay.coefficients.tobytes()

    def test_symmetric_rates_give_unit_fidelity(self, dec_cache):
        dec = dec_cache(8)
        result = protocol.run_schedule(dec, uniform_schedule(8, 5), NoiseParams(0.01))
        assert result.min_worst_case_fidelity == 1.0

    def test_matches_symmetric_protocol_success(self, dec_cache):
        # the kept asymmetric_run name is the one damped loop, for any rates
        dec = dec_cache(8)
        schedule = uniform_schedule(8, 6)
        for noise in (NoiseParams(0.02), NoiseParams(0.02, 0.05)):
            asym = asymmetric_run(dec, noise, schedule)
            sym = protocol.run_schedule(dec, schedule, noise)
            assert asym.total_success == sym.total_success
            assert asym.records == sym.records

    def test_worst_case_formula(self, dec_cache):
        dec = dec_cache(6)
        noise = NoiseParams(gamma_1=0.04, gamma_2=0.01)
        result = protocol.run_schedule(dec, [6.0, 6.0], noise)
        for step in result.records:
            a = math.exp(-noise.gamma_2 * step.absolute_time)
            b = math.exp(-noise.gamma_1 * step.absolute_time)
            expected = (a + b) ** 2 / (2.0 * (a * a + b * b))
            assert noise.worst_case_fidelity(step.absolute_time) == pytest.approx(expected, abs=1e-14)
        assert result.min_worst_case_fidelity == noise.worst_case_fidelity(12.0)

    def test_fidelity_degrades_with_rate_gap(self, dec_cache):
        dec = dec_cache(6)
        schedule = uniform_schedule(6, 4)
        narrow = protocol.run_schedule(dec, schedule, NoiseParams(0.02, 0.021))
        wide = protocol.run_schedule(dec, schedule, NoiseParams(0.02, 0.08))
        assert wide.min_worst_case_fidelity < narrow.min_worst_case_fidelity

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_rejects_bad_intervals(self, dec_cache, bad):
        with pytest.raises(ValueError, match="positive"):
            protocol.run_schedule(dec_cache(4), [bad, 4.0], NoiseParams(0.01, 0.03))
