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
        assert noise.gamma == 0.02

    def test_asymmetric(self):
        noise = NoiseParams(gamma_1=0.02, gamma_2=0.03)
        assert not noise.symmetric
        with pytest.raises(ValueError, match="symmetric"):
            _ = noise.gamma

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            NoiseParams(-0.1)


class TestEvolveDamped:
    """Symmetric damping inside the protocol loop, seen through run_schedule states."""

    def test_amplitude_scaled_by_exp_gamma_tau(self, dec_cache):
        dec = dec_cache(5)
        gamma, tau = 0.07, 3.0
        free = protocol.run_schedule(dec, [tau]).state
        damped = protocol.run_schedule(dec, [tau], noise=NoiseParams(gamma)).state
        np.testing.assert_allclose(
            damped.amplitudes, math.exp(-gamma * tau) * free.amplitudes, atol=1e-14
        )

    def test_probability_conservation_with_loss(self, dec_cache):
        dec = dec_cache(6)
        noise = NoiseParams(0.05)
        taus = (2.0, 3.5, 1.5)
        for l in range(1, len(taus) + 1):
            state = protocol.run_schedule(dec, taus[:l], noise=noise).state
            assert state.total_success + state.norm_sq() + state.loss == pytest.approx(
                1.0, abs=1e-12
            )

    def test_rejects_asymmetric_rates(self, dec_cache):
        with pytest.raises(ValueError, match="symmetric"):
            protocol.run_schedule(dec_cache(4), [1.0], noise=NoiseParams(0.1, 0.2))

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
        run = greedy_run(dec_cache(40), gamma=gamma, step_success_tol=1e-12, l_max=100_000)
        assert len(run.records) == 174
        assert run.records[-1].joint_failure == pytest.approx(0.06396281942012771, abs=1e-12)
        state = run.state
        assert state.total_success + state.norm_sq() + state.loss == pytest.approx(1.0, abs=1e-12)
        p_inf = p_infinity_exact(dec_cache(40), NoiseParams(gamma), stop_tol=1e-12)
        assert p_inf == pytest.approx(0.06396281942012771, abs=1e-12)

    def test_exact_requires_symmetric(self, dec_cache):
        with pytest.raises(ValueError, match="symmetric"):
            p_infinity_exact(dec_cache(6), NoiseParams(0.1, 0.2))


class TestAsymmetricRun:
    def test_symmetric_rates_give_unit_fidelity(self, dec_cache):
        dec = dec_cache(8)
        result = asymmetric_run(dec, NoiseParams(0.01), uniform_schedule(8, 5))
        assert result.min_fidelity == pytest.approx(1.0, abs=1e-12)
        assert result.min_worst_case_fidelity == pytest.approx(1.0, abs=1e-12)

    def test_matches_symmetric_protocol_success(self, dec_cache):
        dec = dec_cache(8)
        gamma = 0.02
        schedule = uniform_schedule(8, 6)
        asym = asymmetric_run(dec, NoiseParams(gamma), schedule)
        sym = protocol.run_schedule(dec, schedule, noise=NoiseParams(gamma))
        assert asym.total_success == pytest.approx(sym.total_success, abs=1e-12)

    def test_worst_case_formula(self, dec_cache):
        dec = dec_cache(6)
        noise = NoiseParams(gamma_1=0.04, gamma_2=0.01)
        result = asymmetric_run(dec, noise, [6.0, 6.0])
        for step in result.steps:
            a = math.exp(-noise.gamma_2 * step.absolute_time)
            b = math.exp(-noise.gamma_1 * step.absolute_time)
            expected = (a + b) ** 2 / (2.0 * (a * a + b * b))
            assert step.worst_case_fidelity == pytest.approx(expected, abs=1e-14)
        # balanced input qubit sits exactly at the worst case
        assert result.min_fidelity == pytest.approx(
            result.min_worst_case_fidelity, abs=1e-14
        )

    def test_fidelity_degrades_with_rate_gap(self, dec_cache):
        dec = dec_cache(6)
        schedule = uniform_schedule(6, 4)
        narrow = asymmetric_run(dec, NoiseParams(0.02, 0.021), schedule)
        wide = asymmetric_run(dec, NoiseParams(0.02, 0.08), schedule)
        assert wide.min_worst_case_fidelity < narrow.min_worst_case_fidelity

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_rejects_bad_intervals(self, dec_cache, bad):
        with pytest.raises(ValueError, match="positive"):
            asymmetric_run(dec_cache(4), NoiseParams(0.01), [bad, 4.0])

    def test_rejects_unnormalized_qubit(self, dec_cache):
        with pytest.raises(ValueError, match="normalized"):
            asymmetric_run(dec_cache(4), NoiseParams(0.01), [4.0], qubit=(1.0, 1.0))
