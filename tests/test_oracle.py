"""Unit tests of the brute-force full-Hilbert-space validator."""

import math

import numpy as np
import pytest

from dualrail import oracle
from dualrail.chain_core import ChainSpec, build_sector_hamiltonian


class TestBasisConventions:
    def test_excitation_index(self):
        # site 1 is the most significant bit
        assert oracle.excitation_index(4, 1) == 8
        assert oracle.excitation_index(4, 4) == 1

    def test_excitation_counts(self):
        counts = oracle.excitation_counts(3)
        np.testing.assert_array_equal(counts, [0, 1, 1, 2, 1, 2, 2, 3])


class TestFullHamiltonian:
    def test_vacuum_at_zero_energy(self):
        h = oracle.full_hamiltonian(ChainSpec(4, anisotropy=0.8, field=0.3))
        assert abs(h[0, 0]) < 1e-12
        assert np.max(np.abs(h[0, 1:])) < 1e-12

    def test_single_excitation_block_matches_reduced(self):
        spec = ChainSpec(5, anisotropy=1.3, field=-0.2)
        block = oracle.single_excitation_block(oracle.full_hamiltonian(spec), 5)
        dense = build_sector_hamiltonian(spec).to_dense()
        np.testing.assert_allclose(block, dense, atol=1e-12)

    def test_sign_error_injection_breaks_equivalence(self):
        spec = ChainSpec(4)
        block = oracle.single_excitation_block(
            oracle.full_hamiltonian(spec, debug_flip_xy=True), 4
        )
        dense = build_sector_hamiltonian(spec).to_dense()
        assert np.max(np.abs(block - dense)) > 1.0

    def test_size_cap(self):
        with pytest.raises(ValueError, match="capped"):
            oracle.full_hamiltonian(ChainSpec(9))


class TestLogicalQubit:
    def test_normalization_enforced(self):
        oracle.LogicalQubit(0.6, 0.8)
        with pytest.raises(ValueError, match="normalized"):
            oracle.LogicalQubit(1.0, 1.0)


class TestDualRailProtocolFull:
    def test_two_site_perfect_transfer(self):
        result = oracle.dual_rail_protocol_full(
            ChainSpec(2), oracle.LogicalQubit(0.6, 0.8j), [math.pi / 4]
        )
        step = result.steps[0]
        assert step.step_success == pytest.approx(1.0, abs=1e-10)
        assert step.decoded_fidelity == pytest.approx(1.0, abs=1e-10)

    def test_failure_branch_stays_single_excitation(self):
        result = oracle.dual_rail_protocol_full(
            ChainSpec(4), oracle.LogicalQubit(0.6, 0.8j), [2.0, 3.0]
        )
        weights = oracle.excitation_sector_weights(result.final_state, 4)
        assert np.sum(weights[2:]) < 1e-12

    def test_rail_amplitudes_symmetric(self):
        qb = oracle.LogicalQubit(0.6, 0.8j)
        result = oracle.dual_rail_protocol_full(ChainSpec(4), qb, [2.5])
        c1, c2 = oracle.rail_amplitudes(result.final_state, 4, qb)
        np.testing.assert_allclose(c1, c2, atol=1e-12)

    def test_damping_removes_norm(self):
        qb = oracle.LogicalQubit(0.6, 0.8j)
        free = oracle.dual_rail_protocol_full(ChainSpec(3), qb, [2.0])
        damped = oracle.dual_rail_protocol_full(ChainSpec(3), qb, [2.0], gamma=0.1)
        assert damped.total_success < free.total_success

    @pytest.mark.parametrize("schedule", [[math.nan, 1.0], [math.inf], [1.0, -2.0]])
    def test_rejects_bad_intervals(self, schedule):
        with pytest.raises(ValueError, match="finite positive"):
            oracle.dual_rail_protocol_full(ChainSpec(3), oracle.LogicalQubit(0.6, 0.8j), schedule)

    @pytest.mark.parametrize("gamma", [-1.0, math.nan, math.inf])
    def test_rejects_bad_damping_rate(self, gamma):
        with pytest.raises(ValueError, match="damping rate"):
            oracle.dual_rail_protocol_full(
                ChainSpec(3), oracle.LogicalQubit(0.6, 0.8j), [1.0], gamma=gamma
            )

    def test_size_cap(self):
        with pytest.raises(ValueError, match="capped"):
            oracle.dual_rail_protocol_full(
                ChainSpec(7), oracle.LogicalQubit(1.0, 0.0), [1.0]
            )


class TestDecoherenceFreeSubspace:
    def test_structure_table(self):
        passed, table = oracle.dephasing_free_check(ChainSpec(4), 2)
        assert passed
        assert table[2] == (0.0, 0.0)
        for site in (1, 3, 4):
            assert table[site] == (-2.0, -2.0)

    def test_collective_dephasing_is_global_phase_on_code(self, rng):
        n = 3
        qb = oracle.LogicalQubit(0.6, 0.8j)
        base = oracle.dual_rail_protocol_full(ChainSpec(n), qb, [1.5])
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
        dephased = oracle.dual_rail_protocol_full(
            ChainSpec(n), qb, [1.5],
            dephasing=lambda p: oracle.collective_dephasing(p, phases, n),
        )
        assert dephased.steps[0].decoded_fidelity == pytest.approx(
            base.steps[0].decoded_fidelity, abs=1e-12
        )


class TestConformanceReport:
    def test_all_checks_pass(self):
        report = oracle.conformance_report()
        assert report["passed"], report
        names = {c["check"] for c in report["checks"]}
        assert "sector_block_equivalence" in names
        assert "conclusive_fidelity_noiseless" in names
        assert report["info"]["asymmetric_min_worst_case_fidelity"] > 0.99

    def test_injected_error_detected(self):
        report = oracle.conformance_report(inject_sign_error=True)
        assert not report["passed"]
        by_name = {c["check"]: c for c in report["checks"]}
        assert not by_name["sector_block_equivalence"]["passed"]
