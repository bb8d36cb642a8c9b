"""Unit tests of the brute-force full-Hilbert-space validator."""

import math
import re

import numpy as np
import pytest

from dualrail import oracle, protocol
from dualrail.chain_core import (ChainSpec, build_sector_hamiltonian, diagonalize, require_site,
                                 transition_amplitude)
from dualrail.protocol import NoiseParams
from dualrail.scheduler import greedy_optimize


class TestBasisConventions:
    def test_excitation_index(self):
        # site 1 is the most significant bit
        assert oracle.excitation_index(4, 1) == 8
        assert oracle.excitation_index(4, 4) == 1

    def test_excitation_counts(self):
        counts = oracle.excitation_counts(3)
        np.testing.assert_array_equal(counts, [0, 1, 1, 2, 1, 2, 2, 3])


_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SY = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
_SZ = np.array([[-1.0, 0.0], [0.0, 1.0]])


def _op_at(op, site, n_sites):
    """One-qubit operator at a site (1-based, site 1 most significant)."""
    out = np.array([[1.0]])
    for pos in range(1, n_sites + 1):
        out = np.kron(out, op if pos == site else np.eye(2))
    return out


def reference_hamiltonian(spec, debug_flip_xy=False):
    """Full 2^N Hamiltonian built from one-site Pauli products, complex throughout."""
    n = spec.n_sites
    xy_sign = 1.0 if debug_flip_xy else -1.0
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for site in range(1, n):
        h += xy_sign * (
            _op_at(_SX, site, n) @ _op_at(_SX, site + 1, n)
            + _op_at(_SY, site, n) @ _op_at(_SY, site + 1, n)
        )
        h += -spec.anisotropy * (_op_at(_SZ, site, n) @ _op_at(_SZ, site + 1, n))
    ground_energy = -spec.anisotropy * (n - 1)
    h -= ground_energy * np.eye(1 << n)
    return h


class TestFullHamiltonian:
    @pytest.mark.parametrize("n", range(2, oracle.MAX_SINGLE_CHAIN_SITES + 1))
    @pytest.mark.parametrize(
        "coupling,anisotropy,field", [(1.0, 1.0, 0.0), (0.7, 0.5, -0.3), (2.3, -1.2, 0.4)]
    )
    @pytest.mark.parametrize("flip", [False, True])
    def test_matches_pauli_product_reference(self, n, coupling, anisotropy, field, flip):
        spec = ChainSpec(n, anisotropy=anisotropy)
        h = oracle.full_hamiltonian(spec, debug_flip_xy=flip)
        ref = reference_hamiltonian(spec, debug_flip_xy=flip)
        assert h.dtype == np.float64
        assert not np.any(ref.imag)
        # bytes, not values: signed zeros must match too
        assert h.tobytes() == ref.real.tobytes()
        # a laboratory chain (exchange J, anisotropy delta, uniform field B) is J
        # times this one plus B (sum_n sz_n + N) = 2B per excitation: a global
        # phase on the dual rail's one excitation, so the model has no field
        field_term = sum(_op_at(_SZ, site, n) for site in range(1, n + 1)) + n * np.eye(1 << n)
        per_excitation = 2.0 * np.diag(oracle.excitation_counts(n))
        np.testing.assert_allclose(coupling * ref + field * field_term,
                                   coupling * h + field * per_excitation, rtol=0, atol=1e-12)

    def test_vacuum_at_zero_energy(self):
        h = oracle.full_hamiltonian(ChainSpec(4, anisotropy=0.8))
        assert abs(h[0, 0]) < 1e-12
        assert np.max(np.abs(h[0, 1:])) < 1e-12

    def test_single_excitation_block_matches_reduced(self):
        spec = ChainSpec(5, anisotropy=1.3)
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

    def test_nan_norm_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            oracle.LogicalQubit(math.nan, 0.0)


class TestPublicInputChecks:
    """The oracle's entry points reject bad sites and times with ``chain_core``'s rules and messages."""

    @pytest.mark.parametrize("t", [math.nan, 1e308], ids=["nan", "overflow"])
    def test_amplitude_rejects_non_finite_phases(self, t):
        with pytest.raises(ValueError, match="not finite"):
            oracle.full_transition_amplitude(ChainSpec(4), 1, 4, t)

    @pytest.mark.parametrize("site", [True, 1.0, 0, 5], ids=["bool", "float", "zero", "past-end"])
    def test_amplitude_rejects_bad_sites(self, site):
        with pytest.raises(ValueError, match="^site must be"):
            oracle.full_transition_amplitude(ChainSpec(4), site, 2, 1.0)
        with pytest.raises(ValueError, match="^site must be"):
            oracle.full_transition_amplitude(ChainSpec(4), 2, site, 1.0)

    @pytest.mark.parametrize("site", [True, 2.0, 0, 5], ids=["bool", "float", "zero", "past-end"])
    def test_dephasing_check_rejects_bad_sites(self, site):
        with pytest.raises(ValueError, match="^site must be"):
            oracle.dephasing_free_check(ChainSpec(4), site)

    @pytest.mark.parametrize("site", [True, np.bool_(True), 2.0, "2", 0, 5],
                             ids=["bool", "numpy-bool", "float", "str", "zero", "past-end"])
    def test_one_site_rule_for_every_entry_point(self, site):
        spec = ChainSpec(4)
        dec = diagonalize(build_sector_hamiltonian(spec))
        with pytest.raises(ValueError) as rule:
            require_site(site, 4)
        messages = []
        for call in (lambda: transition_amplitude(dec, site, 2, 1.0),
                     lambda: oracle.full_transition_amplitude(spec, site, 2, 1.0),
                     lambda: oracle.dephasing_free_check(spec, site)):
            with pytest.raises(ValueError) as raised:
                call()
            messages.append(str(raised.value))
        assert messages == [str(rule.value)] * 3

    # E_max = 6 at N = 3: 6e308 overflows the phase; 7 x 2.8333e307 only the clock
    @pytest.mark.parametrize("schedule,message", [
        ([1e308], "the phases E*t are not finite at t = 1e+308 (an overflow or a NaN time)"),
        ([2.8333e307] * 7, "the run's clock overflows at t = 1.69998e+308 + 2.8333e+307"),
    ], ids=["phase", "clock"])
    def test_protocol_rejects_what_the_engine_rejects(self, schedule, message):
        spec = ChainSpec(3)
        dec = diagonalize(build_sector_hamiltonian(spec))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            protocol.run_schedule(dec, schedule)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            oracle.dual_rail_protocol_full(spec, oracle.LogicalQubit(0.6, 0.8j), schedule)

    def test_numpy_integer_sites_accepted(self):
        exact = oracle.full_transition_amplitude(ChainSpec(4), 1, 4, 2.0)
        assert oracle.full_transition_amplitude(ChainSpec(4), np.int64(1), np.int32(4), 2.0) == exact
        assert oracle.dephasing_free_check(ChainSpec(4), np.int64(2)) == oracle.dephasing_free_check(ChainSpec(4), 2)
        dec = diagonalize(build_sector_hamiltonian(ChainSpec(4)))
        assert transition_amplitude(dec, np.int64(1), np.int32(4), 2.0) == transition_amplitude(dec, 1, 4, 2.0)


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
        # beta|n,vac> on rail 1 and alpha|vac,n> on rail 2 carry the same vector c
        sites = [oracle.excitation_index(4, site) for site in range(1, 5)]
        rail1 = result.final_state[sites, 0] / qb.beta
        rail2 = result.final_state[0, sites] / qb.alpha
        np.testing.assert_allclose(rail1, rail2, atol=1e-12)

    def test_damping_removes_norm(self):
        qb = oracle.LogicalQubit(0.6, 0.8j)
        free = oracle.dual_rail_protocol_full(ChainSpec(3), qb, [2.0])
        damped = oracle.dual_rail_protocol_full(ChainSpec(3), qb, [2.0], NoiseParams(0.1))
        assert damped.total_success < free.total_success

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("rates", [(0.05, 0.01), (0.0, 0.2), (0.1, 0.1)])
    def test_rail_rates_match_reduced_protocol(self, n, rates):
        # chain 1 damped at gamma_1 and chain 2 at gamma_2 in the full 4^N state;
        # the reduced loop carries the balanced qubit as one weight per step
        noise = NoiseParams(*rates)
        dec = diagonalize(build_sector_hamiltonian(ChainSpec(n)))
        schedule = greedy_optimize(dec, l_max=5)
        reduced = protocol.run_schedule(dec, schedule, noise)
        balanced = oracle.LogicalQubit(math.sqrt(0.5), math.sqrt(0.5))
        full = oracle.dual_rail_protocol_full(ChainSpec(n), balanced, schedule, noise)
        np.testing.assert_allclose(full.p_trajectory, reduced.p_trajectory, rtol=0, atol=1e-12)
        for step in full.steps:
            if step.step_success > 1e-12:
                assert step.decoded_fidelity == pytest.approx(
                    noise.worst_case_fidelity(step.absolute_time), abs=1e-12)

    @pytest.mark.parametrize("schedule", [[math.nan, 1.0], [math.inf], [1.0, -2.0]])
    def test_rejects_bad_intervals(self, schedule):
        with pytest.raises(ValueError, match="finite positive"):
            oracle.dual_rail_protocol_full(ChainSpec(3), oracle.LogicalQubit(0.6, 0.8j), schedule)

    @pytest.mark.parametrize("gamma", [-1.0, math.nan, math.inf])
    def test_rejects_bad_damping_rate(self, gamma):
        with pytest.raises(ValueError, match="damping rate"):
            oracle.dual_rail_protocol_full(
                ChainSpec(3), oracle.LogicalQubit(0.6, 0.8j), [1.0], NoiseParams(gamma)
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

    def test_one_eigensolve_per_chain(self, monkeypatch):
        calls = {"full_hamiltonian": 0, "eigh": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(oracle, "full_hamiltonian", counted("full_hamiltonian", oracle.full_hamiltonian))
        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
        oracle.conformance_report()
        # 21 block checks (7 lengths x 3 anisotropies), whose delta = 1 matrices give the
        # 7 amplitude chains' eigensystems, which the 22 dual-rail runs (N = 2..5) reuse
        assert calls == {"full_hamiltonian": 21, "eigh": 7}

    def test_amplitude_check_matches_public_amplitude(self):
        report = oracle.conformance_report()
        by_name = {c["check"]: c for c in report["checks"]}
        # the amplitude check is the report's first consumer of its rng
        rng = np.random.default_rng(report["seed"])
        dev = 0.0
        for n in range(2, oracle.MAX_SINGLE_CHAIN_SITES + 1):
            spec = ChainSpec(n)
            dec = diagonalize(build_sector_hamiltonian(spec))
            for t in rng.uniform(0.0, 3.0 * n, size=20):
                r = int(rng.integers(1, n + 1))
                s = int(rng.integers(1, n + 1))
                f_red = transition_amplitude(dec, r, s, float(t))
                dev = max(dev, abs(f_red - oracle.full_transition_amplitude(spec, r, s, float(t))))
        assert by_name["transition_amplitude_equivalence"]["max_deviation"] == dev

    def test_injected_error_detected(self):
        report = oracle.conformance_report(inject_sign_error=True)
        assert not report["passed"]
        by_name = {c["check"]: c for c in report["checks"]}
        assert not by_name["sector_block_equivalence"]["passed"]
