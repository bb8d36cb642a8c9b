"""The engine against a 40-digit reference that shares no eigensolver with it (``mp_reference``)."""

import mpmath
import pytest

import mp_reference
from dualrail import analysis, protocol
from dualrail.chain_core import ChainSpec, build_sector_hamiltonian, diagonalize, first_peak
from dualrail.cli import main
from dualrail.noise import p_infinity_exact
from dualrail.protocol import NoiseParams
from dualrail.scheduler import greedy_optimize, greedy_run

# README's bound on an amplitude row's p_transfer
AMPLITUDE_TOL = 2e-13
# greedy's 20-step schedule replayed: the worst |P(l) - reference| measured 1.16e-13 at
# N = 200 and 1.21e-13 (one BLAS thread) to 1.33e-13 (two) at N = 1000; damped at
# J/Gamma = 50 K ns, 6.0e-14 and 1.2e-14, and figure 4's N = 40 plateau run 2.4e-14
FAILURE_TOL = 3e-13
# figure 4's damping rate at J/Gamma = 50 K ns
GAMMA_50 = analysis.gamma_to_natural(50.0)


@pytest.mark.parametrize("n, delta", [(20, 1.0), (200, 1.0), (1000, 1.0),
                                      (10, 0.5), (20, 0.5), (10, 1.5), (20, 1.5)])
def test_first_peak_matches_reference(n, delta):
    t, p = first_peak(diagonalize(build_sector_hamiltonian(ChainSpec(n, delta))))
    t_ref, p_ref = mp_reference.Reference(n, delta).first_peak()
    assert abs(t - float(t_ref)) < 1e-6
    assert abs(p - float(p_ref)) < 1e-12 * float(p_ref)


def test_closed_form_matches_eigsy():
    # the reference's two spectra agree where both apply, at delta = 1; the
    # weights v_k(N) v_k(1) do not see a column's sign
    with mpmath.workdps(mp_reference.DPS):
        for closed, solved in zip(mp_reference._closed_form(12),
                                  mp_reference._eigsy(12, mpmath.mpf(1))):
            assert max(abs(abs(a) - abs(b)) for a, b in zip(closed, solved)) < 1e-30


# 200 modes sum on PhaseGrid's factored table, 400 on its FFT route
@pytest.mark.parametrize("n", [200, 400])
def test_amplitude_rows_match_reference(tmp_path, n):
    out = tmp_path / "amplitude.csv"
    assert main(["amplitude", "--n", str(n), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    rows = lines[lines.index("t_natural,p_transfer") + 1:]
    assert len(rows) == 150 * n + 1  # t = 0.01 j up to 1.5 N
    table = [tuple(map(float, row.split(","))) for row in rows[:75 * n]]
    arrival = max(range(75 * n), key=lambda j: table[j][1])  # the largest row up to 0.75 N
    ref = mp_reference.Reference(n)
    # the start, before the arrival, the first arrival and just after it, the echo near 1.25 N, the end
    for j in (0, 7 * n, arrival, arrival + 3, 125 * n, 150 * n):
        t, p = map(float, rows[j].split(","))
        assert abs(p - float(ref.probability(t))) < AMPLITUDE_TOL, (j, t)


def assert_greedy_replay(n, gamma):
    dec = diagonalize(build_sector_hamiltonian(ChainSpec(n)))
    schedule = greedy_optimize(dec, l_max=20)
    run = protocol.run_schedule(dec, schedule, NoiseParams(gamma))
    reference = mp_reference.Reference(n).failure(schedule.intervals, gamma)
    assert len(run.records) == len(reference) == 20
    for record, p in zip(run.records, reference):
        assert abs(record.joint_failure - float(p)) < FAILURE_TOL, record.index


@pytest.mark.parametrize("n", [200, 1000])
def test_run_schedule_failure_matches_reference(n):
    assert_greedy_replay(n, 0.0)


@pytest.mark.parametrize("n", [200, 1000])
def test_damped_run_schedule_failure_matches_reference(n):
    assert_greedy_replay(n, GAMMA_50)


def test_damping_weighs_each_step_at_its_absolute_time():
    # intervals 0.25 then 0.75: the second success carries exp(-2 gamma * 1.0), not 0.75
    ref = mp_reference.Reference(4)
    undamped = ref.failure([0.25, 0.75])
    damped = ref.failure([0.25, 0.75], gamma=0.5)
    with mpmath.workdps(mp_reference.DPS):
        first, second = 1 - undamped[0], undamped[0] - undamped[1]
        assert abs(damped[0] - (1 - mpmath.exp(-0.25) * first)) < 1e-35
        assert abs(damped[1] - (damped[0] - mpmath.exp(-1) * second)) < 1e-35


def test_figure4_plateau_run_matches_reference():
    # the greedy run behind figure 4's N = 40, J/Gamma = 50 cell, replayed at 40 digits
    dec = diagonalize(build_sector_hamiltonian(ChainSpec(40)))
    noise = NoiseParams(GAMMA_50)
    run = greedy_run(dec, noise=noise, step_success_tol=analysis.FIG4_STOP_TOL, l_max=100_000)
    assert run.records[-1].joint_failure == p_infinity_exact(dec, noise, analysis.FIG4_STOP_TOL)
    reference = mp_reference.Reference(40).failure([r.interval for r in run.records], GAMMA_50)
    assert len(reference) == len(run.records) > 100
    for record, p in zip(run.records, reference):
        assert abs(record.joint_failure - float(p)) < FAILURE_TOL, record.index
