"""The engine reads the chain's two ends: every O(N) path runs without the eigenvector matrix.

A decomposition whose ``modes`` raises on any read, but which carries the real
``sender`` and ``receiver`` rows, must give the same bits as the plain one on
every run that needs only those rows.  A path that slices ``modes`` itself
fails here.
"""

import numpy as np
import pytest

from dualrail import analysis, cli
from dualrail.chain_core import SpectralDecomposition, diagonalize, first_peak
from dualrail.noise import p_infinity_exact
from dualrail.protocol import NoiseParams, run_schedule
from dualrail.scheduler import greedy_run


class ModesRead(Exception):
    """Raised by any read of an unreadable ``modes``; no CLI handler catches it."""


class Unreadable:
    """Stands in for ``modes``: any index, attribute or array conversion raises."""

    def __getitem__(self, key):
        raise ModesRead(f"modes[{key!r}]")

    def __getattr__(self, name):
        raise ModesRead(f"modes.{name}")

    def __array__(self, *args, **kwargs):
        raise ModesRead("np.asarray(modes)")


def endpoint_only(dec):
    return SpectralDecomposition(dec.energies, Unreadable(), dec.sender, dec.receiver)


def test_unreadable_modes_raise(dec_cache):
    ends = endpoint_only(dec_cache(5))
    for read in (lambda m: m[0, :], lambda m: m.T, lambda m: m @ ends.sender,
                 lambda m: ends.sender * m):
        with pytest.raises(ModesRead):
            read(ends.modes)


def record_hexes(run):
    return ([float.hex(float(x)) for r in run.records for x in tuple(r)]
            + [float.hex(run.loss), float.hex(run.total_success)])


def library_runs(d):
    n = d.n_sites
    return [greedy_run(d, l_max=6),
            greedy_run(d, l_max=6, noise=NoiseParams(0.01)),
            greedy_run(d, l_max=6, noise=NoiseParams(0.003, 0.02)),
            run_schedule(d, [0.4 * n, 0.7 * n, 0.2 * n], NoiseParams(0.01, 0.03))]


# 7 and 57 modes scan on PhaseGrid's factored table, 557 on its FFT route
@pytest.mark.parametrize("n", [7, 57, 557])
def test_library_runs_need_only_the_end_rows(dec_cache, n):
    def outputs(d):
        return ([record_hexes(run) for run in library_runs(d)],
                float.hex(p_infinity_exact(d, NoiseParams(2.0 / n), stop_tol=1e-6)),
                [float.hex(x) for x in first_peak(d)])

    dec = dec_cache(n)
    assert outputs(endpoint_only(dec)) == outputs(dec)


def public_reads(state):
    """Every public property and method of a run's state, found by ``dir()`` and compared by bits.

    ``dec`` is the run's input, not a read of it; each method takes no argument.
    """
    reads = {}
    for name in dir(state):
        if name.startswith("_") or name == "dec":
            continue
        value = getattr(state, name)
        value = value() if callable(value) else value
        value = getattr(value, "intervals", value)  # a Schedule by its intervals
        reads[name] = value.tobytes() if isinstance(value, np.ndarray) else value
    return reads


@pytest.mark.parametrize("n", [7, 57])
def test_run_state_needs_only_the_end_rows(dec_cache, n):
    dec = dec_cache(n)
    plain = [public_reads(run) for run in library_runs(dec)]
    assert {"coefficients", "norm_sq", "p_trajectory", "schedule"} <= set(plain[0])
    assert [public_reads(run) for run in library_runs(endpoint_only(dec))] == plain


@pytest.mark.parametrize("n", [7, 57, 557])
def test_cli_runs_need_only_the_end_rows(capsys, monkeypatch, n):
    rails = ("--j-kelvin", "20", "--gamma1-ns", "0.25", "--gamma2-ns", "0.238")
    runs = [("protocol", "--l-max", "6"),
            ("protocol", "--l-max", "6", "--schedule", "uniform"),
            ("protocol", "--l-max", "6", "--gamma", "0.01"),
            ("protocol", "--l-max", "6", *rails),
            ("optimize", "--l-max", "6"),
            ("amplitude", "--t-max", str(0.5 * n), "--j-kelvin", "20")]

    def outputs():
        results = []
        for command, *rest in runs:
            code = cli.main([command, "--n", str(n), *rest])
            captured = capsys.readouterr()
            lines = [l for l in captured.out.splitlines() if not l.startswith("# generated=")]
            results.append((code, lines, captured.err))
        return results

    plain = outputs()
    assert all(code == 0 for code, _, _ in plain)
    monkeypatch.setattr(cli, "diagonalize", lambda h: endpoint_only(diagonalize(h)))
    monkeypatch.setattr(analysis, "diagonalize", lambda h: endpoint_only(diagonalize(h)))
    assert outputs() == plain
