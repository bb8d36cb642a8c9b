"""Unit tests of the command-line interface: commands, config merge, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dualrail import _csvio, analysis, cli, protocol
from dualrail._csvio import LINE_BREAKS, format_value, render_csv
from dualrail.chain_core import (ChainSpec, build_sector_hamiltonian, diagonalize, grid_points,
                                 time_scale)
from dualrail.noise import NoiseParams
from dualrail.scheduler import greedy_optimize


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse's --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_validation_error(code, out, err):
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err


README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# Every option destination of every command: a new option shows up here as a diff.
OPTIONS = {
    "amplitude": {"config", "out", "n", "delta", "j_kelvin", "t_max", "dt"},
    "protocol": {"config", "out", "n", "delta", "j_kelvin", "schedule", "l_max",
                 "p_target", "gamma", "gamma_ns", "gamma1_ns", "gamma2_ns"},
    "optimize": {"config", "out", "n", "delta", "l_max"},
    "fit": {"config", "out", "fit"},
    "figure": {"config", "out", "fig"},
    "oracle-check": {"config", "out", "inject_sign_error"},
}


def data_section(text):
    """CSV lines with the non-reproducible timestamp header removed."""
    return [l for l in text.splitlines() if not l.startswith("# generated=")]


def readme_commands():
    """Arguments of every ``dualrail ...`` line in the README's sh blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", README, flags=re.S)
    return [shlex.split(line, comments=True)[1:]
            for block in blocks for line in block.splitlines() if line.startswith("dualrail ")]


class TestAmplitude:
    def test_basic(self, capsys):
        code, out, _ = run_cli(capsys, "amplitude", "--n", "3", "--t-max", "1", "--dt", "0.5")
        assert code == 0
        lines = out.splitlines()
        assert "t_natural,p_transfer" in lines
        header_at = lines.index("t_natural,p_transfer")
        assert len(lines) - header_at - 1 == 3  # t = 0, 0.5, 1.0

    def test_ns_column_with_coupling(self, capsys):
        code, out, _ = run_cli(
            capsys, "amplitude", "--n", "3", "--t-max", "1", "--dt", "1", "--j-kelvin", "20"
        )
        assert code == 0
        assert "t_natural,t_ns,p_transfer" in out

    def test_ns_column_is_the_per_row_conversion(self, capsys):
        code, out, _ = run_cli(capsys, "amplitude", "--n", "12", "--t-max", "40", "--dt", "0.01",
                               "--j-kelvin", "17.3")
        assert code == 0
        lines = data_section(out)
        rows = [line.split(",") for line in lines[lines.index("t_natural,t_ns,p_transfer") + 1:]]
        assert len(rows) == 4001
        assert [float(t_ns).hex() for _, t_ns, _ in rows] == [
            analysis.natural_time_to_ns(float(t), 17.3).hex() for t, _, _ in rows]

    def test_table_goes_to_render_csv_as_one_array(self, capsys, monkeypatch):
        tables = []

        def spy(columns, table, metadata=None):
            tables.append(table)
            return render_csv(columns, table, metadata)

        monkeypatch.setattr(cli, "render_csv", spy)
        for argv, shape in ((("amplitude", "--n", "5", "--t-max", "2", "--j-kelvin", "20"), (201, 3)),
                            (("protocol", "--n", "5", "--l-max", "9", "--j-kelvin", "20"), (9, 7))):
            code, _, _ = run_cli(capsys, *argv)
            assert code == 0
            table = tables.pop()
            assert isinstance(table, np.ndarray)
            assert table.dtype == np.float64 and table.shape == shape
        assert tables == []

    def test_missing_n_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "amplitude")
        assert code == 2
        assert "chain length" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--j-kelvin", "nan"),
            ("--j-kelvin", "inf"),
            ("--dt", "nan"),
            ("--t-max", "nan"),
            ("--t-max", "inf"),
            ("--delta", "nan"),
            ("--delta", "inf"),
        ],
    )
    def test_non_finite_input_is_validation_error(self, capsys, flags):
        code, out, err = run_cli(capsys, "amplitude", "--n", "10", "--t-max", "1", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("grid", [("--t-max", "1e9"), ("--t-max", "10", "--dt", "1e-9")])
    def test_grid_too_large_for_memory_is_validation_error(self, capsys, grid):
        code, out, err = run_cli(capsys, "amplitude", "--n", "10", *grid)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "physical memory" in err

    def test_overflowing_phase_is_validation_error(self, capsys):
        # E_max = 7.2 at N = 5: the phases at t near 1e308 overflow, so no row prints NaN
        code, out, err = run_cli(capsys, "amplitude", "--n", "5", "--t-max", "1e308", "--dt", "1e307")
        assert_validation_error(code, out, err)
        assert "overflow" in err

    def test_default_grid_ends_at_one_and_a_half_time_scales(self, capsys):
        code, out, _ = run_cli(capsys, "amplitude", "--n", "7")
        assert code == 0
        last_t = float(data_section(out)[-1].split(",")[0])
        assert last_t == pytest.approx(1.5 * time_scale(7), abs=1e-9)

    def test_grid_stops_at_t_max(self, capsys):
        # 0.37 is not a whole number of 0.1 steps: the last point is 0.3, not 0.4
        code, out, _ = run_cli(capsys, "amplitude", "--n", "5", "--t-max", "0.37", "--dt", "0.1")
        assert code == 0
        assert float(data_section(out)[-1].split(",")[0]) == pytest.approx(0.3, abs=1e-12)

    def test_memory_guard_counts_every_grid_point(self, capsys, monkeypatch):
        guarded = []
        monkeypatch.setattr(cli, "require_physical_memory", lambda n_bytes, what: guarded.append(n_bytes))
        code, out, _ = run_cli(capsys, "amplitude", "--n", "5", "--t-max", "0.3", "--dt", "0.1")
        assert code == 0
        rows = data_section(out)[data_section(out).index("t_natural,p_transfer") + 1:]
        assert len(rows) == grid_points(0.0, 0.3, 0.1) == 4
        assert guarded == [4 * cli._AMPLITUDE_POINT_BYTES]

    def test_writes_file(self, capsys, tmp_path):
        path = tmp_path / "amp.csv"
        code, out, _ = run_cli(
            capsys, "amplitude", "--n", "2", "--t-max", "1", "--dt", "0.5", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        assert "p_transfer" in path.read_text()


class TestProtocol:
    def test_greedy_default(self, capsys):
        code, out, _ = run_cli(capsys, "protocol", "--n", "4", "--l-max", "3")
        assert code == 0
        assert "# schedule=greedy" in out
        assert "step_success,P_l" in out

    def test_uniform_schedule(self, capsys):
        code, out, _ = run_cli(
            capsys, "protocol", "--n", "4", "--l-max", "3", "--schedule", "uniform"
        )
        assert code == 0
        assert "# schedule=uniform" in out

    def test_schedule_file(self, capsys, tmp_path):
        path = tmp_path / "sched.json"
        path.write_text(json.dumps({"intervals": [1.0, 2.0]}))
        code, out, _ = run_cli(
            capsys, "protocol", "--n", "4", "--schedule", str(path)
        )
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith(("#", "l,"))]
        assert len(rows) == 2

    # every line boundary of str.splitlines
    @pytest.mark.parametrize("brk", ["\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028", "\u2029"],
                             ids=["LF", "CR", "VT", "FF", "FS", "GS", "RS", "NEL", "LS", "PS"])
    def test_line_break_in_schedule_path_forges_no_header_line(self, capsys, tmp_path, brk):
        # the path is written into the '# schedule=' header line
        path = tmp_path / f"sched{brk}l,tau_l_natural,FAKE{brk}1.json"
        path.write_text(json.dumps({"intervals": [1.0, 2.0]}))
        out_path = tmp_path / "out.csv"
        code, out, err = run_cli(capsys, "protocol", "--n", "5", "--schedule", str(path),
                                 "--out", str(out_path))
        assert_validation_error(code, out, err)
        assert "line break" in err
        assert not out_path.exists()

    # at J/k_B = 1e-306 K a time past about 23,530 hbar/J is not finite in ns: the error names
    # the first such time row by row, tau_l before t_abs
    @pytest.mark.parametrize("intervals, first", [([1.0, 30000.0], 30000.0),
                                                  ([20000.0, 5000.0, 1e5], 25000.0)])
    def test_ns_overflow_names_the_first_time_row_by_row(self, capsys, tmp_path, intervals, first):
        path = tmp_path / "sched.json"
        path.write_text(json.dumps({"intervals": intervals}))
        code, out, err = run_cli(capsys, "protocol", "--n", "4", "--schedule", str(path),
                                 "--j-kelvin", "1e-306")
        assert_validation_error(code, out, err)
        assert err == f"error: time {first} hbar/J in ns is not finite at J/k_B = 1e-306 K\n"

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_schedule_file_is_validation_error(self, capsys, tmp_path, bad):
        path = tmp_path / "sched.json"
        path.write_text(f'{{"intervals": [{bad}, 1.0]}}')
        code, out, err = run_cli(capsys, "protocol", "--n", "20", "--schedule", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    # the config typing rule: 'intervals' is the one key and lists JSON numbers
    @pytest.mark.parametrize("text", ["{}", "[1.0, 2.0]", '{"intervals": [true, 1.0]}',
                                      '{"intervals": ["2.5", 1.0]}', '{"intervals": 2.5}',
                                      '{"intervals": [2.5, 1.0], "extra": 1}'])
    def test_schedule_file_without_intervals_is_validation_error(self, capsys, tmp_path, text):
        path = tmp_path / "sched.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "protocol", "--n", "20", "--schedule", str(path))
        assert code == 2
        assert out == ""
        assert "intervals" in err

    def test_schedule_file_integer_interval_passes_as_float(self, capsys, tmp_path):
        path = tmp_path / "sched.json"
        outs = []
        for intervals in ([2, 1], [2.0, 1.0]):
            path.write_text(json.dumps({"intervals": intervals}))
            code, out, _ = run_cli(capsys, "protocol", "--n", "5", "--schedule", str(path))
            assert code == 0
            outs.append(data_section(out))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("p_target", ["0", "-1", "1"])
    def test_p_target_outside_unit_interval_is_validation_error(self, capsys, p_target):
        code, out, err = run_cli(capsys, "protocol", "--n", "20", "--p-target", p_target)
        assert code == 2
        assert out == ""
        assert "p_target" in err

    def test_threshold_not_reached_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "protocol", "--n", "10", "--p-target", "1e-9", "--l-max", "2"
        )
        assert code == 3
        assert "target" in err

    ASYMMETRIC = ("--n", "20", "--l-max", "10", "--j-kelvin", "20",
                  "--gamma1-ns", "0.25", "--gamma2-ns", "0.238")

    def test_asymmetric_rates_report_balanced_qubit(self, capsys):
        code, out, _ = run_cli(capsys, "protocol", *self.ASYMMETRIC)
        assert code == 0
        rows = [l.split(",") for l in out.splitlines() if l and not l.startswith(("#", "l,"))]
        assert len(rows) == 10
        dec = diagonalize(build_sector_hamiltonian(ChainSpec(20)))
        noise = NoiseParams(
            gamma_1=analysis.gamma_ns_to_natural(0.25, 20.0),
            gamma_2=analysis.gamma_ns_to_natural(0.238, 20.0),
        )
        run = protocol.run_schedule(dec, greedy_optimize(dec, 10), noise)
        expected = run.total_success
        assert 1.0 - float(rows[-1][-1]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.9659, abs=1e-4)
        # each row is one of the run's records, field by field
        for row, rec in zip(rows, run.records):
            l, tau, tau_ns, t_abs, t_abs_ns, step, p_l = row
            assert int(l) == rec.index
            assert float(tau) == rec.interval
            assert float(tau_ns) == analysis.natural_time_to_ns(rec.interval, 20.0)
            assert float(t_abs) == rec.absolute_time
            assert float(t_abs_ns) == analysis.natural_time_to_ns(rec.absolute_time, 20.0)
            assert float(step) == rec.step_success
            assert float(p_l) == rec.joint_failure

    def test_asymmetric_rates_accept_p_target(self, capsys):
        # the one greedy run stops at its first P_l <= 0.1, a prefix of the full run
        code, out, _ = run_cli(capsys, "protocol", *self.ASYMMETRIC, "--p-target", "0.1")
        assert code == 0
        _, full, _ = run_cli(capsys, "protocol", *self.ASYMMETRIC)
        rows = [l for l in data_section(out) if not l.startswith("#")]
        full_rows = [l for l in data_section(full) if not l.startswith("#")]
        p_l = [float(row.split(",")[-1]) for row in rows[1:]]
        assert p_l[-1] <= 0.1 < min(p_l[:-1])
        assert rows == full_rows[:len(rows)] and len(rows) < len(full_rows)

    @pytest.mark.parametrize(
        "argv, intervals",
        [(("--n", "5"), [1e308, 1.0]),
         (("--n", "5", "--gamma", "0.1"), [1e308, 1.0]),
         (("--n", "2"), [4e307] * 5),
         (("--n", "5", "--delta", "1e307", "--schedule", "uniform", "--l-max", "2"), None),
         (("--n", "5", "--delta", "1e307", "--l-max", "2"), None)],
        ids=["phase", "damped-phase", "clock", "uniform-huge-energy", "greedy-huge-energy"],
    )
    def test_overflowing_phase_is_validation_error(self, capsys, tmp_path, argv, intervals):
        # a phase E*t or a clock past the float range is reported, never printed as NaN
        if intervals is not None:
            path = tmp_path / "sched.json"
            path.write_text(json.dumps({"intervals": intervals}))
            argv = (*argv, "--schedule", str(path))
        code, out, err = run_cli(capsys, "protocol", *argv)
        assert_validation_error(code, out, err)
        assert "overflow" in err

    @pytest.mark.parametrize("flags", [("--delta", "nan"), ("--delta=-inf",)])
    def test_non_finite_chain_is_validation_error(self, capsys, flags):
        code, out, err = run_cli(capsys, "protocol", "--n", "10", "--l-max", "2", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "flags",
        [(), ("--gamma", "0.01"), ("--schedule", "uniform"), ASYMMETRIC[4:]],
        ids=["greedy", "damped-greedy", "uniform", "asymmetric"],
    )
    def test_no_measurements_is_validation_error(self, capsys, flags):
        code, out, err = run_cli(capsys, "protocol", "--n", "20", *flags, "--l-max", "0")
        assert code == 2
        assert out == ""
        assert "l_max" in err

    def test_chain_too_large_for_memory_is_validation_error(self, capsys):
        code, out, err = run_cli(capsys, "protocol", "--n", "10000000")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "physical memory" in err

    @pytest.mark.parametrize(
        "flags",
        [(), ("--schedule", "uniform"), ("--p-target", "1e-3"), ("--l-max", "1" + "0" * 400)],
        ids=["greedy", "uniform", "p-target", "past-float-range"],
    )
    def test_measurements_too_many_for_memory_is_validation_error(self, capsys, flags):
        code, out, err = run_cli(capsys, "protocol", "--n", "20", "--l-max", "1000000000000", *flags)
        assert_validation_error(code, out, err)
        assert "physical memory" in err

    J_KELVIN = ("--j-kelvin", "20")

    # two rate families at once, or one without its other rail or its --j-kelvin
    @pytest.mark.parametrize(
        "rates, message",
        [((*J_KELVIN, "--gamma", "0.01", "--gamma-ns", "0.1"), "one of"),
         ((*J_KELVIN, "--gamma-ns", "0.1", "--gamma1-ns", "0.25", "--gamma2-ns", "0.238"), "one of"),
         ((*J_KELVIN, "--gamma", "0.01", "--gamma1-ns", "0.25", "--gamma2-ns", "0.238"), "one of"),
         ((*J_KELVIN, "--gamma1-ns", "0.25"), "asymmetric rates need"),
         ((*J_KELVIN, "--gamma2-ns", "0.238"), "asymmetric rates need"),
         (("--gamma1-ns", "0.25", "--gamma2-ns", "0.238"), "asymmetric rates need"),
         (("--gamma-ns", "0.1"), "needs --j-kelvin")],
        ids=["gamma+gamma-ns", "gamma-ns+rail-rates", "gamma+rail-rates", "rail-1-only",
             "rail-2-only", "rail-rates-without-j-kelvin", "gamma-ns-without-j-kelvin"],
    )
    def test_conflicting_damping_rates_are_validation_error(self, capsys, rates, message):
        code, out, err = run_cli(capsys, "protocol", "--n", "20", "--l-max", "3", *rates)
        assert_validation_error(code, out, err)
        assert message in err

    @pytest.mark.parametrize("l_max", ["7", "0"])
    def test_l_max_with_schedule_file_is_validation_error(self, capsys, tmp_path, l_max):
        path = tmp_path / "sched.json"
        path.write_text(json.dumps({"intervals": [1.0, 2.0]}))
        code, out, err = run_cli(capsys, "protocol", "--n", "4", "--schedule", str(path),
                                 "--l-max", l_max)
        assert_validation_error(code, out, err)
        assert "l-max" in err

    def test_p_target_needs_greedy(self, capsys):
        code, _, err = run_cli(
            capsys, "protocol", "--n", "4", "--schedule", "uniform", "--p-target", "0.1"
        )
        assert code == 2
        assert "greedy" in err


class TestBenchmarkReferences:
    """Two benchmark reference runs, reproduced within the benchmark's own tolerances.

    perfbench/refs.json is only read here.  Bitwise equality is not asked for:
    a second BLAS thread moves last bits.
    """

    REFS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "refs.json"

    @pytest.mark.parametrize(
        "table, n, argv",
        [("greedy", 557, ("--l-max", "20")),  # 557 modes: the scan's FFT route
         ("p_target", 283, ("--p-target", "0.01", "--l-max", "2000"))],  # its factored table
        ids=["greedy-557", "p_target-283"],
    )
    def test_reproduces_reference(self, capsys, table, n, argv):
        ref = json.loads(self.REFS.read_text(encoding="utf-8"))[table][str(n)]
        code, out, _ = run_cli(capsys, "protocol", "--n", str(n), *argv)
        assert code == 0
        lines = [l for l in data_section(out) if not l.startswith("#")]
        assert lines[0] == "l,tau_l_natural,t_abs_natural,step_success,P_l"
        rows = np.array([[float(x) for x in l.split(",")] for l in lines[1:]])
        np.testing.assert_allclose(rows[:, 1], ref["intervals"], rtol=0, atol=1e-6)
        np.testing.assert_allclose(rows[:, 4], ref["P_l"], rtol=0, atol=1e-9)


class TestOptimize:
    def test_emits_schedule_json(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--n", "2", "--l-max", "2")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["intervals"]) == 2
        assert payload["intervals"][0] == pytest.approx(0.7853981, abs=1e-4)

    def test_no_measurements_is_validation_error(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--n", "20", "--l-max", "0")
        assert code == 2
        assert out == ""
        assert "l_max" in err

    def test_intervals_too_many_for_memory_is_validation_error(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--n", "20", "--l-max", "1000000000000")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "physical memory" in err

    @pytest.mark.parametrize("n", ["20", "200"])
    def test_replayed_schedule_reproduces_greedy_rows(self, capsys, tmp_path, n):
        path = tmp_path / "sched.json"
        assert run_cli(capsys, "optimize", "--n", n, "--out", str(path))[0] == 0
        _, greedy, _ = run_cli(capsys, "protocol", "--n", n)
        _, replay, _ = run_cli(capsys, "protocol", "--n", n, "--schedule", str(path))

        def rows(text):
            lines = text.splitlines()
            return lines[lines.index("l,tau_l_natural,t_abs_natural,step_success,P_l"):]

        assert len(rows(greedy)) == 21
        assert rows(replay) == rows(greedy)


class TestConfigMerge:
    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "l_max": 5}))
        code, out, _ = run_cli(
            capsys, "optimize", "--config", str(cfg), "--l-max", "1"
        )
        assert code == 0
        assert len(json.loads(out)["intervals"]) == 1

    def test_config_supplies_missing_keys(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "l_max": 2}))
        code, out, _ = run_cli(capsys, "optimize", "--config", str(cfg))
        assert code == 0
        assert len(json.loads(out)["intervals"]) == 2

    def test_bad_config_is_validation_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([1, 2, 3]))
        code, _, err = run_cli(capsys, "optimize", "--config", str(cfg), "--n", "2")
        assert code == 2
        assert "JSON object" in err

    def test_missing_config_file(self, capsys):
        code, _, _ = run_cli(capsys, "optimize", "--config", "/nonexistent.json", "--n", "2")
        assert code == 2

    @pytest.mark.parametrize(
        "argv,config",
        [
            (("protocol",), {"n": [5]}),
            (("protocol",), {"n": None}),
            (("protocol",), {"n": 20, "l_max": None}),
            (("protocol",), {"n": 20, "gamma": [1]}),
            (("fit", "--fit", "peak"), {"n_values": 5}),
            (("protocol",), {"n": 2.5, "l_max": 1}),
            (("protocol",), {"n": 20, "l_max": 2.9}),
            (("protocol",), {"n": 20, "l_max": True}),
            (("figure",), {"fig": 2.7}),
            (("fit", "--fit", "peak"), {"n_values": [20.5, 50, 100, 150, 200]}),
            (("fit", "--fit", "time"), {"n_values": [4, 5, 6, 7], "p_values": [1.0, 0.01, 0.001]}),
            (("fit", "--fit", "time"), {"n_values": [4, 5, 6, 7], "p_values": [0.1, 0.0]}),
            (("fit", "--fit", "time"), {"n_values": [4, 5, 6, 7], "p_values": [True, 0.01, 0.001]}),
            (("fit", "--fit", "time"), {"n_values": [4, 5, 6, 7], "p_values": [2.0, 0.01]}),
        ],
        ids=["n-list", "n-null", "l_max-null", "gamma-list", "n_values-int",
             "n-float", "l_max-float", "l_max-bool", "fig-float", "n_values-float",
             "p_values-one", "p_values-zero", "p_values-bool", "p_values-above-one"],
    )
    def test_wrong_json_type_is_validation_error(self, capsys, tmp_path, argv, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


    @pytest.mark.parametrize(
        "argv,config",
        [
            (("protocol",), {"n": 20, "lmax": 3}),
            (("protocol",), {"n": 20, "config": "other.json"}),
            (("protocol",), {"n": 20, "command": "protocol"}),
            (("figure", "--fig", "2"), {"n": 50}),
            (("amplitude",), {"n": 10, "l_max": 3}),
            (("oracle-check",), {"inject_sign_error": "false"}),
            (("amplitude",), {"n": 10, "t_max": 1.0, "j_kelvin": "20"}),
            (("protocol",), {"n": 20, "schedule": 5}),
            (("fit",), {"fit": "width"}),
            (("figure",), {"fig": 5}),
        ],
        ids=["unknown-lmax", "config-key", "command-key", "key-of-other-command",
             "l_max-on-amplitude", "bool-as-string", "number-as-string", "schedule-int",
             "fit-choice", "fig-choice"],
    )
    def test_key_the_command_does_not_read_is_validation_error(self, capsys, tmp_path,
                                                               argv, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert_validation_error(*run_cli(capsys, *argv, "--config", str(cfg)))

    @pytest.mark.parametrize("out", [2, True, 1.5, None])
    def test_out_must_be_a_path(self, capsys, tmp_path, out):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4, "l_max": 2, "out": out}))
        assert_validation_error(*run_cli(capsys, "optimize", "--config", str(cfg)))
        os.fstat(1)  # neither stdout nor stderr was taken as the output file and closed
        os.fstat(2)

    def test_config_integer_passes_as_float(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3, "delta": 1, "t_max": 1, "dt": 1}))
        parser = cli.build_parser()
        typed = cli._read_config(parser, parser.parse_args(["amplitude", "--config", str(cfg)]))
        assert [type(typed[k]) for k in ("n", "delta", "t_max", "dt")] == [int, float, float, float]
        code, from_config, _ = run_cli(capsys, "amplitude", "--config", str(cfg))
        assert code == 0
        _, from_flags, _ = run_cli(capsys, "amplitude", "--n", "3", "--delta", "1",
                                   "--t-max", "1", "--dt", "1")
        assert data_section(from_config) == data_section(from_flags)


_NAN, _INF = math.nan, math.inf
# Hostile values of every config key the three chain commands read.
_HOSTILE_VALUES = {
    "l_max": [-1, 0, 1, 4, 2.5, "x", None],
    "gamma": [_NAN, _INF, -_INF, -0.5, 0.0, 0.01, "x"],
    "p_target": [_NAN, _INF, -_INF, -0.5, 0.0, 0.5, 1e-3, "x"],
    "schedule": ["greedy", "uniform", "missing-schedule.json"],
    "dt": [-1.0, 0.0, _NAN, _INF, 0.1, 3.0],
    "t_max": [-1.0, 0.0, _NAN, _INF, 0.1, 3.0],
    "delta": [_NAN, 0.0, 1, 2.5, "x"],
    "j_kelvin": [_NAN, 0.0, 1e-320, 20, "20"],
}
# The keys of ``_HOSTILE_VALUES`` each command reads; any other key is unknown to it.
_HOSTILE_KEYS = {
    "protocol": ("l_max", "gamma", "p_target", "schedule", "delta", "j_kelvin"),
    "amplitude": ("dt", "t_max", "delta", "j_kelvin"),
    "optimize": ("l_max", "delta"),
}


@st.composite
def _hostile_config(draw):
    """(command, config, unknown key or None) with keys drawn only from those the command reads."""
    command = draw(st.sampled_from(sorted(_HOSTILE_KEYS)))
    config = draw(st.fixed_dictionaries(
        {"n": st.sampled_from([-3, 0, 1, 2, 5, 12, 2.5, "x", None, [5], True, 10**7])},
        optional={key: st.sampled_from(_HOSTILE_VALUES[key]) for key in _HOSTILE_KEYS[command]},
    ))
    key = None
    if draw(st.integers(0, 3)) == 3:  # one draw in four adds a key the command does not read
        key = draw(st.sampled_from(
            sorted(set(_HOSTILE_VALUES) - set(_HOSTILE_KEYS[command]) | {"lmax", "fig"})))
        config[key] = 1
    return command, config, key


class TestHostileConfig:
    @settings(max_examples=200, deadline=None)
    @given(case=_hostile_config())
    def test_fails_loudly_or_succeeds_cleanly(self, tmp_path_factory, case):
        command, config, unknown = case
        cfg = tmp_path_factory.mktemp("hostile") / "cfg.json"
        if str(config.get("schedule")).endswith(".json"):
            config["schedule"] = str(cfg.parent / config["schedule"])  # never created
        cfg.write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(cfg)])
        assert code in ((2,) if unknown else (0, 2, 3)), (code, err.getvalue())
        if code == 0:
            assert "nan" not in out.getvalue().lower()
            assert "inf" not in out.getvalue().lower()
        else:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error:")


class TestFit:
    def test_peak_fit_payload(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "--fit", "peak")
        assert code == 0
        payload = json.loads(out)
        assert payload["fit"] == "peak"
        assert payload["exponent"] < 0


    @pytest.mark.parametrize("argv", [("--fit", "peak"), ()], ids=["peak", "default"])
    def test_p_values_with_peak_fit_is_validation_error(self, capsys, tmp_path, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_values": [0.1, 0.01, 0.001]}))
        code, out, err = run_cli(capsys, "fit", *argv, "--config", str(cfg))
        assert_validation_error(code, out, err)
        assert "p_values" in err


class TestFigure:
    def test_requires_fig_id(self, capsys):
        code, _, err = run_cli(capsys, "figure")
        assert code == 2
        assert "figure id" in err

    def test_fig2_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "figure", "--fig", "2")
        _, second, _ = run_cli(capsys, "figure", "--fig", "2")
        assert data_section(first) == data_section(second)


# The integer columns of every emitted table; all other data columns hold floats.
INT_COLUMNS = {"l", "N"}


def per_value_rows(lines):
    """Column header and rows re-formatted one value at a time: 17 digits for a float, str for an int."""
    header, *rows = lines
    is_int = [c in INT_COLUMNS for c in header.split(",")]
    return [header] + [
        ",".join(str(int(x)) if i else format(float(x), ".17g") for i, x in zip(is_int, row.split(",")))
        for row in rows
    ]


def array_lines(table):
    """The data lines ``render_csv`` writes for a 2-D float array."""
    text = render_csv([f"c{j}" for j in range(table.shape[1])], table)
    return text.split("\n", 3)[3].splitlines()  # after the digest, timestamp and header


def kernel_lines(table):
    """The data lines the numpy kernel writes for a 2-D float array, whatever its length."""
    return _csvio._format_block(table).splitlines()


def _power_of_ten_neighbours():
    """The double nearest 10^k and three neighbours on each side, for each k the kernel takes."""
    values = []
    for k in range(-291, 309):
        nearest = float(f"1e{k}")
        values.append(nearest)
        for toward in (0.0, math.inf):
            v = nearest
            for _ in range(3):
                v = math.nextafter(v, toward)
                values.append(v)
    return values


def _exact_ties():
    """Exact ties, doubles of 18 significant digits ending in 5 that '%.17g' rounds half-even,
    and doubles of exactly 17 digits."""
    rng = np.random.default_rng(11)
    values = [n + f for n in rng.integers(10**15, 2**51, 100).tolist() for f in (0.25, 0.5, 0.75)]
    values += [n + 0.5 for n in rng.integers(2**51, 2**52, 100).tolist()]
    values += [n + f for n in rng.integers(10**14, 10**15, 100).tolist() for f in (0.25, 0.5, 0.75)]
    return values + [q / 2**24 for q in range(3, 17, 2)]  # ties scaled by 10^23, not a double


# Doubles whose scaled product P lies within 2^-48 of a half-integer but on one side of it,
# found by lattice reduction over (X, binade) pairs; without the tie margin the kernel
# misrounds each of them.
_NEAR_TIES = [float.fromhex(h) for h in (
    "0x1.edac8039173c0p+532", "0x1.6e22db4568793p-247", "0x1.e735b3003e352p+455",
    "0x1.e16ee5d60cf47p-785", "0x1.a999ddec72acap+599", "0x1.c8586f0912f1dp+734",
    "0x1.ed11480eb4de0p+265", "0x1.e18d6d1c6d916p-620", "0x1.685f7683c20cdp-364",
    "0x1.79e0d5979f4f3p+754", "0x1.4529a28d5c17ep+382", "0x1.b6c57169b81e7p-419",
    "0x1.90529a37b7e22p+924", "0x1.9ed2f8bb00613p+1001", "0x1.6061245105274p+171",
    "0x1.a5907b02eeb93p-312", "0x1.fc6c26f899dd1p-951", "0x1.d460f4fca1d37p-147",
    "0x1.e702c23682ea6p-833", "0x1.88a4036fa081dp-691", "0x1.b18773d64ed24p-519",
    "0x1.9507d80147609p+846", "0x1.e0d0d512664b8p-38", "0x1.a9075e961727fp+133")]

FORMAT_FAMILIES = {
    "power-of-ten-neighbours": _power_of_ten_neighbours,
    "exact-ties": _exact_ties,
    "near-ties": lambda: _NEAR_TIES,
    # %g's switches between fixed and exponent notation, at X = -5/-4 and 16/17
    "notation-switches": lambda: [1e-5, 1.5e-5, 9.5e-5, 0.0001, 0.00012345, 5e-4,
                                  1.2345678901234567e16, 9.87654321e16, 1e17, 1.5e17],
    "special-values": lambda: [0.0, math.inf, math.nan, 5e-324, 2.2250738585072009e-308,
                               sys.float_info.min, sys.float_info.max, 1e-290,
                               math.nextafter(1e-290, 0.0), 2.0**1023,
                               math.nextafter(2.0**1023, 0.0)],
    "1e22-1e23": lambda: [1e22, math.nextafter(1e22, math.inf), 1e23,
                          math.nextafter(1e23, 0.0), math.nextafter(1e23, math.inf)],
}


# Run by a fresh interpreter: digests of the formatted vectors and of an 'amplitude' table,
# then the dispatch targets that numpy has on.
SIMD_PROBE = """
import hashlib, pathlib, sys
import numpy as np
from dualrail import cli
from dualrail._csvio import _format_block
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
work = pathlib.Path(sys.argv[1])
values = np.load(work / "values.npy")
undated = lambda text: "".join(l for l in text.splitlines(True) if not l.startswith("# generated="))
print(hashlib.sha256(_format_block(values[:, None]).encode()).hexdigest())
assert cli.main(["amplitude", "--n", "200", "--out", str(work / "amplitude.csv")]) == 0
print(hashlib.sha256(undated((work / "amplitude.csv").read_text()).encode()).hexdigest())
print(" ".join(k for k in __cpu_dispatch__ if __cpu_features__.get(k)))
"""


class TestCsvOutput:
    @pytest.mark.parametrize("argv", [
        ("amplitude", "--n", "7", "--t-max", "4", "--dt", "0.01"),
        ("amplitude", "--n", "7", "--t-max", "4", "--dt", "0.01", "--j-kelvin", "20"),
        ("amplitude", "--n", "3", "--t-max", "1", "--dt", "0.01"),  # 101 rows: the template
        ("protocol", "--n", "12", "--l-max", "15"),
        ("protocol", "--n", "12", "--l-max", "600", "--schedule", "uniform", "--j-kelvin", "20"),
        ("protocol", "--n", "12", "--l-max", "15", "--schedule", "uniform"),
        ("protocol", "--n", "12", "--schedule", "SCHEDULE"),
        ("protocol", "--n", "12", "--l-max", "15", "--gamma", "0.003"),
        ("protocol", "--n", "12", "--l-max", "15", "--j-kelvin", "20", "--gamma-ns", "0.2"),
        ("protocol", "--n", "12", "--l-max", "15", "--j-kelvin", "20",
         "--gamma1-ns", "0.25", "--gamma2-ns", "0.238"),
        ("figure", "--fig", "2"),
        ("figure", "--fig", "3"),
        ("figure", "--fig", "4"),
    ], ids=" ".join)
    def test_cells_have_their_per_value_bytes(self, capsys, tmp_path, argv):
        schedule = tmp_path / "sched.json"
        schedule.write_text(json.dumps({"intervals": [0.5, 1, 7.25, 1e-3, 12.0]}))
        argv = [str(schedule) if a == "SCHEDULE" else a for a in argv]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        lines = data_section(out)
        data = lines[next(i for i, l in enumerate(lines) if not l.startswith("#")):]
        assert len(data) > 2
        assert per_value_rows(data) == data
        digest = hashlib.sha256(("\n".join(per_value_rows(data)) + "\n").encode()).hexdigest()
        assert f"# digest=sha256:{digest}" in lines

    def test_render_csv_matches_format_value(self):
        # rows of numbers are read as float64: an int cell below 2^53 prints as its str
        rows = [(0, -0.0, np.float64(0.1)),
                (2**52, 5e-324, np.float64(1 / 3)),
                (0, 1e-300, 1e308),
                (2**53 - 1, 0.1, 1 / 3)]
        floats = [(0.0, -0.0, 0.1), (2.0**60, 5e-324, 1 / 3), (-12.5, 1e-300, 1e308),
                  (math.inf, 0.1, math.nan), (1e16, -1e-5, 1e17)]

        def expected_data(cells):
            return "i,x,y\n" + "".join(",".join(map(format_value, row)) + "\n" for row in cells)

        assert expected_data(rows).splitlines()[1:3] == [
            "0,-0,0.10000000000000001",
            "4503599627370496,4.9406564584124654e-324,0.33333333333333331"]
        for table, cells in ((rows, rows), (np.array(floats), floats)):
            expected = expected_data(cells)
            text = render_csv(("i", "x", "y"), table)
            digest_line, generated_line, data = text.split("\n", 2)
            assert data == expected
            assert digest_line == f"# digest=sha256:{hashlib.sha256(expected.encode()).hexdigest()}"
            assert generated_line.startswith("# generated=")

    @pytest.mark.parametrize("size", ["below-kernel-minimum", "kernel-minimum", "block-plus-one"])
    def test_block_size_picks_the_formatter(self, monkeypatch, size):
        minimum, block = _csvio._KERNEL_MIN_ROWS, _csvio._ARRAY_BLOCK
        rows, kernel_blocks = {"below-kernel-minimum": (minimum - 1, []),
                               "kernel-minimum": (minimum, [minimum]),
                               "block-plus-one": (block + 1, [block])}[size]  # 1-row tail: template
        blocks = []

        def spy(block):
            blocks.append(len(block))
            return format_block(block)

        format_block = _csvio._format_block
        monkeypatch.setattr(_csvio, "_format_block", spy)
        bits = np.random.default_rng(rows).integers(0, 2**64, 3 * rows, dtype=np.uint64)
        table = bits.view(np.float64).reshape(rows, 3)
        assert array_lines(table) == [",".join("%.17g" % v for v in row) for row in table.tolist()]
        assert blocks == kernel_blocks

    def test_array_matches_scalar_format_on_a_million_doubles(self):
        # random bit patterns: every binade, both signs, subnormals, infinities and NaNs
        bits = np.random.default_rng(20261020).integers(0, 2**64, 10**6, dtype=np.uint64)
        table = bits.view(np.float64).reshape(-1, 2)
        assert kernel_lines(table) == [f"{'%.17g' % a},{'%.17g' % b}" for a, b in table.tolist()]

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                      elements=st.floats()))
    def test_array_matches_scalar_format_property(self, table):
        assert kernel_lines(table) == [",".join("%.17g" % v for v in row) for row in table.tolist()]

    # Each family below fails a kernel without one of its guards (checked on copies of
    # ``_csvio`` with the guard removed): the neighbours of powers of ten one that takes X
    # from the rounded product, or that lets P round onto 1e17; the near ties one without
    # the tie margin; the special values one without the range test.
    @pytest.mark.parametrize("family", sorted(FORMAT_FAMILIES))
    def test_array_matches_scalar_format_on_named_families(self, family):
        values = FORMAT_FAMILIES[family]()
        values = np.array([*values, *(-v for v in values)])
        assert kernel_lines(values[:, None]) == ["%.17g" % v for v in values.tolist()]

    def test_bytes_do_not_depend_on_simd_dispatch(self, tmp_path):
        # numpy's AVX-512 kernels off in a second process: np.log10 only seeds X, so the
        # same vectors and an N = 200 'amplitude' table must give the same bytes.  It has
        # power only on a host where those kernels were on.
        rng = np.random.default_rng(5)
        values = [rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)]
        values += [np.array(family(), float) for family in FORMAT_FAMILIES.values()]
        np.save(tmp_path / "values.npy", np.concatenate(values))
        runs = []
        for disabled in (None, "X86_V4 AVX512_ICL AVX512_SPR"):
            env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1]),
                   "OPENBLAS_NUM_THREADS": "1"}
            env.pop("NPY_DISABLE_CPU_FEATURES", None)
            if disabled:
                env["NPY_DISABLE_CPU_FEATURES"] = disabled
            runs.append(subprocess.run([sys.executable, "-c", SIMD_PROBE, str(tmp_path)],
                                       capture_output=True, text=True, env=env, timeout=300))
        default, reduced = runs
        assert default.returncode == 0, default.stderr
        if reduced.returncode and "NPY_DISABLE_CPU_FEATURES" in reduced.stderr:
            pytest.skip(f"numpy rejects the setting: {reduced.stderr.strip().splitlines()[-1]}")
        assert reduced.returncode == 0, reduced.stderr
        *digests, features = default.stdout.splitlines()
        *reduced_digests, reduced_features = reduced.stdout.splitlines()
        print(f"dispatch targets on: [{features}], with the setting: [{reduced_features}]")
        assert len(digests) == 2 and reduced_digests == digests

    def test_line_breaks_are_the_splitlines_boundaries(self):
        assert LINE_BREAKS == {c for c in map(chr, range(sys.maxunicode + 1))
                               if len(f"a{c}b".splitlines()) == 2}

    def test_render_csv_empty_table_is_the_header_line(self):
        text = render_csv(("t_natural", "p_transfer"), [], {"n": 3})
        meta_line, digest_line, _, data = text.split("\n", 3)
        assert meta_line == "# n=3"
        assert data == "t_natural,p_transfer\n"
        assert digest_line == f"# digest=sha256:{hashlib.sha256(data.encode()).hexdigest()}"


REMOVED_FLAGS = [
    (command, flag)
    for command in ("fit", "figure", "oracle-check")
    for flag in (("--n", "20"), ("--delta", "0.3"), ("--j-kelvin", "20"))
] + [("optimize", ("--j-kelvin", "20"))] + [
    # a uniform field is a global phase, so no command takes one
    (command, ("--b-field", "1e20")) for command in sorted(OPTIONS)
]

# One well-typed config value for every key some command reads.
CONFIG_SAMPLE = {
    "out": "out.csv", "n": 3, "delta": 0.5, "b_field": 0.5, "j_kelvin": 20.0, "t_max": 1.0,
    "dt": 0.5, "schedule": "uniform", "l_max": 2, "p_target": 0.1, "gamma": 0.01,
    "gamma_ns": 0.1, "gamma1_ns": 0.1, "gamma2_ns": 0.2, "fit": "time", "fig": 3,
    "inject_sign_error": True, "n_values": [20], "p_values": [0.1],
}
VALID_ARGV = {"fit": ("--fit", "peak"), "figure": ("--fig", "2"), "oracle-check": (),
              "optimize": ("--n", "4", "--l-max", "2"), "amplitude": ("--n", "20"),
              "protocol": ("--n", "20", "--l-max", "3")}


class TestOptionSurface:
    def test_option_destinations(self):
        parser = cli.build_parser()
        assert set(cli._COMMANDS) == set(OPTIONS)
        assert {command: set(cli._options(parser, command)) for command in OPTIONS} == OPTIONS
        assert sum(map(len, OPTIONS.values())) == 33

    @pytest.mark.parametrize("command,flag", REMOVED_FLAGS,
                             ids=[f"{c} {f[0]}" for c, f in REMOVED_FLAGS])
    def test_flag_the_command_does_not_read_is_rejected(self, capsys, command, flag):
        code, out, err = run_cli(capsys, command, *VALID_ARGV[command], *flag)
        assert_validation_error(code, out, err)
        assert "unrecognized arguments" in err

    # an unknown flag is test_flag_the_command_does_not_read_is_rejected
    @pytest.mark.parametrize("argv", [("protocol", "--n", "abc"), (), ("fit", "--fit", "width")],
                             ids=["bad-value", "missing-command", "bad-choice"])
    def test_command_line_error_is_one_error_line(self, capsys, argv):
        assert_validation_error(*run_cli(capsys, *argv))

    # a schedule path and a stray argument quoted in the message, each holding a line break
    # (any of str.splitlines' line boundaries)
    @pytest.mark.parametrize("where", ["schedule-path", "argument"])
    @pytest.mark.parametrize("brk, escape", [("\n", "\\n"), ("\r", "\\r"), ("\v", "\\x0b"),
                                             ("\u2028", "\\u2028")],
                             ids=["LF", "CR", "VT", "LS"])
    def test_line_break_in_an_error_is_escaped(self, capsys, tmp_path, where, brk, escape):
        if where == "schedule-path":
            path = tmp_path / f"sched{brk}l,tau_l_natural,FAKE{brk}1.json"
            path.write_text("[1.0, 2.0]")
            argv = ("--schedule", str(path))
            shown = f"sched{escape}l,tau_l_natural,FAKE{escape}1.json"
        else:
            argv, shown = (f"foo{brk}bar",), f"unrecognized arguments: foo{escape}bar"
        code, out, err = run_cli(capsys, "protocol", "--n", "5", *argv)
        assert_validation_error(code, out, err)
        assert shown in err

    @pytest.mark.parametrize("launch", [("-m", "dualrail"),
                                        ("-c", "from dualrail import cli; cli.entrypoint()")],
                             ids=["python-m", "entrypoint"])
    @pytest.mark.parametrize("argv, code", [(("amplitude", "--n", "3", "--t-max", "1"), 0),
                                            (("amplitude", "--n", "3", "--bogus"), 2)],
                             ids=["csv", "unknown-flag"])
    def test_process_entry_points(self, launch, argv, code):
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
        done = subprocess.run([sys.executable, *launch, *argv], capture_output=True, text=True,
                              env=env, timeout=60)
        assert done.returncode == code, done.stderr
        if code == 0:
            assert done.stderr == ""
            assert "t_natural,p_transfer" in done.stdout.splitlines()
        else:
            assert_validation_error(done.returncode, done.stdout, done.stderr)
            assert "unrecognized arguments: --bogus" in done.stderr

    @pytest.mark.parametrize("argv", [("--help",), ("protocol", "--help")])
    def test_help_exits_zero(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and out.startswith("usage: dualrail") and err == ""

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_config_keys_are_the_flag_destinations(self, tmp_path, command):
        parser = cli.build_parser()
        cfg = tmp_path / "cfg.json"
        args = parser.parse_args([command, "--config", str(cfg)])
        lists = {"n_values", "p_values"} if command == "fit" else set()
        accepted = {key: CONFIG_SAMPLE[key] for key in (OPTIONS[command] - {"config"}) | lists}
        cfg.write_text(json.dumps(accepted))
        assert cli._read_config(parser, args) == accepted
        for key in sorted(CONFIG_SAMPLE.keys() - accepted.keys() | {"config", "command", "lmax"}):
            cfg.write_text(json.dumps({key: CONFIG_SAMPLE.get(key, 1)}))
            with pytest.raises(ValueError, match="unknown config key"):
                cli._read_config(parser, args)

    def test_readme_flag_table_matches_parser(self):
        rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", README, flags=re.M)
        table = {command: set(re.findall(r"`(--[a-z0-9-]+)`", flags)) for command, flags in rows}
        parser = cli.build_parser()
        assert table == {
            command: {s for action in cli._options(parser, command).values()
                      for s in action.option_strings}
            for command in OPTIONS
        }


class TestSharedParser:
    """``main`` parses every call with one parser built at import; no call leaves state in it."""

    def calls(self, tmp_path):
        unknown_key = tmp_path / "unknown.json"
        unknown_key.write_text(json.dumps({"n": 4, "lmax": 2}))
        hostile = tmp_path / "hostile.json"
        hostile.write_text(json.dumps({"n": 5, "p_target": math.nan}))
        return [*((command, *argv) for command, argv in VALID_ARGV.items()),
                ("amplitude", "--n", "6", "--t-max", "2", "--out", str(tmp_path / "out.csv")),
                ("protocol", "--n", "5", "--bogus"),
                ("optimize", "--config", str(unknown_key)),
                ("protocol", "--config", str(hostile)),
                ("amplitude", "--n", "4", "--dt", "nan"),
                ("protocol", "--n", "10", "--p-target", "1e-9", "--l-max", "2")]

    def outcome(self, capsys, tmp_path, argv):
        """Exit code, stdout, stderr and --out file of one call, '# generated=' lines dropped."""
        out_path = tmp_path / "out.csv"
        out_path.unlink(missing_ok=True)
        code, out, err = run_cli(capsys, *argv)
        written = out_path.read_text(encoding="utf-8") if out_path.exists() else None
        return code, data_section(out), err, written and data_section(written)

    def test_each_call_matches_a_fresh_parser(self, capsys, monkeypatch, tmp_path):
        shared = cli._PARSER
        codes = []
        for _ in range(2):
            for argv in self.calls(tmp_path):
                monkeypatch.setattr(cli, "_PARSER", shared)
                got = self.outcome(capsys, tmp_path, argv)
                monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
                assert got == self.outcome(capsys, tmp_path, argv), argv
                codes.append(got[0])
        assert codes == 2 * ([0] * 7 + [2, 2, 2, 2, 3])


class TestReadmeExamples:
    def test_examples_found(self):
        assert len(readme_commands()) >= 12

    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_example_runs(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)  # examples may write files such as schedule.json
        code, _, err = run_cli(capsys, *argv)
        assert code == (4 if "--inject-sign-error" in argv else 0), err
