"""Unit tests of the command-line interface: commands, config merge, exit codes."""

import json

import pytest

from dualrail import analysis, cli
from dualrail.chain_core import ChainSpec, build_sector_hamiltonian, diagonalize
from dualrail.noise import NoiseParams, asymmetric_run
from dualrail.scheduler import greedy_optimize


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_section(text):
    """CSV lines with the non-reproducible timestamp header removed."""
    return [l for l in text.splitlines() if not l.startswith("# generated=")]


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
            ("--b-field", "inf"),
        ],
    )
    def test_non_finite_input_is_validation_error(self, capsys, flags):
        code, out, err = run_cli(capsys, "amplitude", "--n", "10", "--t-max", "1", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

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

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_schedule_file_is_validation_error(self, capsys, tmp_path, bad):
        path = tmp_path / "sched.json"
        path.write_text(f'{{"intervals": [{bad}, 1.0]}}')
        code, out, err = run_cli(capsys, "protocol", "--n", "20", "--schedule", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("text", ["{}", "[1.0, 2.0]"])
    def test_schedule_file_without_intervals_is_validation_error(self, capsys, tmp_path, text):
        path = tmp_path / "sched.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "protocol", "--n", "20", "--schedule", str(path))
        assert code == 2
        assert out == ""
        assert "intervals" in err

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
        expected = asymmetric_run(dec, noise, greedy_optimize(dec, 10)).total_success
        assert 1.0 - float(rows[-1][-1]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.9659, abs=1e-4)

    def test_asymmetric_rates_reject_p_target(self, capsys):
        code, out, err = run_cli(capsys, "protocol", *self.ASYMMETRIC, "--p-target", "0.1")
        assert code == 2
        assert out == ""
        assert "symmetric" in err

    @pytest.mark.parametrize("flags", [("--delta", "nan"), ("--b-field=-inf",)])
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

    def test_p_target_needs_greedy(self, capsys):
        code, _, err = run_cli(
            capsys, "protocol", "--n", "4", "--schedule", "uniform", "--p-target", "0.1"
        )
        assert code == 2
        assert "greedy" in err


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


class TestFit:
    def test_peak_fit_payload(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "--fit", "peak")
        assert code == 0
        payload = json.loads(out)
        assert payload["fit"] == "peak"
        assert payload["exponent"] < 0


class TestFigure:
    def test_requires_fig_id(self, capsys):
        code, _, err = run_cli(capsys, "figure")
        assert code == 2
        assert "figure id" in err

    def test_fig2_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "figure", "--fig", "2")
        _, second, _ = run_cli(capsys, "figure", "--fig", "2")
        assert data_section(first) == data_section(second)
