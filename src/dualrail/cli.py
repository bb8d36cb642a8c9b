"""Command-line entry point for reproducible runs.

Each command takes only the flags it reads.  Configuration comes from an
optional JSON file (--config) with flag overrides; flags always win.  A config
key is the destination of one of the command's flags ('--l-max' -> 'l_max'),
plus the list keys 'n_values' and 'p_values' for 'fit'; its value must have
the flag's type (a JSON integer passes as a float).  Any other key or type is
a validation error.  Every command returns its output text and exit code, and
``main`` alone writes them: the text to stdout or --out, an error as one
'error:' line on stderr with its line breaks escaped.  The output is
deterministic: rerunning with the same configuration reproduces a
byte-identical data section (only the '# generated=' header line changes).

Exit codes: 0 success, 2 validation error, 3 failure threshold not reached,
4 conformance failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from . import analysis, oracle, protocol
from ._csvio import LINE_BREAKS, render_csv, typed, write_text
from .chain_core import (ChainSpec, PhaseGrid, SpectralDecomposition, build_sector_hamiltonian,
                         diagonalize, grid_points, require_physical_memory, time_scale)
from .protocol import NoiseParams, Schedule
from .scheduler import ThresholdNotReached, greedy_optimize, greedy_run, uniform_schedule

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_THRESHOLD = 3
EXIT_CONFORMANCE = 4

# Each line boundary written as its escape, so that an error message quoting a path or an
# argument stays one line.
_ESCAPED_BREAKS = str.maketrans({c: c.encode("unicode_escape").decode("ascii")
                                 for c in LINE_BREAKS})

# Peak memory of one output row, run through rendered CSV, as peak-RSS growth in a fresh
# CPython 3.11 (x86-64) process, ns columns on: 226 B per `amplitude` grid point (at 10^6
# rows, N = 50; 245 B at N = 1000) and per `protocol` measurement 582 B for a damped
# uniform schedule (slope from 10^5 to 4 x 10^5 rows) and up to 734 B for greedy (N = 12
# to 1000, slopes over 4 x 10^4 to 10^5 rows), rounded up.
_AMPLITUDE_POINT_BYTES = 250
_MEASUREMENT_BYTES = 800


class _Parser(argparse.ArgumentParser):
    """Raises a command-line error as ValueError, so ``main`` reports it like any other."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dualrail",
        description="Conclusive state transfer through parallel spin chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, chain=False, j_kelvin=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--out", help="output path (default: stdout)")
        if chain:
            p.add_argument("--n", type=int, help="chain length")
            p.add_argument("--delta", type=float, help="XXZ anisotropy (default 1)")
        if j_kelvin:
            p.add_argument("--j-kelvin", type=float, dest="j_kelvin",
                           help="coupling J/k_B in Kelvin, for unit conversion only: "
                                "ns columns and the --gamma-ns/--gamma1-ns/--gamma2-ns rates")
        return p

    p = command("amplitude", "end-to-end transfer probability over a time grid",
                chain=True, j_kelvin=True)
    p.add_argument("--t-max", type=float, dest="t_max", help="grid end, natural units")
    p.add_argument("--dt", type=float, help="grid step, natural units (default 0.01)")

    p = command("protocol", "run the repeated-measurement protocol", chain=True, j_kelvin=True)
    p.add_argument("--schedule", help="'greedy', 'uniform', or a schedule JSON file")
    p.add_argument("--l-max", type=int, dest="l_max",
                   help="number of measurements (greedy and uniform only)")
    p.add_argument("--p-target", type=float, dest="p_target",
                   help="stop when P(l) reaches this value (greedy only)")
    p.add_argument("--gamma", type=float, help="symmetric damping rate, natural units")
    p.add_argument("--gamma-ns", type=float, dest="gamma_ns",
                   help="symmetric damping rate in 1/ns (needs --j-kelvin)")
    p.add_argument("--gamma1-ns", type=float, dest="gamma1_ns",
                   help="rail-1 damping rate in 1/ns (needs --j-kelvin)")
    p.add_argument("--gamma2-ns", type=float, dest="gamma2_ns",
                   help="rail-2 damping rate in 1/ns (needs --j-kelvin)")

    p = command("optimize", "emit a greedily optimized schedule as JSON", chain=True)
    p.add_argument("--l-max", type=int, dest="l_max", help="number of intervals")

    p = command("fit", "power-law fits of the scaling laws")
    p.add_argument("--fit", choices=("peak", "time"), help="which scaling law")

    p = command("figure", "emit a figure dataset as CSV")
    p.add_argument("--fig", type=int, choices=(2, 3, 4), help="figure id")

    p = command("oracle-check", "run the brute-force conformance suite")
    p.add_argument("--inject-sign-error", action="store_true",
                   help="debug: flip the hopping sign to prove the checks have power")

    return parser


# The one parser of ``main``: it reads no argv, config or input, so it is built with the
# imports, and each parse_args call starts from a fresh namespace.
_PARSER = build_parser()

# Config-only list inputs, by command, with the type of their entries.
_CONFIG_LISTS = {"fit": {"n_values": int, "p_values": float}}


def _options(parser: argparse.ArgumentParser, command: str) -> dict:
    """Destination -> argparse action of each option ``command`` takes."""
    commands = next(a for a in parser._actions if a.dest == "command").choices
    return {a.dest: a for a in commands[command]._actions if a.dest != "help"}


def _read_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    """The config file's keys, each typed like its flag, overridden by the given flags."""
    options = _options(parser, args.command)
    lists = _CONFIG_LISTS.get(args.command, {})
    cfg = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in config.items():
            if key in lists:
                cfg[key] = [typed(v, lists[key], f"{key} entry") for v in typed(value, list, key)]
                continue
            if key == "config" or key not in options:
                raise ValueError(f"unknown config key {key!r} for {args.command}")
            action = options[key]
            value = typed(value, bool if action.nargs == 0 else action.type or str, key)
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"{key} must be one of {action.choices}, got {value!r}")
            cfg[key] = value
    cfg.update((key, value) for key, value in vars(args).items()
               if key not in ("config", "command") and value is not None and value is not False)
    return cfg


def _chain(cfg: dict) -> tuple[ChainSpec, SpectralDecomposition]:
    """The chain's spec and the spectrum of its single-excitation sector."""
    if "n" not in cfg:
        raise ValueError("chain length required (--n)")
    spec = ChainSpec(n_sites=cfg["n"], anisotropy=cfg.get("delta", 1.0))
    return spec, diagonalize(build_sector_hamiltonian(spec))


def _cmd_amplitude(cfg: dict) -> tuple[str, int]:
    spec, dec = _chain(cfg)
    dt = cfg.get("dt", 0.01)
    t_max = cfg.get("t_max", 1.5 * time_scale(spec.n_sites))
    if not all(math.isfinite(x) and x > 0 for x in (dt, t_max)):
        raise ValueError("t grid needs finite positive --dt and --t-max")
    n_points = grid_points(0.0, t_max, dt)  # as a float below, a huge count's bytes read inf
    require_physical_memory(float(n_points) * _AMPLITUDE_POINT_BYTES,
                            f"a t grid of {n_points:.4g} points")
    grid = PhaseGrid(dec.energies, 0.0, t_max, dt)
    probs = np.abs(grid.sums(dec.receiver * dec.sender)) ** 2
    j_kelvin = cfg.get("j_kelvin")
    ns = () if j_kelvin is None else (analysis.natural_time_to_ns(grid.times, j_kelvin),)
    columns = ("t_natural", *("t_ns" for _ in ns), "p_transfer")
    meta = {"command": "amplitude", "n": spec.n_sites, "delta": spec.anisotropy}
    return render_csv(columns, np.column_stack((grid.times, *ns, probs)), meta), EXIT_OK


def _l_max(cfg: dict) -> int:
    """The measurement count, rejected before any run when its rows could not fit in memory."""
    l_max = cfg.get("l_max", 20)
    require_physical_memory(l_max * _MEASUREMENT_BYTES, f"l_max={l_max} measurements")
    return l_max


def _resolve_noise(cfg: dict) -> NoiseParams:
    """NoiseParams from one family of natural or laboratory-unit rates, zero without one."""
    families = (("gamma",), ("gamma_ns",), ("gamma1_ns", "gamma2_ns"))
    if sum(any(key in cfg for key in family) for family in families) > 1:
        raise ValueError("give one of --gamma, --gamma-ns or --gamma1-ns/--gamma2-ns")
    j_kelvin = cfg.get("j_kelvin")
    if "gamma1_ns" in cfg or "gamma2_ns" in cfg:
        if "gamma1_ns" not in cfg or "gamma2_ns" not in cfg or j_kelvin is None:
            raise ValueError("asymmetric rates need --gamma1-ns, --gamma2-ns and --j-kelvin")
        return NoiseParams(
            gamma_1=analysis.gamma_ns_to_natural(cfg["gamma1_ns"], j_kelvin),
            gamma_2=analysis.gamma_ns_to_natural(cfg["gamma2_ns"], j_kelvin),
        )
    if "gamma_ns" in cfg:
        if j_kelvin is None:
            raise ValueError("--gamma-ns needs --j-kelvin")
        return NoiseParams(analysis.gamma_ns_to_natural(cfg["gamma_ns"], j_kelvin))
    return NoiseParams(cfg.get("gamma", 0.0))


def _cmd_protocol(cfg: dict) -> tuple[str, int]:
    spec, dec = _chain(cfg)
    noise = _resolve_noise(cfg)
    source = cfg.get("schedule", "greedy")
    if source in ("greedy", "uniform"):
        l_max = _l_max(cfg)
    elif "l_max" in cfg:
        raise ValueError("a schedule file sets the measurement count; drop --l-max")
    p_target = cfg.get("p_target")
    if p_target is not None and source != "greedy":
        raise ValueError("--p-target requires --schedule greedy")

    if source == "greedy":
        run = greedy_run(dec, l_max=l_max, p_target=p_target, noise=noise)
    else:
        schedule = (uniform_schedule(spec.n_sites, l_max) if source == "uniform"
                    else Schedule.from_json(source))
        run = protocol.run_schedule(dec, schedule, noise)

    columns = ("l", "tau_l_natural", "t_abs_natural", "step_success", "P_l")
    cells = itertools.chain.from_iterable(run.records)  # each record's fields, in column order
    table = np.fromiter(cells, float).reshape(-1, len(columns))
    j_kelvin = cfg.get("j_kelvin")
    if j_kelvin is not None:  # tau_l_ns and t_abs_ns after their natural-unit columns
        ns = analysis.natural_time_to_ns(table[:, 1:3], j_kelvin)
        table = np.insert(table, [2, 3], ns, axis=1)
        columns = ("l", "tau_l_natural", "tau_l_ns", "t_abs_natural", "t_abs_ns", *columns[3:])
    meta = {"command": "protocol", "n": spec.n_sites, "schedule": source,
            "gamma_natural": noise.gamma_1}
    if not noise.symmetric:
        meta["gamma2_natural"] = noise.gamma_2
        meta["qubit"] = "balanced"
    return render_csv(columns, table, meta), EXIT_OK


def _cmd_optimize(cfg: dict) -> tuple[str, int]:
    _, dec = _chain(cfg)
    schedule = greedy_optimize(dec, l_max=_l_max(cfg))
    return schedule.to_json() + "\n", EXIT_OK


def _cmd_fit(cfg: dict) -> tuple[str, int]:
    kind = cfg.get("fit", "peak")
    if kind == "peak":
        if "p_values" in cfg:
            raise ValueError("p_values is read only by --fit time")
        fit = analysis.fit_peak_scaling(cfg.get("n_values", (20, 50, 100, 150, 200)))
    else:
        fit = analysis.fit_time_scaling(cfg.get("n_values", analysis.FIG3_N_SET),
                                        cfg.get("p_values", analysis.FIG3_P_SET))
    payload = {
        "fit": kind,
        "prefactor": fit.prefactor,
        "exponent": fit.exponent,
        "residual_rms": fit.residual_rms,
        "sample_range": list(fit.sample_range),
    }
    return json.dumps(payload, indent=2) + "\n", EXIT_OK


def _cmd_figure(cfg: dict) -> tuple[str, int]:
    if "fig" not in cfg:
        raise ValueError("figure id required (--fig 2|3|4)")
    dataset = analysis.reproduce_figure(cfg["fig"])
    return dataset.to_csv(), EXIT_OK


def _cmd_oracle_check(cfg: dict) -> tuple[str, int]:
    report = oracle.conformance_report(inject_sign_error=cfg.get("inject_sign_error", False))
    code = EXIT_OK if report["passed"] else EXIT_CONFORMANCE
    return json.dumps(report, indent=2) + "\n", code


_COMMANDS = {
    "amplitude": _cmd_amplitude,
    "protocol": _cmd_protocol,
    "optimize": _cmd_optimize,
    "fit": _cmd_fit,
    "figure": _cmd_figure,
    "oracle-check": _cmd_oracle_check,
}


def main(argv=None) -> int:
    """Run one command: the only writer of its output (stdout or --out) and of its error line."""
    try:
        args = _PARSER.parse_args(argv)
        cfg = _read_config(_PARSER, args)
        text, code = _COMMANDS[args.command](cfg)
        if cfg.get("out"):
            write_text(cfg["out"], text)
        else:
            sys.stdout.write(text)
        return code
    except ThresholdNotReached as exc:
        error, code = exc, EXIT_THRESHOLD
    except (ValueError, TypeError, OSError) as exc:
        error, code = exc, EXIT_VALIDATION
    print(f"error: {str(error).translate(_ESCAPED_BREAKS)}", file=sys.stderr)
    return code


def entrypoint() -> None:
    sys.exit(main())
