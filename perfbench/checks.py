"""Output checks for every benchmark job.

Each check returns a list of problems; an empty list means the output is
correct.  Expected values come from two places:

* an independent model of the protocol written here in the eigenbasis
  (amplitudes a = V^T c, evolve a *= exp(-iE tau), measure a -= c_N v_N),
  which shares no code with the package, for replays, damped runs and
  amplitude curves;
* ``refs.json`` (written by make_refs.py) for greedy schedules, figures and
  fits, whose outputs a short independent model cannot reproduce.

Tolerances: P(l) and other probabilities within 1e-9 (the oracle's protocol
tolerance), greedy intervals within the scheduler's refine_tol of 1e-6, fitted
values and crossing times within a relative 1e-6.
"""

from __future__ import annotations

import hashlib
import io
import json
import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

from workloads import GREEDY_L_MAX, HBAR_OVER_KB_NS_K, P_TARGET

P_TOL = 1e-9
TAU_TOL = 1e-6
REL_TOL = 1e-6
IDENTITY_TOL = 1e-12
_CHUNK = 2048


# --- independent model -------------------------------------------------------

def _spectrum(n: int):
    """Eigensystem of the isotropic single-excitation sector (off-diagonal -2, ends 2, bulk 4)."""
    diagonal = np.full(n, 4.0)
    diagonal[0] = diagonal[-1] = 2.0
    return eigh_tridiagonal(diagonal, np.full(n - 1, -2.0))


def model_failure(n: int, intervals, gamma: float = 0.0) -> np.ndarray:
    """P(l) of the reduced protocol for a schedule, under symmetric damping ``gamma``."""
    energies, modes = _spectrum(n)
    a = modes[0, :].astype(complex)
    v_end = modes[-1, :]
    total, out = 0.0, []
    for tau in intervals:
        a *= np.exp(-1j * energies * tau) * math.exp(-gamma * tau)
        c_end = v_end @ a
        total += abs(c_end) ** 2
        a -= c_end * v_end
        out.append(1.0 - total)
    return np.asarray(out)


def model_transfer(n: int, times: np.ndarray) -> np.ndarray:
    """|<N| exp(-iHt) |1>|^2 on a time grid, in chunks to bound memory."""
    energies, modes = _spectrum(n)
    w = modes[-1, :] * modes[0, :]
    out = np.empty(len(times))
    for lo in range(0, len(times), _CHUNK):
        t = times[lo:lo + _CHUNK]
        out[lo:lo + _CHUNK] = np.abs(np.exp(-1j * np.outer(t, energies)) @ w) ** 2
    return out


# --- parsing -----------------------------------------------------------------

def parse_csv(text: str):
    """(problems, columns, rows) of a digest-stamped CSV."""
    lines = text.splitlines(keepends=True)
    head = 0
    while head < len(lines) and lines[head].startswith("#"):
        head += 1
    meta = {}
    for line in lines[:head]:
        key, _, value = line[2:].rstrip("\n").partition("=")
        meta[key] = value
    problems = []
    data = "".join(lines[head:])
    digest = hashlib.sha256(data.encode("utf-8")).hexdigest()
    if meta.get("digest") != f"sha256:{digest}":
        problems.append("# digest= does not match the data section")
    if head >= len(lines):
        return problems + ["no data section"], [], np.empty((0, 0))
    columns = lines[head].strip().split(",")
    rows = np.loadtxt(io.StringIO("".join(lines[head + 1:])), delimiter=",", ndmin=2)
    if rows.size and rows.shape[1] != len(columns):
        problems.append(f"{rows.shape[1]} values per row for {len(columns)} columns")
    if not np.all(np.isfinite(rows)):
        problems.append("non-finite values in the data section")
    return problems, columns, rows


def _close(name: str, got, want, atol: float = 0.0, rtol: float = 0.0) -> list:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: {got.shape} values, expected {want.shape}"]
    err = np.abs(got - want)
    bad = err > atol + rtol * np.abs(want)
    if np.any(bad):
        i = int(np.argmax(err))
        return [f"{name}: deviation {err[i]:.3g} at index {i} ({int(bad.sum())} beyond tolerance)"]
    return []


def _failure_trajectory(p, success) -> list:
    problems = []
    if np.any((p < 0) | (p > 1)):
        problems.append("P_l outside [0, 1]")
    if np.any(np.diff(p) > 0):
        problems.append("P_l increases")
    if np.any(success < 0):
        problems.append("negative step_success")
    problems += _close("P_l vs 1 - cumsum(step_success)", p, 1.0 - np.cumsum(success),
                       atol=IDENTITY_TOL)
    return problems


# --- per-kind checks ---------------------------------------------------------

def _protocol(job, text: str, refs: dict) -> list:
    problems, columns, rows = parse_csv(text)
    if problems:
        return problems
    col = {name: rows[:, i] for i, name in enumerate(columns)}
    needed = ("l", "tau_l_natural", "t_abs_natural", "step_success", "P_l")
    if any(name not in col for name in needed):
        return [f"protocol columns {columns}"]
    taus, p = col["tau_l_natural"], col["P_l"]
    problems += _close("l", col["l"], np.arange(1, len(p) + 1))
    problems += _failure_trajectory(p, col["step_success"])
    problems += _close("t_abs vs cumsum(tau)", col["t_abs_natural"], np.cumsum(taus),
                       rtol=IDENTITY_TOL)
    j_kelvin = job.spec.get("j_kelvin")
    if j_kelvin is not None:
        for ns, natural in (("tau_l_ns", taus), ("t_abs_ns", col["t_abs_natural"])):
            if ns not in col:
                problems.append(f"missing {ns} column")
            else:
                problems += _close(ns, col[ns], natural * HBAR_OVER_KB_NS_K / j_kelvin,
                                   rtol=IDENTITY_TOL)
    if job.kind == "asymmetric":
        return problems
    n = job.spec["n"]
    if job.kind == "replay":
        problems += _close("intervals", taus, job.spec["intervals"], rtol=IDENTITY_TOL)
        problems += _close("P_l vs model", p, model_failure(n, job.spec["intervals"],
                                                              job.spec["gamma"]), atol=P_TOL)
        return problems
    # greedy: stored schedule, and the model replaying the printed intervals
    table = "greedy" if job.kind == "greedy" else "p_target"
    ref = refs[table].get(str(n))
    if ref is None:
        return problems + [f"no stored reference for {table} N={n}"]
    problems += _close("intervals vs reference", taus, ref["intervals"], atol=TAU_TOL)
    problems += _close("P_l vs reference", p, ref["P_l"], atol=P_TOL)
    problems += _close("P_l vs model", p, model_failure(n, taus), atol=P_TOL)
    if job.kind == "p_target" and len(p) and (p[-1] > P_TARGET or np.any(p[:-1] <= P_TARGET)):
        problems.append("run did not stop at the first P_l <= p_target")
    return problems


def _optimize(job, text: str, refs: dict) -> list:
    taus = np.asarray(json.loads(text)["intervals"], dtype=float)
    problems = []
    if len(taus) != GREEDY_L_MAX or not np.all(np.isfinite(taus)) or np.any(taus <= 0):
        problems.append(f"schedule of {len(taus)} intervals, expected {GREEDY_L_MAX} positive")
        return problems
    ref = refs["greedy"].get(str(job.spec["n"]))
    if ref is None:
        return [f"no stored reference for greedy N={job.spec['n']}"]
    return _close("intervals vs reference", taus, ref["intervals"], atol=TAU_TOL)


def _amplitude(job, text: str, refs: dict) -> list:
    problems, columns, rows = parse_csv(text)
    if problems:
        return problems
    if columns[0] != "t_natural" or columns[-1] != "p_transfer":
        return [f"amplitude columns {columns}"]
    dt, t_max = job.spec["dt"], job.spec["t_max"]
    grid = np.arange(0.0, t_max + 0.5 * dt, dt)
    t, p = rows[:, 0], rows[:, -1]
    problems += _close("time grid", t, grid, atol=IDENTITY_TOL)
    if t.shape == grid.shape:
        if np.any((p < 0) | (p > 1 + IDENTITY_TOL)):
            problems.append("p_transfer outside [0, 1]")
        problems += _close("p_transfer vs model", p, model_transfer(job.spec["n"], grid),
                           atol=P_TOL)
    return problems


def _fit(job, text: str, refs: dict) -> list:
    got = json.loads(text)
    ref = refs["fit"][job.spec["key"]]
    problems = []
    for key in ("prefactor", "exponent", "residual_rms"):
        if not math.isfinite(got.get(key, math.nan)):
            problems.append(f"{key} missing or not finite")
    if problems:
        return problems
    for key in ("prefactor", "exponent", "residual_rms", "sample_range"):
        problems += _close(key, got[key], ref[key], atol=1e-12, rtol=REL_TOL)
    return problems


# Figure columns holding probabilities (absolute tolerance); the rest are
# chain lengths, rates and times (relative tolerance).
_PROBABILITY_COLUMNS = {"P_l", "P", "P_inf_exact", "P_inf_estimate"}


def _figure(job, text: str, refs: dict) -> list:
    problems, columns, rows = parse_csv(text)
    if problems:
        return problems
    ref = refs["figure"][str(job.spec["fig"])]
    if columns != ref["columns"]:
        return [f"figure columns {columns}, expected {ref['columns']}"]
    want = np.asarray(ref["rows"], dtype=float)
    if rows.shape != want.shape:
        return [f"figure has {rows.shape} cells, expected {want.shape}"]
    for i, name in enumerate(columns):
        if name in _PROBABILITY_COLUMNS:
            problems += _close(name, rows[:, i], want[:, i], atol=P_TOL)
        else:
            problems += _close(name, rows[:, i], want[:, i], rtol=REL_TOL)
    if job.spec["fig"] == 2:
        for n in np.unique(rows[:, 0]):
            p = rows[rows[:, 0] == n, 2]
            if np.any(np.diff(p) > 0) or np.any((p < 0) | (p > 1)):
                problems.append(f"fig 2 P_l of N={int(n)} not a failure trajectory")
    return problems


def _oracle(job, text: str, refs: dict) -> list:
    report = json.loads(text)
    failed = [c["check"] for c in report["checks"] if not c["passed"]]
    if job.spec.get("inject"):
        if report["passed"] or "sector_block_equivalence" not in failed:
            return ["injected sign error not detected by sector_block_equivalence"]
        return []
    return [f"conformance check {name} failed" for name in failed]


_CHECKS = {"greedy": _protocol, "p_target": _protocol, "replay": _protocol,
           "asymmetric": _protocol, "optimize": _optimize, "amplitude": _amplitude,
           "fit": _fit, "figure": _figure, "oracle": _oracle}


def check(job, exit_code, text, stderr: str, refs: dict) -> list:
    """Problems with one job's exit code and output; ``text`` is None when no file was written."""
    if exit_code != job.expect_exit:
        detail = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        problems = [f"exit {exit_code}, expected {job.expect_exit}" + (f" ({detail})" if detail else "")]
        if text is not None and job.expect_exit != 0 and "nan" in text.lower():
            problems.append("output holds NaN")
        return problems
    if job.kind == "malformed":
        problems = []
        if text is not None:
            problems.append("output written despite the validation error")
        if not stderr.startswith("error:"):
            problems.append("no 'error:' message on stderr")
        return problems
    if text is None:
        return ["no output written"]
    try:
        return _CHECKS[job.kind](job, text, refs)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
