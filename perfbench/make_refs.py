"""Write refs.json: expected outputs the benchmark cannot derive on its own.

Runs the command line of the checkout in-process over every pool entry the
decks can draw (greedy schedules, p_target runs, fit grids) and over the
fixed figure and fit jobs, and stores the parsed results.  Run it only on a
commit whose outputs are the intended behaviour:

    python3 perfbench/make_refs.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

# run sets the BLAS thread count before numpy loads, so it is imported first
from run import HERE, environment, execute, import_cli
from checks import parse_csv
from workloads import (FIT_PEAK_MAXIMA, GREEDY_CENTRES, GREEDY_L_MAX, P_TARGET,
                       P_TARGET_CENTRES, P_TARGET_L_CAP, _VARIANTS, Job, fit_peak_grid, pool)


def _run(cli, argv: list, work: Path) -> str:
    job = Job(name="ref", kind="ref", argv=[*argv, "--out", str(work / "out.txt")])
    _, code, text, err = execute(cli, job)
    if code not in (0, 4) or text is None:
        raise SystemExit(f"{' '.join(argv)} exited {code}: {err}")
    return text


def _trajectory(text: str) -> dict:
    problems, columns, rows = parse_csv(text)
    if problems:
        raise SystemExit("; ".join(problems))
    return {"intervals": rows[:, columns.index("tau_l_natural")].tolist(),
            "P_l": rows[:, columns.index("P_l")].tolist()}


def main() -> int:
    cli = import_cli()
    refs = {"provenance": environment(), "greedy": {}, "p_target": {}, "fit": {}, "figure": {}}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        work = Path(tmp)
        for n in pool(GREEDY_CENTRES):
            print(f"greedy N={n}", flush=True)
            refs["greedy"][str(n)] = _trajectory(
                _run(cli, ["protocol", "--n", str(n), "--l-max", str(GREEDY_L_MAX)], work))
        for n in pool(P_TARGET_CENTRES):
            print(f"p_target N={n}", flush=True)
            refs["p_target"][str(n)] = _trajectory(_run(
                cli, ["protocol", "--n", str(n), "--p-target", repr(P_TARGET),
                      "--l-max", str(P_TARGET_L_CAP)], work))
        for fig in (2, 3, 4):
            _, columns, rows = parse_csv(_run(cli, ["figure", "--fig", str(fig)], work))
            refs["figure"][str(fig)] = {"columns": columns, "rows": rows.tolist()}
        refs["fit"]["time"] = json.loads(_run(cli, ["fit", "--fit", "time"], work))
        for n_max in FIT_PEAK_MAXIMA:
            for variant in range(len(_VARIANTS)):
                cfg = work / "fit.json"
                cfg.write_text(json.dumps({"n_values": fit_peak_grid(n_max, variant)}))
                refs["fit"][f"peak:{n_max}:{variant}"] = json.loads(
                    _run(cli, ["fit", "--fit", "peak", "--config", str(cfg)], work))
    with open(HERE / "refs.json", "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
