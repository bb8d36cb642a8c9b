"""Summarise or compare result sets written by ``run.py --out``.

    python3 perfbench/compare.py SET            # spread of one set
    python3 perfbench/compare.py PARENT CHANGE  # verdict per workload and metric

A set is a JSON-lines file or a directory of them.  With one set, each
metric's spread (quartile distance over median) is printed against its bound
from BENCHMARK.json.  With two, each metric gets the parent's and the
change's median and quartiles, the pair-win ratio (runs paired by seed, else
in file order; ties count for neither side) and a verdict:

* worse: the change's median is worse than the parent's by more than the bound;
* improved: the change wins at least 9 of 10 pairs and the medians differ by
  more than the parent's quartile distance;
* unresolved: the parent's spread exceeds the bound and not every change run
  beats every parent run;
* unchanged: otherwise.

Exits 1 when any metric is worse or any run was incorrect, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> list:
    p = Path(path)
    files = sorted(p.glob("*.jsonl")) if p.is_dir() else [p]
    return [json.loads(line) for f in files for line in f.read_text().splitlines() if line.strip()]


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def series(records: list, workload: str, metric: str) -> list:
    """(seed, value) of every run of a workload reporting the metric."""
    return [(r["seed"], r["metrics"][metric]["value"]) for r in records
            if r["workload"] == workload and metric in r["metrics"]]


def verdict(parent: list, change: list, better: str, bound) -> tuple:
    """(verdict, pair-win ratio) of two (seed, value) series."""
    sign = 1.0 if better == "lower" else -1.0
    p_vals, c_vals = [v for _, v in parent], [v for _, v in change]
    p1, pm, p3 = quartiles(p_vals)
    _, cm, _ = quartiles(c_vals)
    by_seed = dict(parent)
    if len(by_seed) == len(parent) and all(s in by_seed for s, _ in change):
        pairs = [(by_seed[s], v) for s, v in change]
    else:
        pairs = list(zip(p_vals, c_vals))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    ratio = wins / len(pairs) if pairs else 0.0
    if bound is None:
        return "n/a", ratio
    if pm == 0:
        return ("unchanged" if cm == 0 else "worse" if sign * cm > 0 else "improved"), ratio
    worse_share = sign * (cm - pm) / abs(pm)
    all_better = max(sign * c for c in c_vals) < min(sign * p for p in p_vals)
    if worse_share > bound:
        return "worse", ratio
    if worse_share < 0 and ratio >= 0.9 and abs(cm - pm) > p3 - p1:
        return "improved", ratio
    if (p3 - p1) / abs(pm) > bound and not all_better:
        return "unresolved", ratio
    return "unchanged", ratio


def main(argv: list) -> int:
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = ([(m, m["bound"]) for m in bench["end_to_end"]]
               + [(m, None) for m in bench["per_layer"]])
    sets = [load(a) for a in argv]
    status = 0
    for records, label in zip(sets, argv):
        bad = [r for r in records if not r["correct"]]
        if bad:
            status = 1
            print(f"{label}: {len(bad)} incorrect runs: "
                  + ", ".join(f"{r['workload']}/{r['seed']}" for r in bad))
    for workload in [w["name"] for w in bench["workloads"]]:
        print(f"\n== {workload}")
        for m, bound in metrics:
            name = m["name"]
            runs = [series(records, workload, name) for records in sets]
            if not all(runs):
                continue
            cells = []
            for run in runs:
                q1, med, q3 = quartiles([v for _, v in run])
                cells.append(f"{med:.6g} [{q1:.4g}, {q3:.4g}] n={len(run)}")
            if len(sets) == 1:
                q1, med, q3 = quartiles([v for _, v in runs[0]])
                spread = (q3 - q1) / abs(med) if med else 0.0
                if bound is None:
                    note = f"spread {spread:.3f}"
                else:
                    ok = "ok" if spread <= bound / 3 else "within bound" if spread <= bound else "TOO WIDE"
                    note = f"spread {spread:.3f} / bound {bound} -> {ok}"
                print(f"{name:40s} {m['unit']:6s} {cells[0]}  {note}")
            else:
                word, ratio = verdict(runs[0], runs[1], m["better"], bound)
                status |= word == "worse"
                print(f"{name:40s} {m['unit']:6s} parent {cells[0]} | change {cells[1]} | "
                      f"pair-win {ratio:.2f} | {word}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
