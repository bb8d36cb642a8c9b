"""perfbench's output checks have power: a move just beyond a tolerance is rated wrong.

Each case runs one job of a seed-1 deck through ``cli.main``, checks that its
output is rated right, then moves one value just inside and just beyond the
tolerance of the one check that can see it.  ``checks`` and ``workloads`` are
imported from ``perfbench/``, which is not a package.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from dualrail import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import checks  # noqa: E402
import workloads  # noqa: E402

REFS = json.loads((PERFBENCH / "refs.json").read_text(encoding="utf-8"))


def run_job(job):
    """The job's output file, after checking its exit code and that it is rated right."""
    assert cli.main(list(job.argv)) == job.expect_exit
    text = Path(job.out).read_text(encoding="utf-8")
    assert checks.check(job, job.expect_exit, text, "", REFS) == []
    return text


def smallest(jobs, kind, accept=lambda job: True):
    return min((job for job in jobs if job.kind == kind and accept(job)),
               key=lambda job: job.spec["n"])


def shifted_replay(text, k, delta):
    """The CSV with row k's step_success up by ``delta``, every P_l from row k down by it,
    and ``# digest=`` restamped: P_l = 1 - cumsum(step_success) still holds."""
    lines = text.splitlines(keepends=True)
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    columns = lines[head].rstrip("\n").split(",")
    success, p_l = columns.index("step_success"), columns.index("P_l")
    rows = [line.rstrip("\n").split(",") for line in lines[head + 1:]]
    rows[k][success] = format(float(rows[k][success]) + delta, ".17g")
    for row in rows[k:]:
        row[p_l] = format(float(row[p_l]) - delta, ".17g")
    data = lines[head] + "".join(",".join(row) + "\n" for row in rows)
    digest = hashlib.sha256(data.encode("utf-8")).hexdigest()
    meta = [f"# digest=sha256:{digest}\n" if line.startswith("# digest=") else line
            for line in lines[:head]]
    return "".join(meta) + data


@pytest.fixture(scope="module")
def replay(tmp_path_factory):
    jobs, _ = workloads.generate("fixed_replay", 1, tmp_path_factory.mktemp("fixed_replay"))
    job = smallest(jobs, "replay", lambda job: "uniform" in job.argv and job.spec["gamma"] == 0.0)
    return job, run_job(job)


@pytest.fixture(scope="module")
def optimize(tmp_path_factory):
    jobs, _ = workloads.generate("greedy_large", 1, tmp_path_factory.mktemp("greedy_large"))
    job = smallest(jobs, "optimize")
    return job, run_job(job)


@pytest.mark.parametrize("delta, rated_right", [(2e-9, False), (5e-10, True)])
def test_replay_p_l_is_held_to_p_tol(replay, delta, rated_right):
    assert checks.P_TOL == 1e-9
    job, text = replay
    k = len(job.spec["intervals"]) // 2
    assert shifted_replay(text, k, 0.0) == text  # the rewrite itself moves no byte
    problems = checks.check(job, 0, shifted_replay(text, k, delta), "", REFS)
    if rated_right:
        assert problems == []
    else:
        assert len(problems) == 1 and problems[0].startswith("P_l vs model"), problems


@pytest.mark.parametrize("delta, rated_right", [(2e-6, False), (5e-7, True)])
def test_optimize_interval_is_held_to_tau_tol(optimize, delta, rated_right):
    assert checks.TAU_TOL == 1e-6
    job, text = optimize
    intervals = json.loads(text)["intervals"]
    intervals[len(intervals) // 2] += delta
    problems = checks.check(job, 0, json.dumps({"intervals": intervals}, indent=2) + "\n",
                            "", REFS)
    if rated_right:
        assert problems == []
    else:
        assert len(problems) == 1 and problems[0].startswith("intervals vs reference"), problems
