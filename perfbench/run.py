"""Closed-loop benchmark of the dualrail command line.

One client, one job at a time: the benchmark calls ``dualrail.cli.main(argv)``
in its own process on a deck of jobs generated from ``--seed``, reshuffling
the deck each pass, until ``--seconds`` of job time are measured and every job
has run at least once.  Every job's exit code and output are checked.

    python3 perfbench/run.py --workload greedy_large --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs whole deck
passes, untraced and with spans around each module's entry points in turn,
and prints the per-layer metrics per traced pass plus the tracing overhead.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
``--out FILE`` also appends the full record (with the environment) for
compare.py.  The package is imported from ``src/`` of the checkout that holds
this directory; the run fails without it.
"""

from __future__ import annotations

import os
import sys

# Set before numpy loads: one BLAS thread keeps a one-client run independent
# of other load on the machine, and DUALRAIL_THREADS (the figure-sweep pool)
# stays at its default.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("DUALRAIL_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from checks import check  # noqa: E402
from spans import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# Speed probe: a fixed kernel outside the package, timed about once per
# second of job time and after the last job.  The host's speed drifts by tens
# of percent over minutes and also within a run.  Each job time is divided by
# the median of the PROBE_WINDOW probes nearest to it (the two around it and
# two more on each side) over PROBE_REF_S, so runs made at different moments
# stay comparable.  One probe is itself noisy: in traces on a 2-vCPU Xeon
# virtual machine the median of six left less job-time noise than the two
# probes around the job alone or the run's median.  PROBE_REF_S is a round
# figure near the probe's time on that machine; it only sets the scale.
PROBE_REF_S = 0.05
PROBE_EVERY_S = 1.0
PROBE_WINDOW = 6

# setup_s: interpreter start-up follows the speed probe loosely, so set-up is
# normalized by its own baseline instead, a fresh interpreter that runs the
# benchmark's imports but not the package's (see measure_setup).  setup_s is
# the median set-up / baseline ratio of SETUP_REPEATS pairs times
# SETUP_REF_S, a round figure near the baseline's time on the same machine.
SETUP_REPEATS = 7
SETUP_REF_S = 0.45

# Highest percentile with at least ten samples beyond it in a 30 s run at
# the seed; fixed per workload so that a faster program, which fits more
# samples into the run, is compared at the same percentile.
TAIL_PERCENTILE = {"greedy_large": 60, "fixed_replay": 90, "paper_repro": 60}


def import_cli():
    sys.path.insert(0, str(SRC))
    try:
        from dualrail import cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import dualrail from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: dualrail imported from {cli.__file__}, not {SRC}")
    return cli


def environment() -> dict:
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        head = git.stdout.strip() if git.returncode == 0 else "none (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        head = "none (git unavailable)"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "git_head": head,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "blas": blas,
            "blas_threads": int(BLAS_THREADS),
            "DUALRAIL_THREADS": os.environ.get("DUALRAIL_THREADS", "unset")}


def _ready_time(argv: list) -> float:
    """Seconds from starting ``argv`` to its first line, which must read "ready"."""
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed: {err.strip()}")
    return elapsed


def measure_setup(workload: str, seed: int) -> tuple:
    """(set-up times, baseline times) of SETUP_REPEATS pairs of fresh interpreters.

    A set-up probe runs this script up to the first job ready: interpreter,
    the benchmark's own imports, ``dualrail`` and the deck's input files.  Its
    baseline runs the same script but stops before importing ``dualrail``.
    The two alternate in order, so each pair sees the same host speed.
    """
    setup, base = [], []
    for k in range(SETUP_REPEATS):
        probe_dir = OUT_DIR / f"setup-{os.getpid()}-{k}"
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--setup-probe", str(probe_dir)]
        if k % 2:
            setup.append(_ready_time(argv))
            base.append(_ready_time([*argv, "--setup-baseline"]))
        else:
            base.append(_ready_time([*argv, "--setup-baseline"]))
            setup.append(_ready_time(argv))
        shutil.rmtree(probe_dir, ignore_errors=True)
    return setup, base


def execute(cli, job) -> tuple:
    """(seconds, exit code, output text or None, stderr) of one in-process CLI call."""
    out = Path(job.out)
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = cli.main(list(job.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crashing job is a failed job, not a failed run
            code = None
            stderr.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    text = out.read_text(encoding="utf-8") if out.exists() else None
    return elapsed, code, text, stderr.getvalue()


class SpeedProbe:
    """Dense complex mat-vecs, a phase table, small krons and a scalar Python
    loop: the operation mix of the three workloads, on fixed inputs."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.modes = rng.standard_normal((800, 800))
        self.energies = rng.standard_normal(800)
        self.vector = rng.standard_normal(800) + 1j * rng.standard_normal(800)
        self.times = np.linspace(0.0, 50.0, 1000)
        self.small = rng.standard_normal((16, 16))

    def __call__(self) -> float:
        start = time.perf_counter()
        x = self.vector
        for _ in range(6):
            x = self.modes @ (np.exp(-0.3j * self.energies) * (self.modes.T @ x))
            x /= np.linalg.norm(x)
        np.abs(np.exp(-1j * np.outer(self.times, self.energies[:400])) @ x[:400]) ** 2
        for _ in range(4):
            k = np.kron(self.small, self.small)
            k @ k
        acc = 0.0
        for i in range(5000):
            acc += math.exp(-1e-4 * i) * math.cos(i)
        return time.perf_counter() - start


class Runner:
    """Runs and checks jobs; an output identical to one already verified is not re-checked."""

    def __init__(self, cli, refs: dict, seed: int):
        self.cli = cli
        self.refs = refs
        self.rng = np.random.default_rng([seed, 1])
        self.verified: dict = {}
        self.attempted = 0
        self.failures: list = []
        self.tracer = None

    def run(self, job) -> float:
        if self.tracer is not None:
            self.tracer.job = job.name
        elapsed, code, text, err = execute(self.cli, job)
        self.attempted += 1
        body = "".join(line for line in (text or "").splitlines(keepends=True)
                       if not line.startswith("# generated="))
        fingerprint = hashlib.sha256(f"{code}\0{text is None}\0{body}\0{err}".encode()).digest()
        if self.verified.get(job.name) != fingerprint:
            problems = check(job, code, text, err, self.refs)
            if problems:
                self.failures.append((job, problems))
            else:
                self.verified[job.name] = fingerprint
        if self.tracer is not None:
            self.tracer.counts[f"cli.exit_{code}"] += 1
            self.tracer.counts["cli.output_bytes"] += len(text.encode()) if text else 0
        return elapsed

    def probe_defect(self, job) -> list:
        """Problems of a known-defect probe; it is checked but is not a workload job."""
        _, code, text, err = execute(self.cli, job)
        return check(job, code, text, err, self.refs)

    def loop(self, jobs: list, seconds: float, probe: SpeedProbe) -> tuple:
        """Per-job wall times after at least ``seconds`` of job time and one full pass.

        Returns (wall times, the same divided by the speed probes nearest
        to each, all probe times).
        """
        samples = [[] for _ in jobs]
        before = [[] for _ in jobs]  # index of the last probe before each sample
        probe_times = []
        measured, probed = 0.0, -PROBE_EVERY_S
        while measured < seconds or not all(samples):
            for i in self.rng.permutation(len(jobs)):
                if measured - probed >= PROBE_EVERY_S:
                    probe_times.append(probe())
                    probed = measured
                samples[i].append(self.run(jobs[i]))
                before[i].append(len(probe_times) - 1)
                measured += samples[i][-1]
                if measured >= seconds and all(samples):
                    break
        probe_times.append(probe())
        side = PROBE_WINDOW // 2 - 1
        speed = [statistics.median(probe_times[max(0, k - side):k + 2 + side]) / PROBE_REF_S
                 for k in range(len(probe_times) - 1)]
        normalized = [[t / speed[k] for t, k in zip(s, b)] for s, b in zip(samples, before)]
        return samples, normalized, probe_times

    def alternate(self, jobs: list, seconds: float, tracer: Tracer) -> tuple:
        """Whole deck passes, untraced and traced in turn, until ``seconds`` of job time.

        Passes come in pairs whose order alternates (untraced first, then
        traced first), so that host drift cancels out of the overhead.
        Returns (untraced samples, traced samples, [(untraced s, traced s)]).
        """
        untraced, traced = [[] for _ in jobs], [[] for _ in jobs]
        pairs, measured = [], 0.0
        while measured < seconds or not pairs:
            spent = {}
            order = (False, True) if len(pairs) % 2 == 0 else (True, False)
            for tracing in order:
                samples = traced if tracing else untraced
                if tracing:
                    self.tracer = tracer
                    tracer.install()
                try:
                    spent[tracing] = 0.0
                    for i in self.rng.permutation(len(jobs)):
                        samples[i].append(self.run(jobs[i]))
                        spent[tracing] += samples[i][-1]
                finally:
                    if tracing:
                        tracer.uninstall()
                        self.tracer = None
            pairs.append((spent[False], spent[True]))
            measured += spent[False] + spent[True]
        return untraced, traced, pairs


def weighted_quantile(samples: list, q: float) -> float:
    """Quantile of the deck mix: each job's samples share one unit of weight."""
    pairs = sorted((t, 1.0 / len(s)) for s in samples for t in s)
    values = np.array([t for t, _ in pairs])
    weights = np.array([w for _, w in pairs])
    position = (np.cumsum(weights) - 0.5 * weights) / weights.sum()
    return float(np.interp(q, position, values))


def jobs_per_s(samples: list) -> float:
    """Deck size over the summed median time of each deck job."""
    return len(samples) / sum(statistics.median(s) for s in samples)


def end_to_end(samples: list, normalized: list, percentile: int, setup: tuple) -> tuple:
    """(metrics, wall-clock metrics).

    Job times and the rate come from the probe-normalized samples, setup_s
    from the set-up / baseline ratios.
    """
    def job_metrics(times: list) -> dict:
        tail = weighted_quantile(times, percentile / 100)
        count = sum(len(s) for s in times)
        beyond = sum(t > tail for s in times for t in s)
        return {
            "job_p50_s": (weighted_quantile(times, 0.5), "s", ""),
            "job_tail_s": (tail, "s", f"p{percentile}, {beyond} of {count} samples beyond"),
            "jobs_per_s": (jobs_per_s(times), "1/s", f"{len(times)}-job deck mix"),
        }

    setup_times, base_times = setup
    ratio = statistics.median(s / b for s, b in zip(setup_times, base_times))
    peak = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "")
    metrics = {**job_metrics(normalized), "peak_rss_mb": peak,
               "setup_s": (ratio * SETUP_REF_S, "s",
                           f"median set-up / baseline {ratio:.4f} of {len(setup_times)} pairs "
                           f"x {SETUP_REF_S} s")}
    wall = {**job_metrics(samples), "peak_rss_mb": peak,
            "setup_s": (statistics.median(setup_times), "s", ""),
            "setup_baseline_s": (statistics.median(base_times), "s", "")}
    return metrics, wall


def per_layer(tracer: Tracer, untraced: list, traced: list, pairs: list) -> dict:
    """Per deck pass: every span total and counter over the traced passes / their number."""
    passes = len(pairs)
    totals = tracer.layer_totals()
    metrics = {}
    for name, _, _ in TARGETS:
        calls, self_s = totals.get(name, (0, 0.0))
        note = "absent" if name in tracer.absent else "per pass"
        metrics[f"{name}.calls"] = (calls / passes, "count", note)
        metrics[f"{name}.self_s"] = (self_s / passes, "s", note)
    for name in ("scheduler.golden.evals", "chain_core.transition_amplitudes.points",
                 "cli.output_bytes", "cli.exit_2", "cli.exit_3", "cli.exit_4"):
        unit = "B" if name.endswith("bytes") else "count"
        metrics[name] = (tracer.counts[name] / passes, unit, "per pass")
    metrics["scheduler.phase_table_bytes"] = (tracer.peaks["scheduler.phase_table_bytes"], "B",
                                              "largest table built")
    golden_calls = totals.get("scheduler.golden", (0, 0.0))[0]
    best_tau_calls = totals.get("scheduler.best_tau", (0, 0.0))[0]
    metrics["scheduler.refine_useful_ratio"] = (
        best_tau_calls / golden_calls if golden_calls else 0.0, "ratio",
        f"{best_tau_calls} best_tau calls / {golden_calls} golden-section searches")
    metrics["trace.jobs_per_s_untraced"] = (jobs_per_s(untraced), "1/s", "")
    metrics["trace.jobs_per_s_traced"] = (jobs_per_s(traced), "1/s", "")
    metrics["trace.overhead"] = (
        statistics.median(1.0 - base / with_spans for base, with_spans in pairs), "ratio",
        f"1 - traced / untraced jobs_per_s, median of {passes} adjacent pass pairs")
    return metrics


def declared(kind: str) -> list:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result record to this JSON-lines file")
    parser.add_argument("--setup-probe", dest="setup_probe", help=argparse.SUPPRESS)
    parser.add_argument("--setup-baseline", dest="setup_baseline", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_baseline:
        print("ready", flush=True)
        return 0
    cli = import_cli()
    if args.setup_probe:
        generate(args.workload, args.seed, Path(args.setup_probe))
        print("ready", flush=True)
        return 0

    with open(HERE / "refs.json", encoding="utf-8") as fh:
        refs = json.load(fh)
    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    setup = measure_setup(args.workload, args.seed) if args.trace == 0 else None

    # The benchmark's own share of peak_rss_mb: interpreter, numpy, scipy, refs.
    own_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    work = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        jobs, probes = generate(args.workload, args.seed, work)
        runner = Runner(cli, refs, args.seed)
        defects = [(probe, runner.probe_defect(probe)) for probe in probes]
        if args.trace == 0:
            samples, normalized, probe_times = runner.loop(jobs, args.seconds, SpeedProbe())
            metrics, wall = end_to_end(samples, normalized, TAIL_PERCENTILE[args.workload], setup)
            factor = statistics.median(probe_times) / PROBE_REF_S
            wall["rss_before_jobs_mb"] = (own_rss_mb, "MB", "")
            names = declared("end_to_end")
            print(f"machine factor {factor:.4f}: median of {len(probe_times)} speed "
                  f"probes over {PROBE_REF_S} s; wall-clock values before normalizing:")
            for name, (value, unit, _) in wall.items():
                print(f"  wall {name:36s} {value:14.6g} {unit}")
            job_medians = {job.name: [job.summary, statistics.median(s), statistics.median(n)]
                           for job, s, n in zip(jobs, samples, normalized)}
            print("median time per deck job, slowest first: wall, normalized")
            for name, (summary, wall_s, norm_s) in sorted(job_medians.items(),
                                                          key=lambda kv: -kv[1][2]):
                print(f"  {name:18s} {wall_s:9.4f} s {norm_s:9.4f} s  {summary}")
        else:
            tracer = Tracer()
            untraced, traced, pairs = runner.alternate(jobs, args.seconds, tracer)
            metrics = per_layer(tracer, untraced, traced, pairs)
            names = declared("per_layer")
            if tracer.absent:
                print("absent entry points: " + " ".join(tracer.absent))
            spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
            with open(spans, "w", encoding="utf-8") as fh:
                for name, start, end, parent, job in tracer.spans:
                    fh.write(json.dumps([name, start, end, parent, job]) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit, note) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit:6s} {note}")
    failed = len(runner.failures)
    print(f"{'failed_ratio':42s} {failed / runner.attempted:14.6g} {'ratio':6s} "
          f"{failed} of {runner.attempted} jobs")
    for job, problems in runner.failures:
        print(f"FAILED {job.name} {job.summary}: {'; '.join(problems)}")
    if defects:
        print(f"known-defect probes: {sum(bool(p) for _, p in defects)} of {len(defects)} "
              "still fail (not counted in attempted or failed)")
    for job, problems in defects:
        state = f"FAILS: {'; '.join(problems)}" if problems else "now passes its check"
        print(f"KNOWN DEFECT {job.name} [{job.known_defect}] {job.summary}: {state}")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in names},
    }
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env, **result,
                  "failing_jobs": [job.name for job, _ in runner.failures],
                  "known_defects": {job.name: problems for job, problems in defects}}
        if args.trace == 0:
            record["machine_factor"] = factor
            record["wall"] = {name: value for name, (value, _, _) in wall.items()}
            record["job_median_s"] = job_medians
        else:
            record["pass_pairs_s"] = pairs
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
