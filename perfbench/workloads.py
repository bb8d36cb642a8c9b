"""Seeded job decks for the three workloads.

A deck is a fixed list of CLI jobs; a run replays it in a freshly shuffled
order until the measured time is used up.  The seed only picks inputs inside
fixed strata (chain length, measurement count, fit grid), so every seed gives
the same input mix and the medians of different seeds stay comparable.

Greedy schedules and fits are drawn from finite pools because their expected
outputs come from ``refs.json`` (see make_refs.py); replays, damped runs and
amplitude curves are checked against the independent model in ``checks.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("greedy_large", "fixed_replay", "paper_repro")

# ħ/k_B in ns·K, used to turn laboratory rates and times into natural units.
HBAR_OVER_KB_NS_K = 7.6382e-3

# Pool variants scale a stratum centre by these factors; they and the jitters
# below are narrow so that the job costs, and so the medians, barely depend
# on the seed.
_VARIANTS = (0.99, 0.995, 1.0)

# greedy_large: 12 l_max=20 strata, log-spaced over N = 200..1000, and 3
# p_target=1e-2 strata over N = 200..400 (20% of the deck).
GREEDY_L_MAX = 20
GREEDY_CENTRES = tuple(round(200 * 5 ** (i / 11)) for i in range(12))
P_TARGET = 1e-2
P_TARGET_L_CAP = 2000
P_TARGET_CENTRES = (200, 283, 400)

# paper_repro: fit --fit peak grids of five chain lengths ending at these maxima.
FIT_PEAK_MAXIMA = (60, 80, 100, 120, 140, 160, 180, 200)

# fixed_replay strata: (N, l) centres.
UNIFORM_STRATA = ((100, 400), (200, 350), (400, 250), (600, 150), (800, 100))
FILE_STRATA = ((100, 350), (200, 300), (300, 250), (500, 150), (800, 100))
DAMPED_STRATA = (("uniform", 150, 300), ("file", 150, 300), ("uniform", 400, 150), ("file", 400, 150))
AMPLITUDE_NS = (50, 100, 150, 200)


def pool(centres) -> list:
    """Every chain length a stratum may draw, for make_refs.py."""
    return sorted({round(c * f) for c in centres for f in _VARIANTS})


def fit_peak_grid(n_max: int, variant: int) -> list:
    """Five chain lengths from 20 + 3*variant up to n_max."""
    return [int(round(x)) for x in np.linspace(20 + 3 * variant, n_max, 5)]


@dataclass
class Job:
    """One CLI invocation plus what its check needs.

    ``kind`` selects the check; ``spec`` holds the generated parameters the
    check compares against.  A ``known_defect`` job is a probe that runs once
    per run, outside the job mix and its attempted/failed counts; its check
    result is printed and recorded by name.
    """

    name: str
    kind: str
    argv: list
    expect_exit: int = 0
    spec: dict = field(default_factory=dict)
    known_defect: str = ""

    @property
    def out(self) -> str:
        return self.argv[self.argv.index("--out") + 1]

    @property
    def summary(self) -> str:
        """The argv with generated file paths cut to their file names."""
        return " ".join(a.rpartition("/")[2] for a in self.argv)


class _Deck:
    def __init__(self, workload: str, work: Path, rng: np.random.Generator):
        self.workload = workload
        self.work = work
        self.rng = rng
        self.jobs: list = []
        self.probes: list = []
        self.files: dict = {}

    def path(self, name: str) -> str:
        return str(self.work / name)

    def add(self, kind: str, argv: list, probe: bool = False, **kw) -> Job:
        target = self.probes if probe else self.jobs
        tag = f"{'probe' if probe else ''}{len(target)}"
        job = Job(name=f"{self.workload}#{tag}", kind=kind,
                  argv=[*argv, "--out", self.path(f"out-{tag}.txt")], **kw)
        target.append(job)
        return job

    def pick(self, centre: float) -> int:
        return round(centre * _VARIANTS[int(self.rng.integers(len(_VARIANTS)))])

    def jitter(self, value: float, rel: float) -> int:
        return int(round(value * self.rng.uniform(1.0 - rel, 1.0 + rel)))

    def config(self, name: str, payload) -> str:
        path = self.path(name)
        text = payload if isinstance(payload, str) else json.dumps(payload)
        self.files[path] = text
        return path


def _greedy_large(d: _Deck) -> None:
    commands = ["protocol", "optimize"] * (len(GREEDY_CENTRES) // 2)
    d.rng.shuffle(commands)
    for i, (centre, command) in enumerate(zip(GREEDY_CENTRES, commands)):
        n = d.pick(centre)
        if i % 3 == 0:  # every third job reads its parameters from a config file
            cfg = d.config(f"greedy-{i}.json", {"n": n, "l_max": GREEDY_L_MAX})
            argv = [command, "--config", cfg]
        else:
            argv = [command, "--n", str(n), "--l-max", str(GREEDY_L_MAX)]
        d.add("greedy" if command == "protocol" else "optimize", argv, spec={"n": n})
    for centre in P_TARGET_CENTRES:
        n = d.pick(centre)
        argv = ["protocol", "--n", str(n), "--p-target", repr(P_TARGET),
                "--l-max", str(P_TARGET_L_CAP)]
        d.add("p_target", argv, spec={"n": n})


def _intervals(d: _Deck, n: int, count: int) -> list:
    return [float(x) for x in d.rng.uniform(0.25 * n, 0.75 * n, size=count)]


def _fixed_replay(d: _Deck) -> None:
    for n, l in UNIFORM_STRATA:
        n, l = d.jitter(n, 0.01), d.jitter(l, 0.02)
        argv = ["protocol", "--schedule", "uniform", "--n", str(n), "--l-max", str(l)]
        spec = {"n": n, "intervals": [float(n)] * l, "gamma": 0.0}
        if n >= 400:  # the larger replays also print nanosecond columns
            argv += ["--j-kelvin", "20"]
            spec["j_kelvin"] = 20.0
        d.add("replay", argv, spec=spec)
    for k, (n, l) in enumerate(FILE_STRATA):
        n, l = d.jitter(n, 0.01), d.jitter(l, 0.02)
        taus = _intervals(d, n, l)
        sched = d.config(f"schedule-{k}.json", {"intervals": taus})
        argv = ["protocol", "--schedule", sched, "--n", str(n)]
        d.add("replay", argv, spec={"n": n, "intervals": taus, "gamma": 0.0})
    for k, (source, n, l) in enumerate(DAMPED_STRATA):
        n, l = d.jitter(n, 0.01), d.jitter(l, 0.02)
        if source == "uniform":
            taus = [float(n)] * l
            argv = ["protocol", "--schedule", "uniform", "--n", str(n), "--l-max", str(l)]
        else:
            taus = _intervals(d, n, l)
            argv = ["protocol", "--schedule", d.config(f"damped-{k}.json", {"intervals": taus}),
                    "--n", str(n)]
        spec = {"n": n, "intervals": taus}
        if k % 2 == 0:
            gamma = float(d.rng.uniform(2e-5, 1e-4))
            argv += ["--gamma", repr(gamma)]
        else:
            rate_ns = float(d.rng.uniform(0.05, 0.25))
            argv += ["--gamma-ns", repr(rate_ns), "--j-kelvin", "20"]
            gamma = rate_ns * HBAR_OVER_KB_NS_K / 20.0
            spec["j_kelvin"] = 20.0
        spec["gamma"] = gamma
        d.add("replay", argv, spec=spec)
    for n in AMPLITUDE_NS:
        n = d.jitter(n, 0.01)
        t_max = round(float(d.rng.uniform(1.38, 1.42)) * n, 2)
        argv = ["amplitude", "--n", str(n), "--t-max", repr(t_max), "--dt", "0.01"]
        d.add("amplitude", argv, spec={"n": n, "t_max": t_max, "dt": 0.01})
    _malformed(d, int(d.rng.integers(6)))

    # Known defects of the CLI, probed once per run.
    nan_sched = d.config("nan-schedule.json", '{"intervals": [NaN, 1.0]}')
    d.add("malformed", ["protocol", "--n", "20", "--schedule", nan_sched], probe=True,
          expect_exit=2, known_defect="a schedule holding NaN exits 0 and prints NaN rows")
    d.add("asymmetric", ["protocol", "--n", "20", "--l-max", "10", "--j-kelvin", "20",
                         "--gamma1-ns", "0.25", "--gamma2-ns", "0.238"], probe=True,
          known_defect="the documented --gamma1-ns/--gamma2-ns protocol run exits 2")


def _malformed(d: _Deck, which: int) -> None:
    """One config whose correct result is exit code 2."""
    if which == 0:
        argv = ["protocol", "--config", d.config("bad-0.json", [20, 10])]
    elif which == 1:
        argv = ["protocol", "--config", d.config("bad-1.json", {"n": 1, "l_max": 5})]
    elif which == 2:
        argv = ["amplitude", "--config", d.config("bad-2.json", {"n": 30, "dt": -0.01})]
    elif which == 3:
        sched = d.config("bad-3.json", {"intervals": [3.0, -1.0, 2.0]})
        argv = ["protocol", "--n", "30", "--schedule", sched]
    elif which == 4:
        argv = ["optimize", "--config", d.config("bad-4.json", '{"n": 30,')]
    else:
        argv = ["protocol", "--n", "30", "--schedule", "uniform", "--gamma-ns", "0.1"]
    d.add("malformed", argv, expect_exit=2)




def _paper_repro(d: _Deck) -> None:
    d.add("oracle", ["oracle-check"])
    d.add("oracle", ["oracle-check", "--inject-sign-error"], expect_exit=4,
          spec={"inject": True})
    for fig in (2, 3, 4):
        d.add("figure", ["figure", "--fig", str(fig)], spec={"fig": fig})
    d.add("fit", ["fit", "--fit", "time"], spec={"key": "time"})
    for n_max in FIT_PEAK_MAXIMA:
        variant = int(d.rng.integers(len(_VARIANTS)))
        grid = fit_peak_grid(n_max, variant)
        cfg = d.config(f"fit-peak-{n_max}.json", {"n_values": grid})
        d.add("fit", ["fit", "--fit", "peak", "--config", cfg],
              spec={"key": f"peak:{n_max}:{variant}"})


_BUILDERS = {"greedy_large": _greedy_large, "fixed_replay": _fixed_replay,
             "paper_repro": _paper_repro}


def generate(workload: str, seed: int, work: Path) -> tuple:
    """(deck, probes) for one workload; writes their input files under ``work``."""
    deck = _Deck(workload, work, np.random.default_rng([seed, WORKLOADS.index(workload)]))
    _BUILDERS[workload](deck)
    work.mkdir(parents=True, exist_ok=True)
    for path, text in deck.files.items():
        Path(path).write_text(text, encoding="utf-8")
    return deck.jobs, deck.probes


