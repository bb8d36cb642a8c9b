"""Spans around the package's public entry points, installed from outside.

Every target is wrapped where it is looked up: the wrapper replaces each
binding of the original function in every loaded ``dualrail`` module, so
imported names such as ``cli.greedy_run`` or ``protocol.apply_propagator`` are
traced too.  A target that no longer exists is recorded as absent instead of
failing the run.  Spans stay in memory (name, start, end, parent, job) until
the run ends; a layer's self time is its span time minus that of its child
spans.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# (layer metric prefix, module, attribute or Class.method)
TARGETS = (
    ("chain_core.diagonalize", "chain_core", "diagonalize"),
    ("chain_core.apply_propagator", "chain_core", "apply_propagator"),
    ("chain_core.transition_amplitudes", "chain_core", "transition_amplitudes"),
    ("chain_core.first_peak", "chain_core", "first_peak"),
    ("protocol.evolve", "protocol", "evolve"),
    ("protocol.measure", "protocol", "measure"),
    ("protocol.run_schedule", "protocol", "run_schedule"),
    ("scheduler.greedy_run", "scheduler", "greedy_run"),
    ("scheduler.objective_build", "scheduler", "_EndpointObjective.__init__"),
    ("scheduler.best_tau", "scheduler", "_EndpointObjective.best_tau"),
    ("scheduler.golden", "scheduler", "_golden_max"),
    ("noise.evolve_damped", "noise", "evolve_damped"),
    ("noise.asymmetric_run", "noise", "asymmetric_run"),
    ("noise.p_infinity_exact", "noise", "p_infinity_exact"),
    ("analysis.reproduce_figure", "analysis", "reproduce_figure"),
    ("analysis.fit_peak_scaling", "analysis", "fit_peak_scaling"),
    ("analysis.fit_time_scaling", "analysis", "fit_time_scaling"),
    ("oracle.full_hamiltonian", "oracle", "full_hamiltonian"),
    ("oracle.full_transition_amplitude", "oracle", "full_transition_amplitude"),
    ("oracle.dual_rail_protocol_full", "oracle", "dual_rail_protocol_full"),
    ("cli.render_csv", "_csvio", "render_csv"),
    ("cli.main", "cli", "main"),
)


class Tracer:
    """Span recorder plus work counters, one per traced run."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, job]
        self.counts: Counter = Counter()
        self.peaks: dict = defaultdict(int)
        self.absent: list = []
        self.job = ""
        self._stack: list = []
        self._restore: list = []

    def _call(self, name, fn, args, kwargs):
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def _wrapper(self, name, fn):
        tracer = self
        if name == "scheduler.golden":
            def traced(f, *args, **kwargs):
                def counted(x):
                    tracer.counts["scheduler.golden.evals"] += 1
                    return f(x)
                return tracer._call(name, fn, (counted, *args), kwargs)
        elif name == "scheduler.objective_build":
            def traced(obj, *args, **kwargs):
                tracer._call(name, fn, (obj, *args), kwargs)
                phases = getattr(obj, "_phases", None)
                if phases is not None:
                    tracer.peaks["scheduler.phase_table_bytes"] = max(
                        tracer.peaks["scheduler.phase_table_bytes"], phases.nbytes)
        elif name == "chain_core.transition_amplitudes":
            def traced(dec, r, s, times, *args, **kwargs):
                result = tracer._call(name, fn, (dec, r, s, times, *args), kwargs)
                tracer.counts["chain_core.transition_amplitudes.points"] += result.size * dec.n_sites
                return result
        else:
            def traced(*args, **kwargs):
                return tracer._call(name, fn, args, kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "dualrail" or key.startswith("dualrail.")]
        for name, module_name, attr in TARGETS:
            module = sys.modules.get(f"dualrail.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(method) if owner is not None else None
            if original is None:
                if name not in self.absent:
                    self.absent.append(name)
                continue
            wrapper = self._wrapper(name, original)
            if owner_name:
                self._bind(owner, method, wrapper)
                continue
            for m in modules:  # every binding of the same function object
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._bind(m, key, wrapper)

    def _bind(self, owner, key, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def layer_totals(self) -> dict:
        """{prefix: (calls, self seconds)} over all recorded spans."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name][0] += 1
            totals[name][1] += end - start - child[i]
        return totals
