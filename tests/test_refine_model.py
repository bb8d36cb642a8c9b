"""The model-assisted golden-section refine: the bits of exact comparisons, from far fewer of them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualrail import chain_core
from dualrail.chain_core import (ChainSpec, _golden_max, _phase_sum_objective, _TaylorBasis,
                                 build_sector_hamiltonian, diagonalize, first_peak)
from dualrail.scheduler import greedy_run


def plain_golden_max(f, a, b):
    """The refine as it compared exact values only: the reference of every case below."""
    c = b - chain_core._INV_GOLDEN * (b - a)
    d = a + chain_core._INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > chain_core._REFINE_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - chain_core._INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + chain_core._INV_GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def refine_case(n, delta, seed, decay, t_lo, half_width, width):
    """(plain, model-assisted) refine of one random complex weight vector, as float.hex."""
    energies = diagonalize(build_sector_hamiltonian(ChainSpec(n, delta))).energies
    rng = np.random.default_rng(seed)
    w = (rng.normal(size=n) + 1j * rng.normal(size=n)) / n
    a, b = t_lo, t_lo + 2.0 * half_width * width
    f = _phase_sum_objective(energies, w, decay)
    model = _TaylorBasis(energies, half_width).model(w, decay, a, b)
    return ([float.hex(v) for v in plain_golden_max(f, a, b)],
            [float.hex(v) for v in _golden_max(f, a, b, model)])


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 60),
    delta=st.floats(0.0, 12.0),
    seed=st.integers(0, 2**32 - 1),
    decay=st.floats(-1e-2, 0.0),
    t_lo=st.floats(0.0, 3000.0),
    half_width=st.floats(1e-3, 0.1),
    width=st.floats(0.0, 1.0),
)
def test_model_assisted_refine_is_bit_identical(n, delta, seed, decay, t_lo, half_width, width):
    plain, assisted = refine_case(n, delta, seed, decay, t_lo, half_width, width)
    assert assisted == plain


@pytest.mark.parametrize("n", [3, 20, 1500])
@pytest.mark.parametrize("scale", [1.0, 100.0])
def test_subnormal_objective_keeps_the_bits(n, scale):
    """Past exp(decay t) ~ 1e-308 the objective's rounding is absolute, not relative."""
    dec = diagonalize(build_sector_hamiltonian(ChainSpec(n, 5.0)))
    basis = _TaylorBasis(dec.energies, 0.05)
    rng = np.random.default_rng(3)
    for _ in range(40):
        w = scale * dec.receiver * dec.sender * np.exp(1j * rng.uniform(0.0, 7.0, n))
        a = rng.uniform(20000.0, 30000.0)
        b = a + 0.1 * rng.uniform()
        decay = -rng.uniform(700.0, 750.0) / a
        f = _phase_sum_objective(dec.energies, w, decay)
        assert ([float.hex(v) for v in _golden_max(f, a, b, basis.model(w, decay, a, b))]
                == [float.hex(v) for v in plain_golden_max(f, a, b)])


def seeded_cases(count):
    rng = np.random.default_rng(2024)
    for _ in range(count):
        yield (int(rng.integers(2, 61)), rng.uniform(0.0, 12.0), int(rng.integers(2**32)),
               rng.uniform(-1e-2, 0.0), rng.uniform(0.0, 3000.0), rng.uniform(1e-3, 0.1),
               rng.uniform(0.0, 1.0))


def test_bound_is_what_keeps_the_bits(monkeypatch):
    """Trusting the model with no error bound changes some refine, so the bound is load-bearing."""
    monkeypatch.setattr(chain_core, "_MODEL_SAFETY", 0.0)
    assert any(plain != assisted for plain, assisted in
               (refine_case(*case) for case in seeded_cases(200)))


# the only cases of seeded_cases(1000) whose bits hang on the bound's phase term:
# few modes at large E t, where the rounding of fl(E_k t) decides a near tie
PHASE_TERM_CASES = (182, 192, 334)


def test_phase_term_is_what_keeps_the_bits(monkeypatch):
    cases = list(seeded_cases(1000))
    phase_cases = [cases[i] for i in PHASE_TERM_CASES]
    assert [case[0] for case in phase_cases] == [18, 24, 28]
    for case in phase_cases:
        plain, assisted = refine_case(*case)
        assert assisted == plain

    build = _TaylorBasis.__init__

    def without_phase_term(self, *args):
        build(self, *args)
        self._phase_scale = 0.0 * self._phase_scale

    monkeypatch.setattr(_TaylorBasis, "__init__", without_phase_term)
    assert any(plain != assisted for plain, assisted in (refine_case(*case) for case in phase_cases))


def largest_radius_case():
    """20 seeded modes spanning [0, 8] at h = 1.9: radius 7.6, just under the 8 from which no rows are built."""
    rng = np.random.default_rng(7)
    energies = np.sort(np.concatenate(([0.0, 8.0], rng.uniform(0.0, 8.0, 18))))
    return energies, (rng.normal(size=20) + 1j * rng.normal(size=20)) / 20, 1.9


def worst_error_over_bound(energies, w, h):
    """max |value - f(t)| / bound of the model on [-h, h], over 301 points."""
    basis = _TaylorBasis(energies, h)
    assert basis._rows is not None
    model, f = basis.model(w, 0.0, -h, h), _phase_sum_objective(energies, w)
    return max(abs(value - f(t)) / bound
               for t in np.linspace(-h, h, 301).tolist() for value, bound in [model(t)])


def test_bound_holds_at_the_largest_radius():
    assert worst_error_over_bound(*largest_radius_case()) <= 1.0


def test_remainder_term_is_what_keeps_the_bound(monkeypatch):
    build = _TaylorBasis.__init__

    def without_remainder_term(self, energies, half_width):
        build(self, energies, half_width)
        shift = energies - 0.5 * (energies[0] + energies[-1])
        radius = half_width * max(abs(shift[0]), abs(shift[-1]))
        self._per_weight -= radius**13 / math.factorial(13)

    monkeypatch.setattr(_TaylorBasis, "__init__", without_remainder_term)
    assert worst_error_over_bound(*largest_radius_case()) > 1.0


def test_huge_spread_defers_every_comparison():
    energies = np.array([0.0, 1e3])
    w = np.array([0.6, 0.8j])
    model = _TaylorBasis(energies, 0.05).model(w, 0.0, 10.0, 10.1)
    assert model(10.05)[1] == math.inf


def test_bracket_wider_than_basis_is_rejected():
    with pytest.raises(ValueError, match="wider than the basis"):
        _TaylorBasis(np.array([0.0, 1.0]), 0.05).model(np.ones(2), 0.0, 1.0, 1.2)


def exact_evaluations_per_refine(monkeypatch, run):
    counts = {"refines": 0, "evals": 0}

    def counting(f, a, b, model):
        counts["refines"] += 1

        def counted(t):
            counts["evals"] += 1
            return f(t)

        return _golden_max(counted, a, b, model)

    monkeypatch.setattr(chain_core, "_golden_max", counting)
    run()
    assert counts["refines"] > 0
    return counts["evals"] / counts["refines"]


def budget_runs(dec_cache):
    return {
        "greedy N=57": lambda: greedy_run(dec_cache(57), l_max=20),
        "greedy N=557": lambda: greedy_run(dec_cache(557), l_max=20),
        "first_peak": lambda: [first_peak(dec_cache(n)) for n in (2, 7, 20, 57, 200, 557)],
    }


@pytest.mark.parametrize("name", ["greedy N=57", "greedy N=557", "first_peak"])
def test_exact_evaluation_budget(monkeypatch, dec_cache, name):
    """At most 10 exact evaluations per refine on average, against 27 without the model."""
    assert exact_evaluations_per_refine(monkeypatch, budget_runs(dec_cache)[name]) <= 10.0


def test_budget_fails_a_model_that_defers(monkeypatch, dec_cache):
    monkeypatch.setattr(_TaylorBasis, "model", lambda self, w, decay, a, b: lambda t: (0.0, math.inf))
    for run in budget_runs(dec_cache).values():
        assert exact_evaluations_per_refine(monkeypatch, run) > 10.0
