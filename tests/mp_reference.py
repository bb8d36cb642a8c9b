"""A 40-digit reference for |f_{N,1}(t)|^2 and P(l) that shares no eigensolver with the engine.

Not a test module: ``test_mp_reference.py`` compares the engine against it.
The spectrum of the chain's single-excitation sector comes from

* the closed form at delta = 1: E_k = 4 (1 - cos(pi k / N)) and
  v_n(k) = sqrt((2 - [k = 0]) / N) cos(pi k (n - 1/2) / N), k = 0..N-1;
* ``mpmath.eigsy`` of the tridiagonal matrix otherwise (off-diagonal -2,
  diagonal 2 delta times the bonds touching the site), mpmath's own
  symmetric eigensolver at 40 digits, slow enough to keep to N <= 20.

With weights w_k = v_k(N) v_k(1), f(t) = sum_k w_k exp(-i E_k t) = C(t) - i S(t)
for C = sum w cos(E t) and S = sum w sin(E t), so |f|^2 = C^2 + S^2 and its
derivative is 2 (C C' + S S').  The first-arrival peak is the largest local
maximum of |f|^2 over a double-precision scan of (0, 0.75 N] at step 0.05,
each candidate polished by ``mpmath.findroot`` on the derivative.

A schedule's P(l) replays the protocol in the eigenbasis: from a = v(1),
each interval tau applies a <- exp(-i E tau) a, measures c_N = v(N) . a,
projects a <- a - c_N v(N), and P(l) = 1 - sum of the step successes so far.
Without damping a step's success is |c_N|^2; under symmetric amplitude
damping at rate gamma it is exp(-2 gamma t) |c_N|^2 at the step's absolute
time t, the no-jump weight of both rails (``protocol``'s module docstring).
"""

from __future__ import annotations

import mpmath
import numpy as np

DPS = 40
_SCAN_STEP = 0.05
_SCAN_BLOCK = 128
# candidates within this fraction of the scan's largest peak are polished
_CANDIDATE_RATIO = 0.9


class Reference:
    """Energies, end rows v(1) and v(N) and their weights of one chain, at ``DPS`` digits."""

    def __init__(self, n: int, delta: float = 1.0):
        self.n = n
        with mpmath.workdps(DPS):
            if delta == 1.0:
                energies, sender, receiver = _closed_form(n)
            else:
                energies, sender, receiver = _eigsy(n, mpmath.mpf(delta))
            self.energies = energies
            self.sender = sender
            self.receiver = receiver
            self.weights = [a * b for a, b in zip(receiver, sender)]

    def probability(self, t) -> mpmath.mpf:
        """|f_{N,1}(t)|^2 at ``DPS`` digits."""
        with mpmath.workdps(DPS):
            c, s, _, _ = self._sums(mpmath.mpf(t))
            return c * c + s * s

    def failure(self, intervals, gamma: float = 0.0) -> list:
        """P(l) after each interval of a schedule, replayed at ``DPS`` digits under
        symmetric damping at rate ``gamma`` (natural units; 0 for none)."""
        with mpmath.workdps(DPS):
            a = list(self.sender)
            p = mpmath.mpf(1)
            t = mpmath.mpf(0)
            out = []
            for tau in intervals:
                tau = mpmath.mpf(tau)
                t += tau
                a = [x * mpmath.expj(-e * tau) for x, e in zip(a, self.energies)]
                c = mpmath.fsum(v * x for v, x in zip(self.receiver, a))
                a = [x - c * v for x, v in zip(a, self.receiver)]
                p -= mpmath.exp(-2 * mpmath.mpf(gamma) * t) * abs(c) ** 2
                out.append(p)
            return out

    def _sums(self, t):
        c = s = dc = ds = mpmath.mpf(0)
        for e, w in zip(self.energies, self.weights):
            cos, sin = mpmath.cos(e * t), mpmath.sin(e * t)
            c += w * cos
            s += w * sin
            dc -= w * e * sin
            ds += w * e * cos
        return c, s, dc, ds

    def _slope(self, t):
        c, s, dc, ds = self._sums(t)
        return 2 * (c * dc + s * ds)

    def first_peak(self) -> tuple[mpmath.mpf, mpmath.mpf]:
        """(t, |f|^2) of the largest local maximum of |f_{N,1}|^2 over (0, 0.75 N]."""
        e = np.array([float(x) for x in self.energies])
        w = np.array([float(x) for x in self.weights])
        times = _SCAN_STEP * np.arange(1, int(round(0.75 * self.n / _SCAN_STEP)) + 1)
        # t_{qB+m} = t_{qB} + m h: one (B x N) table of exp(-i E m h) serves every block
        inner = np.exp(-1j * np.outer(_SCAN_STEP * np.arange(_SCAN_BLOCK), e))
        sums = [inner @ (w * np.exp(-1j * e * t)) for t in times[::_SCAN_BLOCK]]
        p = np.abs(np.concatenate(sums)[:len(times)]) ** 2
        interior = np.arange(1, len(p) - 1)
        peaks = interior[(p[interior] > p[interior - 1]) & (p[interior] >= p[interior + 1])]
        best = []
        with mpmath.workdps(DPS):
            for j in peaks[p[peaks] >= _CANDIDATE_RATIO * p[peaks].max()]:
                bracket = (mpmath.mpf(times[j - 1]), mpmath.mpf(times[j + 1]))
                t = mpmath.findroot(self._slope, bracket, solver="anderson")
                best.append((self.probability(t), t))
            p_max, t_max = max(best)
        return t_max, p_max


def _closed_form(n: int):
    pi, size = mpmath.pi, mpmath.mpf(n)
    energies = [4 * (1 - mpmath.cos(pi * k / size)) for k in range(n)]
    norms = [mpmath.sqrt((2 - (k == 0)) / size) for k in range(n)]
    sender = [norms[k] * mpmath.cos(pi * k * mpmath.mpf(0.5) / size) for k in range(n)]
    receiver = [norms[k] * mpmath.cos(pi * k * (size - mpmath.mpf(0.5)) / size) for k in range(n)]
    return energies, sender, receiver


def _eigsy(n: int, delta):
    h = mpmath.zeros(n, n)
    for i in range(n):
        bonds = (i > 0) + (i < n - 1)
        h[i, i] = 2 * delta * bonds
        if i + 1 < n:
            h[i, i + 1] = h[i + 1, i] = -2
    energies, modes = mpmath.eigsy(h)
    order = sorted(range(n), key=lambda k: energies[k])
    return ([energies[k] for k in order], [modes[0, k] for k in order],
            [modes[n - 1, k] for k in order])
