"""Host-speed probe: a fixed kernel timed between tasks to scale their times.

On a shared host the same work can run 1.5x slower for tens of seconds at a
time while other tenants load the machine, which moves every timing of a
30-second run together. A probe is a small fixed kernel of the same kind of
work as the workload, using no code of `dlh`. Timing it before and after
each task gives the host's speed for that kind of work during the task, and
a task time t becomes ``t * reference / probe``: seconds on the reference
host.

Two kinds, because contention slows them differently:

small
    4x4 Hermitian eigendecompositions and products, 128-point 2-D FFTs and
    interpreted Python: the holonomy engine and the CLI's start-up.
grid
    256-point 2-D FFT translations, phase ramps and overlaps: the grid
    oracle.

The references are the probes' times on the host the benchmark was defined
on (2 vCPU x86-64 at 2.0 GHz, CPython 3.11, numpy 2.4). They are fixed
constants, so a slower program still reads slower; only the host's
momentary speed is divided out.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = {"small": 0.006, "grid": 0.02}
_REPEATS = 3


class HostProbe:
    def __init__(self, kind: str = "small") -> None:
        self.kind = kind
        self.reference = REFERENCE_S[kind]
        self._h = np.array([[0, 1, 0, 0], [1, 0, 1.4, 0], [0, 1.4, 0, 1.7], [0, 0, 1.7, 0.0]]) * 0.01
        x = np.linspace(-3.0, 3.0, 128) ** 2
        self._f128 = np.exp(-np.add.outer(x, x)).astype(complex)
        x = np.linspace(-6.0, 6.0, 256)
        self._x = x[:, None]
        self._f256 = np.exp(-np.add.outer(x * x, x * x)).astype(complex)
        k = 2.0 * np.pi * np.fft.fftfreq(256, d=x[1] - x[0])
        self._kx, self._ky = k[:, None], k[None, :]
        self.samples: list[float] = []

    def _small(self) -> None:
        u = np.eye(4, dtype=complex)
        for _ in range(60):
            w, v = np.linalg.eigh(self._h)
            u = (v * np.exp(1j * w)) @ v.conj().T @ u
        g = self._f128
        for _ in range(6):
            g = np.fft.ifft2(np.fft.fft2(g))
        acc = 0
        for i in range(8000):
            acc += i * i % 7

    def _grid(self) -> None:
        g = self._f256
        for _ in range(3):
            ramp = np.exp(1j * (0.01 * self._kx + 0.02 * self._ky))
            g = np.fft.ifft2(np.fft.fft2(g) * ramp) * np.exp(0.01j * self._x)
            np.vdot(g, self._f256)
        acc = 0
        for i in range(2000):
            acc += i * i % 7

    def probe(self) -> float:
        """Probe time now: the fastest of a few back-to-back kernel runs."""
        unit = self._small if self.kind == "small" else self._grid
        times = []
        for _ in range(_REPEATS):
            t0 = time.perf_counter()
            unit()
            times.append(time.perf_counter() - t0)
        self.samples.append(min(times))
        return self.samples[-1]

    def scale(self, before: float, after: float) -> float:
        """Factor turning a time measured between two probes into reference seconds."""
        return self.reference / (0.5 * (before + after))
