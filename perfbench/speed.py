"""The machine-speed reference that the benchmark's times are corrected by.

The reference machine is one tenant of a shared host. The speed of its
vCPUs moves by 1.6x to 1.9x with the host's load and keeps a level for
one pass to hours, while CPU time still equals wall time, so no measure
taken inside a process separates the program's cost from the host's load.
When the load changed during a set, uncorrected pass times of the same code
spread by 0.3 to 0.5 of their median over ten runs.

``kernel`` is a fixed piece of plain numpy and Python work, independent of
wicknls, with the same ingredients as the workloads: FFT round trips and a
pointwise phase on a 1575-point grid, small Philox draws and an interpreter
loop. The benchmark times it between operations; an operation's time is
scaled by ``NOMINAL_S / reference``, the ratio of the kernel's time on the
quiet reference machine to its time around that operation. A corrected time
is therefore the operation's time at the reference machine's quiet speed.
The uncorrected times are kept in the run's record file and in the traced
run's per-layer metrics.
"""

import time

import numpy as np

# The kernel's wall time inside a benchmark run on the reference machine
# (2 vCPUs, Python 3.11.7, numpy 2.4.6) at its quiet speed. A constant:
# changing it rescales every corrected time.
NOMINAL_S = 2.6e-3

_GRID = 1575
_rng = np.random.default_rng(20261018)
_U0 = _rng.standard_normal(_GRID) + 1j * _rng.standard_normal(_GRID)
_U0 /= np.abs(_U0).max()
_LINEAR = np.exp(-1j * 1e-3 * np.fft.fftfreq(_GRID, 1.0 / _GRID) ** 2)
# bound now, so that a tracer that wraps numpy.fft never sees the kernel
_fft, _ifft = np.fft.fft, np.fft.ifft


def kernel() -> float:
    u = _U0.copy()
    for _ in range(15):
        v = _fft(u)
        v *= _LINEAR
        u = _ifft(v)
        u *= np.exp(1j * 1e-3 * (u.real * u.real + u.imag * u.imag))
    gen = np.random.Generator(np.random.Philox(key=7))
    acc = 0.0
    for _ in range(250):
        acc += float(gen.standard_normal(33).sum())
    for i in range(15000):
        acc += i * 0.5
    return acc + float(u[0].real)


def measure(repeats: int = 3) -> tuple:
    """Mean (wall_s, cpu_s) of ``repeats`` back-to-back kernel calls."""
    c0, t0 = time.process_time(), time.perf_counter()
    for _ in range(repeats):
        kernel()
    return (time.perf_counter() - t0) / repeats, (time.process_time() - c0) / repeats
