"""Reference values computed apart from wicknls.

Nothing here imports the package: each function restates, from the
mathematics, a quantity the benchmark compares the program's outputs to.
Inputs are plain numpy arrays of Fourier coefficients ordered n = -N..N.
"""

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def mass(coeffs) -> float:
    """Integral of |u|^2 over the torus: 2*pi * sum |c(n)|^2."""
    c = np.asarray(coeffs)
    return TWO_PI * float(np.sum(c.real**2 + c.imag**2))


def ranks(values) -> np.ndarray:
    """1-based ranks, ties sharing the mean of the ranks they span."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    out = np.empty(len(v))
    i = 0
    while i < len(v):
        j = i
        while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
            j += 1
        out[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return out


def spearman_rho(x, y) -> float:
    """Pearson correlation of the ranks."""
    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    return float(np.sum(rx * ry) / math.sqrt(np.sum(rx * rx) * np.sum(ry * ry)))


def loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x."""
    lx, ly = np.log(np.asarray(x, float)), np.log(np.asarray(y, float))
    lx -= lx.mean()
    return float(np.sum(lx * (ly - ly.mean())) / np.sum(lx * lx))


def phase_defect_plateau(defect: float, horizon: float, probe_pairing: float) -> float:
    """sup_{|t|<=T} |e^{2 i defect t} - 1| * |<u_ref(t), phi>| for a constant
    pairing modulus: |e^{2is} - 1| = 2|sin s| peaks at s = min(defect*T, pi/2)."""
    return probe_pairing * 2.0 * math.sin(min(defect * horizon, math.pi / 2.0))


def weight_sum(max_mode: int, alpha: float) -> float:
    """sum_{|n|<=N} 1 / (1 + |n|^(2 alpha))."""
    return sum(1.0 / (1.0 + abs(n) ** (2.0 * alpha))
               for n in range(-max_mode, max_mode + 1))


def free_flow_l4_exact(coeffs, horizon: float) -> float:
    """(int_{-T}^{T} int_T |S(t)f|^4 dx dt)^(1/4), exact in time.

    With S(t)f = sum c(n) e^{i(nx + n^2 t)} and a_m(j) = c(j+m) conj(c(j)),
    the space integral is 2*pi * sum_m |sum_j a_m(j) e^{i m(2j+m) t}|^2, and
    the time integral of e^{i 2m(j-j') t} over [-T, T] is
    K_m[j, j'] = 2T sinc(2m(j-j')T): the total is 2*pi * sum_m a_m^H K_m a_m.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    size = len(c)
    total = 0.0
    for m in range(-(size - 1), size):
        lo, hi = max(0, -m), min(size, size - m)  # indices j with j+m in range
        a = c[lo + m:hi + m] * np.conj(c[lo:hi])
        j = np.arange(lo, hi, dtype=np.float64)
        x = 2.0 * m * (j[:, None] - j[None, :]) * horizon
        kernel = 2.0 * horizon * np.sinc(x / math.pi)  # np.sinc(y) = sin(pi y)/(pi y)
        total += float(np.real(np.conj(a) @ kernel @ a))
    return (TWO_PI * total) ** 0.25


def two_mode_l4(a: complex, b: complex, horizon: float) -> float:
    """Free-flow L4 norm of a e^{ijx} + b e^{ikx} (j != k) over [-T, T].

    |u|^2 = |a|^2 + |b|^2 + 2 Re(a conj(b) e^{i(...)}) gives a constant space
    integral 2*pi (|a|^4 + |b|^4 + 4|a|^2|b|^2).
    """
    a2, b2 = abs(a) ** 2, abs(b) ** 2
    return (4.0 * math.pi * horizon * (a2 * a2 + b2 * b2 + 4.0 * a2 * b2)) ** 0.25


# E[H_2(x)^4] = E(x^2 - 1)^4 = 105 - 4*15 + 6*3 - 4 + 1 = 60 and E[H_2^2] = 2
H2_L4_OVER_L2 = 60.0**0.25 / math.sqrt(2.0)
