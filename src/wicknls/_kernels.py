"""Hot numeric kernels, in numpy."""

import numpy as np


# ---------------------------------------------------------------------------
# cubic mode convolution:  out(n) = sum_{n1 - n2 + n3 = n} c(n1) conj(c(n2)) c(n3)
# input has modes -N..N (length 2N+1), output -3N..3N (length 6N+1)
# ---------------------------------------------------------------------------

def cubic_convolution(coeffs: np.ndarray) -> np.ndarray:
    """Exact cubic convolution of a coefficient array (band N -> band 3N).

    Zero-padded transform: the cubic product of a band-N field is a
    trigonometric polynomial of band 3N, exact on >= 6N+1 points.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    n_max = (len(c) - 1) // 2
    m = fast_fft_size(6 * n_max + 1)
    spectrum = np.zeros(m, dtype=np.complex128)
    modes = np.arange(-n_max, n_max + 1)
    spectrum[np.mod(modes, m)] = c
    grid = np.fft.ifft(spectrum) * m
    prod = np.fft.fft(grid * np.conj(grid) * grid) / m
    out_modes = np.arange(-3 * n_max, 3 * n_max + 1)
    return prod[np.mod(out_modes, m)]


# ---------------------------------------------------------------------------
# Hermite polynomials H_n(x; sigma), three-term recurrence, batched over x
# ---------------------------------------------------------------------------

def hermite_batch(n: int, x: np.ndarray, sigma: float) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev
    h = x.copy()
    for k in range(1, n):
        h, h_prev = x * h - sigma * k * h_prev, h
    return h


# ---------------------------------------------------------------------------
# pointwise nonlinear phase:  u <- u * exp(1j * factor * (|u|^2 + offset))
# u is one grid or a (B, m) stack of grids, offset a scalar or a (B, 1) column;
# returns the max of |u|^2 per grid (for the divergence guard); mutates u
# ---------------------------------------------------------------------------

def nonlinear_phase(u: np.ndarray, factor: float, offset) -> np.ndarray:
    a2 = u.real * u.real
    a2 += u.imag * u.imag
    worst = np.maximum.reduce(a2, axis=-1)
    a2 += offset
    a2 *= factor
    # cos and sin written into one buffer give exp(1j*theta) bit for bit,
    # without the complex temporaries
    rotation = np.empty_like(u)
    np.cos(a2, out=rotation.real)
    np.sin(a2, out=rotation.imag)
    u *= rotation
    return worst


# ---------------------------------------------------------------------------
# FFT sizing
# ---------------------------------------------------------------------------

def fast_fft_size(minimum: int, odd: bool = False) -> int:
    """Smallest 7-smooth integer >= minimum (odd=True restricts to odd sizes).

    Odd sizes matter for the solver: an odd grid of M points is in exact
    bijection with the symmetric mode range |n| <= (M-1)/2.
    """
    if minimum < 1:
        raise ValueError("fft size must be positive")
    m = max(int(minimum), 1)
    if odd and m % 2 == 0:
        m += 1
    step = 2 if odd else 1
    while True:
        k = m
        for p in (2, 3, 5, 7):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += step
