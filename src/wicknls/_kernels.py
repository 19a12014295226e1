"""Hot numeric kernels with optional numba acceleration.

Every kernel has a pure-numpy implementation; when numba is importable the
jitted variant is used instead. Set the environment variable
``WICKNLS_NO_NUMBA=1`` to force the numpy path (e.g. for debugging or on
platforms without a working JIT).

All paths compute identical sums in exact arithmetic; tests assert agreement
to roundoff.
"""

import os

import numpy as np

NUMBA_REQUESTED = os.environ.get("WICKNLS_NO_NUMBA", "") not in ("1", "true", "yes")

try:  # pragma: no cover - exercised implicitly by the import
    if NUMBA_REQUESTED:
        from numba import njit
    else:
        njit = None
except ImportError:  # pragma: no cover
    njit = None

HAVE_NUMBA = njit is not None

# Direct convolution beats the FFT route below this band size (see benchmarks).
DIRECT_CONV_MAX_MODE = 48


# ---------------------------------------------------------------------------
# cubic mode convolution:  out(n) = sum_{n1 - n2 + n3 = n} c(n1) conj(c(n2)) c(n3)
# input has modes -N..N (length 2N+1), output -3N..3N (length 6N+1)
# ---------------------------------------------------------------------------

def cubic_convolution_numpy(coeffs: np.ndarray) -> np.ndarray:
    c = np.ascontiguousarray(coeffs, dtype=np.complex128)
    # b(m) = sum_{n1-n2=m} c(n1) conj(c(n2))  via convolve with the
    # reversed conjugate, then one more convolution with c itself.
    b = np.convolve(c, np.conj(c[::-1]))
    return np.convolve(b, c)


def _cubic_convolution_fft(coeffs: np.ndarray) -> np.ndarray:
    # Zero-padded transform: the cubic product of a band-N field is a
    # trigonometric polynomial of band 3N, exact on >= 6N+1 points.
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


if HAVE_NUMBA:

    @njit(cache=True)
    def _cubic_convolution_jit(c):  # pragma: no cover - compiled
        n = len(c)
        b = np.zeros(2 * n - 1, dtype=np.complex128)
        for i in range(n):
            ci = c[i]
            for j in range(n):
                # index offset: b[k] with k = (i - j) + (n - 1)
                b[i - j + n - 1] += ci * np.conj(c[j])
        out = np.zeros(3 * n - 2, dtype=np.complex128)
        for i in range(2 * n - 1):
            bi = b[i]
            for j in range(n):
                out[i + j] += bi * c[j]
        return out

    def cubic_convolution_numba(coeffs: np.ndarray) -> np.ndarray:
        return _cubic_convolution_jit(np.ascontiguousarray(coeffs, dtype=np.complex128))

else:
    cubic_convolution_numba = None


def cubic_convolution(coeffs: np.ndarray) -> np.ndarray:
    """Exact cubic convolution of a coefficient array (band N -> band 3N)."""
    n_max = (len(coeffs) - 1) // 2
    if n_max > DIRECT_CONV_MAX_MODE:
        return _cubic_convolution_fft(coeffs)
    if HAVE_NUMBA:
        return cubic_convolution_numba(coeffs)
    return cubic_convolution_numpy(coeffs)


# ---------------------------------------------------------------------------
# Hermite polynomials H_n(x; sigma), three-term recurrence, batched over x
# ---------------------------------------------------------------------------

def hermite_batch_numpy(n: int, x: np.ndarray, sigma: float) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev
    h = x.copy()
    for k in range(1, n):
        h, h_prev = x * h - sigma * k * h_prev, h
    return h


if HAVE_NUMBA:

    @njit(cache=True)
    def _hermite_batch_jit(n, x, sigma):  # pragma: no cover - compiled
        out = np.empty_like(x)
        for i in range(x.size):
            xi = x[i]
            h_prev = 1.0
            if n == 0:
                out[i] = 1.0
                continue
            h = xi
            for k in range(1, n):
                h, h_prev = xi * h - sigma * k * h_prev, h
            out[i] = h
        return out

    def hermite_batch_numba(n: int, x: np.ndarray, sigma: float) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        flat = _hermite_batch_jit(n, np.ascontiguousarray(x.ravel()), float(sigma))
        return flat.reshape(x.shape)

else:
    hermite_batch_numba = None


def hermite_batch(n: int, x: np.ndarray, sigma: float) -> np.ndarray:
    if HAVE_NUMBA:
        return hermite_batch_numba(n, x, sigma)
    return hermite_batch_numpy(n, x, sigma)


# ---------------------------------------------------------------------------
# pointwise nonlinear phase:  u <- u * exp(1j * factor * (|u|^2 + offset))
# returns max |u|^2 (used by the divergence guard); mutates u in place
# ---------------------------------------------------------------------------

def nonlinear_phase_numpy(u: np.ndarray, factor: float, offset: float) -> float:
    a2 = u.real * u.real + u.imag * u.imag
    u *= np.exp(1j * (factor * (a2 + offset)))
    return float(a2.max())


if HAVE_NUMBA:

    @njit(cache=True)
    def _nonlinear_phase_jit(u, factor, offset):  # pragma: no cover - compiled
        max_a2 = 0.0
        for i in range(u.size):
            re = u[i].real
            im = u[i].imag
            a2 = re * re + im * im
            if a2 > max_a2:
                max_a2 = a2
            theta = factor * (a2 + offset)
            u[i] = u[i] * complex(np.cos(theta), np.sin(theta))
        return max_a2

    def nonlinear_phase_numba(u: np.ndarray, factor: float, offset: float) -> float:
        return float(_nonlinear_phase_jit(u, float(factor), float(offset)))

else:
    nonlinear_phase_numba = None


def nonlinear_phase(u: np.ndarray, factor: float, offset: float) -> float:
    if HAVE_NUMBA:
        return nonlinear_phase_numba(u, factor, offset)
    return nonlinear_phase_numpy(u, factor, offset)


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
