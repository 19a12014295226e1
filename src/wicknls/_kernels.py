"""Hot numeric kernels, in numpy: one implementation each.

The cubic term of every caller (the ``rk4`` stages, ``nonlinearity``,
``resonant_split``) is :class:`GalerkinCubic`; ``cubic_convolution`` is its
one-row case.
"""

import numpy as np


# ---------------------------------------------------------------------------
# Galerkin cubic:  out(n) = sum_{n1 - n2 + n3 = n} c(n1) conj(c(n2)) c(n3), |n| <= K
# for input rows of modes -N..N; K = 3N keeps the whole band-3N product
# ---------------------------------------------------------------------------

class GalerkinCubic:
    """The exact projection P_K(|u|^2 u) of each row of a (B, 2N+1) stack.

    Callers write the rows, modes -N..N, into ``inputs``: columns K-N..K+N
    of a zero (B, m) spectrum, i.e. the spectrum of e^{iKx} u, with m the
    smallest odd 7-smooth size >= 3N+K+1. The product e^{iKx} |u|^2 u then
    has modes in columns K-3N..K+3N, and none of them aliases into columns
    0..2K, which hold modes -K..K. So one ifft, the pointwise |v|^2 v, one
    fft and the drop of the columns past 2K give P_K exactly. The buffers
    are allocated once, for a caller that evaluates many stacks of one
    shape; a row's result does not depend on the other rows.
    """

    def __init__(self, rows: int, max_mode: int, out_band: int):
        if out_band < max_mode:
            raise ValueError("out_band must be >= max_mode")
        self.width = 2 * out_band + 1
        m = fast_fft_size(3 * max_mode + out_band + 1, odd=True)
        self.scale2 = float(m) * float(m)  # ifft leaves grid values scaled by 1/m
        self._spectrum = np.zeros((rows, m), dtype=np.complex128)
        self.inputs = self._spectrum[:, out_band - max_mode:out_band + max_mode + 1]
        self._grid = np.empty_like(self._spectrum)
        self.intensity = np.empty((rows, m))  # |u|^2 / m^2 on the grid, after a call
        self._work = np.empty((rows, m))

    def __call__(self, out: np.ndarray, scale: complex = 1.0) -> np.ndarray:
        """``out`` (B, 2K+1) <- scale * P_K(|u|^2 u) of the rows in ``inputs``."""
        grid, a2 = self._grid, self.intensity
        np.fft.ifft(self._spectrum, axis=-1, out=grid)
        np.multiply(grid.real, grid.real, out=a2)
        np.multiply(grid.imag, grid.imag, out=self._work)
        np.add(a2, self._work, out=a2)
        np.multiply(grid, a2, out=grid)
        np.fft.fft(grid, axis=-1, out=grid)
        np.multiply(grid[:, :self.width], scale * self.scale2, out=out)
        return out


def cubic_convolution(coeffs: np.ndarray, out_band: int | None = None) -> np.ndarray:
    """Modes -K..K of |u|^2 u for one row of modes -N..N; K = 3N by default.

    The one-row case of :class:`GalerkinCubic`.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    n_max = (len(c) - 1) // 2
    cubic = GalerkinCubic(1, n_max, 3 * n_max if out_band is None else out_band)
    cubic.inputs[0] = c
    return cubic(np.empty((1, cubic.width), dtype=np.complex128))[0]


# ---------------------------------------------------------------------------
# Hermite polynomials H_n(x; sigma), three-term recurrence, batched over x
# ---------------------------------------------------------------------------

def hermite_batch(n: int, x: np.ndarray, sigma: float, *,
                  out: np.ndarray | None = None,
                  work: np.ndarray | None = None) -> np.ndarray:
    """H_n(x; sigma) into ``out``; ``out`` (x's shape) and ``work`` (two rows
    of x's shape) are buffers that a caller evaluating many batches allocates
    once. Neither may overlap x.
    """
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty_like(x)
    if work is None:
        work = np.empty((2,) + x.shape)
    # h_k lives in rows[k % 3], so that h_n lands in out; each step
    # overwrites h_{k-2} with x h_k and scales h_{k-1} in place, which
    # rounds exactly as x * h - (sigma * k) * h_prev
    rows = [None] * 3
    rows[n % 3], rows[(n + 1) % 3], rows[(n + 2) % 3] = out, work[0], work[1]
    rows[0].fill(1.0)
    np.copyto(rows[1], x)
    for k in range(1, n):
        h_next, h, h_prev = rows[(k + 1) % 3], rows[k % 3], rows[(k - 1) % 3]
        np.multiply(x, h, out=h_next)
        h_prev *= sigma * k
        h_next -= h_prev
    return out


# ---------------------------------------------------------------------------
# pointwise nonlinear phase:  u <- u * exp(1j * factor * (|u|^2 + offset))
# u is one grid or a (B, m) stack of grids, offset a scalar or a (B, 1) column;
# mutates u, which keeps its modulus
# ---------------------------------------------------------------------------

def nonlinear_phase(u: np.ndarray, factor: float, offset, *,
                    a2: np.ndarray | None = None,
                    rotation: np.ndarray | None = None) -> None:
    """Rotate u in place; ``a2`` (real) and ``rotation`` (complex), both of
    u's shape, are work buffers that a caller stepping many times allocates
    once. On return ``a2`` holds the phase and ``rotation`` its exponential.
    """
    if a2 is None:
        a2 = np.empty(u.shape)
    if rotation is None:
        rotation = np.empty_like(u)
    np.multiply(u.real, u.real, out=a2)
    # the real half of the rotation is scratch until cos writes it
    np.multiply(u.imag, u.imag, out=rotation.real)
    a2 += rotation.real
    if isinstance(offset, np.ndarray) or offset != 0.0:
        a2 += offset
    a2 *= factor
    # cos and sin written into one buffer give exp(1j*theta) bit for bit,
    # without the complex temporaries
    np.cos(a2, out=rotation.real)
    np.sin(a2, out=rotation.imag)
    u *= rotation


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
