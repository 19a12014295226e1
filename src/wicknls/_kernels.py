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
    smallest 7-smooth size >= 3N+K+1. The product e^{iKx} |u|^2 u then has
    modes in columns K-3N..K+3N, and none of them aliases into columns
    0..2K, which hold modes -K..K. So one unscaled ifft (grid values are
    field values), the pointwise |v|^2 v, one fft and the drop of the
    columns past 2K, scaled by 1/m, give P_K exactly. The buffers are
    allocated once, for a caller that evaluates many stacks of one shape; a
    row's result does not depend on the other rows.
    """

    def __init__(self, rows: int, max_mode: int, out_band: int):
        if out_band < max_mode:
            raise ValueError("out_band must be >= max_mode")
        self.width = 2 * out_band + 1
        m = fast_fft_size(3 * max_mode + out_band + 1)
        self._inv_m = 1.0 / m
        self._spectrum = np.zeros((rows, m), dtype=np.complex128)
        self.inputs = self._spectrum[:, out_band - max_mode:out_band + max_mode + 1]
        grid = self._grid = np.empty_like(self._spectrum)
        self._re, self._im, self._head = grid.real, grid.imag, grid[:, :self.width]
        self.intensity = np.empty((rows, m))  # |u|^2 on the grid, after a call
        self._work = np.empty((rows, m))

    def __call__(self, out: np.ndarray, scale: complex = 1.0) -> np.ndarray:
        """``out`` (B, 2K+1) <- scale * P_K(|u|^2 u) of the rows in ``inputs``."""
        grid, a2 = self._grid, self.intensity
        np.fft.ifft(self._spectrum, axis=-1, norm="forward", out=grid)
        np.multiply(self._re, self._re, out=a2)
        np.multiply(self._im, self._im, out=self._work)
        np.add(a2, self._work, out=a2)
        np.multiply(grid, a2, out=grid)
        np.fft.fft(grid, axis=-1, out=grid)
        np.multiply(self._head, scale * self._inv_m, out=out)
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
# u is one grid or a (B, m) stack of grids, factor a scalar or a (B, 1)
# column, offset None, a scalar or a (B, 1) column; mutates u, which keeps
# its modulus. The solver passes None, since its Wick shifts are linear
# rates (dynamics._linear_rate); the kernel sweep of perfbench/layers.py
# passes an offset positionally.
#
# The rotation is taken in Cayley form, exp(i theta) = (1 + i tau) / (1 - i tau)
# with tau = tan(theta / 2), which is exact. On numpy 2.x float64 tan is a
# vectorised loop while cos and sin call libm once per element: over the 12,600
# values of a (24, 525) stack of band-256 contrast grids np.cos takes 64 us,
# np.sin 57 us and np.tan 20 us (2-vCPU AVX-512 x86_64, numpy 2.4.6, best of 15
# rounds). The error stays at roundoff for any theta: d theta = 2 d tau /
# (1 + tau^2), so a relative error in tau moves theta by at most that much, also
# where tau nears 1e16 at theta / 2 ~ odd multiples of pi / 2. |u|^2 as
# np.abs(u)^2 costs 26 us on that stack, within noise of the 23 us of
# re^2 + im^2 into buffers, and needs no second buffer. A non-finite intensity
# gives tan = NaN and so a NaN value.
#
# The two Cayley factors are conjugates, 1 - i tau and 1 + i tau, so one
# buffer holds both: u is divided by the buffer, the buffer's imaginary part is
# negated in place, and u is multiplied by the buffer, now exactly 1 + i tau.
# ---------------------------------------------------------------------------

def phase_work(shape) -> tuple:
    """``(a2, den, den.imag)`` for u of ``shape``, made once per run.

    ``den`` has real part 1; the kernel writes its imaginary part through the
    view made here, so a call makes no view.
    """
    den = np.empty(shape, dtype=np.complex128)
    den.real = 1.0
    return np.empty(shape), den, den.imag


def nonlinear_phase(u: np.ndarray, factor: float, offset, *,
                    work: tuple | None = None) -> None:
    """Rotate u in place; ``offset`` may be None. ``work`` comes from ``phase_work(u.shape)``; on
    return its ``a2`` holds -theta / 2 and the imaginary part of ``den``
    holds tau, so ``den`` is the numerator 1 + i tau.
    """
    a2, den, den_imag = phase_work(u.shape) if work is None else work
    np.abs(u, out=a2)
    a2 *= a2
    if offset is not None:
        a2 += offset
    a2 *= -0.5 * factor
    np.tan(a2, out=den_imag)  # den = 1 - i tau
    u /= den
    np.negative(den_imag, out=den_imag)  # den = 1 + i tau
    u *= den


# ---------------------------------------------------------------------------
# keyed normal streams: (seed, index) -> the Philox stream keyed [seed, index]
# ---------------------------------------------------------------------------

def _plain_ints(state):
    """A bit generator's state dict with every array in it a tuple of ints.

    The state setter reads such a tuple in half the time it takes to read
    the same values one scalar at a time out of a numpy array.
    """
    if isinstance(state, dict):
        return {name: _plain_ints(value) for name, value in state.items()}
    return tuple(state.tolist()) if isinstance(state, np.ndarray) else state


def philox_streams(seed: int, indices):
    """For each index, a Generator at the start of the Philox stream keyed [seed, index].

    ``indices`` is a sequence of ints in [0, 2**64). Every draw is
    bit-identical to one from a new ``Generator(Philox(key=[seed, index]))``,
    but the same Generator is yielded each time, so a caller draws what an
    index is for before it asks for the next. One generator serves all the
    indices: it is keyed to the first, and for each later index its state is
    reset to the fresh state of that key (counter 0, empty buffer), which
    costs a twentieth of building a new one. The fresh state is read only
    when a second index follows.
    """
    if not len(indices):
        return
    bits = np.random.Philox(key=np.array([seed, indices[0]], dtype=np.uint64))
    gen = np.random.Generator(bits)
    fresh = _plain_ints(bits.state) if len(indices) > 1 else None
    yield gen
    for index in indices[1:]:
        fresh["state"]["key"] = (seed, index)
        bits.state = fresh
        yield gen


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
