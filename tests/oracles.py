"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately written without the package's own fast
paths: direct mode summation, O(N^3) triple sums, rational arithmetic.
"""

from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * np.pi


def direct_samples(coeffs, max_mode, grid_points):
    """u(x_j) = sum_n c(n) e^{i n x_j} by explicit summation."""
    x = TWO_PI * np.arange(grid_points) / grid_points
    modes = np.arange(-max_mode, max_mode + 1)
    return np.exp(1j * np.outer(x, modes)) @ np.asarray(coeffs)


def triple_sum_cubic(coeffs, max_mode):
    """out(n) = sum_{n1 - n2 + n3 = n} c(n1) conj(c(n2)) c(n3), band 3N."""
    c = np.asarray(coeffs)
    width = 2 * max_mode + 1
    out = np.zeros(6 * max_mode + 1, dtype=complex)
    for i1 in range(width):
        for i2 in range(width):
            # n3 runs over the band: n1 - n2 + n3 + 3N = i1 - i2 + i3 + 2N
            lo = i1 - i2 + 2 * max_mode
            out[lo:lo + width] += c[i1] * np.conj(c[i2]) * c
    return out


def strang_step(coeffs, grid_points, sign, dt, offset):
    """One Strang step of i u_t - u_xx + sign (|u|^2 + offset) u = 0 for modes -K..K.

    Half a linear step, the exact phase u exp(i sign dt (|u|^2 + offset)) on
    the grid, and the other half; the modes -K..K of the grid product are
    kept. Written with numpy's default transform scaling and np.exp.
    """
    c = np.asarray(coeffs, dtype=complex)
    modes = np.arange(-(len(c) // 2), len(c) // 2 + 1)
    half = np.exp(1j * modes**2 * (dt / 2.0))
    spectrum = np.zeros(grid_points, dtype=complex)
    spectrum[np.mod(modes, grid_points)] = half * c
    u = np.fft.ifft(spectrum) * grid_points
    u = u * np.exp(1j * sign * dt * (np.abs(u) ** 2 + offset))
    return half * (np.fft.fft(u) / grid_points)[np.mod(modes, grid_points)]


def triple_sum_nonresonant(coeffs, max_mode):
    """Same sum restricted to n2 != n1 and n2 != n3."""
    c = np.asarray(coeffs)
    width = 2 * max_mode + 1
    out = np.zeros(6 * max_mode + 1, dtype=complex)
    for i1 in range(width):
        for i2 in range(width):
            if i2 == i1:
                continue
            lo = i1 - i2 + 2 * max_mode
            # n3 runs over the band except n3 = n2
            out[lo:lo + i2] += c[i1] * np.conj(c[i2]) * c[:i2]
            out[lo + i2 + 1:lo + width] += c[i1] * np.conj(c[i2]) * c[i2 + 1:]
    return out


def dense_quartic_integral(coeffs, max_mode, grid_points=4096):
    """integral of |u|^4 by a dense rectangle rule on direct samples."""
    u = direct_samples(coeffs, max_mode, grid_points)
    return TWO_PI * float(np.mean(np.abs(u) ** 4))


def quadruple_sum_free_l4(coeffs, max_mode, horizon):
    """int_{-T}^{T} int_T |S(t)f|^4 dx dt as the direct sum over resonances.

    2 pi sum_{n1 - n2 + n3 - n4 = 0} c1 conj(c2) c3 conj(c4) 2T sinc(W T)
    with W = n1^2 - n2^2 + n3^2 - n4^2 and sinc(x) = sin(x) / x. For each n1
    the terms over all (n2, n3) are summed as one array.
    """
    c = np.asarray(coeffs, dtype=complex)
    modes = np.arange(-max_mode, max_mode + 1)
    n2, n3 = modes[:, None], modes[None, :]
    total = 0j
    for n1 in modes:
        n4 = n1 - n2 + n3
        inside = np.abs(n4) <= max_mode
        w = (n1 * n1 - n2 * n2 + n3 * n3 - n4 * n4) * horizon
        resonant = w == 0
        safe = np.where(resonant, 1.0, w)
        kernel = 2.0 * horizon * np.where(resonant, 1.0, np.sin(safe) / safe)
        c4 = c[np.clip(n4, -max_mode, max_mode) + max_mode]
        terms = c[n1 + max_mode] * np.conj(c[n2 + max_mode]) * c[n3 + max_mode] * np.conj(c4)
        total += np.sum(kernel * terms, where=inside)
    return TWO_PI * total.real


def rational_weight_sum(max_mode, exponent):
    """sum_{|n| <= N} 1 / (1 + |n|^exponent) in exact rational arithmetic."""
    total = Fraction(1, 2) if exponent == 0 else Fraction(1)
    for n in range(1, max_mode + 1):
        total += 2 * Fraction(1, 1 + n**exponent)
    return total


def hermite_reference(n, x, sigma=1.0):
    """H_n from the closed-form expansion sum via exact double factorials."""
    # H_n(x; sigma) = n! sum_{m<=n/2} (-sigma/2)^m x^{n-2m} / (m! (n-2m)!)
    import math

    total = 0.0
    for m in range(n // 2 + 1):
        total += ((-sigma / 2.0) ** m * x ** (n - 2 * m)
                  / (math.factorial(m) * math.factorial(n - 2 * m)))
    return math.factorial(n) * total


def hermite_recurrence(n, x, sigma=1.0):
    """H_n by the three-term recurrence, a fresh array for every step."""
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev
    h = x.copy()
    for k in range(1, n):
        h, h_prev = x * h - sigma * k * h_prev, h
    return h


def hypercontractivity_moments(order, dim, q, samples, seed, terms=None, batch=1 << 16):
    """(lhs, rhs, stderr, passed) of the chaos moment check, allocating as it goes.

    Batch b of the normals comes from a fresh Philox generator keyed
    (seed, b); F, F^2, |F|^q and their squares are new arrays for every batch.
    """
    import math

    terms = terms if terms is not None else [(1.0, (order,))]
    s2 = s4 = sq = s2q = 0.0
    for b, start in enumerate(range(0, samples, batch)):
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, b], dtype=np.uint64)))
        x = gen.standard_normal((min(batch, samples - start), dim))
        f = np.zeros(len(x))
        for coeff, degrees in terms:
            term = np.full(len(x), float(coeff))
            for j, deg in enumerate(degrees):
                if deg > 0:
                    term *= hermite_recurrence(deg, np.ascontiguousarray(x[:, j]))
            f += term
        f2 = f**2
        fq = f2 ** (q / 2.0)
        s2 += f2.sum()
        s4 += (f2 * f2).sum()
        sq += fq.sum()
        s2q += (fq * fq).sum()
    m2 = s2 / samples
    mq = sq / samples
    lhs = mq ** (1.0 / q)
    rhs = (q - 1.0) ** (order / 2.0) * math.sqrt(m2)
    rel_lhs = math.sqrt(max(s2q / samples - mq**2, 0.0) / samples) / (q * mq) if mq > 0 else 0.0
    rel_rhs = math.sqrt(max(s4 / samples - m2**2, 0.0) / samples) / (2 * m2) if m2 > 0 else 0.0
    return (float(lhs), float(rhs), float(math.hypot(rel_lhs, rel_rhs)),
            bool(lhs <= rhs * (1.0 + 3.0 * (rel_lhs + rel_rhs))))


def gaussian_even_moment(k):
    """E[x^{2k}] for x ~ N(0,1): (2k-1)!!"""
    out = 1
    for j in range(1, 2 * k, 2):
        out *= j
    return out


def keyed_sample_coeffs(seed, index, alpha, max_mode, gaussian_scale=1.0, offset=None):
    """One random sample's coefficients from a fresh Philox stream (seed, index).

    Mode n takes normals 2p and 2p+1 of the stream as its real and imaginary
    parts, with p = 0, 1, 2, 3, 4, ... for n = 0, +1, -1, +2, -2, ...
    """
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
    z = gen.standard_normal(2 * (2 * max_mode + 1))
    modes = np.arange(-max_mode, max_mode + 1)
    pair = np.array([2 * n - 1 if n > 0 else -2 * n for n in modes])
    g = z[2 * pair] + 1j * z[2 * pair + 1]
    weights = 1.0 / np.sqrt(1.0 + np.abs(modes.astype(np.float64)) ** (2.0 * alpha))
    c = g * np.sqrt(gaussian_scale / 2.0) * weights
    return c if offset is None else c + offset


def regularity_profile_loop(draw, max_mode, s_values, cutoffs, samples):
    """Rows of a regularity profile, one sample at a time; draw(k) gives its coefficients."""
    bracket = 1.0 + np.abs(np.arange(-max_mode, max_mode + 1, dtype=np.float64))
    norms = np.empty((len(s_values), len(cutoffs), samples))
    for k in range(samples):
        a2 = np.abs(draw(k)) ** 2
        for i, s in enumerate(s_values):
            v = bracket ** (2.0 * s) * a2
            for j, m in enumerate(cutoffs):
                norms[i, j, k] = np.sqrt(v[max_mode - m:max_mode + m + 1].sum())
    rows = []
    for i, s in enumerate(s_values):
        for j, m in enumerate(cutoffs):
            q25, med, q75 = np.percentile(norms[i, j], [25.0, 50.0, 75.0])
            rows.append({"s": s, "cutoff": m, "median": float(med),
                         "q25": float(q25), "q75": float(q75), "samples": samples})
    return rows


def galerkin_rk4(coeffs, max_mode, sign, shift, mean_shifted, dt, steps):
    """Classical RK4 of i c' = -(n^2 - shift) c - sign N(c) in mode space.

    N is the band-N slice of ``triple_sum_cubic``, minus 2 mu(c) c (mu taken
    from the stage value) when ``mean_shifted``. Stable only while
    dt * N^2 stays well under 2.8.
    """
    modes2 = np.arange(-max_mode, max_mode + 1, dtype=np.float64) ** 2
    center = slice(2 * max_mode, 4 * max_mode + 1)

    def rhs(c):
        nl = triple_sum_cubic(c, max_mode)[center]
        if mean_shifted:
            nl = nl - 2.0 * np.sum(np.abs(c) ** 2) * c
        return 1j * ((modes2 - shift) * c + sign * nl)

    c = np.array(coeffs, dtype=complex)
    for _ in range(steps):
        k1 = rhs(c)
        k2 = rhs(c + 0.5 * dt * k1)
        k3 = rhs(c + 0.5 * dt * k2)
        k4 = rhs(c + dt * k3)
        c = c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return c
