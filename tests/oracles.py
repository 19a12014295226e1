"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately written without the package's own fast
paths: direct mode summation, O(N^3) triple loops, rational arithmetic.
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
    out = np.zeros(6 * max_mode + 1, dtype=complex)
    rng = range(-max_mode, max_mode + 1)
    for i1, n1 in enumerate(rng):
        for i2, n2 in enumerate(rng):
            for i3, n3 in enumerate(rng):
                out[n1 - n2 + n3 + 3 * max_mode] += c[i1] * np.conj(c[i2]) * c[i3]
    return out


def triple_sum_nonresonant(coeffs, max_mode):
    """Same sum restricted to n2 != n1 and n2 != n3."""
    c = np.asarray(coeffs)
    out = np.zeros(6 * max_mode + 1, dtype=complex)
    rng = range(-max_mode, max_mode + 1)
    for i1, n1 in enumerate(rng):
        for i2, n2 in enumerate(rng):
            if n2 == n1:
                continue
            for i3, n3 in enumerate(rng):
                if n2 == n3:
                    continue
                out[n1 - n2 + n3 + 3 * max_mode] += c[i1] * np.conj(c[i2]) * c[i3]
    return out


def dense_quartic_integral(coeffs, max_mode, grid_points=4096):
    """integral of |u|^4 by a dense rectangle rule on direct samples."""
    u = direct_samples(coeffs, max_mode, grid_points)
    return TWO_PI * float(np.mean(np.abs(u) ** 4))


def quadruple_sum_free_l4(coeffs, max_mode, horizon):
    """int_{-T}^{T} int_T |S(t)f|^4 dx dt as the direct sum over resonances.

    2 pi sum_{n1 - n2 + n3 - n4 = 0} c1 conj(c2) c3 conj(c4) 2T sinc(W T)
    with W = n1^2 - n2^2 + n3^2 - n4^2 and sinc(x) = sin(x) / x.
    """
    import math

    c = np.asarray(coeffs)
    total = 0j
    for n1 in range(-max_mode, max_mode + 1):
        for n2 in range(-max_mode, max_mode + 1):
            for n3 in range(-max_mode, max_mode + 1):
                n4 = n1 - n2 + n3
                if abs(n4) > max_mode:
                    continue
                w = (n1 * n1 - n2 * n2 + n3 * n3 - n4 * n4) * horizon
                kernel = 2.0 * horizon * (math.sin(w) / w if w else 1.0)
                total += kernel * (c[n1 + max_mode] * np.conj(c[n2 + max_mode])
                                   * c[n3 + max_mode] * np.conj(c[n4 + max_mode]))
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


def gaussian_even_moment(k):
    """E[x^{2k}] for x ~ N(0,1): (2k-1)!!"""
    out = 1
    for j in range(1, 2 * k, 2):
        out *= j
    return out
