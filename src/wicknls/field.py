"""Exact Fourier representation of periodic complex fields on the torus.

A field is stored by its Fourier coefficients on the symmetric mode range
``|n| <= max_mode`` with the convention ``u(x) = sum_n c(n) exp(i n x)`` on
``[0, 2*pi)``. Norm conventions: coefficient-space norms (Sobolev and
Fourier-Lebesgue) carry no ``2*pi`` factor, while physical integrals (the
``pairing`` inner product, quartic integrals) do. The Sobolev weight is
``<n> = 1 + |n|``.
"""

import math
from dataclasses import dataclass

import numpy as np
# numpy 2 loads numpy.fft on first use; load it with the package, so that code
# wrapping numpy.fft.fft from outside (the perfbench tracer, profilers) finds it
import numpy.fft  # noqa: F401

from ._kernels import fast_fft_size

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class TorusField:
    """Immutable band-limited field: coefficients for modes -max_mode..max_mode."""

    coeffs: np.ndarray
    max_mode: int

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.complex128)
        if self.max_mode < 0:
            raise ValueError("max_mode must be >= 0")
        if c.ndim != 1 or len(c) != 2 * self.max_mode + 1:
            raise ValueError(
                f"coefficient array must have length {2 * self.max_mode + 1}, got {c.shape}"
            )
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def _trusted(cls, coeffs: np.ndarray, max_mode: int) -> "TorusField":
        """Wrap a read-only, finite complex128 row of length 2*max_mode+1.

        Skips the copy and the checks of the constructor; for callers that
        built ``coeffs`` themselves and guarantee those properties.
        """
        f = object.__new__(cls)
        object.__setattr__(f, "coeffs", coeffs)
        object.__setattr__(f, "max_mode", max_mode)
        return f

    @classmethod
    def zeros(cls, max_mode: int) -> "TorusField":
        return cls(np.zeros(2 * max_mode + 1, dtype=np.complex128), max_mode)

    @classmethod
    def from_modes(cls, amplitudes: dict, max_mode: int | None = None) -> "TorusField":
        """Build a field from a {mode: amplitude} mapping."""
        if max_mode is None:
            max_mode = max((abs(int(n)) for n in amplitudes), default=0)
        c = np.zeros(2 * max_mode + 1, dtype=np.complex128)
        for n, a in amplitudes.items():
            if abs(int(n)) > max_mode:
                raise ValueError(f"mode {n} outside band {max_mode}")
            c[int(n) + max_mode] = a
        return cls(c, max_mode)

    @classmethod
    def single_mode(cls, mode: int, amplitude: complex = 1.0,
                    max_mode: int | None = None) -> "TorusField":
        return cls.from_modes({mode: amplitude}, max_mode)

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.max_mode, self.max_mode + 1)

    def coeff(self, n: int) -> complex:
        if abs(n) > self.max_mode:
            return 0.0 + 0.0j
        return complex(self.coeffs[n + self.max_mode])

    def padded_to(self, max_mode: int) -> "TorusField":
        """Zero-extend to a larger band (identity if already that wide)."""
        if max_mode < self.max_mode:
            raise ValueError("padded_to cannot shrink the band; use project()")
        if max_mode == self.max_mode:
            return self
        c = np.zeros(2 * max_mode + 1, dtype=np.complex128)
        lo = max_mode - self.max_mode
        c[lo:lo + len(self.coeffs)] = self.coeffs
        return TorusField(c, max_mode)

    def _binary(self, other: "TorusField", op) -> "TorusField":
        n = max(self.max_mode, other.max_mode)
        return TorusField(op(self.padded_to(n).coeffs, other.padded_to(n).coeffs), n)

    def __add__(self, other: "TorusField") -> "TorusField":
        return self._binary(other, np.add)

    def __sub__(self, other: "TorusField") -> "TorusField":
        return self._binary(other, np.subtract)

    def __mul__(self, scalar: complex) -> "TorusField":
        return TorusField(self.coeffs * scalar, self.max_mode)

    __rmul__ = __mul__


@dataclass(frozen=True)
class NormSpec:
    """Which norm: Sobolev(s), FourierLebesgue(s, p) or plain L2 (coefficient l2)."""

    kind: str
    s: float = 0.0
    p: float = 2.0

    def __post_init__(self):
        if self.kind not in ("sobolev", "fourier_lebesgue", "l2"):
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if not math.isfinite(self.s):
            raise ValueError("regularity index s must be finite")
        if self.p < 1:
            raise ValueError("p must be >= 1")

    @classmethod
    def sobolev(cls, s: float) -> "NormSpec":
        return cls("sobolev", s=float(s))

    @classmethod
    def fourier_lebesgue(cls, s: float, p: float) -> "NormSpec":
        return cls("fourier_lebesgue", s=float(s), p=float(p))

    @classmethod
    def l2(cls) -> "NormSpec":
        return cls("l2")


def synthesize(field: TorusField, grid_points: int) -> np.ndarray:
    """Sample the field at x_j = 2*pi*j/grid_points, j = 0..grid_points-1.

    Exact for any grid size (modes are folded modulo the grid); an alias-free
    round trip through :func:`analyze` needs grid_points >= 2*max_mode + 1.
    """
    if grid_points <= 0:
        raise ValueError("grid_points must be positive")
    spectrum = np.zeros(grid_points, dtype=np.complex128)
    np.add.at(spectrum, np.mod(field.modes, grid_points), field.coeffs)
    return np.fft.ifft(spectrum) * grid_points


def analyze(samples: np.ndarray, max_mode: int | None = None) -> TorusField:
    """Recover Fourier coefficients from equispaced samples.

    Left inverse of :func:`synthesize` on fields band-limited to ``max_mode``
    when ``len(samples) >= 2*max_mode + 1``.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    m = len(samples)
    if m == 0:
        raise ValueError("need at least one sample")
    if max_mode is None:
        max_mode = (m - 1) // 2
    if 2 * max_mode + 1 > m:
        raise ValueError(
            f"{m} samples cannot resolve modes up to {max_mode} (need {2 * max_mode + 1})"
        )
    spectrum = np.fft.fft(samples) / m
    modes = np.arange(-max_mode, max_mode + 1)
    return TorusField(spectrum[np.mod(modes, m)], max_mode)


def project(field: TorusField, n_max: int) -> TorusField:
    """Dirichlet projection onto modes |n| <= n_max (idempotent)."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max >= field.max_mode:
        return field
    k = field.max_mode - n_max
    return TorusField(field.coeffs[k:-k], n_max)


def norm(field: TorusField, spec: NormSpec) -> float:
    """Coefficient-space norm per NormSpec (no 2*pi factor)."""
    a = np.abs(field.coeffs)
    w = 1.0 + np.abs(field.modes)
    if spec.kind in ("sobolev", "l2"):
        s = spec.s if spec.kind == "sobolev" else 0.0
        return float(np.sqrt(np.sum(w ** (2.0 * s) * a**2)))
    if math.isinf(spec.p):
        return float(np.max(w**spec.s * a))
    return float(np.sum(w ** (spec.s * spec.p) * a**spec.p) ** (1.0 / spec.p))


def mean_intensity(field: TorusField) -> float:
    """Average of |u|^2 over the torus: sum of squared coefficient moduli."""
    a = field.coeffs
    return float(np.add.reduce(a.real * a.real + a.imag * a.imag))


def pairing(f: TorusField, g: TorusField) -> complex:
    """L2(T) inner product: integral of f * conj(g) = 2*pi * sum f(n) conj(g(n))."""
    n = max(f.max_mode, g.max_mode)
    return TWO_PI * complex(np.vdot(g.padded_to(n).coeffs, f.padded_to(n).coeffs))


def _quartic_integrals(block: np.ndarray) -> np.ndarray:
    """Integral of |u|^4 for each row of a (B, 2N+1) block of modes -N..N.

    Row r sits in columns 0..2N of one zero-padded batched transform, which
    samples e^{iNx} u; |u|^4 does not see that unimodular factor. A grid of
    at least 4N+1 points integrates the band-4N polynomial exactly.
    """
    rows, width = block.shape
    m = fast_fft_size(2 * width)
    u = np.zeros((rows, m), dtype=np.complex128)
    u[:, :width] = block
    np.fft.ifft(u, axis=-1, norm="forward", out=u)
    a4 = np.abs(u)
    a4 *= a4
    a4 *= a4
    return TWO_PI * (np.add.reduce(a4, axis=-1) / m)


def quartic_integral(field: TorusField) -> float:
    """Integral of |u|^4 over the torus, exact via an oversampled grid."""
    return float(_quartic_integrals(field.coeffs[None, :])[0])


def _lp_sums(trajectory, ps) -> list[float]:
    """Left rectangle-rule sums of the integral of |u|^p over space-time, one per p.

    Each snapshot is synthesized once, on the grid of the largest p, which
    integrates |u|^p exactly in space for every even p in ``ps``.
    """
    times = np.asarray(trajectory.times, dtype=np.float64)
    snaps = list(trajectory.snapshots)
    if len(times) < 2 or len(snaps) != len(times):
        raise ValueError("need at least two snapshots with matching times")
    dts = np.diff(times)
    dt = dts[0]
    if dt <= 0 or not np.allclose(dts, dt, rtol=1e-9, atol=1e-12):
        raise ValueError("snapshot times must be uniformly spaced")
    n_max = max(f.max_mode for f in snaps)
    m = fast_fft_size(max(2 * (2 * n_max + 1), int(max(ps) * n_max) + 2))
    totals = [0.0] * len(ps)
    for f in snaps[:-1]:
        u = synthesize(f, m)
        a2 = u.real**2 + u.imag**2
        for i, p in enumerate(ps):
            totals[i] += dt * TWO_PI * float(np.mean(a2 ** (p / 2.0)))
    return totals


def spacetime_lp_norm(trajectory, p: float) -> float:
    """Space-time L^p norm over [t_0, t_last] by the left rectangle rule.

    ``trajectory`` is anything with ``times`` and ``snapshots`` attributes;
    times must be uniformly spaced, with at least two snapshots. The spatial
    integral is exact for band-limited fields (2x-oversampled grid).
    """
    return _lp_sums(trajectory, (p,))[0] ** (1.0 / p)


def spacetime_l4_norm(trajectory) -> float:
    """Space-time L^4 norm of a trajectory (see :func:`spacetime_lp_norm`)."""
    return spacetime_lp_norm(trajectory, 4.0)


def field_allclose(f: TorusField, g: TorusField, rtol: float = 1e-12,
                   atol: float = 1e-12) -> bool:
    n = max(f.max_mode, g.max_mode)
    return bool(np.allclose(f.padded_to(n).coeffs, g.padded_to(n).coeffs,
                            rtol=rtol, atol=atol))
