"""Exact Fourier representation of periodic complex fields on the torus.

A field is stored by its Fourier coefficients on the symmetric mode range
``|n| <= max_mode`` with the convention ``u(x) = sum_n c(n) exp(i n x)`` on
``[0, 2*pi)``. Norm conventions: coefficient-space norms (Sobolev and
Fourier-Lebesgue) carry no ``2*pi`` factor, while physical integrals (the
``pairing`` inner product, quartic integrals) do. The Sobolev weight is
``<n> = 1 + |n|``. Every space integral of |u|^p (``quartic_integral``, the
ledger's quartic term, the space-time L^p norms and gaps) is one grid
kernel: ``_synthesis`` on the ``_power_grid``, then ``_grid_means``.
"""

import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
# numpy 2 loads numpy.fft on first use; load it with the package, so that code
# wrapping numpy.fft.fft from outside (the perfbench tracer, profilers) finds it
import numpy.fft  # noqa: F401

from ._kernels import fast_fft_size

TWO_PI = 2.0 * math.pi


class SpecFieldError(ValueError):
    """A rejected spec value; ``field`` names the spec field it came from."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def require_integer(field: str, value, minimum: int | None = None) -> int:
    """``value`` as an int; ``SpecFieldError(field)`` unless it is an integer >= ``minimum``.

    An integer is a ``numbers.Integral`` other than a bool: an integral float
    is not one, so a count or a mode index fails where it is given.
    """
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise SpecFieldError(field, f"{field} must be an integer (got {value!r})")
    if minimum is not None and value < minimum:
        raise SpecFieldError(field, f"{field} must be >= {minimum} (got {value})")
    return int(value)


def require_seed(value) -> int:
    """``value`` as an int; ``SpecFieldError("seed")`` unless it is an integer in [0, 2**64)."""
    if not 0 <= require_integer("seed", value) < 2**64:
        raise SpecFieldError("seed", f"seed must lie in [0, 2**64) (got {value})")
    return int(value)


@contextmanager
def sized_by(field: str, value):
    """Around the making of arrays whose size is set by ``value``, the value of spec field
    ``field``: an array numpy refuses or cannot allocate raises ``SpecFieldError(field)``."""
    try:
        yield
    except (ValueError, MemoryError) as exc:
        raise SpecFieldError(field, f"{field} {value} is too large ({exc})") from None


@dataclass(frozen=True, eq=False)
class TorusField:
    """Immutable band-limited field: coefficients for modes -max_mode..max_mode."""

    coeffs: np.ndarray
    max_mode: int

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.complex128)
        require_integer("max_mode", self.max_mode, 0)
        if c.ndim != 1 or len(c) != 2 * self.max_mode + 1:
            raise SpecFieldError("coeffs", "coefficient array must have length "
                                           f"{2 * self.max_mode + 1}, got {c.shape}")
        if not np.isfinite(c).all():
            raise SpecFieldError("coeffs", "coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def _trusted(cls, coeffs: np.ndarray, max_mode: int) -> "TorusField":
        """Wrap a read-only, finite complex128 row of length 2*max_mode+1.

        Skips the copy and the checks of the constructor; for callers that
        built ``coeffs`` themselves and guarantee those properties.
        """
        f = object.__new__(cls)
        f.__dict__.update(coeffs=coeffs, max_mode=max_mode)  # what frozen forbids is setattr
        return f

    @classmethod
    def zeros(cls, max_mode: int) -> "TorusField":
        return cls(np.zeros(2 * max_mode + 1, dtype=np.complex128), max_mode)

    @classmethod
    def from_modes(cls, amplitudes: dict, max_mode: int | None = None) -> "TorusField":
        """Build a field from a {mode: amplitude} mapping of modes within the band."""
        field = "amplitudes" if max_mode is None else "max_mode"  # what sets the band
        if max_mode is None:
            max_mode = max((abs(int(n)) for n in amplitudes), default=0)
        max_mode = require_integer("max_mode", max_mode, 0)
        try:  # numpy refuses a band past its limits, or cannot allocate it
            c = np.zeros(2 * max_mode + 1, dtype=np.complex128)
        except (ValueError, MemoryError) as exc:
            raise SpecFieldError(field, f"max_mode {max_mode} is too large ({exc})") from None
        for n, a in amplitudes.items():
            if abs(int(n)) > max_mode:
                raise SpecFieldError("amplitudes", f"mode {n} outside band {max_mode}")
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
            raise SpecFieldError("kind", f"unknown norm kind {self.kind!r}")
        if not math.isfinite(self.s):
            raise SpecFieldError("s", "regularity index s must be finite")
        if not self.p >= 1:  # NaN-safe
            raise SpecFieldError("p", "p must be >= 1")

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
    return np.fft.ifft(spectrum, norm="forward")


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
    spectrum = np.fft.fft(samples, norm="forward")
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


def _sobolev_norms(block: np.ndarray, s: float) -> np.ndarray:
    """Sobolev-s norms of the rows of a (..., 2N+1) block of modes -N..N, in one reduction."""
    n_max = (block.shape[-1] - 1) // 2
    w = 1.0 + np.abs(np.arange(-n_max, n_max + 1))
    return np.sqrt(np.sum(w ** (2.0 * s) * np.abs(block) ** 2, axis=-1))


def norm(field: TorusField, spec: NormSpec) -> float:
    """Coefficient-space norm per NormSpec (no 2*pi factor)."""
    if spec.kind in ("sobolev", "l2"):
        return float(_sobolev_norms(field.coeffs, spec.s if spec.kind == "sobolev" else 0.0))
    a = np.abs(field.coeffs)
    w = 1.0 + np.abs(field.modes)
    if math.isinf(spec.p):
        return float(np.max(w**spec.s * a))
    return float(np.sum(w ** (spec.s * spec.p) * a**spec.p) ** (1.0 / spec.p))


# floats per BLAS dot of ``mean_intensity``: OpenBLAS (0.3.31) splits a dot of
# more than 10,000 floats across its threads, which changes the order of the
# sum, so a longer field is dotted in chunks of this length, added in order
_DOT_CHUNK = 2**13


def mean_intensity(field: TorusField) -> float:
    """Average of |u|^2 over the torus: sum of squared coefficient moduli.

    One BLAS dot of the interleaved re, im floats per chunk of
    ``_DOT_CHUNK``, so the bits do not depend on the BLAS thread count; the
    sum differs from a pairwise one by a few ulps.
    """
    x = field.coeffs.view(np.float64)  # re, im interleaved
    if len(x) <= _DOT_CHUNK:
        return float(x.dot(x))
    total = 0.0
    for start in range(0, len(x), _DOT_CHUNK):
        part = x[start:start + _DOT_CHUNK]
        total += float(part.dot(part))
    return total


def require_finite_mass(field: str, u: TorusField) -> float:
    """The mass 2*pi*mu of ``u``; ``SpecFieldError(field)`` unless it is finite, since
    a datum of infinite mass would fail any scheme at its first check."""
    with np.errstate(over="ignore"):  # the error below reports it
        mass = TWO_PI * mean_intensity(u)
    if not math.isfinite(mass):
        raise SpecFieldError(field, f"mass 2*pi*mu of the {field} must be finite (got {mass})")
    return mass


def pairing(f: TorusField, g: TorusField) -> complex:
    """L2(T) inner product: integral of f * conj(g) = 2*pi * sum f(n) conj(g(n))."""
    n = max(f.max_mode, g.max_mode)
    return TWO_PI * complex(np.vdot(g.padded_to(n).coeffs, f.padded_to(n).coeffs))


# grid values per group of ``_power_means`` (at least one row): 128 KiB of
# complex work, so that a whole batch's ledger needs no more than one snapshot's
_POWER_WORK_VALUES = 2**13


def _power_grid(width: int, ps) -> int:
    """Points of the grid on which the mean of |u|^p is exact for every even p in ``ps``,
    for rows of ``width`` = 2N+1 coefficients."""
    return fast_fft_size(max(2 * width, int(max(ps) * ((width - 1) // 2)) + 2))


def _synthesis(block: np.ndarray, m: int) -> np.ndarray:
    """The (B, m) grid values of the rows of a (B, 2N+1) block of modes -N..N, m > 2N.

    Row r is sampled as :func:`synthesize` samples it, by one unscaled inverse
    transform, so grid values are field values.
    """
    n_max = (block.shape[1] - 1) // 2
    u = np.zeros((len(block), m), dtype=np.complex128)
    u[:, :n_max + 1] = block[:, n_max:]
    u[:, m - n_max:] = block[:, :n_max]
    np.fft.ifft(u, axis=-1, norm="forward", out=u)
    return u


def _grid_means(grid: np.ndarray, ps) -> np.ndarray:
    """The (len(ps), B) means of |u|^p over each row of the (B, m) grid values ``grid``."""
    a2 = grid.real**2
    a2 += grid.imag**2
    # |u|^6 as a product: numpy's general pow takes three times as long
    return np.array([np.mean(a2 * a2 * a2 if p == 6.0 else a2 ** (p / 2.0), axis=-1)
                     for p in ps])


def _power_means(block: np.ndarray, ps) -> np.ndarray:
    """Spatial mean of |u|^p for each p in ``ps`` and each row of a (B, 2N+1) block.

    Row r holds modes -N..N. The rows are synthesized (:func:`_synthesis`)
    on the ``_power_grid`` of the largest p, which averages |u|^p exactly for
    every even p in ``ps``; returns a (len(ps), B) array. The rows are
    transformed a group at a time, so the work memory stays bounded; a
    row's values do not depend on its group.
    """
    rows, width = block.shape
    m = _power_grid(width, ps)
    group = max(1, _POWER_WORK_VALUES // m)
    out = np.empty((len(ps), rows))
    for start in range(0, rows, group):
        out[:, start:start + group] = _grid_means(_synthesis(block[start:start + group], m), ps)
    return out


def quartic_integral(field: TorusField) -> float:
    """Integral of |u|^4 over the torus, exact via an oversampled grid."""
    return TWO_PI * float(_power_means(field.coeffs[None, :], (4.0,))[0, 0])


def _lp_sums(times, block: np.ndarray, ps) -> list[float]:
    """Left rectangle-rule sums of the integral of |u|^p over space-time, one per p.

    Row k of the (S, 2N+1) ``block`` holds modes -N..N at ``times[k]``; the
    spatial means of all rows but the last come from :func:`_power_means`,
    and the time sum runs row by row.
    """
    times = np.asarray(times, dtype=np.float64)
    if len(times) < 2 or len(block) != len(times):
        raise ValueError("need at least two snapshots with matching times")
    dts = np.diff(times)
    dt = dts[0]
    if dt <= 0 or not np.allclose(dts, dt, rtol=1e-9, atol=1e-12):
        raise ValueError("snapshot times must be uniformly spaced")
    totals = [0.0] * len(ps)
    for i, means in enumerate(_power_means(block[:-1], ps)):
        for mean in means:
            totals[i] += dt * TWO_PI * float(mean)
    return totals


def spacetime_lp_norm(trajectory, p: float) -> float:
    """Space-time L^p norm over [t_0, t_last] by the left rectangle rule.

    ``trajectory`` is anything with ``times`` and ``snapshots`` attributes;
    times must be uniformly spaced, with at least two snapshots. The spatial
    integral is exact for band-limited fields (2x-oversampled grid).
    """
    n_max = max((f.max_mode for f in trajectory.snapshots), default=0)
    block = np.array([f.padded_to(n_max).coeffs for f in trajectory.snapshots])
    return _lp_sums(trajectory.times, block, (p,))[0] ** (1.0 / p)


def spacetime_l4_norm(trajectory) -> float:
    """Space-time L^4 norm of a trajectory (see :func:`spacetime_lp_norm`)."""
    return spacetime_lp_norm(trajectory, 4.0)
