"""Hermite polynomials, Wick ordering and hypercontractivity checks.

Hermite polynomials use the variance-parameter convention
``H_0 = 1, H_1 = x, H_{k+1} = x H_k - sigma k H_{k-1}``, equivalently the
generating function ``exp(t x - sigma t^2 / 2) = sum H_n(x; sigma) t^n / n!``.
Wick-ordered powers of a complex Gaussian keep the variance explicit:
``:|g|^2: = |g|^2 - Var`` and
``:|g|^4: = |g|^4 - 4 Var |g|^2 + 2 Var^2``.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import field as fld
from ._kernels import hermite_batch, philox_streams

MAX_HERMITE_DEGREE = 50
_MC_BATCH = 1 << 16


def hermite(n: int, x, sigma: float = 1.0):
    """H_n(x; sigma) by the three-term recurrence; x may be scalar or array."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n > MAX_HERMITE_DEGREE:
        raise ValueError(f"degree > {MAX_HERMITE_DEGREE} rejected (recurrence accuracy)")
    if not sigma > 0:  # NaN-safe
        raise ValueError("variance parameter sigma must be positive")
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = hermite_batch(n, arr, float(sigma))
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out[0])
    return out


def wick_abs_square(g: complex, var: float):
    """:|g|^2: = |g|^2 - Var(g). Accepts scalars or arrays."""
    g = np.asarray(g)
    out = g.real**2 + g.imag**2 - var
    return out if g.ndim else float(out)


def wick_abs_fourth(g: complex, var: float):
    """:|g|^4: = |g|^4 - 4 Var |g|^2 + 2 Var^2. Accepts scalars or arrays."""
    g = np.asarray(g)
    a2 = g.real**2 + g.imag**2
    out = a2**2 - 4.0 * var * a2 + 2.0 * var**2
    return out if g.ndim else float(out)


def identity_checks() -> list:
    """The Hermite and Wick-ordering identities on fixed grids, as ``{"name", "pass"}`` dicts."""
    x = np.linspace(-3, 3, 13)
    sigma, t = 1.5, 0.4
    series = sum(hermite(k, x, sigma) * t**k / math.factorial(k) for k in range(13))
    gen = np.exp(t * x - 0.5 * sigma * t * t)
    xs, ys = np.meshgrid(np.linspace(-2, 2, 9), np.linspace(-2, 2, 9))
    lhs = wick_abs_fourth(xs + 1j * ys, 2.0)
    rhs = hermite(4, xs) + 2.0 * hermite(2, xs) * hermite(2, ys) + hermite(4, ys)
    return [{"name": name, "pass": bool(ok)} for name, ok in (
        ("hermite_h2", hermite(2, 2.0, 1.0) == 3.0),
        ("hermite_h4", hermite(4, 1.0, 1.0) == -2.0),
        ("hermite_generating_function", np.max(np.abs(series - gen)) < 1e-8),
        ("wick_fourth_chaos_expansion", np.max(np.abs(lhs - rhs)) < 1e-10))]


def wick_power_means(seed: int, samples: int, variance: float) -> list:
    """Monte-Carlo means of ``:|g|^2:`` and ``:|g|^4:``, Wick-ordered with ``variance``.

    ``g`` is the standard complex Gaussian (true variance 2), ``samples``
    draws from the Philox stream keyed ``[seed, 0]``. Each mean vanishes in
    expectation only when ``variance`` is the true one; a check passes when
    the mean lies within 3 standard errors of 0. Returns
    ``{"name", "pass", "mean", "stderr", "variance"}`` dicts. A rejected
    argument raises ``SpecFieldError`` naming it, before any draw, and so does
    a ``samples`` whose draw numpy cannot allocate.
    """
    fld.require_seed(seed)
    fld.require_integer("samples", samples, 2)  # a standard error needs two
    if not (variance > 0 and math.isfinite(variance)):  # NaN-safe
        raise fld.SpecFieldError("variance", f"variance must be finite and > 0 (got {variance})")
    checks = []
    with fld.sized_by("samples", samples):
        z = np.empty((samples, 2))
        next(philox_streams(seed, [0])).standard_normal(out=z)
        g = z[:, 0] + 1j * z[:, 1]
        for name, values in (("wick_square_mean", wick_abs_square(g, variance)),
                             ("wick_fourth_mean", wick_abs_fourth(g, variance))):
            mean = float(np.mean(values))
            stderr = float(np.std(values) / math.sqrt(samples))
            checks.append({"name": name, "pass": abs(mean) <= 3.0 * stderr, "mean": mean,
                           "stderr": stderr, "variance": variance})
    return checks


def renormalization_constant(max_mode: int, alpha: float) -> float:
    """Expected mean intensity of the truncated Gaussian field.

    sum_{|n| <= max_mode} 1 / (1 + |n|^(2 alpha)); alpha = 0 is the
    white-noise weight, alpha = 1 the massive free-field weight.
    """
    if max_mode < 0:
        raise ValueError("max_mode must be >= 0")
    n = np.arange(-max_mode, max_mode + 1, dtype=np.float64)
    return float(np.sum(1.0 / (1.0 + np.abs(n) ** (2.0 * alpha))))


def intensity_fluctuation(field: fld.TorusField, max_mode: int, alpha: float) -> float:
    """Centered mean intensity of the projected field: mu(P_N u) - E[mu]."""
    return fld.mean_intensity(fld.project(field, max_mode)) - renormalization_constant(
        max_mode, alpha
    )


def wick_hamiltonian(field: fld.TorusField, max_mode: int, alpha: float,
                     sign: int) -> float:
    """Wick-ordered truncated Hamiltonian.

    (1/2) * integral |u_x|^2 + sign * (1/4) * integral of the Wick-ordered
    quartic |u|^4 - 4 a |u|^2 + 2 a^2, with u = P_N field and a the
    renormalization constant for (max_mode, alpha).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    u = fld.project(field, max_mode)
    kinetic = 0.5 * fld.TWO_PI * float(np.sum(u.modes**2 * np.abs(u.coeffs) ** 2))
    a = renormalization_constant(max_mode, alpha)
    mass_integral = fld.TWO_PI * fld.mean_intensity(u)
    quartic = fld.quartic_integral(u) - 4.0 * a * mass_integral + 2.0 * a**2 * fld.TWO_PI
    return kinetic + sign * 0.25 * quartic


# ---------------------------------------------------------------------------
# hypercontractivity: ||F||_q <= (q-1)^{n/2} ||F||_2 for order-n chaos
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HypercontractivityReport:
    order: int
    dim: int
    q: float
    samples: int
    seed: int
    lhs: float
    rhs: float
    stderr: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "n": self.order, "d": self.dim, "q": self.q, "samples": self.samples,
            "seed": self.seed, "lhs": self.lhs, "rhs": self.rhs,
            "stderr": self.stderr, "pass": self.passed,
        }


def gaussian_batches(dim: int, samples: int, seed: int, batch: int = _MC_BATCH,
                     out: np.ndarray | None = None):
    """Deterministic i.i.d. N(0,1) batches, shape (b, dim), keyed Philox streams.

    Partitioning is by fixed batch index, so the stream is reproducible and
    safe to distribute over workers as long as results are reduced in batch
    order. With ``out``, a (batch, dim) float array, every batch is drawn
    into a leading slice of that one buffer, which the next batch overwrites.
    """
    if not batch >= 1:
        raise ValueError("batch must be >= 1")
    starts = range(0, samples, batch)
    for start, gen in zip(starts, philox_streams(seed, range(len(starts)))):
        take = min(batch, samples - start)
        yield gen.standard_normal(out=np.empty((take, dim)) if out is None else out[:take])


def evaluate_chaos(x: np.ndarray, terms, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Evaluate sum_k coeff_k * prod_j H_{deg_kj}(x_j) row-wise on x (b, dim).

    ``out`` (b,) and ``work`` (4, b) are buffers that a caller evaluating
    many batches allocates once; neither may overlap x.
    """
    factor, hermite_work = work[1], work[2:]
    for k, (coeff, degrees) in enumerate(terms):
        term = out if k == 0 else work[0]  # the first term is written into out
        term.fill(coeff)
        for j, deg in enumerate(degrees):
            if deg > 0:
                term *= hermite_batch(deg, x[:, j], 1.0, out=factor, work=hermite_work)
        if k:
            out += term
    return out


def _case_terms(order, dim, q, samples, seed, terms=None) -> list:
    """The chaos terms of a ``hypercontractivity_check`` case, as (float, int tuple)
    pairs; a rejected argument raises ``SpecFieldError`` naming it."""
    for name, value in (("order", order), ("dim", dim), ("samples", samples)):
        fld.require_integer(name, value)
    fld.require_seed(seed)
    if not (q >= 2 and math.isfinite(q)):
        raise fld.SpecFieldError("q", f"q must be finite and >= 2 (got {q})")
    if order < 0 or dim < 1:
        raise fld.SpecFieldError("order" if order < 0 else "dim",
                                 "order must be >= 0 and dim >= 1")
    if order > MAX_HERMITE_DEGREE:
        # chaos degrees sum to the order, so this bounds each of them too
        raise fld.SpecFieldError("order", f"order > {MAX_HERMITE_DEGREE} rejected "
                                          "(recurrence accuracy)")
    if samples < 10_000:
        raise fld.SpecFieldError("samples", "need at least 1e4 samples")
    cleaned = []
    for coeff, degrees in terms if terms is not None else [(1.0, (order,))]:
        degrees = tuple(fld.require_integer("terms", d, 0) for d in degrees)
        if len(degrees) > dim:
            raise fld.SpecFieldError("terms", "chaos term uses more coordinates than dim")
        if sum(degrees) != order:
            raise fld.SpecFieldError("terms", f"chaos term degrees {degrees} do not sum "
                                              f"to order {order}")
        cleaned.append((float(coeff), degrees))
    if not cleaned:
        raise fld.SpecFieldError("terms", "need at least one chaos term")
    return cleaned


def _case_seed(seed: int, index: int) -> int:
    """The key ``seed + index + 1`` that case ``index`` of a wick check draws from,
    under its top-level ``seed``; ``SpecFieldError("seed")`` naming both if the key
    leaves [0, 2**64)."""
    key = seed + index + 1
    if not 0 <= key < 2**64:
        raise fld.SpecFieldError("seed", f"the key seed + {index + 1} of hypercontractivity "
                                         f"case {index} is {key}, outside [0, 2**64) "
                                         f"(got seed {seed})")
    return key


def hypercontractivity_check(order: int, dim: int, q: float, samples: int = 1_000_000,
                             seed: int = 0, terms=None) -> HypercontractivityReport:
    """Monte-Carlo check of the chaos moment bound ||F||_q <= (q-1)^{n/2} ||F||_2.

    F defaults to the single chaos H_order(x_1); pass ``terms`` as a sequence
    of (coefficient, degree-tuple) pairs for other linear combinations. The
    check is statistical: pass means lhs <= rhs * (1 + 3 * stderr margin).
    A rejected argument raises ``SpecFieldError`` naming it, before any draw,
    and so does a ``dim`` whose batch numpy cannot allocate.
    """
    terms = _case_terms(order, dim, q, samples, seed, terms)

    # one set of buffers serves every batch: the normals, F (then F^2, then
    # |F|^q), its square, and evaluate_chaos's work rows
    batch = min(samples, _MC_BATCH)
    with fld.sized_by("dim", dim):
        normals = np.empty((batch, dim))
    rows = np.empty((6, batch))
    s2 = s4 = sq = s2q = 0.0
    half_q = q / 2.0
    for x in gaussian_batches(dim, samples, seed, out=normals):
        f, square, work = rows[0, :len(x)], rows[1, :len(x)], rows[2:, :len(x)]
        f2 = evaluate_chaos(x, terms, out=f, work=work)
        f2 *= f2
        np.multiply(f2, f2, out=square)
        s2 += f2.sum()
        sum4 = square.sum()
        s4 += sum4
        if half_q == 2.0:  # |F|^q is the square already, and so is its sum
            fq = square
            sq += sum4
        else:
            fq = np.power(f2, half_q, out=f2)
            sq += fq.sum()
        fq *= fq
        s2q += fq.sum()

    m2 = s2 / samples
    mq = sq / samples
    lhs = mq ** (1.0 / q)
    rhs = (q - 1.0) ** (order / 2.0) * math.sqrt(m2)
    rel_lhs = math.sqrt(max(s2q / samples - mq**2, 0.0) / samples) / (q * mq) if mq > 0 else 0.0
    rel_rhs = math.sqrt(max(s4 / samples - m2**2, 0.0) / samples) / (2 * m2) if m2 > 0 else 0.0
    margin = rel_lhs + rel_rhs
    return HypercontractivityReport(
        order=order, dim=dim, q=float(q), samples=int(samples), seed=int(seed),
        lhs=float(lhs), rhs=float(rhs),
        stderr=float(math.hypot(rel_lhs, rel_rhs)),
        passed=bool(lhs <= rhs * (1.0 + 3.0 * margin)),
    )
