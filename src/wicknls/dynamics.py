"""Time evolution of the cubic Schrodinger equation and Wick-ordered variants.

Equations are written as ``i u_t - u_xx + sign * N(u) = 0`` with ``sign = +1``
defocusing and ``-1`` focusing; the free flow is the Fourier multiplier
``exp(+i n^2 t)``. (The more common convention ``i u_t + u_xx -+ |u|^2 u = 0``
is reached by complex conjugation; see the README for the mapping.)

Variants of the nonlinearity ``N(u)``:

=============================  ====================================================
``nls``                        ``|u|^2 u``
``wnls``                       ``(|u|^2 - 2 mu(u)) u`` with ``mu = avg |u|^2``
``truncated-nls``              ``P_N(|u|^2 u)`` on the band ``|n| <= N``
``truncated-wnls-hamiltonian`` ``P_N(|u|^2 u) - 2 a u`` (a = renormalization const)
``truncated-wnls-gauged``      ``P_N(|u|^2 u) - 2 mu(u) u``
=============================  ====================================================

Both schemes take one linear flow: the Fourier multiplier at each row's rate
``n^2 - shift`` (``_linear_rate``). Every variant conserves mass, so the Wick
term -2 mu(u) u is the linear term -2 mu0 u, mu0 the row's initial mean
intensity, like the -2 a u of the renormalized variant; each scheme then maps
a run onto any variant that differs from it in the shift alone by the
scalar gauge, as the flow does (``gauge``).

The Strang integrator alternates that flow with the exact pointwise phase
``theta = sign dt |u|^2`` of the nonlinear substep, on an odd collocation grid
in exact bijection with the retained mode range, in the Cayley form of
``_kernels.nonlinear_phase``. Adjacent linear half-steps are fused between
snapshots. Runs that share a scheme, a grid, a step count, a snapshot stride
and a truncation step together as one (B, m) stack, whatever their variant,
sign and time direction, which are properties of each row (``_evolve_runs``,
of which ``evolve_batch`` is the one-spec case). An untruncated grid is sized
from each row's data (``_strang_grid``). Untruncated substeps are unitary /
unit-modulus; truncated runs re-apply the Dirichlet projection after each
phase, as the model does.

Both schemes transform unnormalised: the inverse FFT is unscaled, so grid
values are field values, and the 1/m of the forward FFT rides on the
multiplier, scale or pin after it (Frigo & Johnson, Proc. IEEE 93, 2005).

The ``rk4`` scheme is integrating-factor ("Lawson") RK4 on the same kind of
(B, m) stack: the linear multiplier is applied exactly and RK4 integrates
only the cubic term, the exact Galerkin projection ``P_N(|u|^2 u)`` of
``_kernels.GalerkinCubic``, the one cubic kernel, which ``nonlinearity`` and
``resonant_split`` also call. With the stiff ``n^2`` term out of RK4 the band
no longer limits the step (Lawson, SIAM J. Numer. Anal. 4, 1967; Hochbruck &
Ostermann, Acta Numerica 19, 2010).

In 1D both signs of the cubic equation are globally well-posed and every
variant conserves mass, so a row whose mass drifts by more than ``MASS_RTOL``
of its initial value, or turns non-finite, has met a failure of the scheme,
reported as ``IntegrationDivergedError``. No amplitude is too large: a band-K
field of mean intensity mu has ``|u(x)|^2 <= (2K+1) mu``.
"""

import math
from dataclasses import dataclass, field as dc_field, replace
from enum import Enum
from functools import cached_property

import numpy as np

from . import field as fld
from .field import SpecFieldError
from ._kernels import (GalerkinCubic, cubic_convolution, fast_fft_size, nonlinear_phase,
                       phase_work)
from .wick import renormalization_constant


class Variant(str, Enum):
    NLS = "nls"
    WNLS = "wnls"
    TRUNCATED_NLS = "truncated-nls"
    TRUNCATED_WNLS_HAMILTONIAN = "truncated-wnls-hamiltonian"
    TRUNCATED_WNLS_GAUGED = "truncated-wnls-gauged"


_TRUNCATED = {
    Variant.TRUNCATED_NLS,
    Variant.TRUNCATED_WNLS_HAMILTONIAN,
    Variant.TRUNCATED_WNLS_GAUGED,
}
# variants whose nonlinearity subtracts 2*mu(u)*u
_MEAN_SHIFTED = {Variant.WNLS, Variant.TRUNCATED_WNLS_GAUGED}


@dataclass(frozen=True)
class EquationSpec:
    """The equation; a rejected value, such as a ``variant`` that is not a
    ``Variant`` or its value, raises ``SpecFieldError`` naming its field."""

    variant: Variant
    sign: int = 1
    truncation: int | None = None
    alpha: float = 1.0

    def __post_init__(self):
        try:
            object.__setattr__(self, "variant", Variant(self.variant))
        except ValueError:
            raise SpecFieldError("variant", "variant must be " + " | ".join(
                repr(v.value) for v in Variant) + f" (got {self.variant!r})") from None
        if self.sign not in (1, -1):
            raise SpecFieldError("sign", "sign must be +1 (defocusing) or -1 (focusing) "
                                 f"(got {self.sign!r})")
        if self.truncated:
            if self.truncation is None:
                raise SpecFieldError("truncation",
                                     f"variant {self.variant.value} requires truncation >= 0")
            fld.require_integer("truncation", self.truncation, 0)
        elif self.truncation is not None:
            raise SpecFieldError("truncation",
                                 f"variant {self.variant.value} does not take a truncation")
        if not (self.alpha >= 0 and math.isfinite(self.alpha)):  # NaN-safe
            raise SpecFieldError("alpha", f"alpha must be finite and >= 0 (got {self.alpha})")

    @property
    def truncated(self) -> bool:
        return self.variant in _TRUNCATED

    @property
    def mean_shifted(self) -> bool:
        return self.variant in _MEAN_SHIFTED

    @property
    def renorm_shifted(self) -> bool:
        return self.variant is Variant.TRUNCATED_WNLS_HAMILTONIAN

    def renorm_constant(self) -> float:
        return renormalization_constant(self.truncation, self.alpha)

    def to_dict(self) -> dict:
        return {
            "variant": self.variant.value, "sign": self.sign,
            "truncation": self.truncation, "alpha": self.alpha,
        }


@dataclass(frozen=True)
class IntegratorSpec:
    """``step_count()`` steps of ``dt`` from 0 to ``t_end`` (< 0: a backward run).

    The time grid is checked when the spec is built: ``dt`` is finite, > 0,
    not so small that ``t_end / dt`` overflows, and divides ``t_end`` (to 1e-9
    relative) in at least one step unless it is 0; ``snapshot_stride`` divides
    the step count. A rejected value raises ``SpecFieldError`` naming its field.
    """

    scheme: str
    dt: float
    t_end: float
    snapshot_stride: int = 1

    def __post_init__(self):
        if self.scheme not in ("strang", "rk4"):
            raise SpecFieldError("scheme",
                                 f"scheme must be 'strang' or 'rk4' (got {self.scheme!r})")
        if not (self.dt > 0 and math.isfinite(self.dt)):  # NaN-safe
            raise SpecFieldError("dt", f"dt must be finite and > 0 (got {self.dt})")
        if not math.isfinite(self.t_end):
            raise SpecFieldError("t_end", f"t_end must be finite (got {self.t_end})")
        fld.require_integer("snapshot_stride", self.snapshot_stride, 1)
        steps = abs(self.t_end) / self.dt
        if not math.isfinite(steps):  # a subnormal dt
            raise SpecFieldError("dt", f"dt = {self.dt!r} is too small: "
                                 "t_end / dt overflows")
        n = round(steps)
        if abs(n * self.dt - abs(self.t_end)) > 1e-9 * max(1.0, abs(self.t_end)) \
                or n == 0 and self.t_end:  # a nonzero t_end below the 1e-9 floor
            raise SpecFieldError("t_end", f"dt must divide t_end (dt = {self.dt!r}, "
                                          f"t_end = {self.t_end!r})")
        if n % self.snapshot_stride:
            raise SpecFieldError("snapshot_stride", "snapshot_stride must divide the step "
                                 f"count (got {self.snapshot_stride} for {n} steps)")

    @property
    def signed_dt(self) -> float:
        """The time step, negative for a backward run (``t_end < 0``)."""
        return math.copysign(self.dt, self.t_end) if self.t_end else self.dt

    def step_count(self) -> int:
        return round(abs(self.t_end) / self.dt)

    def to_dict(self) -> dict:
        return {"scheme": self.scheme, "dt": self.dt, "t_end": self.t_end,
                "snapshot_stride": self.snapshot_stride}


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Snapshots as one read-only (S, 2K+1) block ``coeffs``, plus probe pairings.

    Row k holds modes -K..K at ``times[k]``; ``snapshots`` and ``final`` are
    ``TorusField`` views of the rows. ``probes`` maps each name to its pairing
    at every step, at ``probe_times``. The ledger (one entry per row) and both
    time grids are derived from the block and the specs on first read.
    Trajectories compare and hash by identity, as ``TorusField``s do.
    """

    coeffs: np.ndarray
    eq: EquationSpec
    integrator: IntegratorSpec
    probes: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128).view()
        if c.ndim != 2 or c.shape[1] % 2 == 0:
            raise ValueError(f"coeffs must hold one 2K+1 row per time, got shape {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def _time_grid(self, count: int, stride: int) -> np.ndarray:
        """Ascending times of ``count`` records ``stride`` steps apart, from t = 0."""
        # record j ends step j * stride at j * stride * dt, rounded as a float product
        t = np.arange(count) * stride * self.integrator.signed_dt
        t[:1] = 0.0  # not -0.0 on a backward run
        return t[::-1].copy() if self.integrator.signed_dt < 0 else t

    @cached_property
    def times(self) -> np.ndarray:
        return self._time_grid(len(self.coeffs), self.integrator.snapshot_stride)

    @cached_property
    def probe_times(self) -> np.ndarray | None:
        pairings = next(iter(self.probes.values()), None)
        return None if pairings is None else self._time_grid(len(pairings), 1)

    @cached_property
    def ledger(self) -> dict:
        eq = self.eq
        return _ledger(self.coeffs, eq.sign, eq.renorm_constant() if eq.renorm_shifted else None)

    @cached_property
    def snapshots(self) -> tuple:
        band = (self.coeffs.shape[1] - 1) // 2
        return tuple(fld.TorusField._trusted(row, band) for row in self.coeffs)

    @property
    def final(self) -> fld.TorusField:
        return self.snapshots[-1]


class IntegrationDivergedError(RuntimeError):
    """A numerical scheme failure: a non-finite value or a mass drift past MASS_RTOL.

    The equations themselves cannot blow up (see the module docstring), so
    the message says "numerical scheme failure". ``trajectory`` holds the
    failing row's snapshots up to ``last_valid_time``, and ``run_index`` its
    position among the runs stepped (the data of ``evolve_batch``).
    """

    def __init__(self, message, last_valid_time, trajectory=None):
        super().__init__(message)
        self.last_valid_time = last_valid_time
        self.trajectory = trajectory
        self.run_index = None


# A row whose mass moves by more than this fraction of its initial mass has
# met a scheme failure. Well-resolved RK4 runs drift by orders of magnitude
# less (3.4e-5 for the band-64 rough data of the benchmark's growth probe);
# Strang pins the mass, so under it only a non-finite value trips the check.
MASS_RTOL = 1e-3


# ---------------------------------------------------------------------------
# right-hand side pieces
# ---------------------------------------------------------------------------

def nonlinearity(u: fld.TorusField, eq: EquationSpec) -> fld.TorusField:
    """The cubic term N(u) of the chosen variant (without the sign).

    Untruncated variants return the exact band-3N cubic; truncated variants
    its Galerkin projection onto the truncation band. The renormalization
    shift of ``truncated-wnls-hamiltonian`` is a linear term and lives in the
    propagator, not here.
    """
    if eq.truncated:
        u = fld.project(u, eq.truncation)
        out = fld.TorusField(cubic_convolution(u.coeffs, eq.truncation), eq.truncation)
    else:
        out = fld.TorusField(cubic_convolution(u.coeffs), 3 * u.max_mode)
    if eq.mean_shifted:
        out = out - (2.0 * fld.mean_intensity(u)) * u
    return out


def resonant_split(u: fld.TorusField) -> tuple[fld.TorusField, fld.TorusField]:
    """Split the Wick cubic term into (non-resonant, resonant-diagonal) parts.

    The non-resonant part keeps triples ``n = n1 - n2 + n3`` with
    ``n2 != n1`` and ``n2 != n3``; the resonant part is the diagonal
    ``-|c(n)|^2 c(n)``. Their sum is exactly ``(|u|^2 - 2 mu(u)) u``.
    """
    c, n = u.coeffs, u.max_mode
    nonres = cubic_convolution(c)
    mu = fld.mean_intensity(u)
    diag = (np.abs(c) ** 2) * c
    center = nonres[2 * n:4 * n + 1]
    center -= 2.0 * mu * c
    center += diag
    return fld.TorusField(nonres, 3 * n), fld.TorusField(-diag, n)


def linear_propagator(u: fld.TorusField, t: float) -> fld.TorusField:
    """Free flow: multiply mode n by exp(+i n^2 t)."""
    return fld.TorusField(u.coeffs * np.exp(1j * u.modes.astype(np.float64) ** 2 * t),
                          u.max_mode)


def galilean_boost(u: fld.TorusField, beta: int) -> fld.TorusField:
    """Boost u0 -> e^{i beta x / 2} u0, i.e. shift every mode by beta/2.

    beta must be even so the boost is 2*pi-periodic. The band grows by
    |beta|/2 so no coefficient is lost.
    """
    if beta % 2:
        raise ValueError("beta must be even for a periodic boost")
    h = beta // 2
    if h == 0:
        return u
    n_out = u.max_mode + abs(h)
    c = np.zeros(2 * n_out + 1, dtype=np.complex128)
    lo = (n_out - u.max_mode) + h
    c[lo:lo + len(u.coeffs)] = u.coeffs
    return fld.TorusField(c, n_out)


def _ledger(block: np.ndarray, sign: int, renorm: float | None = None) -> dict:
    """Conserved-quantity columns of a (B, 2K+1) block whose rows hold modes -K..K.

    Mass, momentum, kinetic energy and mu are mode sums, and the quartic
    integral is one grouped FFT (``field._power_means``). With the
    renormalization constant ``renorm`` = a, the Wick Hamiltonian
    ``H - sign a mass + sign pi a^2`` of ``wick.wick_hamiltonian`` is added.
    Every row's values are those of a one-row block, bit for bit.
    """
    n = np.arange(block.shape[-1], dtype=np.float64) - (block.shape[-1] - 1) // 2
    a2 = block.real * block.real + block.imag * block.imag
    mu = np.add.reduce(a2, axis=-1)
    mass = fld.TWO_PI * mu
    momentum = fld.TWO_PI * np.add.reduce(n * a2, axis=-1)
    hamiltonian = 0.5 * fld.TWO_PI * np.add.reduce(n * n * a2, axis=-1) \
        + sign * 0.25 * (fld.TWO_PI * fld._power_means(block, 4.0))
    ledger = {"mass": mass, "momentum": momentum, "hamiltonian": hamiltonian, "mu": mu}
    if renorm is not None:
        ledger["wick_hamiltonian"] = (hamiltonian - sign * renorm * mass
                                      + sign * math.pi * renorm * renorm)
    return ledger


def conserved(u: fld.TorusField, sign: int) -> tuple[float, float, float]:
    """(mass, momentum, hamiltonian) = (N, P, H) of the field: a one-row ledger."""
    row = _ledger(u.coeffs[None, :], sign)
    return float(row["mass"][0]), float(row["momentum"][0]), float(row["hamiltonian"][0])


def _linear_rate(eqs, modes: np.ndarray, mu0: np.ndarray) -> np.ndarray:
    """The rates ``n^2 - shift`` (B, len(modes)) of B rows: row r runs ``eqs[r]``
    from initial mean intensity ``mu0[r]``.

    The shift is 0 (``nls``, ``truncated-nls``), ``2 sign a``
    (``truncated-wnls-hamiltonian``) or ``2 sign mu0`` (``wnls``, ``truncated-wnls-gauged``).
    """
    level = np.array([mu if eq.mean_shifted else eq.renorm_constant() if eq.renorm_shifted
                      else 0.0 for eq, mu in zip(eqs, mu0)])
    scale = np.array([2.0 * eq.sign for eq in eqs])
    return modes**2 - (scale * level)[:, None]


def _shift_free(eq: EquationSpec) -> EquationSpec:
    """``eq`` without its linear Wick shift: ``nls`` or ``truncated-nls``, same sign and
    truncation, default alpha (which neither reads)."""
    return EquationSpec(Variant.TRUNCATED_NLS if eq.truncated else Variant.NLS, eq.sign,
                        eq.truncation)


def gauge(traj: Trajectory, eq: EquationSpec) -> Trajectory:
    """The run ``traj`` as a run of ``eq``, an equation that differs from ``traj.eq``
    in its Wick shift alone.

    Every shift is a linear rate (``_linear_rate``) and every variant
    conserves mass, so the two runs differ by the scalar gauge
    ``exp(i (rate_eq - rate_traj) t)``, the rates read at mode 0 for the mean
    intensity mu0 of the run's t = 0 snapshot, the datum it stepped. The
    snapshot and the pairings at each t are multiplied by it, and the result
    is labelled ``eq``: ``gauge(nls run, wnls)`` is the gauge identity
    ``e^{-2 i sign mu0 t}``, and ``gauge(truncated-wnls-hamiltonian run,
    truncated-wnls-gauged)`` removes the intensity fluctuation phase
    ``e^{-2 i sign (mu0 - a) t}``. Both schemes keep the gauge to roundoff.
    Returns ``traj`` itself when ``eq == traj.eq``; raises ``ValueError``
    when the two equations differ past their shift (``_shift_free``).
    """
    if eq == traj.eq:
        return traj
    if _shift_free(eq) != _shift_free(traj.eq):
        raise ValueError(f"no gauge maps a run of {traj.eq.to_dict()} onto {eq.to_dict()}: "
                         "they differ past their Wick shift")
    mu0 = fld.mean_intensity(traj.snapshots[-1 if traj.integrator.signed_dt < 0 else 0])
    coeffs = traj.coeffs * _gauge_phase(eq, traj.eq, mu0, traj.times)[:, None]
    probes = {}
    if traj.probes:
        phase = _gauge_phase(eq, traj.eq, mu0, traj.probe_times)
        probes = {k: v * phase for k, v in traj.probes.items()}
    return Trajectory(coeffs, eq, traj.integrator, probes)


def _gauge_phase(eq: EquationSpec, source: EquationSpec, mu0: float, times) -> np.ndarray:
    """The phase ``exp(i (rate_eq - rate_source) t)`` at ``times`` by which ``gauge`` maps
    a run of ``source`` from initial mean intensity ``mu0`` onto a run of ``eq``; the
    rates are ``_linear_rate``'s at mode 0."""
    rates = _linear_rate([eq, source], np.zeros(1), np.full(2, mu0))
    return np.exp(1j * float(rates[0, 0] - rates[1, 0]) * times)


def _time_reversed(traj: Trajectory) -> Trajectory:
    """The run of ``traj`` under time reversal ``R u(x) = conj(u(-x))``, which acts on
    coefficients as ``conj``.

    Both schemes and every variant commute with ``R`` when ``dt`` becomes
    ``-dt``: each substep is built from real rates and real phases, so
    conjugating its input and negating its step conjugates its output. So
    ``R`` of a run from u0 is the run from ``R u0`` in the other time
    direction: its snapshot at -t is the conjugate of ``traj``'s at t, and
    its pairing with ``R phi`` is the conjugate of ``traj``'s pairing with
    ``phi``. For a datum and probes with real coefficients (``R u0 = u0``)
    that is the run of u0 itself, stepped the other way, equal to it to
    roundoff. Nothing is stepped or transformed.
    """
    integ = replace(traj.integrator, t_end=-traj.integrator.t_end)
    return Trajectory(np.conj(traj.coeffs[::-1]), traj.eq, integ,
                      {k: np.conj(v[::-1]) for k, v in traj.probes.items()})


def _per_row(values):
    """``values[0]`` when every row has that value, else the (B, 1) column of ``values``.

    A step scaled by a float costs no broadcast, so a stack whose rows agree
    steps as cheaply as one run.
    """
    first = values[0]
    return first if all(v == first for v in values) else np.array(values)[:, None]


def plane_wave_frequency(mode: int, amplitude: complex, eq: EquationSpec) -> float:
    """Exact phase rate ``n^2 + sign |A|^2 - shift`` of the solution A e^{i(n x + w t)}."""
    a2 = abs(amplitude) ** 2
    return float(_linear_rate([eq], np.array([float(mode)]), np.array([a2]))[0, 0]) + eq.sign * a2


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

class _Recorder:
    """The (B, m) stack of B runs that step together, and their snapshots and pairings.

    Row r of ``state`` runs ``eqs[r]`` and ``integs[r]``, which share the
    snapshot stride. It holds modes -band..band in columns 0..2 band, the
    spectrum of e^{i band x} u (the pointwise phase commutes with that
    unimodular factor), zero-padded to the m columns that ``_evolve_runs``
    sized. Columns past 2 band are not read, and ``half``, the multiplier
    exp(i rate dt/2) at each row's ``_linear_rate`` (``rate``, which the core
    frees once its multipliers are built) and step, is zero there, so a
    truncated run's linear substep is also the projection. ``mu0`` is each
    row's initial ``mass``; ``dt`` and ``sign_dt``, its step and sign times
    step, are floats when the rows agree in them (``_per_row``).

    Snapshots go into one (B, S, 2 band + 1) block, like the pairings, and
    ``build`` wraps each row's records as a ``Trajectory`` in ascending
    time. Each probe is projected onto the band, past which the state is
    zero, so no probe sizes or refuses a run. The constructor records the
    pairings and the snapshot of the initial state; records that numpy
    cannot allocate raise ``SpecFieldError`` naming ``dt``, which sets the
    step count.
    """

    def __init__(self, runs, band, m, probes, n_steps):
        u0s, self.eqs, self.integs = zip(*runs)
        self.band, self.width, self.stride = band, 2 * band + 1, self.integs[0].snapshot_stride
        self.state = np.zeros((len(u0s), m), dtype=np.complex128)
        self.state[:, :self.width] = [u0.padded_to(band).coeffs for u0 in u0s]
        self.mu0 = self.mass()
        self.dt = _per_row([integ.signed_dt for integ in self.integs])
        self.sign_dt = _per_row([eq.sign * integ.signed_dt
                                 for eq, integ in zip(self.eqs, self.integs)])
        self.rate = _linear_rate(self.eqs, np.arange(m, dtype=np.float64) - band, self.mu0)
        self.half = np.exp(1j * self.rate * (self.dt / 2.0))
        self.half[:, self.width:] = 0.0
        self.names = tuple(probes)
        rows, n_snaps = len(u0s), n_steps // self.stride + 1
        with fld.sized_by("dt", f"step count {n_steps}"):
            self.snaps = np.empty((rows, n_snaps, self.width), dtype=np.complex128)
            # pairing at step k of row r against probe j (without the 2 pi)
            self.pairings = np.empty((n_steps + 1, rows, len(self.names)), dtype=np.complex128)
        self.taken = self.recorded = 0
        if self.names:
            p = np.array([fld.project(q, band).padded_to(band).coeffs for q in probes.values()])
            self.support = np.flatnonzero(np.any(p != 0.0, axis=0))
            self.paired = np.conj(p[:, self.support])[None]  # (1, P, support)
            self.probe(self.paired)
        self.snapshot()

    def mass(self):
        """Each row's mean intensity, the mass without the 2 pi."""
        real = self.state.view(np.float64)
        return np.einsum("ij,ij->i", real, real)

    def probe(self, vectors):
        """Record each row's pairing with its probe vectors, (B or 1, P, support)."""
        # einsum, not matmul: a row's pairing does not depend on its neighbours
        self.pairings[self.recorded] = np.einsum("ij,ikj->ik", self.state[:, self.support],
                                                 vectors)
        self.recorded += 1

    def snapshot(self):
        self.snaps[:, self.taken] = self.state[:, :self.width]
        self.taken += 1

    def check_mass(self, mass, target, step):
        """Fail the first row whose ``mass`` is NaN or off ``target`` by more than MASS_RTOL."""
        drift = np.abs(mass - target)
        ok = drift <= MASS_RTOL * target  # NaN-safe; a zero row stays zero
        if not ok.all():
            bad = int(np.argmin(ok))
            self.fail(bad, f"relative mass drift {drift[bad] / target[bad]:.3g} "
                      f"above {MASS_RTOL:g}", step)

    def fail(self, row, message, step):
        """Raise the scheme failure of ``row`` during ``step``, with its partial trajectory.

        The error's ``_at`` is ``(step, row)``, by which ``_evolve_runs``
        picks the earliest failure among its stacks.
        """
        # pairings end at the last snapshot: Strang checks no state between snapshots
        self.recorded = min(self.recorded, (self.taken - 1) * self.stride + 1)
        dt = self.integs[row].signed_dt
        error = IntegrationDivergedError(
            f"numerical scheme failure: {message} during step to t={(step + 1) * dt:g}",
            last_valid_time=step * dt, trajectory=self.build([row])[0])
        error._at = (step, row)
        raise error

    def build(self, rows=None) -> list[Trajectory]:
        """The trajectories of ``rows`` (default: all), from what is recorded so far."""
        pairings = fld.TWO_PI * self.pairings[:self.recorded]
        out = []
        for r in range(len(self.snaps)) if rows is None else rows:
            integ = self.integs[r]
            order = slice(None, None, -1 if integ.signed_dt < 0 else 1)  # ascending times
            out.append(Trajectory(self.snaps[r, :self.taken][order], self.eqs[r], integ,
                                  {name: pairings[order, r, j]
                                   for j, name in enumerate(self.names)}))
        return out


def evolve(u0: fld.TorusField, eq: EquationSpec, integ: IntegratorSpec, *,
           probes: dict | None = None) -> Trajectory:
    """Integrate the chosen equation from u0 up to integ.t_end.

    Negative ``t_end`` runs backward in time; the returned trajectory is
    normalized to strictly increasing times either way. ``probes`` maps names
    to test fields; the L2 pairing against each is recorded at every step
    (finer than the snapshot stride). Raises IntegrationDivergedError when
    the mass drifts by more than ``MASS_RTOL`` of its initial value or turns
    non-finite; the partial trajectory is attached to the exception. This is
    the one-row case of ``evolve_batch``.
    """
    return evolve_batch([u0], eq, integ, probes=probes)[0]


def evolve_batch(u0s, eq: EquationSpec, integ: IntegratorSpec, *,
                 probes: dict | None = None) -> list[Trajectory]:
    """``evolve`` for several initial data of any band that share eq, integ and probes.

    The one-spec case of ``_evolve_runs``: rows that step on the same grid
    step as one stack, and each returned trajectory is bit-identical to
    ``evolve`` of its row. A scheme failure in any row raises
    IntegrationDivergedError carrying that row's partial trajectory.
    """
    return _evolve_runs([(u0, eq, integ) for u0 in u0s], probes)


def _evolve_runs(runs, probes: dict | None = None) -> list[Trajectory]:
    """The trajectories of ``(u0, eq, integ)`` runs, each bit-identical to its own ``evolve``.

    Truncated rows are first projected and padded to the truncation band.
    Each run's stack is then sized here alone: the carried band and the
    column count (RK4: the data band on 2N+1 columns; Strang: the
    truncation, or the grid band (m-1)//2, on the m points of
    ``_strang_grid``). The runs are grouped by what their rows must share to
    step together: the scheme, those two sizes, the step count, the snapshot
    stride and the truncation. Variant, sign and time step are properties of
    each row, so each group steps as one ``_Recorder`` stack of its scheme's
    core, and every run pairs with the same ``probes``.

    When rows fail, the IntegrationDivergedError raised is that of the row
    that failed at the earliest step, the first in run order among those,
    with its partial trajectory in ascending time and its index in ``runs``.
    """
    probes = probes or {}
    runs = [(fld.project(u0, eq.truncation).padded_to(eq.truncation) if eq.truncated else u0,
             eq, integ) for u0, eq, integ in runs]
    groups: dict = {}  # what a stack shares -> the runs that step on it
    for i, (u0, eq, integ) in enumerate(runs):
        if integ.scheme == "rk4":
            band, m = u0.max_mode, 2 * u0.max_mode + 1
        elif eq.truncated:
            band, m = eq.truncation, _strang_grid(eq.truncation, eq.truncation)
        else:
            m = _strang_grid(u0.max_mode, _top_mode(u0))
            band = (m - 1) // 2
        key = (integ.scheme, band, m, integ.step_count(), integ.snapshot_stride, eq.truncation)
        groups.setdefault(key, []).append(i)
    out, failures = [None] * len(runs), []
    for (scheme, band, m, n_steps, _, _), rows in groups.items():
        core = _evolve_lawson if scheme == "rk4" else _evolve_strang
        try:
            trajs = core(_Recorder([runs[i] for i in rows], band, m, probes, n_steps), n_steps)
        except IntegrationDivergedError as error:
            step, row = error._at
            error.run_index = rows[row]
            failures.append((step, rows[row], error))
            continue
        for i, traj in zip(rows, trajs):
            out[i] = traj
    if failures:
        raise min(failures, key=lambda f: f[:2])[2]
    return out


def _top_mode(u: fld.TorusField) -> int:
    """The largest |n| with a nonzero coefficient; 0 for the zero field."""
    nz = np.flatnonzero(u.coeffs)
    return int(np.max(np.abs(nz - u.max_mode))) if len(nz) else 0


def _strang_grid(band: int, top: int) -> int:
    """Strang grid points for a row carried at ``band`` whose cubic reaches 3 ``top``.

    The grid holds the band and the cubic of modes up to ``top`` without
    aliasing: ``fast_fft_size(max(2N+1, 3 (2 top + 1)), odd=True)``.
    Untruncated rows pass their top nonzero mode, so data that fill their
    band keep the ``3 (2N+1)`` grid and data whose cubic already fits the
    band (top <= (N-1)/3) run on ``fast_fft_size(2N+1)``. Truncated rows
    pass top = band = T, the ``3 (2T+1)`` grid of the Galerkin cubic.
    """
    return fast_fft_size(max(2 * band + 1, 3 * (2 * top + 1)), odd=True)


def _evolve_strang(rec, n_steps):
    """Strang splitting of ``rec``'s stack, with adjacent half-steps fused; returns its runs.

    The phase is sign dt |u|^2 of the field values for every variant, with
    one sign dt per row when the rows differ in it. The transforms run in
    place on the state. The fft leaves m times the coefficients: ``full``,
    ``half_m`` and the per-row probe vectors carry the 1/m, and the pin's
    target is m^2 times the mass.

    Between snapshots the state owes half a linear step: it is rotated by
    one full multiplier per step, and the probes are rotated by the missing
    half instead of the state. At a snapshot step it takes the half, is
    recorded, and takes the other half.

    Every row's mass is pinned after the nonlinear substep of each snapshot
    step, so roundoff cannot build up a drift in what is recorded. The target
    is an untruncated row's initial mass, and a truncated row's mass at the
    top of that step, as the last projection left it. The substeps since
    then conserve mass, so the pin norms match the target to roundoff unless
    a value turned non-finite, which ``check_mass`` catches first.
    """
    s, half, m, truncated = rec.state, rec.half, rec.state.shape[1], rec.eqs[0].truncated
    work = phase_work(s.shape)
    empty = (rec.mu0 == 0.0).astype(np.float64)  # pins a zero row by 0 / (0 + 1)
    full = np.exp(1j * rec.rate * rec.dt) / m
    del rec.rate
    full[:, rec.width:] = 0.0
    half_m = half / m
    if rec.names:
        rotated = rec.paired * half_m[:, None, rec.support]
    pin_target = float(m * m) * rec.mu0
    s *= half
    for k in range(n_steps):
        snap = (k + 1) % rec.stride == 0
        if truncated and snap:
            pin_target = float(m * m) * rec.mass()
        np.fft.ifft(s, axis=-1, norm="forward", out=s)
        nonlinear_phase(s, rec.sign_dt, None, work=work)
        np.fft.fft(s, axis=-1, out=s)
        if snap:
            pin = rec.mass()
            rec.check_mass(pin, pin_target, k)
            pin += empty
            np.divide(pin_target, pin, out=pin)
            np.sqrt(pin, out=pin)
            s *= pin[:, None]
        if rec.names:
            rec.probe(rotated)
        if snap:
            s *= half_m
            rec.snapshot()
            s *= half
        else:
            s *= full
    return rec.build()


def _evolve_lawson(rec, n_steps):
    """Integrating-factor (Lawson) RK4 of ``rec``'s stack; returns its runs.

    With ``E = exp(i(n^2 - shift) dt/2)`` (``rec.half``) applied exactly
    and ``K(v)`` the nonlinear term times dt, a step is
    ``u+ = E^2 u + (E^2 K1 + 2E (K2 + K3) + K4) / 6`` with stage inputs
    ``u``, ``E(u + K1/2)``, ``Eu + K2/2`` and ``E(Eu + K3)``. E and the
    factor ``i sign dt`` of K are per row, the factor a float when the rows
    agree in it. ``K(v)`` is the exact Galerkin term P_N(|v|^2 v) of
    ``GalerkinCubic`` with K = N, whose input rows are the stage inputs and
    whose grid values are field values.

    The scheme does not conserve mass, so it can fail. Each snapshot checks
    every row's mass drift (``check_mass``). Each step checks the state it
    starts from on the |u|^2 grid of its first stage: a row of initial mean
    intensity mu0 whose max |u|^2 exceeds (2N+1) mu0 (1 + MASS_RTOL) has
    gained more than MASS_RTOL of its mass (or turned NaN).
    """
    c, half, n = rec.state, rec.half, rec.band
    del rec.rate
    cubic = GalerkinCubic(len(c), n, n)
    stage_in, a2 = cubic.inputs, cubic.intensity
    eu, slope = np.empty_like(c), np.empty_like(c)  # E u, and each stage's K
    # K(v) = dt * i sign P_N(|v|^2 v)
    factor = _per_row([1j * eq.sign * integ.signed_dt for eq, integ in zip(rec.eqs, rec.integs)])
    bound = rec.mu0 * ((2 * n + 1) * (1.0 + MASS_RTOL))  # (2N+1) mu0 (1 + MASS_RTOL)
    for k in range(n_steps):
        # c <- E (E (c + K1/6) + (K2 + K3)/3) + K4/6, accumulated in place
        stage_in[...] = c
        cubic(slope, factor)  # K1; leaves |u|^2 in a2
        ok = np.maximum.reduce(a2, axis=-1) <= bound  # NaN-safe
        if not ok.all():
            rec.fail(int(np.argmin(ok)), "max |u|^2 above (2N+1) mu0 "
                     f"(1 + {MASS_RTOL:g}): the mass grew by more than {MASS_RTOL:g}", k)
        np.multiply(slope, 0.5, out=stage_in)
        stage_in += c
        stage_in *= half
        np.multiply(c, half, out=eu)
        slope *= 1.0 / 6.0
        c += slope
        c *= half
        cubic(slope, factor)  # K2
        np.multiply(slope, 0.5, out=stage_in)
        stage_in += eu
        slope *= 1.0 / 3.0
        c += slope
        cubic(slope, factor)  # K3
        np.add(eu, slope, out=stage_in)
        stage_in *= half
        slope *= 1.0 / 3.0
        c += slope
        c *= half
        cubic(slope, factor)  # K4
        slope *= 1.0 / 6.0
        c += slope
        snap = (k + 1) % rec.stride == 0
        if snap:
            rec.check_mass(rec.mass(), rec.mu0, k)
        if rec.names:
            rec.probe(rec.paired)
        if snap:
            rec.snapshot()
    return rec.build()
