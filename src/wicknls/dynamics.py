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

The Strang integrator alternates the exact linear multiplier flow with the
exact pointwise phase flow of the nonlinear substep, evaluated on an odd
collocation grid that is in exact bijection with the retained mode range.
Adjacent linear half-steps are fused into one full step between snapshots,
and a batch of initial data steps together as one (B, m) stack
(``evolve_batch``). Untruncated runs keep the full grid band (every substep
is then unitary / unit-modulus, and each row's mass is pinned to its initial
value at every snapshot step); truncated runs re-apply the Dirichlet
projection after each nonlinear substep because the projection is part of
the model.

The ``rk4`` scheme is integrating-factor ("Lawson") RK4 on the same kind of
(B, m) stack: the linear multiplier is applied exactly and RK4 integrates
only the cubic term, the exact Galerkin projection ``P_N(|u|^2 u)`` computed
pointwise on an odd grid of at least 4N+1 points. With the stiff ``n^2``
term out of RK4 the band no longer limits the step (Lawson, SIAM J. Numer.
Anal. 4, 1967; Hochbruck & Ostermann, Acta Numerica 19, 2010).

In 1D both signs of the cubic equation are globally well-posed and every
variant conserves mass, so a run that blows up, turns non-finite or (under
RK4) drifts in mass has met a failure of the scheme, reported as
``IntegrationDivergedError``.
"""

import math
from dataclasses import dataclass, field as dc_field, replace
from enum import Enum

import numpy as np

from . import field as fld
from ._kernels import cubic_convolution, fast_fft_size, nonlinear_phase
from .wick import intensity_fluctuation, renormalization_constant


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
    variant: Variant
    sign: int = 1
    truncation: int | None = None
    alpha: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "variant", Variant(self.variant))
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 (defocusing) or -1 (focusing)")
        if self.truncated:
            if self.truncation is None or self.truncation < 0:
                raise ValueError(f"variant {self.variant.value} requires truncation >= 0")
        elif self.truncation is not None:
            raise ValueError(f"variant {self.variant.value} does not take a truncation")

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
    scheme: str
    dt: float
    t_end: float
    snapshot_stride: int = 1

    def __post_init__(self):
        if self.scheme not in ("strang", "rk4"):
            raise ValueError("scheme must be 'strang' or 'rk4'")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")

    def step_count(self) -> int:
        n = round(abs(self.t_end) / self.dt)
        if abs(n * self.dt - abs(self.t_end)) > 1e-9 * max(1.0, abs(self.t_end)):
            raise ValueError("dt must divide t_end")
        if n and n % self.snapshot_stride:
            raise ValueError("snapshot_stride must divide the step count")
        return n

    def to_dict(self) -> dict:
        return {"scheme": self.scheme, "dt": self.dt, "t_end": self.t_end,
                "snapshot_stride": self.snapshot_stride}


@dataclass(frozen=True)
class Trajectory:
    """Snapshots plus a conserved-quantity ledger (one row per snapshot)."""

    times: np.ndarray
    snapshots: tuple
    ledger: dict
    eq: EquationSpec
    integrator: IntegratorSpec
    probe_times: np.ndarray | None = None
    probes: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        if len(t) != len(self.snapshots):
            raise ValueError("one snapshot per time required")
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        bands = {f.max_mode for f in self.snapshots}
        if len(bands) > 1:
            raise ValueError("snapshot band limits must all be equal")
        for key, col in self.ledger.items():
            if len(col) != len(t):
                raise ValueError(f"ledger column {key!r} has wrong length")
        object.__setattr__(self, "times", t)

    @property
    def final(self) -> fld.TorusField:
        return self.snapshots[-1]


class IntegrationDivergedError(RuntimeError):
    """A numerical scheme failure: |u| past the amplitude cap, NaN, or mass drift.

    The equations themselves cannot blow up (see the module docstring), so
    the message says "numerical scheme failure". ``trajectory`` holds the
    failing row's snapshots up to ``last_valid_time``.
    """

    def __init__(self, message, last_valid_time, trajectory=None):
        super().__init__(message)
        self.last_valid_time = last_valid_time
        self.trajectory = trajectory


# An RK4 row whose mass moves by more than this fraction of its initial mass
# between t = 0 and a snapshot has met a scheme failure. Well-resolved runs
# drift by orders of magnitude less (3.4e-5 for the band-64 rough data of the
# benchmark's growth probe).
LAWSON_MASS_RTOL = 1e-3


def _amplitude_cap(cap) -> float:
    """``cap`` as a float, or ValueError unless it is > 0 (inf is allowed)."""
    cap = float(cap)
    if not cap > 0.0:  # NaN-safe
        raise ValueError(f"amplitude_cap must be > 0, got {cap:g}")
    return cap


# ---------------------------------------------------------------------------
# right-hand side pieces
# ---------------------------------------------------------------------------

def _band_slice(conv: np.ndarray, out_band: int) -> np.ndarray:
    """Central slice of a band-3N convolution down to |n| <= out_band."""
    full = (len(conv) - 1) // 2
    return conv[full - out_band:full + out_band + 1]


def nonlinearity(u: fld.TorusField, eq: EquationSpec) -> fld.TorusField:
    """The cubic term N(u) of the chosen variant (without the sign).

    Untruncated variants return the exact band-3N result of the zero-padded
    convolution; truncated variants project onto the truncation band. The
    renormalization shift of ``truncated-wnls-hamiltonian`` is a linear term
    and lives in the propagator, not here.
    """
    if eq.truncated:
        u = fld.project(u, eq.truncation)
    conv = cubic_convolution(u.coeffs)
    if eq.truncated:
        out = fld.TorusField(_band_slice(conv, eq.truncation), eq.truncation)
    else:
        out = fld.TorusField(conv, 3 * u.max_mode)
    if eq.mean_shifted:
        out = out - (2.0 * fld.mean_intensity(u)) * u
    return out


def resonant_split(u: fld.TorusField) -> tuple[fld.TorusField, fld.TorusField]:
    """Split the Wick cubic term into (non-resonant, resonant-diagonal) parts.

    The non-resonant part keeps triples ``n = n1 - n2 + n3`` with
    ``n2 != n1`` and ``n2 != n3``; the resonant part is the diagonal
    ``-|c(n)|^2 c(n)``. Their sum is exactly ``(|u|^2 - 2 mu(u)) u``.
    """
    c = u.coeffs
    conv = cubic_convolution(c)
    mu = fld.mean_intensity(u)
    diag = (np.abs(c) ** 2) * c
    nonres = conv.copy()
    center = _band_slice(nonres, u.max_mode)
    center -= 2.0 * mu * c
    center += diag
    resonant = fld.TorusField(-diag, u.max_mode)
    return fld.TorusField(nonres, 3 * u.max_mode), resonant


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
    integral is one batched FFT (``field._quartic_integrals``). With the
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
        + sign * 0.25 * fld._quartic_integrals(block)
    ledger = {"mass": mass, "momentum": momentum, "hamiltonian": hamiltonian, "mu": mu}
    if renorm is not None:
        ledger["wick_hamiltonian"] = (hamiltonian - sign * renorm * mass
                                      + sign * math.pi * renorm * renorm)
    return ledger


def conserved(u: fld.TorusField, sign: int) -> tuple[float, float, float]:
    """(mass, momentum, hamiltonian) = (N, P, H) of the field: a one-row ledger."""
    row = _ledger(u.coeffs[None, :], sign)
    return float(row["mass"][0]), float(row["momentum"][0]), float(row["hamiltonian"][0])


def plane_wave_frequency(mode: int, amplitude: complex, eq: EquationSpec) -> float:
    """Exact phase rate of the single-mode solution A e^{i(n x + w t)}."""
    a2 = abs(amplitude) ** 2
    w = float(mode**2)
    if eq.variant in (Variant.NLS, Variant.TRUNCATED_NLS):
        return w + eq.sign * a2
    if eq.variant in (Variant.WNLS, Variant.TRUNCATED_WNLS_GAUGED):
        return w - eq.sign * a2
    return w + eq.sign * a2 - 2.0 * eq.sign * eq.renorm_constant()


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

class _Recorder:
    """Snapshots, ledgers and probe pairings of B runs that step together.

    A state handed to it is a (B, m) stack whose row r holds modes
    -band..band of run r in columns 0..2 band, i.e. the spectrum of
    e^{i band x} u; columns past 2 band are not read. The constructor records
    the pairings and the snapshot of the initial state.
    """

    def __init__(self, eq, integ, dt, band, probes, state, n_steps):
        self.eq, self.integ, self.dt = eq, integ, dt
        self.band, self.width = band, 2 * band + 1
        self.renorm = eq.renorm_constant() if eq.renorm_shifted else None
        self.names = tuple(probes)
        rows = len(state)
        self.times = []
        self.snaps = [[] for _ in range(rows)]
        self.ledgers = []  # one dict of (B,) columns per snapshot
        # pairing at step k of row r against probe j (without the 2 pi)
        self.pairings = np.empty((n_steps + 1, rows, len(self.names)), dtype=np.complex128)
        self.recorded = 0
        if self.names:
            p = np.array([q.padded_to(band).coeffs for q in probes.values()])
            self.support = np.flatnonzero(np.any(p != 0.0, axis=0))
            self.paired = np.conj(p[:, self.support])
            self.probe(state, self.paired)
        self.snapshot(0.0, state)

    def probe(self, state, vectors):
        """Record each row's pairing with each row of ``vectors`` on the probe support."""
        # einsum, not matmul: a row's pairing does not depend on its neighbours
        self.pairings[self.recorded] = np.einsum("ij,kj->ik", state[:, self.support], vectors)
        self.recorded += 1

    def snapshot(self, t, state):
        block = state[:, :self.width]
        self.times.append(t)
        self.ledgers.append(_ledger(block, self.eq.sign, self.renorm))
        for r, c in enumerate(block):
            self.snaps[r].append(fld.TorusField(c, self.band))

    def fail(self, row, message, step):
        """Raise the scheme failure of ``row`` during ``step``, with its partial trajectory."""
        raise IntegrationDivergedError(
            f"numerical scheme failure: {message} during step to t={(step + 1) * self.dt:g}",
            last_valid_time=step * self.dt, trajectory=self.build(row))

    def build(self, r) -> Trajectory:
        dt = self.dt
        ledger = {k: np.array([entry[k][r] for entry in self.ledgers])
                  for k in self.ledgers[0]}
        times = np.asarray(self.times)
        snaps = tuple(self.snaps[r])
        ptimes, probes = None, {}
        if self.names:
            ptimes = np.arange(self.recorded) * dt
            ptimes[0] = 0.0  # not -0.0 on a backward run
            probes = {name: fld.TWO_PI * self.pairings[:self.recorded, r, j]
                      for j, name in enumerate(self.names)}
        if dt < 0:
            times = times[::-1].copy()
            snaps = snaps[::-1]
            ledger = {k: v[::-1].copy() for k, v in ledger.items()}
            if ptimes is not None:
                ptimes = ptimes[::-1].copy()
                probes = {k: v[::-1].copy() for k, v in probes.items()}
        return Trajectory(times=times, snapshots=snaps, ledger=ledger, eq=self.eq,
                          integrator=self.integ, probe_times=ptimes, probes=probes)


def evolve(u0: fld.TorusField, eq: EquationSpec, integ: IntegratorSpec, *,
           probes: dict | None = None, amplitude_cap: float = 1e6) -> Trajectory:
    """Integrate the chosen equation from u0 up to integ.t_end.

    Negative ``t_end`` runs backward in time; the returned trajectory is
    normalized to strictly increasing times either way. ``probes`` maps names
    to test fields; the L2 pairing against each is recorded at every step
    (finer than the snapshot stride). Raises IntegrationDivergedError when
    the grid maximum of |u| exceeds ``amplitude_cap`` or turns NaN, or when
    an RK4 run's mass drifts by more than ``LAWSON_MASS_RTOL``; the partial
    trajectory is attached to the exception. ``amplitude_cap`` must be > 0
    (``inf`` checks only for NaN); anything else raises ValueError. This is
    the one-row case of ``evolve_batch``.
    """
    return evolve_batch([u0], eq, integ, probes=probes, amplitude_cap=amplitude_cap)[0]


def evolve_batch(u0s, eq: EquationSpec, integ: IntegratorSpec, *,
                 probes: dict | None = None,
                 amplitude_cap: float = 1e6) -> list[Trajectory]:
    """``evolve`` for several initial data that share eq, integ and probes.

    The rows step together as one (B, m) stack under either scheme, and each
    returned trajectory is bit-identical to ``evolve`` of its row.
    Untruncated rows must share ``max_mode`` (truncated rows are projected
    onto the truncation band first). A scheme failure in any row raises
    IntegrationDivergedError carrying that row's partial trajectory.
    """
    cap = _amplitude_cap(amplitude_cap)
    probes = probes or {}
    n_steps = integ.step_count()
    dt = math.copysign(integ.dt, integ.t_end) if integ.t_end else integ.dt
    u0s = list(u0s)
    if not u0s:
        return []
    if eq.truncated:
        work_band = eq.truncation
        u0s = [fld.project(u0, work_band) for u0 in u0s]
    else:
        bands = {u0.max_mode for u0 in u0s}
        if len(bands) > 1:
            raise ValueError(f"untruncated rows must share max_mode, got {sorted(bands)}")
        work_band = bands.pop()
    core = _evolve_strang if integ.scheme == "strang" else _evolve_lawson
    return core(u0s, eq, integ, n_steps, dt, work_band, probes, cap)


def _evolve_strang(u0s, eq, integ, n_steps, dt, work_band, probes, cap):
    """Strang splitting of a (B, m) stack, with adjacent half-steps fused.

    The grid is odd with m >= 3 (2N+1) points. Row r holds modes -K..K in
    columns 0..2K, the spectrum of e^{iKx} u, with K the grid band (m = 2K+1)
    for untruncated runs and the truncation otherwise; the pointwise phase
    commutes with that unimodular factor. Truncated runs zero the columns
    past 2K after every linear substep.

    Between snapshots the state owes half a linear step: it is rotated by
    one full multiplier per step, and the probes are rotated by the missing
    half instead of the state. At a snapshot step it takes the half, is
    recorded, and takes the other half.

    Every row's mass is pinned to its target after the nonlinear substep of
    each snapshot step, so transform roundoff cannot build up a drift in
    what is recorded. Untruncated substeps are all unitary in exact
    arithmetic, so between snapshots the pin would only reset roundoff.
    Truncated runs pin after every step and measure the target again after
    each projection, which is part of the model.
    """
    truncated, stride = eq.truncated, integ.snapshot_stride
    m = fast_fft_size(3 * (2 * work_band + 1), odd=True)
    band = work_band if truncated else (m - 1) // 2
    width = 2 * band + 1
    # the mode of each column; columns past 2K are zeroed right after each
    # multiplier, so any unimodular value serves there
    freq = np.arange(m, dtype=np.float64) - band
    shift = 2.0 * eq.sign * eq.renorm_constant() if eq.renorm_shifted else 0.0
    half = np.exp(1j * (freq**2 - shift) * (dt / 2.0))
    full = np.exp(1j * (freq**2 - shift) * dt)

    s = np.zeros((len(u0s), m), dtype=np.complex128)
    s[:, :width] = [u0.padded_to(band).coeffs for u0 in u0s]
    s_real = s.view(np.float64)
    u = np.empty_like(s)
    a2, rotation = np.empty(s.shape), np.empty_like(s)  # phase kernel work buffers

    rec = _Recorder(eq, integ, dt, band, probes, s, n_steps)
    if probes:
        rotated = rec.paired * half[rec.support]

    cap2 = cap * cap
    scale2 = float(m) * float(m)  # ifft leaves grid values scaled by 1/m
    phase_factor = eq.sign * dt * scale2
    target = np.einsum("ij,ij->i", s_real, s_real)
    empty = (target == 0.0).astype(np.float64)  # pins a zero row by 0 / (0 + 1)

    def mean_offset():
        # -2 mu per row in grid units: the mass is pinned, so mu is the target's
        return (-2.0 / scale2) * target[:, None] if eq.mean_shifted else 0.0

    offset = mean_offset()
    s *= half
    for k in range(n_steps):
        snap = (k + 1) % stride == 0
        np.fft.ifft(s, axis=-1, out=u)
        worst = nonlinear_phase(u, phase_factor, offset, axis=None, a2=a2, rotation=rotation)
        if not worst * scale2 <= cap2:  # NaN-safe
            np.fft.ifft(s, axis=-1, out=u)  # the grid values again, before the phase
            row_worst = np.maximum.reduce(u.real * u.real + u.imag * u.imag, axis=-1)
            rec.fail(int(np.argmin(row_worst * scale2 <= cap2)), f"|u| exceeded {cap:g}", k)
        np.fft.fft(u, axis=-1, out=s)
        if truncated or snap:
            pin = np.einsum("ij,ij->i", s_real, s_real)
            pin += empty
            np.divide(target, pin, out=pin)
            np.sqrt(pin, out=pin)
            s *= pin[:, None]
        if probes:
            rec.probe(s, rotated)
        if snap:
            s *= half
            if truncated:
                s[:, width:] = 0.0
            rec.snapshot((k + 1) * dt, s)
            s *= half
        else:
            s *= full
            if truncated:
                s[:, width:] = 0.0
        if truncated:
            target = np.einsum("ij,ij->i", s_real, s_real)
            offset = mean_offset()
    return [rec.build(r) for r in range(len(u0s))]


def _evolve_lawson(u0s, eq, integ, n_steps, dt, work_band, probes, cap):
    """Integrating-factor (Lawson) RK4 of a (B, m) stack.

    With ``E = exp(i(n^2 - shift) dt/2)`` applied exactly and ``K(v)`` the
    nonlinear term times dt, a step is
    ``u+ = E^2 u + (E^2 K1 + 2E (K2 + K3) + K4) / 6`` with stage inputs
    ``u``, ``E(u + K1/2)``, ``Eu + K2/2`` and ``E(Eu + K3)``. The -2 mu term
    of the mean-shifted variants is linear once mu is fixed at the row's
    initial value (the exact flow conserves mass), so it joins the shift;
    the scheme is then equivariant under the scalar gauge, as the flow is.

    Row r holds modes -N..N in columns 0..2N, i.e. the spectrum of
    e^{iNx} u. The cubic commutes with that unimodular factor, and on an odd
    grid of m >= 4N+1 points the modes 0..2N of the product carry no alias,
    so one ifft, the pointwise cubic, one fft and the drop of the columns
    past 2N give the exact Galerkin term P_N(|u|^2 u).

    The scheme does not conserve mass, so it can fail: each step checks the
    state it starts from against the amplitude cap (and for NaN) on the grid
    values of its first stage, and each snapshot checks every row's relative
    mass drift against ``LAWSON_MASS_RTOL``.
    """
    n, stride = work_band, integ.snapshot_stride
    width = 2 * n + 1
    m = fast_fft_size(4 * n + 1, odd=True)
    rows = len(u0s)
    c = np.array([u0.padded_to(n).coeffs for u0 in u0s])
    c_real = c.view(np.float64)
    target = np.einsum("ij,ij->i", c_real, c_real)  # mass per row, without the 2 pi

    rate = np.arange(-n, n + 1, dtype=np.float64) ** 2
    if eq.renorm_shifted:
        rate = rate - 2.0 * eq.sign * eq.renorm_constant()
    if eq.mean_shifted:
        rate = rate - (2.0 * eq.sign) * target[:, None]
    half = np.exp(1j * rate * (dt / 2.0))

    pad = np.zeros((rows, m), dtype=np.complex128)  # columns past 2N stay zero
    stage_in = pad[:, :width]
    grid = np.empty_like(pad)
    a2 = np.empty((rows, m))
    b2 = np.empty_like(a2)
    eu, slope = np.empty_like(c), np.empty_like(c)  # E u, and each stage's K
    scale2 = float(m) * float(m)  # ifft leaves grid values scaled by 1/m
    factor = 1j * eq.sign * dt * scale2

    def cubic(out):
        # out = dt * i sign P_N(|v|^2 v) for v = stage_in; leaves |v|^2 / m^2 in a2
        np.fft.ifft(pad, axis=-1, out=grid)
        np.multiply(grid.real, grid.real, out=a2)
        np.multiply(grid.imag, grid.imag, out=b2)
        np.add(a2, b2, out=a2)
        np.multiply(grid, a2, out=grid)
        np.fft.fft(grid, axis=-1, out=grid)
        np.multiply(grid[:, :width], factor, out=out)

    rec = _Recorder(eq, integ, dt, n, probes, c, n_steps)

    cap2 = cap * cap
    for k in range(n_steps):
        # c <- E (E (c + K1/6) + (K2 + K3)/3) + K4/6, accumulated in place
        stage_in[...] = c
        cubic(slope)  # K1
        if not np.maximum.reduce(a2, axis=None) * scale2 <= cap2:  # NaN-safe
            row_worst = np.maximum.reduce(a2, axis=-1)
            rec.fail(int(np.argmin(row_worst * scale2 <= cap2)), f"|u| exceeded {cap:g}", k)
        np.multiply(slope, 0.5, out=stage_in)
        stage_in += c
        stage_in *= half
        np.multiply(c, half, out=eu)
        slope *= 1.0 / 6.0
        c += slope
        c *= half
        cubic(slope)  # K2
        np.multiply(slope, 0.5, out=stage_in)
        stage_in += eu
        slope *= 1.0 / 3.0
        c += slope
        cubic(slope)  # K3
        np.add(eu, slope, out=stage_in)
        stage_in *= half
        slope *= 1.0 / 3.0
        c += slope
        c *= half
        cubic(slope)  # K4
        slope *= 1.0 / 6.0
        c += slope
        snap = (k + 1) % stride == 0
        if snap:
            drift = np.abs(np.einsum("ij,ij->i", c_real, c_real) - target)
            ok = drift <= LAWSON_MASS_RTOL * target  # NaN-safe; a zero row stays zero
            if not ok.all():
                bad = int(np.argmin(ok))
                rec.fail(bad, f"relative mass drift {drift[bad] / target[bad]:.3g} "
                         f"above {LAWSON_MASS_RTOL:g}", k)
        if probes:
            rec.probe(c, rec.paired)
        if snap:
            rec.snapshot((k + 1) * dt, c)
    return [rec.build(r) for r in range(rows)]


# ---------------------------------------------------------------------------
# gauge maps
# ---------------------------------------------------------------------------

def _phase_transformed(traj: Trajectory, rate: float, eq: EquationSpec) -> Trajectory:
    """Multiply snapshot k by exp(i * rate * t_k); ledger is phase-invariant."""
    snaps = tuple(fld.TorusField(u.coeffs * np.exp(1j * rate * t), u.max_mode)
                  for t, u in zip(traj.times, traj.snapshots))
    probes = traj.probes
    if traj.probe_times is not None:
        factor = np.exp(1j * rate * traj.probe_times)
        probes = {k: v * factor for k, v in probes.items()}
    return Trajectory(times=traj.times.copy(), snapshots=snaps,
                      ledger={k: v.copy() for k, v in traj.ledger.items()},
                      eq=eq, integrator=traj.integrator,
                      probe_times=traj.probe_times, probes=probes)


def gauge_transform(traj: Trajectory, mu0: float, sign: int) -> Trajectory:
    """Scalar gauge e^{-2 i sign mu0 t}: maps plain solutions onto Wick ones.

    With mu0 the mean intensity of the initial data, the transformed
    trajectory of an ``nls`` run solves ``wnls`` (and conversely with -mu0).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return _phase_transformed(traj, -2.0 * sign * mu0, traj.eq)


def truncation_gauge(traj: Trajectory, n_max: int, alpha: float,
                     debug: bool = False) -> Trajectory:
    """Remove the intensity fluctuation phase from a renormalized truncated run.

    Multiplies snapshot k by ``exp(-2 i sign c t_k)`` where
    ``c = mu(P_N u0) - a`` is constant along the flow (mass is conserved).
    The result solves the ``truncated-wnls-gauged`` system. ``debug``
    re-evaluates c on every snapshot and asserts constancy to 1e-10.
    """
    if traj.eq.variant is not Variant.TRUNCATED_WNLS_HAMILTONIAN:
        raise ValueError("truncation_gauge expects a truncated-wnls-hamiltonian run")
    c0 = intensity_fluctuation(traj.snapshots[0], n_max, alpha)
    if debug:
        for t, u in zip(traj.times, traj.snapshots):
            ck = intensity_fluctuation(u, n_max, alpha)
            if abs(ck - c0) > 1e-10:
                raise AssertionError(
                    f"intensity fluctuation drifted to {ck - c0:.3e} at t={t:g}")
    gauged_eq = replace(traj.eq, variant=Variant.TRUNCATED_WNLS_GAUGED)
    return _phase_transformed(traj, -2.0 * traj.eq.sign * c0, gauged_eq)
