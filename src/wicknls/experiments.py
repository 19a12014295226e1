"""Composite numerical experiments.

* ``weak_continuity_run``: evolve a weakly-null high-frequency bump family
  ``u_{0,n} = u0 + c e^{inx}`` and track the probe pairing gap
  ``G(n) = sup_{|t|<=T} |<u_n(t) - u(t), phi>|``. For the mean-shifted (Wick)
  equations the gap decays; for the plain equation the mean-intensity defect
  ``|c|^2`` leaves a persistent phase gap.
* ``phase_defect_contrast_run``: the two runs side by side on identical data,
  with the plateau of the plain equation checked against the scalar
  phase-defect prediction built from the gauge identity.

  Both run one bump family through one private runner, ``_weak_run``, with
  the equations to report it under: it steps the family under its
  shift-free variant (``nls`` or ``truncated-nls``), each datum once forward
  and, unless it and the probe are real, once backward, all in one stack.
  So each datum has a (forward, backward) run pair; a real datum's backward
  run is the time reversal of its forward run (``dynamics._time_reversed``),
  and each Wick equation's runs are the gauge ``u -> e^{-i shift t} u`` of
  the stepped ones. ``_family_stats`` reads the pairs into the statistics
  under each equation (the ``_WEAK_STATS`` series over the modes) and its
  plateau prediction. The experiments only pick equations and verdicts.
* ``strichartz_ratio_probe``: space-time L4 norm of the free flow over random
  data, stability of the max ratio under band doubling.
* ``apriori_growth_probe``: distribution of sup_t ||u(t)||_{H^s} / ||u0||_{H^s}
  for rough random data under the mean-shifted flow.
* ``integrator_order_study``: measured convergence orders.

Verdicts are trend/threshold based; the thresholds live in
``data/verdict_thresholds.yaml`` and are versioned.
"""

import cmath
import functools
import math
from dataclasses import dataclass, field as dc_field, replace
from importlib import resources

import numpy as np

from . import field as fld
from . import random_data as rnd
from .dynamics import (EquationSpec, IntegrationDivergedError, IntegratorSpec, Variant,
                       _evolve_runs, _gauge_phase, _shift_free, _time_reversed, evolve,
                       evolve_batch, gauge, plane_wave_frequency)
from .field import SpecFieldError  # also xp.SpecFieldError
from .serialization import field_coeffs_dict, spec_hash
from ._kernels import fast_fft_size

@functools.cache
def verdict_thresholds() -> dict:
    import yaml  # here, so that importing the library does not load PyYAML

    text = resources.files("wicknls").joinpath("data/verdict_thresholds.yaml").read_text()
    return yaml.safe_load(text)


@dataclass(frozen=True)
class Series:
    name: str
    unit: str
    index_name: str
    index: tuple
    values: tuple
    spec_hash: str

    def to_record(self) -> dict:
        return {"record": "series", "name": self.name, "unit": self.unit,
                "index_name": self.index_name, "index": list(self.index),
                "values": [float(v) for v in self.values], "spec_hash": self.spec_hash}


@dataclass(frozen=True)
class ExperimentReport:
    kind: str
    config: dict
    series: tuple
    verdicts: dict
    details: dict = dc_field(default_factory=dict)

    @property
    def verdict(self) -> bool:
        return all(self.verdicts.values()) if self.verdicts else True

    def get_series(self, name: str) -> Series:
        for s in self.series:
            if s.name == name:
                return s
        raise KeyError(name)

    def to_records(self) -> list:
        head = {"record": "report", "kind": self.kind, "config": self.config,
                "verdicts": {k: bool(v) for k, v in self.verdicts.items()},
                "details": self.details}
        return [head] + [s.to_record() for s in self.series]

    def summary_rows(self) -> list:
        return [(s.name, s.index_name, i, float(v), s.unit)
                for s in self.series for i, v in zip(s.index, s.values)]


def _run_to(integ: IntegratorSpec, t_end: float, name: str) -> IntegratorSpec:
    """``integ`` run to ``t_end``; a time grid that misses it raises ``SpecFieldError(name)``."""
    try:
        return replace(integ, t_end=t_end)
    except SpecFieldError as exc:
        raise SpecFieldError(name, str(exc)) from None


# ---------------------------------------------------------------------------
# weak continuity of the solution map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeakSequenceSpec:
    """Bump family u_{0,n} = base + c e^{inx} probed against phi over |t| <= T.

    The spec's integrator runs to the horizon: its ``t_end`` is set to
    ``horizon`` when the spec is built, and a time grid that does not fit the
    horizon raises ``SpecFieldError`` naming ``horizon``.
    """

    base: fld.TorusField
    bump_amplitude: complex
    mode_list: tuple
    probe: fld.TorusField
    horizon: float
    eq: EquationSpec
    integrator: IntegratorSpec
    working_band: int | None = None

    def __post_init__(self):
        modes = tuple(fld.require_integer("mode_list", n) for n in self.mode_list)
        if not modes or any(n <= 0 for n in modes) or len(set(modes)) != len(modes):
            raise SpecFieldError("mode_list", "mode_list must be distinct positive integers")
        object.__setattr__(self, "mode_list", modes)
        if self.working_band is not None:
            fld.require_integer("working_band", self.working_band)
        if not cmath.isfinite(self.bump_amplitude):
            raise SpecFieldError("bump_amplitude", "bump_amplitude must be finite "
                                 f"(got {self.bump_amplitude})")
        if not (self.horizon > 0 and math.isfinite(self.horizon)):  # NaN-safe
            raise SpecFieldError("horizon",
                                 f"horizon must be finite and > 0 (got {self.horizon})")
        object.__setattr__(self, "integrator",
                           _run_to(self.integrator, float(self.horizon), "horizon"))
        if fld.mean_intensity(self.probe) == 0.0:
            raise SpecFieldError("probe", "probe must be nonzero")
        band = self.resolved_band()
        need = 4 * max(modes)
        if band < need:
            # a truncated equation fixes the band; otherwise only an explicit
            # working_band can be too small
            raise SpecFieldError(
                "eq" if self.eq.truncated else "working_band",
                f"working band {band} too small for bump modes (need >= {need} "
                "to keep cubic harmonics resolved)")
        mass = fld.require_finite_mass("base", self.base)
        # the mode-m bump turns |b_m|^2 into |b_m + c|^2
        b = np.array([self.base.coeff(m) for m in modes])
        with np.errstate(over="ignore"):  # the error below reports it
            bumped = mass + fld.TWO_PI * (np.abs(b + self.bump_amplitude) ** 2 - np.abs(b) ** 2)
        for m, value in zip(modes, bumped.tolist()):
            if not math.isfinite(value):
                raise SpecFieldError("bump_amplitude", f"mass 2*pi*mu of the mode-{m} bump "
                                                       f"datum must be finite (got {value})")

    def resolved_band(self) -> int:
        if self.eq.truncated:
            return self.eq.truncation
        if self.working_band is not None:
            return int(self.working_band)
        return max(4 * max(self.mode_list), self.base.max_mode, self.probe.max_mode)

    def initial_data(self, mode: int | None) -> fld.TorusField:
        u = self.base
        if mode is not None:
            u = u + fld.TorusField.single_mode(mode, self.bump_amplitude)
        if not self.eq.truncated:
            u = u.padded_to(self.resolved_band())
        return u

    def to_dict(self) -> dict:
        c = complex(self.bump_amplitude)
        return {
            "base": field_coeffs_dict(self.base),
            "bump_amplitude": [c.real, c.imag],
            "mode_list": list(self.mode_list),
            "probe": field_coeffs_dict(self.probe),
            "horizon": self.horizon,
            "eq": self.eq.to_dict(),
            "integrator": self.integrator.to_dict(),
            "working_band": self.working_band,
        }


# the statistics of a bump family, as (series name, unit), in report order
_WEAK_STATS = (("gap_sup", "l2-pairing"), ("weak_l4_proxy", "spacetime-pairing"),
               ("strong_l4_gap", "spacetime-l4"), ("strong_l6_gap", "spacetime-l6"),
               ("mu_defect", "intensity"))
# the exponents p of the strong gaps, the space-time L^p norms of a bump run's
# difference from the base run
_GAP_POWERS = (4.0, 6.0)


def _real(u: fld.TorusField) -> bool:
    """Whether time reversal ``R u(x) = conj(u(-x))`` fixes ``u``: its coefficients are real."""
    return not np.any(u.coeffs.imag)


def _weak_run(spec: WeakSequenceSpec, eqs) -> list:
    """``(stats, prediction)`` of the bump family of ``spec`` under each equation of ``eqs``.

    ``stats`` maps each ``_WEAK_STATS`` name to its values over
    ``spec.mode_list``, each bump run measured against the base run.
    ``prediction`` is the plateau max_t |e^{2 i s delta t} - 1| |<u_ref(t), phi>|
    of the gauge identity, from the base run and the top mode's defect delta.

    Each equation is ``spec.eq`` up to its Wick shift (else ``ValueError``,
    as from ``gauge``), and its runs are the ``gauge`` of the family's runs
    under the shift-free variant (``_shift_free``). Each datum (the base,
    then each bump) runs forward, and backward too unless it and the probe
    are real, when its backward run is ``_time_reversed`` of its forward run.
    The stepped runs go into one ``_evolve_runs`` call: a stepped row is
    bit-identical to its own ``evolve``, and a derived row (gauged or
    reversed) equals its own to roundoff. The rows share one grid: at band
    N >= 4 x every bump mode, a bump row's top mode is the base's or at most
    N/4 <= (N-1)/3, below which the grid does not depend on it. A scheme
    failure is reported as a run of ``eqs[0]``. ``_family_stats`` reads each
    datum's ``(forward, backward)`` run pair.
    """
    family = replace(spec, eq=_shift_free(spec.eq))
    for eq in eqs:
        if _shift_free(eq) != family.eq:
            raise ValueError(f"no gauge maps a run of {family.eq.to_dict()} onto "
                             f"{eq.to_dict()}: they differ past their Wick shift")
    data = [family.initial_data(None)] + [family.initial_data(n) for n in family.mode_list]
    stepped = [not (_real(spec.probe) and _real(u0)) for u0 in data]
    backward = replace(family.integrator, t_end=-family.integrator.t_end)
    runs = [(u0, family.eq, family.integrator) for u0 in data]
    runs += [(u0, family.eq, backward) for u0, b in zip(data, stepped) if b]
    try:
        trajs = _evolve_runs(runs, {"phi": spec.probe})
    except IntegrationDivergedError as error:
        error.trajectory = gauge(error.trajectory, eqs[0])
        raise
    backs = iter(trajs[len(data):])
    pairs = [(f, next(backs) if b else _time_reversed(f)) for f, b in zip(trajs, stepped)]
    return _family_stats(family, eqs, pairs)


def _family_stats(family: WeakSequenceSpec, eqs, pairs) -> list:
    """``(stats, prediction)`` of ``family`` under each equation of ``eqs``, each
    ``family.eq`` or a Wick variant of it, from the ``(forward, backward)`` run
    pair of each datum, the base's first.

    A datum's record over [-T, T] is its backward run, in ascending time,
    then its forward run past 0; its pairings are read the same way. The
    strong gaps are left rectangle sums, over the record's snapshots at
    -T..T-h, of the spatial means of |u_n - u|^p on the
    ``field._power_grid``. They take those points in chunks of at most
    ``field._POWER_WORK_VALUES // m`` (m the grid size), and hold only the
    grids of the base and of one bump at a time, so that the memory stays
    small whatever the snapshot count. Each point of each datum is
    synthesized once, and its grid values serve every equation: a Wick
    row's are the plain row's times the gauge phase of each snapshot
    (``_gauge_phase``).
    """
    forward, backward = pairs[0]
    mu0 = [fld.mean_intensity(fwd.snapshots[0]) for fwd, _ in pairs]
    times = np.concatenate([backward.probe_times, forward.probe_times[1:]])
    window = np.cos(np.pi * times / (2.0 * float(family.horizon))) ** 2  # vanishes at +-T
    pairings = [np.concatenate([bwd.probes["phi"], fwd.probes["phi"][1:]]) for fwd, bwd in pairs]
    gauged = [eq != family.eq for eq in eqs]
    probes = [[p * _gauge_phase(eq, family.eq, mu, times) for p, mu in zip(pairings, mu0)]
              if shifted else pairings for eq, shifted in zip(eqs, gauged)]

    t = np.concatenate([backward.times, forward.times[1:]])
    split, h = len(backward.times), float(forward.times[1])
    m = fld._power_grid(forward.coeffs.shape[1], _GAP_POWERS)

    def grid(pair, s):
        """The grid values of a datum's record at its snapshots ``s``."""
        fwd, bwd = pair
        return fld._synthesis(np.concatenate([bwd.coeffs[s[s < split]],
                                              fwd.coeffs[s[s >= split] - (split - 1)]]), m)

    points = len(t) - 1
    chunks = -(-points // max(1, fld._POWER_WORK_VALUES // m))
    sums = np.zeros((len(eqs), len(pairs) - 1, len(_GAP_POWERS)))
    for s in np.array_split(np.arange(points), chunks):
        phases = [[_gauge_phase(eq, family.eq, mu, t[s])[:, None] for mu in mu0]
                  if shifted else None for eq, shifted in zip(eqs, gauged)]
        base = grid(pairs[0], s)
        bases = [base if ph is None else base * ph[0] for ph in phases]
        for r in range(1, len(pairs)):
            g = grid(pairs[r], s)
            for ph, ref, total in zip(phases, bases, sums):
                diff = g - ref if ph is None else g * ph[r] - ref
                total[r - 1] += np.sum(fld._grid_means(diff, _GAP_POWERS), axis=-1)
    out = []
    for p, eq, total in zip(probes, eqs, sums):
        values = []
        for r, (l4, l6) in enumerate(fld.TWO_PI * h * total, start=1):
            d = p[r] - p[0]
            values.append((float(np.max(np.abs(d))),  # in _WEAK_STATS order
                           float(abs(np.sum(d * window) * family.integrator.dt)),
                           float(l4) ** 0.25, float(l6) ** (1.0 / 6.0), mu0[r] - mu0[0]))
        stats = {name: np.array(col) for (name, _), col in zip(_WEAK_STATS, zip(*values))}
        delta = float(stats["mu_defect"][np.argmax(family.mode_list)])
        osc = np.abs(np.exp(2j * eq.sign * delta * times) - 1.0)
        out.append((stats, float(np.max(osc * np.abs(p[0])))))
    return out


def _average_ranks(values) -> np.ndarray:
    """Ranks 1..n of ``values``; tied values share the mean of their ranks."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _spearman_rho(x, y) -> float:
    """Spearman rank correlation (average ranks for ties); nan for constant input."""
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float(np.dot(rx, rx)) * float(np.dot(ry, ry)))
    return float(np.dot(rx, ry)) / denom if denom > 0.0 else math.nan


# the verdict modes of weak_continuity_run
_VERDICT_MODES = ("auto", "decay", "plateau")


def _weak_verdicts(spec: WeakSequenceSpec, gaps: np.ndarray,
                   mode: str = "auto") -> tuple[dict, dict]:
    """Decay or plateau verdicts on the gaps over ``spec.mode_list``, read in ascending mode."""
    if mode == "auto":
        mode = "decay" if spec.eq.mean_shifted else "plateau"
    thr = verdict_thresholds()
    order = np.argsort(spec.mode_list)
    modes = np.asarray(spec.mode_list)[order]
    gaps = gaps[order]
    details = {"gap_first": float(gaps[0]), "gap_last": float(gaps[-1])}
    if np.all(gaps == 0.0):
        if mode == "decay":
            return {"gap_decay_trend": True, "gap_decay_ratio": True}, details
        return {"gap_plateau": True}, details
    if mode == "decay":
        rho = _spearman_rho(modes, gaps)
        ratio = float(gaps[-1] / gaps[0]) if gaps[0] > 0 else math.inf
        details.update({"spearman_rho": rho, "gap_ratio": ratio})
        return {
            "gap_decay_trend": rho < thr["weak_decay_spearman_max"],
            "gap_decay_ratio": ratio <= thr["weak_decay_ratio_max"],
        }, details
    plateau_ok = gaps[-1] >= thr["plateau_min_fraction"] * gaps[0]
    return {"gap_plateau": bool(plateau_ok)}, details


def _weak_series(spec: WeakSequenceSpec, stats: dict, tag: str = "") -> list:
    h = spec_hash(spec.to_dict())
    return [Series(tag + name, unit, "mode", spec.mode_list, tuple(stats[name]), h)
            for name, unit in _WEAK_STATS]


def weak_continuity_run(spec: WeakSequenceSpec,
                        verdict_mode: str = "auto") -> ExperimentReport:
    """Gap series G(n) for the bump family, with decay or plateau verdicts.

    With the default ``verdict_mode="auto"`` the mean-shifted (Wick) variants
    are checked for a decaying-gap trend and the plain variants for a
    persistent plateau; pass ``"decay"`` or ``"plateau"`` to force one (e.g.
    applying the decay verdict to the plain equation exhibits its failure).
    The bump family runs as one stack, both time directions together
    (``_weak_run``); an unknown mode is refused before it steps.
    """
    if verdict_mode not in _VERDICT_MODES:
        raise ValueError(f"verdict mode must be one of {', '.join(_VERDICT_MODES)} "
                         f"(got {verdict_mode!r})")
    (stats, _), = _weak_run(spec, [spec.eq])
    verdicts, details = _weak_verdicts(spec, stats["gap_sup"], verdict_mode)
    details["working_band"] = spec.resolved_band()
    return ExperimentReport(kind="weak-continuity", config=spec.to_dict(),
                            series=tuple(_weak_series(spec, stats)), verdicts=verdicts,
                            details=details)


def phase_defect_contrast_run(spec: WeakSequenceSpec, threads: int = 1) -> ExperimentReport:
    """Plain vs mean-shifted dynamics on identical bump data.

    The plain equation's gap plateau is compared against the scalar
    phase-defect prediction; the mean-shifted equation must pass its decay
    verdicts on the same data. One ``_weak_run`` serves both equations: each
    datum is stepped under the plain equation, in one ``_evolve_runs`` call,
    forward and, unless it and the probe are real, backward; the backward run
    of a real datum is the time reversal of its forward run, and the Wick
    rows are the gauge ``e^{-2 i s mu0 t}`` of the plain ones.
    So every stepped plain row is bit-identical to its own ``evolve``, and
    every other row equals its own to roundoff. ``threads`` is accepted but
    unused.
    """
    plain = _shift_free(spec.eq)
    shifted = replace(plain, variant=Variant.TRUNCATED_WNLS_GAUGED if plain.truncated
                      else Variant.WNLS)

    spec_w, spec_n = replace(spec, eq=shifted), replace(spec, eq=plain)
    (stats_w, predicted), (stats_n, _) = _weak_run(spec, [shifted, plain])

    w_verdicts, w_details = _weak_verdicts(spec_w, stats_w["gap_sup"])
    measured = float(stats_n["gap_sup"][np.argmax(spec.mode_list)])
    thr = verdict_thresholds()
    if predicted == 0.0:
        plateau_ok = measured == 0.0
    else:
        plateau_ok = abs(measured / predicted - 1.0) <= thr["phase_defect_plateau_rtol"]

    series = _weak_series(spec_w, stats_w, "wnls_") + _weak_series(spec_n, stats_n, "nls_")
    verdicts = {f"wnls_{k}": v for k, v in w_verdicts.items()}
    verdicts["nls_plateau_matches_prediction"] = bool(plateau_ok)
    details = {"predicted_plateau": predicted, "measured_plateau": measured,
               "wnls": w_details}
    return ExperimentReport(kind="phase-defect-contrast", config=spec.to_dict(),
                            series=tuple(series), verdicts=verdicts, details=details)


# ---------------------------------------------------------------------------
# Strichartz-type ratio probe for the free flow
# ---------------------------------------------------------------------------

def free_flow_l4_norm(f: fld.TorusField, t_horizon: float) -> float:
    """Space-time L4 norm of S(t)f over [-T, T], exact in time.

    The one-row case of ``_free_flow_l4_exact``.
    """
    return float(_free_flow_l4_exact(f.coeffs[None, :], t_horizon)[0]) ** 0.25


# Complex values in the work buffer of ``_free_flow_l4_exact`` (256 KiB, with
# a 128 KiB real twin), at every band and block size unless one row of a class
# needs more, so that each call asks the allocator for the same two blocks.
# The row count of a group follows from this, the band and the lag class
# alone, so a field's integral does not depend on which other fields share
# its block. The kernel's other transient memory is its padded and conjugated
# copies of the block (40 bytes a coefficient) and up to 384 KiB of numpy's
# iterator buffers for the strided a_m product; the |c|^2 of the d = 0 terms
# is freed before any of them is made.
_L4_WORK_VALUES = 2**14
# Lag classes of ``_free_flow_l4_exact`` over the lags 1..N, each transformed
# at its own length; bands below 8 have one class a lag.
_L4_LAG_CLASSES = 8


def _free_flow_l4_exact(block: np.ndarray, t_horizon: float) -> np.ndarray:
    """int_{-T}^{T} int_T |S(t)f|^4 dx dt for each row of a (k, 2N+1) block.

    Row r holds the coefficients of modes -N..N of one field. The space
    integral is 2 pi sum_m |sum_j a_m(j) e^{i m(2j+m) t}|^2 with
    a_m(j) = c(j+m) conj(c(j)); integrating e^{2imdt} over [-T, T] gives the
    Toeplitz kernel K_m(d) = 2T sinc(2mdT) in the lag d. So the integral is
    2 pi [2T mass^2 + 2 sum_{m>=1} sum_d K_m(d) R_m(d)], where R_m is the
    autocorrelation of a_m (m < 0 mirrors m > 0, m = 0 is the mass term).

    R_m(d) = sum_j c(j+m+d) conj(c(j+d)) conj(c(j+m)) c(j) and K_m(d) are
    both symmetric under m <-> d, and R_m(-d) = conj(R_m(d)). So the double
    sum over m >= 1 and d != 0 is the sum over |d| >= m >= 1 with the weight
    w = 1 at |d| = m and 2 at |d| > m; R_m(d) vanishes for m + |d| > 2N, which
    leaves the lags m = 1..N. The d = 0 terms sum in closed form,
    sum_{m>=1} R_m(0) = (mass^2 - sum_j |c(j)|^4) / 2. With n = 2N+1, a_m has
    n-m entries, so each sum over d is (1/L) sum_k Khat_m(k) |ahat_m(k)|^2,
    where Khat_m is the spectrum of w K_m, on any L >= 2(n-m)-1 points,
    enough that the circular correlation of a_m does not wrap.

    The lags m = 1..N fall into ``_L4_LAG_CLASSES`` classes [lo, hi) of
    nearly equal count (edges 1 + N q // classes, duplicates dropped), and a
    class works at the length its longest sequence needs,
    L = fast_fft_size(2(n-lo)-1), with its own kernel spectrum Khat. That
    transforms about 0.76 n^2 points per row where all n-1 lags at one length
    would take 2 n^2. The rows go through one complex and one real work
    buffer of ``_L4_WORK_VALUES`` values (at least one row of a class), viewed
    as (rows, lags, L) per class, so the transform memory is bounded and
    reused whatever the block size; only the copies of the block grow with it.
    """
    if not (t_horizon >= 0 and math.isfinite(t_horizon)):  # NaN-safe
        raise ValueError(f"t_horizon must be finite and >= 0 (got {t_horizon!r})")
    c = np.asarray(block, dtype=np.complex128)
    k, n = c.shape
    top = (n - 1) // 2
    edges = sorted({1 + top * q // _L4_LAG_CLASSES for q in range(_L4_LAG_CLASSES + 1)})
    classes = []
    for lo, hi in zip(edges, edges[1:]):
        size = fast_fft_size(2 * (n - lo) - 1)
        rows = min(k, max(1, _L4_WORK_VALUES // ((hi - lo) * size)))
        classes.append((lo, hi, size, rows))
    work = max([_L4_WORK_VALUES] + [rows * (hi - lo) * size for lo, hi, size, rows in classes])
    intensity = c.real**2 + c.imag**2
    mass = np.add.reduce(intensity, axis=1)
    # the d = 0 terms: K_m(0) = 2T times (mass^2 - sum |c|^4) / 2
    cross = t_horizon * (mass * mass - np.add.reduce(intensity * intensity, axis=1))
    del intensity  # not held through the transforms
    padded = np.zeros((k, n + top + 1), dtype=np.complex128)
    padded[:, :n] = c
    # shifted[r, m-1, j] = c_r(j+m), zero past the band
    shifted = np.lib.stride_tricks.sliding_window_view(padded[:, 1:], n, axis=-1)[:, :top]
    conj = np.conj(c)[:, None, :]
    buf = np.empty(work, dtype=np.complex128)
    power = np.empty(work)
    part = np.empty(k)
    for lo, hi, size, rows in classes:
        width = n - lo  # entries of a_lo, the longest sequence of the class
        # w K_m is real and even in d: hfft takes its lags 0..size//2 and
        # returns its whole (real) spectrum; w = 1 + sign(d - m)
        shift = np.arange(lo, hi)[:, None]
        lag = np.arange(size // 2 + 1)
        kernel = 2.0 * t_horizon * np.sinc(2.0 * t_horizon / math.pi * shift * lag)
        kernel *= 1.0 + np.sign(lag - shift)
        kernel_hat = np.fft.hfft(kernel, n=size, axis=-1)
        for start in range(0, k, rows):
            stop = min(start + rows, k)
            shape = (stop - start, hi - lo, size)
            a = buf[:math.prod(shape)].reshape(shape)
            p = power[:a.size].reshape(shape)
            np.multiply(shifted[start:stop, lo - 1:hi - 1, :width],
                        conj[start:stop, :, :width], out=a[..., :width])  # a_m
            a[..., width:] = 0.0
            np.fft.fft(a, axis=-1, out=a)
            np.abs(a, out=p)
            np.square(p, out=p)
            p *= kernel_hat
            # one pairwise sum per row over its flattened values, as np.sum
            np.add.reduce(p.reshape(len(p), -1), axis=1, out=part[start:stop])
        part /= size
        cross += part
    return fld.TWO_PI * (2.0 * t_horizon * mass * mass + 2.0 * cross)


def _band_doubling(ensemble: rnd.RandomDataSpec, name: str, samples: int, values,
                   **hashed) -> tuple[list, list]:
    """The ``<name>_band<N>`` series of samples 0..samples-1 at bands N and 2N.

    N is the ensemble's band. Each sample is drawn once, at band 2N, in the
    sampler's memory-bounded blocks: by the nested-truncation rule the
    centre columns ``block[:, N:3N+1]`` of a band-2N block are, bit for bit,
    the band-N block of the same indices. ``values(band, block)`` maps a
    block to the values of its rows (it may drop rows) and must not depend on
    how the rows are split into blocks. Each series is hashed over the
    truncated spec ``replace(ensemble, max_mode=band)`` and ``hashed``.
    Returns the two series and the two value lists. A band below 1, which
    doubling leaves as it is, raises ``SpecFieldError`` naming ``max_mode``.
    """
    band = ensemble.max_mode
    if band < 1:
        raise SpecFieldError("max_mode", f"max_mode must be >= 1 to double (got {band})")
    specs = (ensemble, replace(ensemble, max_mode=2 * band))
    lists = [[], []]
    for _, block in rnd._blocks(specs[1], samples):
        lists[0].extend(values(band, block[:, band:3 * band + 1]))
        lists[1].extend(values(2 * band, block))
    series = [Series(f"{name}_band{spec.max_mode}", "dimensionless", "sample",
                     tuple(range(len(got))), tuple(got),
                     spec_hash({**spec.to_dict(), **hashed}))
              for spec, got in zip(specs, lists)]
    return series, lists


def strichartz_ratio_probe(ensemble: rnd.RandomDataSpec, t_horizon: float,
                           samples: int, *, threads: int = 1) -> ExperimentReport:
    """Distribution of ||S(t)f||_{L4_{T,x}} / ||f||_{L2} over a random ensemble.

    Zero-norm samples are skipped. The ensemble is run at its band and at
    twice the band; the verdict requires the max ratio to move by at most the
    fixture tolerance. Each block of the sampler is integrated by one call of
    the block kernel; the ratios equal those of a loop of
    ``free_flow_l4_norm`` over ``sample(spec, k)`` bit for bit. ``threads``
    is accepted but unused.
    """
    if not 0.0 < t_horizon <= 1.0:  # NaN-safe
        raise SpecFieldError("t_horizon", f"t_horizon must lie in (0, 1] (got {t_horizon!r})")
    fld.require_integer("samples", samples, 100)

    def ratios(band, block):
        norms = [float(v) ** 0.25 for v in _free_flow_l4_exact(block, t_horizon)]
        # the L2 norms as fld.pairing takes them
        denoms = [math.sqrt(fld.TWO_PI * fld._dot(row, row).real) for row in block]
        return [l4 / d for l4, d in zip(norms, denoms) if d != 0.0]

    series, lists = _band_doubling(ensemble, "l4_ratio", samples, ratios,
                                   t_horizon=t_horizon)
    bands = [ensemble.max_mode, 2 * ensemble.max_mode]
    maxima = [max(r) if r else math.nan for r in lists]
    if all(math.isfinite(m) for m in maxima):
        change = abs(maxima[1] / maxima[0] - 1.0)
    else:
        change = math.nan
    thr = verdict_thresholds()["strichartz_doubling_rtol"]
    verdicts = {"max_ratio_stable_under_doubling": bool(change <= thr)}
    details = {"max_ratio": {str(b): m for b, m in zip(bands, maxima)},
               "t_horizon": t_horizon, "max_ratio_change": change}
    return ExperimentReport(kind="strichartz-ratio", config={
        "ensemble": ensemble.to_dict(), "t_horizon": t_horizon,
        "samples": samples,
    }, series=tuple(series), verdicts=verdicts, details=details)


# ---------------------------------------------------------------------------
# a-priori growth probe
# ---------------------------------------------------------------------------

def apriori_growth_probe(ensemble: rnd.RandomDataSpec, s: float, t_horizon: float,
                         samples: int, *, integ: IntegratorSpec | None = None,
                         sign: int = 1, threads: int = 1) -> ExperimentReport:
    """Distribution of sup_t ||u(t)||_{H^s} / ||u0||_{H^s} under the Wick flow.

    s must lie in [-1/2, 0]. The ensemble is run at its stated band and at
    twice the band; the verdict caps the 99th percentile and its relative
    change under the doubling. Each block of the sampler runs as one
    ``evolve_batch``; the ratios equal those of a loop of ``evolve`` over
    ``sample(spec, k)`` bit for bit. ``threads`` is accepted but unused.

    ``integ`` runs to ``t_horizon``. By default it is Strang at dt = 2e-3
    with a snapshot every gcd(10, steps) steps. A ``t_horizon`` that the
    time grid does not fit raises ``SpecFieldError`` naming ``t_horizon``.
    """
    if not (-0.5 <= s <= 0.0):
        raise SpecFieldError("s", f"s must lie in [-1/2, 0] (got {s!r})")
    fld.require_integer("samples", samples, 1)
    if integ is None:
        integ = _run_to(IntegratorSpec("strang", dt=2e-3, t_end=0.0), t_horizon, "t_horizon")
        integ = replace(integ, snapshot_stride=math.gcd(10, integ.step_count()))
    else:
        integ = _run_to(integ, t_horizon, "t_horizon")
    eq = EquationSpec(Variant.WNLS, sign=sign)

    def ratios(band, block):
        trajs = evolve_batch([fld.TorusField(c, band) for c in block], eq, integ)
        return [float(np.max(fld._sobolev_norms(traj.coeffs, s))) / base if base > 0 else 1.0
                for base, traj in zip(fld._sobolev_norms(block, s).tolist(), trajs)]

    series, lists = _band_doubling(ensemble, "growth_ratio", samples, ratios,
                                   s=s, t_horizon=t_horizon)
    bands = [ensemble.max_mode, 2 * ensemble.max_mode]
    p99s = [float(np.percentile(r, 99.0)) for r in lists]
    thr = verdict_thresholds()
    change = abs(p99s[1] / p99s[0] - 1.0)
    verdicts = {
        "p99_bounded": bool(max(p99s) <= thr["apriori_p99_cap"]),
        "p99_stable_under_doubling": bool(change <= thr["apriori_doubling_rtol"]),
    }
    details = {"p99": {str(b): v for b, v in zip(bands, p99s)}, "s": s,
               "p99_change": change}
    return ExperimentReport(kind="apriori-growth", config={
        "ensemble": ensemble.to_dict(), "s": s, "t_horizon": t_horizon,
        "samples": samples, "integrator": integ.to_dict(), "sign": sign,
    }, series=tuple(series), verdicts=verdicts, details=details)


# ---------------------------------------------------------------------------
# integrator order study
# ---------------------------------------------------------------------------

def _order_ladder(dts: list, scheme: str, t_end: float) -> list:
    """The integrators of an order study: one per dt of ``dts``, then the reference's.

    ``dts`` holds at least 3 finite, strictly decreasing values > 0 and
    ``t_end`` is finite and > 0; each dt, and the reference step
    ``dts[-1] / 4``, must divide ``t_end``. Each run takes one snapshot, at
    ``t_end``. A rejected value raises ``SpecFieldError`` naming ``dts``,
    ``t_end`` or ``scheme``.
    """
    if (len(dts) < 3 or not (math.isfinite(dts[0]) and dts[-1] > 0)
            or any(not b < a for a, b in zip(dts, dts[1:]))):  # NaN-safe
        raise SpecFieldError("dts", "dts must hold >= 3 finite, strictly decreasing values "
                                    f"> 0 (got {dts})")
    if not (math.isfinite(t_end) and t_end > 0):
        raise SpecFieldError("t_end", f"t_end must be finite and > 0 (got {t_end!r})")
    # each dt is checked (with the scheme) before its step count is taken
    integs = [_run_to(IntegratorSpec(scheme, dt=dt, t_end=0.0), t_end, "dts")
              for dt in dts + [dts[-1] / 4.0]]
    return [replace(integ, snapshot_stride=max(1, integ.step_count())) for integ in integs]


def integrator_order_study(u0: fld.TorusField, eq: EquationSpec, dts,
                           scheme: str = "strang", t_end: float = 1.0) -> ExperimentReport:
    """Errors at t_end over a decreasing dt list, with a fitted order.

    A truncated equation runs u0's projection. Single-mode data is compared
    to the exact plane wave; otherwise the reference is a run at a quarter of
    the smallest dt. When all errors sit at the roundoff floor the verdict
    reports exactness instead of an order (the split-step substeps commute
    on single-mode data, so Strang is exact there). The ladder of
    ``_order_ladder`` (the reference's step included) is checked before the
    first run; a rejected value raises ``SpecFieldError`` naming ``dts``,
    ``t_end`` or ``scheme``.
    """
    dts = [float(dt) for dt in dts]
    integs = _order_ladder(dts, scheme, t_end)
    if eq.truncated:  # the runs evolve the projection, and so does the reference
        u0 = fld.project(u0, eq.truncation)

    nz = np.flatnonzero(np.abs(u0.coeffs) > 0)
    if len(nz) == 1:
        mode = int(nz[0]) - u0.max_mode
        amp = complex(u0.coeffs[nz[0]])
        w = plane_wave_frequency(mode, amp, eq)
        reference = fld.TorusField.single_mode(
            mode, amp * np.exp(1j * w * t_end), max_mode=u0.max_mode)
    else:
        reference = evolve(u0, eq, integs[-1]).final

    errors = []
    for integ in integs[:-1]:
        final = evolve(u0, eq, integ).final
        diff = final - reference.padded_to(final.max_mode)
        errors.append(fld.norm(diff, fld.NormSpec.l2()))

    thr = verdict_thresholds()
    band = thr["strang_order_band"] if scheme == "strang" else thr["rk4_order_band"]
    details: dict = {"errors": errors, "dts": dts, "scheme": scheme}
    if max(errors) < 1e-12:
        verdicts = {"exact_to_roundoff": True}
        details["fitted_order"] = None
    else:
        slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
        details["fitted_order"] = slope
        verdicts = {"order_in_band": bool(band[0] <= slope <= band[1])}

    h = spec_hash({"eq": eq.to_dict(), "scheme": scheme, "dts": dts})
    series = (Series("error_at_t_end", "l2-coefficient", "dt", tuple(dts),
                     tuple(errors), h),)
    return ExperimentReport(kind="order-study", config={
        "eq": eq.to_dict(), "scheme": scheme, "dts": dts, "t_end": t_end,
    }, series=series, verdicts=verdicts, details=details)

