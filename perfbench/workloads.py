"""The benchmark's workloads: inputs built from a seed, timed calls, checks.

A workload is a list of operations. An operation is one call into wicknls's
public API (timed) together with the checks of its output (not timed); a
check returns a list of failure messages, empty when the output is right.
Every pass of a run executes all operations of its workload in order, on the
same inputs, so each run attempts whole rounds of the same operations.
"""

import math
from typing import Any, Callable, NamedTuple

import numpy as np

import wicknls as w
import reference


class Op(NamedTuple):
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], list]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _key(seed: int, stream: int) -> int:
    """A RandomDataSpec seed derived from the run seed."""
    return (seed * 16 + stream) % 2**64


def _expect(failures: list, ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


# ---------------------------------------------------------------------------
# weak-contrast: the paper's headline experiment on the acceptance fixture
# ---------------------------------------------------------------------------

CONTRAST_MODES = (4, 8, 16, 32, 64)
# A quarter of the acceptance horizon: the same 24 runs on the same grid with
# 250 steps each, so that a run holds enough passes to be steady.
CONTRAST_HORIZON = 0.25


def weak_contrast(seed: int) -> list:
    # The bump phase comes from the seed. Translating x and rotating the
    # overall phase maps one bump phase to another while fixing the mode-1
    # base and probe, so every output checked below is phase-independent.
    theta = float(_rng(seed, 0).uniform(0.0, 2.0 * math.pi))
    spec = w.WeakSequenceSpec(
        base=w.TorusField.single_mode(1, 1.0),
        bump_amplitude=complex(math.cos(theta), math.sin(theta)),
        mode_list=CONTRAST_MODES,
        probe=w.TorusField.single_mode(1, 1.0),
        horizon=CONTRAST_HORIZON,
        eq=w.EquationSpec("wnls", sign=1),
        integrator=w.IntegratorSpec("strang", dt=1e-3, t_end=CONTRAST_HORIZON,
                                    snapshot_stride=50),
    )
    # |<e^{ix} e^{iwt}, e^{ix}>| = 2*pi and the defect is |c|^2 = 1
    plateau = reference.phase_defect_plateau(1.0, CONTRAST_HORIZON, reference.TWO_PI)

    def check(report) -> list:
        failures = []
        for tag in ("wnls_", "nls_"):
            defects = report.get_series(tag + "mu_defect").values
            _expect(failures, all(abs(d - 1.0) <= 1e-12 for d in defects),
                    f"{tag}mu_defect {defects} != |c|^2 = 1")
        gaps = report.get_series("wnls_gap_sup")
        modes, values = np.asarray(gaps.index), np.asarray(gaps.values)
        order = np.argsort(modes)
        modes, values = modes[order], values[order]
        rho = reference.spearman_rho(modes, values)
        _expect(failures, rho < -0.8, f"wnls spearman rho {rho:.3f} >= -0.8")
        ratio = values[-1] / values[0]
        _expect(failures, ratio <= 0.2, f"wnls G(64)/G(4) {ratio:.4f} > 0.2")
        nls = report.get_series("nls_gap_sup")
        measured = nls.values[int(np.argmax(nls.index))]
        _expect(failures, abs(measured / plateau - 1.0) <= 0.2,
                f"nls plateau {measured:.4f} not within 20% of {plateau:.4f}")
        return failures

    return [Op("phase_defect_contrast_run",
               lambda: w.phase_defect_contrast_run(spec, threads=1), check)]


# ---------------------------------------------------------------------------
# rough-ensemble: many short evolutions of rough data on small grids
# ---------------------------------------------------------------------------

ROUGH_MEMBERS = 16
ROUGH_BAND = 16
ROUGH_ALPHA = 0.5
GROWTH_BAND = 32          # run at 32 and 64: either side of the direct/FFT cutoff 48
GROWTH_SAMPLES = 12
GROWTH_DT = 5e-4          # dt * 64^2 = 2.05, inside RK4's stability limit 2.83
GROWTH_HORIZON = 0.05
GROWTH_S = -0.25


def rough_ensemble(seed: int) -> list:
    spec = w.RandomDataSpec(alpha=ROUGH_ALPHA, max_mode=ROUGH_BAND, seed=_key(seed, 1))
    integ = w.IntegratorSpec("strang", dt=2e-3, t_end=0.5, snapshot_stride=25)
    plain, wick = w.EquationSpec("nls", sign=1), w.EquationSpec("wnls", sign=1)

    def pair_op(k: int) -> Op:
        u0 = w.sample(spec, k)
        mu0 = reference.mass(u0.coeffs) / reference.TWO_PI

        def check(pair) -> list:
            tn, tw = pair
            failures = []
            worst = 0.0
            for t, un, uw in zip(tw.times, tn.snapshots, tw.snapshots):
                diff = np.exp(-2j * mu0 * t) * un.coeffs - uw.coeffs
                worst = max(worst, math.sqrt(reference.mass(diff)))
            _expect(failures, worst <= 1e-6, f"member {k}: gauge distance {worst:.2e}")
            for traj in pair:
                masses = np.array([reference.mass(u.coeffs) for u in traj.snapshots])
                drift = float(np.max(np.abs(masses - masses[0])) / masses[0])
                _expect(failures, drift <= 1e-12,
                        f"member {k} {traj.eq.variant.value}: mass drift {drift:.2e}")
            return failures

        return Op(f"gauge_pair[{k}]",
                  lambda: (w.evolve(u0, plain, integ), w.evolve(u0, wick, integ)), check)

    growth_spec = w.RandomDataSpec(alpha=ROUGH_ALPHA, max_mode=GROWTH_BAND,
                                   seed=_key(seed, 2))
    rk4 = w.IntegratorSpec("rk4", dt=GROWTH_DT, t_end=GROWTH_HORIZON, snapshot_stride=10)

    def growth_check(report) -> list:
        failures = []
        p99 = []
        for band in (GROWTH_BAND, 2 * GROWTH_BAND):
            ratios = np.asarray(report.get_series(f"growth_ratio_band{band}").values)
            # t = 0 lies inside the sup, so no ratio can fall below 1
            _expect(failures, bool(np.all(ratios >= 1.0)),
                    f"band {band}: growth ratio {ratios.min():.6f} < 1")
            p99.append(float(np.percentile(ratios, 99.0)))
        change = abs(p99[1] / p99[0] - 1.0)
        _expect(failures, max(p99) <= 3.0, f"p99 {max(p99):.4f} > 3")
        _expect(failures, change <= 0.25, f"p99 change {change:.4f} > 0.25")
        _expect(failures, report.verdict == (max(p99) <= 3.0 and change <= 0.25),
                f"program verdicts {report.verdicts} disagree")
        return failures

    ops = [pair_op(k) for k in range(ROUGH_MEMBERS)]
    ops.append(Op("apriori_growth_probe",
                  lambda: w.apriori_growth_probe(growth_spec, GROWTH_S, GROWTH_HORIZON,
                                                 GROWTH_SAMPLES, integ=rk4, threads=1),
                  growth_check))
    return ops


# ---------------------------------------------------------------------------
# strichartz: free-flow L4 norms of white noise under band doubling
# ---------------------------------------------------------------------------

STRICHARTZ_BAND = 16
STRICHARTZ_HORIZON = 1.0
STRICHARTZ_SAMPLES = 100
STRICHARTZ_EXACT_MEMBERS = 3


def strichartz(seed: int) -> list:
    spec = w.RandomDataSpec(alpha=0.0, max_mode=STRICHARTZ_BAND, seed=_key(seed, 3))
    bands = (STRICHARTZ_BAND, 2 * STRICHARTZ_BAND)
    exact = {}
    for band in bands:
        members = [w.sample(w.RandomDataSpec(alpha=0.0, max_mode=band, seed=spec.seed), k)
                   for k in range(STRICHARTZ_EXACT_MEMBERS)]
        exact[band] = [reference.free_flow_l4_exact(f.coeffs, STRICHARTZ_HORIZON)
                       / math.sqrt(reference.mass(f.coeffs)) for f in members]

    rng = _rng(seed, 4)
    j, k = (int(n) for n in rng.choice(np.arange(-STRICHARTZ_BAND, STRICHARTZ_BAND + 1),
                                       size=2, replace=False))
    a, b = (complex(*rng.standard_normal(2)) for _ in range(2))
    two_mode = w.TorusField.from_modes({j: a, k: b}, max_mode=STRICHARTZ_BAND)
    two_mode_expected = reference.two_mode_l4(a, b, STRICHARTZ_HORIZON)

    def check(report) -> list:
        failures = []
        maxima = []
        for band in bands:
            ratios = report.get_series(f"l4_ratio_band{band}").values
            maxima.append(max(ratios))
            # the left rectangle rule's error in the norm is about
            # dt/(4T) * (g(-T) + g(T)) / mean(g); dt/T allows 2x the mean
            tol = (math.pi / (4.0 * band**2)) / STRICHARTZ_HORIZON
            for idx, ref in enumerate(exact[band]):
                gap = abs(ratios[idx] / ref - 1.0)
                _expect(failures, gap <= tol,
                        f"band {band} sample {idx}: rectangle vs exact {gap:.2e} > {tol:.2e}")
        change = abs(maxima[1] / maxima[0] - 1.0)
        _expect(failures, change <= 0.25, f"max ratio change {change:.4f} > 0.25")
        _expect(failures, report.verdicts.get("max_ratio_stable_under_doubling") is True,
                f"program verdicts {report.verdicts}")
        got = w.free_flow_l4_norm(two_mode, STRICHARTZ_HORIZON)
        _expect(failures, abs(got / two_mode_expected - 1.0) <= 1e-10,
                f"two-mode L4 {got!r} != {two_mode_expected!r}")
        return failures

    return [Op("strichartz_ratio_probe",
               lambda: w.strichartz_ratio_probe(spec, STRICHARTZ_HORIZON,
                                                STRICHARTZ_SAMPLES, threads=1),
               check)]


# ---------------------------------------------------------------------------
# mc-stats: criterion-9 random-data statistics, criterion-6 hypercontractivity
# ---------------------------------------------------------------------------

MEAN_SAMPLES = 20_000
WHITE_SAMPLES = 1_000
WHITE_CUTOFFS = (16, 32, 64, 128, 256)
FREE_SAMPLES = 20_000
HYPER_SAMPLES = 2_000_000
HYPER_CASES = (   # (order, dim, q, terms): criterion 6's further cases
    (1, 1, 4.0, None),
    (2, 2, 4.0, [(1.0, (1, 1))]),
    (2, 2, 6.0, [(1.0, (2,)), (1.0, (0, 2))]),
    (3, 1, 4.0, None),
    (4, 2, 3.0, [(1.0, (4,)), (0.5, (2, 2))]),
)
HYPER_CASE_SAMPLES = 400_000


def mc_stats(seed: int) -> list:
    # The statistical checks use the acceptance suite's fixed Philox keys: a
    # 3-stderr test fails on 0.27% of keys by construction, and a failure
    # that depends on the run seed would change a run's failed share. The
    # seed selects the keys of the bit-exact nested-truncation check.
    mean_spec = w.RandomDataSpec(alpha=1.0, max_mode=16, seed=0)
    white = w.RandomDataSpec(alpha=0.0, max_mode=256, seed=1)
    free = w.RandomDataSpec(alpha=1.0, max_mode=64, seed=2)
    nested_spec = w.RandomDataSpec(alpha=1.0, max_mode=64, seed=_key(seed, 5))
    nested_index = int(_rng(seed, 6).integers(0, 2**32))

    def mean_mu():
        return np.fromiter((w.mean_intensity(u)
                            for u in w.sample_ensemble(mean_spec, MEAN_SAMPLES)), float)

    def check_mean(values) -> list:
        expected = reference.weight_sum(16, 1.0)
        stderr = values.std() / math.sqrt(len(values))
        sigmas = abs(values.mean() - expected) / stderr
        return [] if sigmas <= 3.0 else [f"mean of mu {sigmas:.2f} stderr from {expected}"]

    def check_white(rows) -> list:
        slope = reference.loglog_slope([r["cutoff"] for r in rows], [r["median"] for r in rows])
        return [] if abs(slope - 0.5) <= 0.05 else [f"white-noise slope {slope:.4f}"]

    def check_free(rows) -> list:
        ratio_sq = (rows[1]["median"] / rows[0]["median"]) ** 2
        expected = reference.weight_sum(64, 1.0) / reference.weight_sum(16, 1.0)
        rel = abs(ratio_sq / expected - 1.0)
        return [] if rel <= 0.02 else [f"saturation ratio off by {rel:.4f}"]

    def check_h2(rep) -> list:
        failures = []
        ratio = rep.lhs / (rep.rhs / 3.0)  # rhs = (q-1)^{n/2} ||F||_2 = 3 ||F||_2
        rel = abs(ratio / reference.H2_L4_OVER_L2 - 1.0)
        _expect(failures, rel <= 0.02, f"H2 ||F||_4/||F||_2 off by {rel:.4f}")
        _expect(failures, rep.lhs <= rep.rhs and rep.passed, f"H2 bound fails: {rep}")
        return failures

    def check_case(rep) -> list:
        return [] if rep.passed and rep.lhs > 0 else [f"hypercontractivity case fails: {rep}"]

    def nested():
        return (w.sample(nested_spec, nested_index),
                w.sample(w.RandomDataSpec(alpha=1.0, max_mode=8, seed=nested_spec.seed),
                         nested_index))

    def check_nested(pair) -> list:
        big, small = pair
        same = np.array_equal(big.coeffs[64 - 8:64 + 9], small.coeffs)
        return [] if same else ["P_8(sample@64) != sample@8"]

    ops = [
        Op("mean_intensity_ensemble", mean_mu, check_mean),
        Op("regularity_profile_white",
           lambda: w.regularity_profile(white, [0.0], WHITE_CUTOFFS, samples=WHITE_SAMPLES),
           check_white),
        Op("regularity_profile_free",
           lambda: w.regularity_profile(free, [0.0], [16, 64], samples=FREE_SAMPLES),
           check_free),
        Op("hypercontractivity_h2",
           lambda: w.hypercontractivity_check(2, 1, 4.0, samples=HYPER_SAMPLES, seed=3),
           check_h2),
    ]
    for i, (n, d, q, terms) in enumerate(HYPER_CASES):
        ops.append(Op(f"hypercontractivity_case{i}",
                      lambda n=n, d=d, q=q, terms=terms, i=i: w.hypercontractivity_check(
                          n, d, q, samples=HYPER_CASE_SAMPLES, seed=11 + i, terms=terms),
                      check_case))
    ops.append(Op("nested_truncation", nested, check_nested))
    return ops


WORKLOADS = {
    "weak-contrast": weak_contrast,
    "rough-ensemble": rough_ensemble,
    "strichartz": strichartz,
    "mc-stats": mc_stats,
}
