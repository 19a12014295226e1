"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Desk scale throughout (bands <= 512, horizons <= 2); the heavyweight
weak-limit contrast run is shared between criteria 7 and 8 via a module
fixture. Criterion 10 is marked xfail: the one-dimensional weight sum with
exponent 2 converges (to pi coth pi), so its ratio to log N cannot be stable;
the companion assertion inside the test shows the exponent-1 sum is the
one-dimensional quantity with the stated logarithmic growth. See
notes/decisions.md in the build notes for the analysis.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

import wicknls as w
from wicknls import field as fld

from conftest import record_acceptance
from oracles import triple_sum_cubic, triple_sum_nonresonant

TWO_PI = 2.0 * math.pi


def _line(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    record_acceptance(f"ACCEPTANCE {num:>2} {name}: {status} ({detail})")
    return ok


def random_l2_field(max_mode, seed):
    return w.sample(w.RandomDataSpec(alpha=1.0, max_mode=max_mode, seed=seed))


# -- criterion 1 -------------------------------------------------------------

def test_criterion_1_plane_wave_exactness():
    integ = w.IntegratorSpec("strang", dt=1e-3, t_end=1.0, snapshot_stride=1000)
    worst = 0.0
    t0 = time.perf_counter()
    for variant in ("nls", "wnls"):
        for sign in (1, -1):
            eq = w.EquationSpec(variant, sign=sign)
            traj = w.evolve(fld.TorusField.single_mode(1, 1.0), eq, integ)
            expected = np.exp(1j * w.plane_wave_frequency(1, 1.0, eq))
            worst = max(worst, abs(traj.final.coeff(1) - expected))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    assert _line(1, "plane-wave exactness", ok,
                 f"max phase error {worst:.2e}, {elapsed:.2f}s")


# -- criterion 2 -------------------------------------------------------------

def test_criterion_2_gauge_equivalence():
    integ = w.IntegratorSpec("strang", dt=2e-3, t_end=1.0, snapshot_stride=500)
    worst = 0.0
    t0 = time.perf_counter()
    data = [random_l2_field(128, seed=100 + k) for k in range(20)]
    plain = w.evolve_batch(data, w.EquationSpec("nls", sign=1), integ)
    wick = w.evolve_batch(data, w.EquationSpec("wnls", sign=1), integ)
    for u0, tn, tw in zip(data, plain, wick):
        gauged = w.gauge(tn, tw.eq)
        diff = gauged.final - tw.final
        worst = max(worst, math.sqrt(w.pairing(diff, diff).real))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    assert _line(2, "gauge equivalence", ok,
                 f"max L2 distance {worst:.2e} over 20 samples, {elapsed:.1f}s")


# -- criterion 3 -------------------------------------------------------------

def test_criterion_3_resonant_split():
    rng = np.random.default_rng(7)
    worst_identity = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 12))
        c = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
        f = fld.TorusField(c, n)
        nonres, res = w.resonant_split(f)
        wick_term = w.nonlinearity(f, w.EquationSpec("wnls", sign=1))
        gap = np.max(np.abs((nonres + res - wick_term).coeffs))
        worst_identity = max(worst_identity, gap / max(1.0, np.max(np.abs(wick_term.coeffs))))

    worst_oracle = 0.0
    for seed, n in ((1, 16), (2, 16), (3, 8)):
        gen = np.random.default_rng(seed)
        c = gen.standard_normal(2 * n + 1) + 1j * gen.standard_normal(2 * n + 1)
        f = fld.TorusField(c, n)
        nonres, res = w.resonant_split(f)
        bf_nonres = triple_sum_nonresonant(c, n)
        bf_full = triple_sum_cubic(c, n)
        scale = np.max(np.abs(bf_full))
        worst_oracle = max(
            worst_oracle,
            np.max(np.abs(nonres.coeffs - bf_nonres)) / scale,
            np.max(np.abs(res.coeffs + (np.abs(c) ** 2) * c)) / scale,
        )
    ok = worst_identity <= 1e-12 and worst_oracle <= 1e-12
    assert _line(3, "resonant split", ok,
                 f"identity {worst_identity:.2e}, oracle {worst_oracle:.2e}")


# -- criterion 4 -------------------------------------------------------------

def test_criterion_4_conservation():
    # mass over 1e4 split-step steps
    u0 = fld.TorusField.from_modes({0: 0.7, 1: 0.5 + 0.2j, 2: 0.3j, -3: 0.4},
                                   max_mode=16)
    integ = w.IntegratorSpec("strang", dt=1e-3, t_end=10.0, snapshot_stride=500)
    mass = w.evolve(u0, w.EquationSpec("wnls", sign=1), integ).ledger["mass"]
    mass_drift = float(np.max(np.abs(mass - mass[0])) / mass[0])

    # Strang Hamiltonian drift: order 2 under dt halving
    u1 = fld.TorusField.from_modes({0: 0.6, 1: 0.4 + 0.3j, -2: 0.35, 3: 0.2j},
                                   max_mode=8)
    strang_drifts = []
    for dt in (2e-3, 1e-3):
        ig = w.IntegratorSpec("strang", dt=dt, t_end=1.0, snapshot_stride=round(0.02 / dt))
        h = w.evolve(u1, w.EquationSpec("wnls", sign=1), ig).ledger["hamiltonian"]
        strang_drifts.append(np.max(np.abs(h - h[0])))
    strang_ratio = float(strang_drifts[0] / strang_drifts[1])

    # RK4 Wick-Hamiltonian drift: order 4 under dt halving
    u2 = fld.TorusField.from_modes({0: 0.6, 1: 0.4 + 0.3j, -2: 0.35, 3: 0.2j},
                                   max_mode=4)
    eq4 = w.EquationSpec("truncated-wnls-hamiltonian", sign=1, truncation=4, alpha=1.0)
    rk4_drifts = []
    for dt in (5e-3, 2.5e-3):
        ig = w.IntegratorSpec("rk4", dt=dt, t_end=1.0, snapshot_stride=round(0.05 / dt))
        hw = w.evolve(u2, eq4, ig).ledger["wick_hamiltonian"]
        rk4_drifts.append(np.max(np.abs(hw - hw[0])))
    rk4_ratio = float(rk4_drifts[0] / rk4_drifts[1])

    ok = (mass_drift <= 1e-12 and 3.5 <= strang_ratio <= 4.5
          and 12.0 <= rk4_ratio <= 20.0)
    assert _line(4, "conservation", ok,
                 f"mass {mass_drift:.2e}, strang ratio {strang_ratio:.2f}, "
                 f"rk4 ratio {rk4_ratio:.2f}")


# -- criterion 5 -------------------------------------------------------------

def test_criterion_5_hermite_wick_identities():
    exact = w.hermite(2, 2.0, 1.0) == 3.0 and w.hermite(4, 1.0, 1.0) == -2.0

    xs, ys = np.meshgrid(np.linspace(-3, 3, 31), np.linspace(-3, 3, 31))
    chaos = (w.hermite(4, xs) + 2.0 * w.hermite(2, xs) * w.hermite(2, ys)
             + w.hermite(4, ys))
    chaos_gap = float(np.max(np.abs(w.wick_abs_fourth(xs + 1j * ys, 2.0) - chaos)))

    gen = np.random.Generator(np.random.Philox(key=np.array([5, 0], dtype=np.uint64)))
    z = gen.standard_normal((1_000_000, 2))
    g = z[:, 0] + 1j * z[:, 1]
    mc_ok = True
    mc_detail = []
    for values in (w.wick_abs_square(g, 2.0), w.wick_abs_fourth(g, 2.0)):
        stderr = values.std() / math.sqrt(len(values))
        mc_ok &= abs(values.mean()) <= 3.0 * stderr
        mc_detail.append(abs(values.mean()) / stderr)

    ok = exact and chaos_gap <= 1e-10 and mc_ok
    assert _line(5, "hermite/wick identities", ok,
                 f"chaos gap {chaos_gap:.2e}, mc means at "
                 f"{mc_detail[0]:.2f}/{mc_detail[1]:.2f} stderr")


# -- criterion 6 -------------------------------------------------------------

def test_criterion_6_hypercontractivity():
    main = w.hypercontractivity_check(2, 1, 4.0, samples=2_000_000, seed=3)
    ratio = main.lhs / (main.rhs / 3.0)  # empirical ||F||_4 / ||F||_2
    exact = 60.0**0.25 / math.sqrt(2.0)
    main_ok = abs(ratio / exact - 1.0) <= 0.02 and main.lhs <= main.rhs and main.passed

    cases = [
        (1, 1, 4.0, None),
        (2, 2, 4.0, [(1.0, (1, 1))]),
        (2, 2, 6.0, [(1.0, (2,)), (1.0, (0, 2))]),
        (3, 1, 4.0, None),
        (4, 2, 3.0, [(1.0, (4,)), (0.5, (2, 2))]),
    ]
    further_ok = True
    for i, (n, d, q, terms) in enumerate(cases):
        rep = w.hypercontractivity_check(n, d, q, samples=400_000, seed=11 + i,
                                         terms=terms)
        further_ok &= rep.passed
    ok = main_ok and further_ok
    assert _line(6, "hypercontractivity", ok,
                 f"ratio {ratio:.4f} vs exact {exact:.4f}, "
                 f"5 further cases below bound: {further_ok}")


# -- criteria 7 and 8 share the contrast run --------------------------------

@pytest.fixture(scope="module")
def contrast_report():
    spec = w.WeakSequenceSpec(
        base=fld.TorusField.single_mode(1, 1.0),
        bump_amplitude=1.0,
        mode_list=(4, 8, 16, 32, 64),
        probe=fld.TorusField.single_mode(1, 1.0),
        horizon=1.0,
        eq=w.EquationSpec("wnls", sign=1),
        integrator=w.IntegratorSpec("strang", dt=1e-3, t_end=1.0, snapshot_stride=50),
    )
    assert spec.resolved_band() == 256
    t0 = time.perf_counter()
    report = w.phase_defect_contrast_run(spec, threads=4)
    return report, time.perf_counter() - t0


def test_criterion_7_weak_continuity(contrast_report):
    report, elapsed = contrast_report
    gaps = dict(zip(report.get_series("wnls_gap_sup").index,
                    report.get_series("wnls_gap_sup").values))
    modes = sorted(gaps)
    series = [gaps[n] for n in modes]
    rho = float(stats.spearmanr(modes, series).statistic)
    ratio = series[-1] / series[0]
    ok = rho < -0.8 and ratio <= 0.2 and elapsed < 300.0
    assert _line(7, "weak continuity decay", ok,
                 f"spearman {rho:.2f}, G(64)/G(4) {ratio:.4f}, {elapsed:.0f}s")


def test_criterion_8_phase_defect_contrast(contrast_report):
    report, _ = contrast_report
    predicted = report.details["predicted_plateau"]
    measured = report.details["measured_plateau"]
    rel = abs(measured / predicted - 1.0)
    wnls_ok = (report.verdicts["wnls_gap_decay_trend"]
               and report.verdicts["wnls_gap_decay_ratio"])
    ok = rel <= 0.2 and wnls_ok
    assert _line(8, "phase-defect contrast", ok,
                 f"plateau {measured:.4f} vs predicted {predicted:.4f} "
                 f"({100 * rel:.2f}%), wick decay {wnls_ok}")


# -- criterion 9 -------------------------------------------------------------

def test_criterion_9_random_data_statistics():
    spec = w.RandomDataSpec(alpha=1.0, max_mode=16, seed=0)
    vals = np.fromiter((w.mean_intensity(u) for u in w.sample_ensemble(spec, 100_000)),
                       dtype=float)
    stderr = vals.std() / math.sqrt(len(vals))
    sigmas = abs(vals.mean() - w.renormalization_constant(16, 1.0)) / stderr
    mean_ok = sigmas <= 3.0

    white = w.RandomDataSpec(alpha=0.0, max_mode=256, seed=1)
    rows = w.regularity_profile(white, [0.0], [16, 32, 64, 128, 256], samples=4000)
    meds = np.array([r["median"] for r in rows])
    cutoffs = np.array([r["cutoff"] for r in rows], dtype=float)
    slope = float(np.polyfit(np.log(cutoffs), np.log(meds), 1)[0])
    slope_ok = abs(slope - 0.5) <= 0.05

    free = w.RandomDataSpec(alpha=1.0, max_mode=64, seed=2)
    rows1 = w.regularity_profile(free, [0.0], [16, 64], samples=100_000)
    ratio_sq = (rows1[1]["median"] / rows1[0]["median"]) ** 2
    deterministic = (w.renormalization_constant(64, 1.0)
                     / w.renormalization_constant(16, 1.0))
    sat_rel = abs(ratio_sq / deterministic - 1.0)
    sat_ok = sat_rel <= 0.02

    ok = mean_ok and slope_ok and sat_ok
    assert _line(9, "random data statistics", ok,
                 f"mean at {sigmas:.2f} stderr, slope {slope:.3f}, "
                 f"saturation off by {100 * sat_rel:.2f}%")


# -- criterion 10 ------------------------------------------------------------

@pytest.mark.xfail(
    strict=True,
    reason="defect in the stated criterion: the 1D weight sum with exponent 2 "
           "converges to pi*coth(pi), so its ratio to log N varies ~40% "
           "between N=1e3 and 1e5; the log-growing 1D sum is the exponent-1 "
           "weight, checked below and stable to <1%.")
def test_criterion_10_log_growth_as_stated():
    # companion fact: the exponent-1 weight has the stated property
    b3 = w.renormalization_constant(1000, 0.5) / math.log(1e3)
    b5 = w.renormalization_constant(100_000, 0.5) / math.log(1e5)
    assert abs(b5 / b3 - 1.0) < 0.10  # the 1D logarithmic analogue holds

    r3 = w.renormalization_constant(1000, 1.0) / math.log(1e3)
    r5 = w.renormalization_constant(100_000, 1.0) / math.log(1e5)
    variation = abs(r5 / r3 - 1.0)
    _line(10, "renormalization constant ~ log N", variation < 0.10,
          f"alpha=1 ratio varies {100 * variation:.0f}% (sum converges to "
          f"pi coth pi = {math.pi / math.tanh(math.pi):.4f}); exponent-1 "
          f"analogue varies {100 * abs(b5 / b3 - 1.0):.2f}%")
    assert variation < 0.10


# -- criterion 11 ------------------------------------------------------------

def test_criterion_11_strichartz_stability():
    ens = w.RandomDataSpec(alpha=0.0, max_mode=64, seed=20)
    report = w.strichartz_ratio_probe(ens, 1.0, 100, threads=4)
    change = report.details["max_ratio_change"]
    ok = report.verdicts["max_ratio_stable_under_doubling"] and change <= 0.25
    assert _line(11, "strichartz ratio stability", ok,
                 f"max ratio change {100 * change:.2f}% under 64->128 doubling")
