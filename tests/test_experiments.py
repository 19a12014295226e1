import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from wicknls import experiments as xp
from wicknls import field as fld
from wicknls import random_data as rnd
from wicknls.dynamics import EquationSpec, IntegratorSpec, linear_propagator

from oracles import quadruple_sum_free_l4

TWO_PI = 2.0 * np.pi


def small_spec(eq=None, bump=1.0, modes=(3, 9), horizon=0.5, dt=2e-3):
    return xp.WeakSequenceSpec(
        base=fld.TorusField.single_mode(1, 1.0),
        bump_amplitude=bump,
        mode_list=modes,
        probe=fld.TorusField.single_mode(1, 1.0),
        horizon=horizon,
        eq=eq or EquationSpec("wnls", sign=1),
        integrator=IntegratorSpec("strang", dt=dt, t_end=horizon, snapshot_stride=25),
    )


class TestWeakSequenceSpec:
    def test_band_rule(self):
        assert small_spec().resolved_band() == 36

    def test_rejects_zero_probe(self):
        with pytest.raises(ValueError):
            xp.WeakSequenceSpec(
                base=fld.TorusField.single_mode(1, 1.0), bump_amplitude=1.0,
                mode_list=(2,), probe=fld.TorusField.zeros(1), horizon=1.0,
                eq=EquationSpec("wnls", sign=1),
                integrator=IntegratorSpec("strang", dt=0.01, t_end=1.0))

    def test_rejects_small_truncation(self):
        with pytest.raises(ValueError):
            small_spec(eq=EquationSpec("truncated-wnls-gauged", sign=1, truncation=8))

    def test_rejects_bad_modes(self):
        with pytest.raises(ValueError):
            small_spec(modes=(0, 2))
        with pytest.raises(ValueError):
            small_spec(modes=(2, 2))


class TestWeakContinuityRun:
    def test_zero_bump_zero_gaps(self):
        report = xp.weak_continuity_run(small_spec(bump=0.0))
        assert all(v == 0.0 for v in report.get_series("gap_sup").values)
        assert report.verdict

    def test_wick_gaps_decay(self):
        report = xp.weak_continuity_run(small_spec(), threads=2)
        gaps = report.get_series("gap_sup").values
        assert gaps[1] < 0.2 * gaps[0]
        assert report.verdicts["gap_decay_trend"] and report.verdicts["gap_decay_ratio"]

    def test_plain_equation_plateau(self):
        report = xp.weak_continuity_run(small_spec(eq=EquationSpec("nls", sign=1)),
                                        threads=2)
        assert set(report.verdicts) == {"gap_plateau"}
        assert report.verdicts["gap_plateau"]

    def test_forced_decay_verdict_fails_for_plain(self):
        report = xp.weak_continuity_run(small_spec(eq=EquationSpec("nls", sign=1)),
                                        threads=2, verdict_mode="decay")
        assert not report.verdict

    def test_mode_order_irrelevant(self):
        a = xp.weak_continuity_run(small_spec(modes=(3, 9)))
        b = xp.weak_continuity_run(small_spec(modes=(9, 3)))
        ga = dict(zip(a.get_series("gap_sup").index, a.get_series("gap_sup").values))
        gb = dict(zip(b.get_series("gap_sup").index, b.get_series("gap_sup").values))
        assert ga == gb
        assert a.verdicts == b.verdicts

    def test_global_phase_rotation_invariance(self):
        theta = 0.83
        rot = np.exp(1j * theta)
        base = small_spec()
        rotated = xp.WeakSequenceSpec(
            base=rot * base.base, bump_amplitude=rot * base.bump_amplitude,
            mode_list=base.mode_list, probe=rot * base.probe, horizon=base.horizon,
            eq=base.eq, integrator=base.integrator)
        ga = xp.weak_continuity_run(base).get_series("gap_sup").values
        gb = xp.weak_continuity_run(rotated).get_series("gap_sup").values
        assert np.allclose(ga, gb, rtol=1e-10)

    def test_series_tagged(self):
        report = xp.weak_continuity_run(small_spec(bump=0.0))
        names = {s.name for s in report.series}
        assert {"gap_sup", "weak_l4_proxy", "strong_l4_gap", "strong_l6_gap",
                "mu_defect"} <= names
        for s in report.series:
            assert s.unit and len(s.spec_hash) == 12

    def test_defect_series(self):
        report = xp.weak_continuity_run(small_spec(bump=2.0))
        assert np.allclose(report.get_series("mu_defect").values, 4.0, rtol=1e-12)


class TestPhaseDefectContrast:
    def test_verdicts_and_prediction(self):
        report = xp.phase_defect_contrast_run(small_spec(), threads=2)
        assert report.verdict
        pred = report.details["predicted_plateau"]
        meas = report.details["measured_plateau"]
        assert abs(meas / pred - 1.0) <= 0.2

    def test_gauge_identity_on_bump_data(self):
        # the two branches of the contrast satisfy the gauge identity per
        # bump: e^{-2 i mu_n t} u_n^{plain}(t) = u_n^{shifted}(t)
        from wicknls.dynamics import evolve, gauge_transform
        from wicknls.field import mean_intensity, norm, NormSpec

        spec = small_spec()
        u0n = spec.initial_data(3)
        integ = spec.integrator
        plain = evolve(u0n, EquationSpec("nls", sign=1), integ)
        shifted = evolve(u0n, EquationSpec("wnls", sign=1), integ)
        gauged = gauge_transform(plain, mean_intensity(u0n), 1)
        worst = max(norm(a - b, NormSpec.l2())
                    for a, b in zip(gauged.snapshots, shifted.snapshots))
        assert worst < 1e-10

    def test_zero_bump(self):
        report = xp.phase_defect_contrast_run(small_spec(bump=0.0))
        assert report.details["predicted_plateau"] == 0.0
        assert report.verdict

    def test_sign_flip_same_modulus(self):
        # |e^{-i theta} - 1| = |e^{i theta} - 1|: both signs give the same
        # plateau prediction and (by symmetry of the family) the same gaps
        plus = xp.phase_defect_contrast_run(small_spec(eq=EquationSpec("wnls", 1)))
        minus = xp.phase_defect_contrast_run(small_spec(eq=EquationSpec("wnls", -1)))
        assert plus.details["predicted_plateau"] == pytest.approx(
            minus.details["predicted_plateau"], rel=1e-6)


class TestStrichartzProbe:
    def test_single_mode_closed_form(self):
        f = fld.TorusField.single_mode(1, 1.0)
        got = xp.free_flow_l4_norm(f, 1.0) / math.sqrt(fld.pairing(f, f).real)
        assert got == pytest.approx((4.0 * math.pi) ** 0.25 / math.sqrt(TWO_PI),
                                    rel=1e-12)

    def test_matches_spacetime_norm(self):
        rng = np.random.default_rng(2)
        f = fld.TorusField(rng.standard_normal(9) + 1j * rng.standard_normal(9), 4)
        t_hor, steps = 0.5, 64
        dt = 2.0 * t_hor / steps
        times = -t_hor + dt * np.arange(steps + 1)

        class Traj:
            pass

        traj = Traj()
        traj.times = times
        traj.snapshots = [linear_propagator(f, t) for t in times]
        assert xp.free_flow_l4_norm(f, t_hor, time_step=dt) == pytest.approx(
            fld.spacetime_l4_norm(traj), rel=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 5), st.floats(1e-3, 1.0), st.integers(0, 2**32 - 1))
    def test_exact_matches_quadruple_sum(self, band, t_hor, seed):
        rng = np.random.default_rng(seed)
        n = 2 * band + 1
        f = fld.TorusField(rng.standard_normal(n) + 1j * rng.standard_normal(n), band)
        expected = quadruple_sum_free_l4(f.coeffs, band, t_hor)
        assert xp.free_flow_l4_norm(f, t_hor) ** 4 == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rectangle_rule_first_order(self, seed):
        # |W| = |n1^2 - n2^2 + n3^2 - n4^2| <= 2 N^2 = 32 at band 4, so even the
        # largest step has dt |W| <= 0.32 and all four lie in the asymptotic range
        rng = np.random.default_rng(seed)
        f = fld.TorusField(rng.standard_normal(9) + 1j * rng.standard_normal(9), 4)
        dts = np.array([1e-2, 5e-3, 2.5e-3, 1.25e-3])
        exact = xp.free_flow_l4_norm(f, 0.5)
        errors = [abs(xp.free_flow_l4_norm(f, 0.5, time_step=dt) - exact) for dt in dts]
        order = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert 0.9 <= order <= 1.1

    def test_periodic_preapplication_invariance(self):
        # S(2 pi) is the identity (integer frequencies), so pre-applying it
        # cannot change the ratio
        f = fld.TorusField.from_modes({0: 0.5, 2: 1.0j, -1: 0.25})
        a = xp.free_flow_l4_norm(f, 0.5)
        b = xp.free_flow_l4_norm(linear_propagator(f, TWO_PI), 0.5)
        assert a == pytest.approx(b, rel=1e-12)

    def test_probe_report(self):
        ens = rnd.RandomDataSpec(alpha=0.0, max_mode=8, seed=4)
        report = xp.strichartz_ratio_probe(ens, 0.5, 100, doubling=True, threads=2)
        assert "max_ratio_stable_under_doubling" in report.verdicts
        assert len(report.get_series("l4_ratio_band8").values) == 100
        assert len(report.get_series("l4_ratio_band16").values) == 100

    def test_probe_independent_of_threads(self):
        ens = rnd.RandomDataSpec(alpha=0.0, max_mode=8, seed=4)
        one = xp.strichartz_ratio_probe(ens, 0.5, 100, threads=1)
        two = xp.strichartz_ratio_probe(ens, 0.5, 100, threads=2)
        for name in ("l4_ratio_band8", "l4_ratio_band16"):
            assert one.get_series(name).values == two.get_series(name).values

    def test_zero_samples_skipped(self):
        ens = rnd.RandomDataSpec(alpha=0.0, max_mode=4, seed=5, gaussian_scale=0.0)
        report = xp.strichartz_ratio_probe(ens, 0.5, 100, doubling=False)
        assert len(report.get_series("l4_ratio_band4").values) == 0

    def test_validation(self):
        ens = rnd.RandomDataSpec(alpha=0.0, max_mode=4, seed=0)
        with pytest.raises(ValueError):
            xp.strichartz_ratio_probe(ens, 1.5, 100)
        with pytest.raises(ValueError):
            xp.strichartz_ratio_probe(ens, 0.5, 10)


class TestSpearman:
    @pytest.mark.parametrize("ties", [False, True])
    def test_matches_scipy(self, ties):
        rng = np.random.default_rng(7)
        for _ in range(50):
            size = int(rng.integers(3, 12))
            if ties:
                x, y = rng.integers(0, 4, size), rng.integers(0, 3, size)
                if np.ptp(x) == 0 or np.ptp(y) == 0:
                    continue
            else:
                x, y = rng.standard_normal(size), rng.standard_normal(size)
            assert xp._spearman_rho(x, y) == pytest.approx(
                stats.spearmanr(x, y).statistic, rel=1e-12, abs=1e-15)

    def test_constant_input_is_nan(self):
        assert math.isnan(xp._spearman_rho([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]))


class TestAprioriGrowth:
    def test_s_zero_ratio_is_one(self):
        # mass conservation: the L2 ratio stays 1 to roundoff
        ens = rnd.RandomDataSpec(alpha=1.0, max_mode=8, seed=6)
        report = xp.apriori_growth_probe(ens, 0.0, 0.5, samples=4, threads=2)
        for name in ("growth_ratio_band8", "growth_ratio_band16"):
            assert np.allclose(report.get_series(name).values, 1.0, atol=1e-10)

    def test_negative_s_bounded(self):
        ens = rnd.RandomDataSpec(alpha=0.35, max_mode=16, seed=7)
        report = xp.apriori_growth_probe(ens, -1.0 / 6.0, 0.5, samples=6, threads=2)
        assert report.verdicts["p99_bounded"]

    def test_validation(self):
        ens = rnd.RandomDataSpec(alpha=0.0, max_mode=4, seed=0)
        with pytest.raises(ValueError):
            xp.apriori_growth_probe(ens, 0.25, 0.5, samples=4)


class TestOrderStudy:
    def test_strang_second_order_on_two_modes(self):
        u0 = fld.TorusField.from_modes({0: 0.8, 1: 0.5}, max_mode=4)
        report = xp.integrator_order_study(u0, EquationSpec("wnls", sign=1),
                                           [8e-3, 4e-3, 2e-3], scheme="strang")
        assert 1.8 <= report.details["fitted_order"] <= 2.2
        assert report.verdict

    def test_strang_exact_on_plane_wave(self):
        u0 = fld.TorusField.single_mode(1, 1.0)
        report = xp.integrator_order_study(u0, EquationSpec("nls", sign=1),
                                           [8e-3, 4e-3, 2e-3], scheme="strang")
        assert report.verdicts == {"exact_to_roundoff": True}

    def test_rk4_fourth_order(self):
        u0 = fld.TorusField.single_mode(1, 1.0, max_mode=4)
        eq = EquationSpec("truncated-wnls-hamiltonian", sign=1, truncation=4,
                          alpha=1.0)
        report = xp.integrator_order_study(u0, eq, [1e-2, 5e-3, 2.5e-3], scheme="rk4")
        assert 3.8 <= report.details["fitted_order"] <= 4.2

    def test_validation(self):
        u0 = fld.TorusField.single_mode(1, 1.0)
        with pytest.raises(ValueError):
            xp.integrator_order_study(u0, EquationSpec("nls", sign=1), [1e-2, 2e-2, 4e-2])
        with pytest.raises(ValueError):
            xp.integrator_order_study(u0, EquationSpec("nls", sign=1), [1e-2, 5e-3])


class TestResolutionDoubling:
    def test_resolved_run_stable(self):
        u0 = fld.TorusField.from_modes({0: 0.4, 1: 0.3}, max_mode=8)
        integ = IntegratorSpec("strang", dt=2e-3, t_end=0.5, snapshot_stride=250)
        dist = xp.resolution_doubling_check(u0, EquationSpec("wnls", sign=1), integ)
        assert dist < 1e-10

    def test_truncated_rejected(self):
        u0 = fld.TorusField.single_mode(1, 1.0, max_mode=4)
        integ = IntegratorSpec("strang", dt=2e-3, t_end=0.5, snapshot_stride=250)
        with pytest.raises(ValueError):
            xp.resolution_doubling_check(
                u0, EquationSpec("truncated-nls", sign=1, truncation=4), integ)


class TestReportPlumbing:
    def test_thresholds_versioned(self):
        thr = xp.verdict_thresholds()
        assert thr["version"] == 1
        assert thr["weak_decay_ratio_max"] == 0.2

    def test_records_round_trip_shape(self):
        report = xp.weak_continuity_run(small_spec(bump=0.0))
        records = report.to_records()
        assert records[0]["record"] == "report"
        assert records[0]["verdicts"]
        assert all(r["record"] == "series" for r in records[1:])
        rows = report.summary_rows()
        assert all(len(row) == 5 for row in rows)
