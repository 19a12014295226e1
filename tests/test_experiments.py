import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from wicknls import dynamics as dyn
from wicknls import experiments as xp
from wicknls import field as fld
from wicknls import random_data as rnd
from wicknls.dynamics import (EquationSpec, IntegratorSpec, evolve, evolve_batch,
                              linear_propagator)
from wicknls.serialization import spec_hash
from wicknls.wick import hypercontractivity_check

from oracles import quadruple_sum_free_l4

REPO = Path(__file__).resolve().parent.parent

TWO_PI = 2.0 * np.pi


def small_spec(eq=None, bump=1.0, modes=(3, 9), horizon=0.5, dt=2e-3, stride=25):
    return xp.WeakSequenceSpec(
        base=fld.TorusField.single_mode(1, 1.0),
        bump_amplitude=bump,
        mode_list=modes,
        probe=fld.TorusField.single_mode(1, 1.0),
        horizon=horizon,
        eq=eq or EquationSpec("wnls", sign=1),
        integrator=IntegratorSpec("strang", dt=dt, t_end=horizon, snapshot_stride=stride),
    )


# a spec field given a bool, an integral float or a fraction where it takes
# an integer: each must fail at once, naming the field
@pytest.mark.parametrize("field, build", [
    ("max_mode", lambda: fld.TorusField(np.zeros(5), 2.0)),
    ("max_mode", lambda: fld.TorusField(np.zeros(3), True)),
    ("mode_list", lambda: small_spec(modes=(4.5,))),
    ("working_band", lambda: replace(small_spec(), working_band=36.5)),
    ("snapshot_stride",
     lambda: IntegratorSpec("strang", dt=0.1, t_end=1.0, snapshot_stride=2.5)),
    ("snapshot_stride",
     lambda: IntegratorSpec("strang", dt=0.1, t_end=1.0, snapshot_stride=True)),
    ("truncation", lambda: EquationSpec("truncated-nls", truncation=4.5)),
    ("max_mode", lambda: rnd.RandomDataSpec(alpha=1.0, max_mode=4.5, seed=0)),
    ("samples", lambda: rnd.regularity_profile(rnd.RandomDataSpec(1.0, 8, 0), [0.0], [4],
                                               samples=10.0)),
    ("cutoffs", lambda: rnd.regularity_profile(rnd.RandomDataSpec(1.0, 8, 0), [0.0], [4.5],
                                               samples=10)),
    ("samples", lambda: hypercontractivity_check(2, 1, 4.0, samples=20000.0)),
    ("order", lambda: hypercontractivity_check(2.0, 1, 4.0, samples=20000)),
    ("seed", lambda: hypercontractivity_check(2, 1, 4.0, samples=20000, seed=True)),
], ids=["torus-float", "torus-bool", "mode-list", "working-band", "stride-float",
        "stride-bool", "truncation", "random-max-mode", "profile-samples", "profile-cutoffs",
        "hyper-samples", "hyper-order", "hyper-seed"])
def test_integer_fields_reject_non_integers(field, build):
    with pytest.raises(fld.SpecFieldError, match="must be an integer") as info:
        build()
    assert info.value.field == field


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

    @pytest.mark.parametrize("horizon", [np.inf, np.nan])
    def test_rejects_non_finite_horizon(self, horizon):
        with pytest.raises(xp.SpecFieldError, match="horizon must be finite"):
            xp.WeakSequenceSpec(
                base=fld.TorusField.single_mode(1, 1.0), bump_amplitude=1.0,
                mode_list=(2,), probe=fld.TorusField.single_mode(1, 1.0), horizon=horizon,
                eq=EquationSpec("wnls", sign=1),
                integrator=IntegratorSpec("strang", dt=0.01, t_end=1.0))

    def test_rejects_bad_modes(self):
        with pytest.raises(ValueError):
            small_spec(modes=(0, 2))
        with pytest.raises(ValueError):
            small_spec(modes=(2, 2))

    # 1e155: mu = 1e310 overflows; 1e154: mu = 1e308 is finite, 2 pi mu is
    # not. The error alone reports the overflow: it raises no RuntimeWarning.
    @pytest.mark.parametrize("bump", [1e155, 1e154, 1e154j])
    def test_rejects_a_bump_of_infinite_mass(self, bump):
        with pytest.raises(xp.SpecFieldError, match=r"mode-3 bump .*\(got inf\)") as info:
            small_spec(bump=bump)
        assert info.value.field == "bump_amplitude"

    def test_rejects_a_base_of_infinite_mass(self):
        with pytest.raises(xp.SpecFieldError, match="base") as info:
            replace(small_spec(), base=fld.TorusField.single_mode(1, 1e154))
        assert info.value.field == "base"

    def test_integrator_runs_to_the_horizon(self):
        # the spec's integrator takes t_end = horizon when built, so two specs
        # that run alike hash alike, and a grid that misses the horizon is
        # refused at once, naming it
        spec = small_spec()
        longer = replace(spec, integrator=replace(spec.integrator, t_end=1.0))
        assert longer.integrator == spec.integrator
        assert spec_hash(longer.to_dict()) == spec_hash(spec.to_dict())
        with pytest.raises(xp.SpecFieldError, match="dt must divide t_end") as info:
            replace(longer, horizon=0.3333)
        assert info.value.field == "horizon"

    def test_accepts_a_finite_mass_near_the_limit(self):
        # 2 pi (1 + 1e304) is finite: such a datum is stepped, not refused
        assert small_spec(bump=1e152).bump_amplitude == 1e152


class TestWeakContinuityRun:
    def test_zero_bump_zero_gaps(self):
        report = xp.weak_continuity_run(small_spec(bump=0.0))
        assert all(v == 0.0 for v in report.get_series("gap_sup").values)
        assert report.verdict

    def test_wick_gaps_decay(self):
        report = xp.weak_continuity_run(small_spec())
        gaps = report.get_series("gap_sup").values
        assert gaps[1] < 0.2 * gaps[0]
        assert report.verdicts["gap_decay_trend"] and report.verdicts["gap_decay_ratio"]

    def test_plain_equation_plateau(self):
        report = xp.weak_continuity_run(small_spec(eq=EquationSpec("nls", sign=1)))
        assert set(report.verdicts) == {"gap_plateau"}
        assert report.verdicts["gap_plateau"]

    def test_forced_decay_verdict_fails_for_plain(self):
        report = xp.weak_continuity_run(small_spec(eq=EquationSpec("nls", sign=1)),
                                        verdict_mode="decay")
        assert not report.verdict

    def test_unknown_verdict_mode_is_refused_before_stepping(self, monkeypatch):
        calls = []
        monkeypatch.setattr(xp, "_evolve_runs", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="verdict mode must be one of"):
            xp.weak_continuity_run(small_spec(), verdict_mode="bogus")
        assert calls == []

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
        from wicknls.dynamics import evolve, gauge
        from wicknls.field import norm, NormSpec

        spec = small_spec()
        u0n = spec.initial_data(3)
        integ = spec.integrator
        plain = evolve(u0n, EquationSpec("nls", sign=1), integ)
        shifted = evolve(u0n, EquationSpec("wnls", sign=1), integ)
        gauged = gauge(plain, shifted.eq)
        worst = max(norm(a - b, NormSpec.l2())
                    for a, b in zip(gauged.snapshots, shifted.snapshots))
        assert worst < 1e-10

    def test_zero_bump(self):
        report = xp.phase_defect_contrast_run(small_spec(bump=0.0))
        assert report.details["predicted_plateau"] == 0.0
        assert report.verdict

    @pytest.mark.parametrize("eq", [EquationSpec("wnls", 1), EquationSpec("wnls", -1),
                                    EquationSpec("truncated-wnls-gauged", 1, truncation=40)],
                             ids=["wnls+", "wnls-", "truncated-wnls-gauged"])
    @pytest.mark.parametrize("scheme", ["strang", "rk4"])
    def test_one_stack_equals_one_run_per_family(self, monkeypatch, eq, scheme):
        # one two-spec _weak_run call against one call per spec, value for value
        spec = small_spec(eq=eq, modes=(3, 9, 10), horizon=0.1)
        spec = replace(spec, integrator=replace(spec.integrator, scheme=scheme, dt=1e-3))
        one = xp.phase_defect_contrast_run(spec)
        single = xp._weak_run
        monkeypatch.setattr(xp, "_weak_run", lambda *specs: [r for s in specs
                                                             for r in single(s)])
        two = xp.phase_defect_contrast_run(spec)
        assert one.to_records() == two.to_records()
        assert one.details == two.details and one.verdicts == two.verdicts
        # two families of opposite sign, too, step as one stack; the
        # prediction reads each family's base run over the whole time axis
        specs = (spec, replace(spec, eq=replace(eq, sign=-eq.sign)))
        for (joint, joint_pred), (alone, alone_pred) in zip(single(*specs),
                                                            [single(s)[0] for s in specs]):
            assert list(joint) == list(alone) == [name for name, _ in xp._WEAK_STATS]
            for name in joint:
                assert np.array_equal(joint[name], alone[name])
            assert joint_pred == alone_pred

    @settings(max_examples=24, deadline=None)
    @given(scheme=st.sampled_from(["strang", "rk4"]), sign=st.sampled_from([1, -1]),
           variant=st.sampled_from(["wnls", "truncated-wnls-gauged",
                                    "truncated-wnls-hamiltonian"]),
           bump=st.complex_numbers(min_magnitude=0.5, max_magnitude=1.5))
    def test_gauged_family_equals_its_stepped_rows(self, scheme, sign, variant, bump):
        # a Wick family derived from its shift-free runs against the same
        # family stepped directly: with _shift_free the identity, _weak_run
        # hands _evolve_runs the Wick rows themselves and gauge maps nothing;
        # with _real always false it steps every backward row too, where the
        # derived side takes the real base's (and a real bump's) from time
        # reversal. The gap and the proxy are differences of pairings of size
        # 2 pi, so their roundoff is absolute (3e-14 here): bumps of
        # |c| >= 0.5 keep the gaps far enough above it for a relative bound.
        # The proxy |sum_t d(t) w(t) dt| can cancel to near zero at any |c|,
        # so its bound is taken on the scale of its terms, 2 T sup |d|
        eq = EquationSpec(variant, sign, truncation=None if variant == "wnls" else 24)
        spec = small_spec(eq=eq, bump=bump, modes=(2, 5, 6), horizon=0.1, dt=1e-3)
        spec = replace(spec, integrator=replace(spec.integrator, scheme=scheme))
        (derived, derived_pred), = xp._weak_run(spec)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(xp, "_shift_free", lambda eq: eq)
            mp.setattr(xp, "_real", lambda u: False)
            (stepped, stepped_pred), = xp._weak_run(spec)
        scale = {name: np.max(np.abs(stepped[name])) for name, _ in xp._WEAK_STATS}
        scale["weak_l4_proxy"] = 2.0 * spec.horizon * scale["gap_sup"]
        for name, _ in xp._WEAK_STATS:
            assert np.max(np.abs(derived[name] - stepped[name])) <= 1e-10 * scale[name], name
        assert abs(derived_pred - stepped_pred) <= 1e-10 * stepped_pred

    @pytest.mark.parametrize("bump, rows", [(1.0, 6), (0.6 + 0.8j, 11)], ids=["real", "complex"])
    def test_contrast_steps_each_datum_once(self, monkeypatch, bump, rows):
        # the plain and Wick families share their runs, and a real datum with
        # the real probe runs forward only: its backward run is the time
        # reversal of its forward run. So the base and five real bumps are 6
        # plain rows; with a complex bump, the bumps also run backward: 11
        spec = small_spec(bump=bump, modes=(4, 8, 16, 32, 64), horizon=0.01, dt=1e-3,
                          stride=5)
        stepped = []
        evolve_runs = xp._evolve_runs

        def counted(runs, probes):
            stepped.extend(runs)
            return evolve_runs(runs, probes)

        monkeypatch.setattr(xp, "_evolve_runs", counted)
        report = xp.phase_defect_contrast_run(spec)
        assert len(stepped) == rows
        assert sum(integ.t_end < 0 for _, _, integ in stepped) == rows - 6
        assert {eq.variant.value for _, eq, _ in stepped} == {"nls"}
        assert len(report.get_series("wnls_gap_sup").values) == 5

    @pytest.mark.parametrize("bump", [1.0, 0.6 + 0.8j], ids=["real", "complex"])
    def test_contrast_synthesizes_each_datum_once(self, monkeypatch, bump):
        # the strong gaps synthesize each datum at the 2S-2 points -T..T-h
        # once, for a backward run derived by time reversal as for a stepped
        # one, and the Wick family reuses the plain family's grids: the
        # benchmark's contrast shape, 6 data and S = 6 snapshots a run, is 60
        # rows, as many as the plain family alone
        spec = small_spec(bump=bump, modes=(4, 8, 16, 32, 64), horizon=0.25, dt=1e-3,
                          stride=50)
        rows = []
        synthesis = fld._synthesis

        def counted(block, m):
            rows.append(len(block))
            return synthesis(block, m)

        monkeypatch.setattr(fld, "_synthesis", counted)
        xp.phase_defect_contrast_run(spec)
        contrast = sum(rows)
        rows.clear()
        xp.weak_continuity_run(replace(spec, eq=EquationSpec("nls", sign=1)))
        assert contrast == sum(rows) == 6 * (2 * 6 - 2) == 60

    def test_failed_row_is_reported_as_its_spec_run(self):
        # RK4 past its step on the Hamiltonian family (the mass drifts by
        # 8.2e-4 to t = 0.06, 1.08e-3 to 0.08): stepped as truncated-nls, the
        # failed row fails at the same step as the row stepped directly, and
        # is reported through the gauge as a run of the spec's own equation
        eq = EquationSpec("truncated-wnls-hamiltonian", 1, truncation=128)
        spec = small_spec(eq=eq, bump=2.0, modes=(4, 8, 16, 32), horizon=1.0, dt=0.02,
                          stride=1)
        spec = replace(spec, integrator=replace(spec.integrator, scheme="rk4"))
        with pytest.raises(dyn.IntegrationDivergedError) as derived:
            xp._weak_run(spec)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(xp, "_shift_free", lambda eq: eq)
            with pytest.raises(dyn.IntegrationDivergedError) as stepped:
                xp._weak_run(spec)
        got, want = derived.value.trajectory, stepped.value.trajectory
        assert str(derived.value) == str(stepped.value)
        assert derived.value.last_valid_time == stepped.value.last_valid_time
        assert got.eq == want.eq == eq and got.integrator == want.integrator
        assert "wick_hamiltonian" in got.ledger
        np.testing.assert_array_equal(got.times, want.times)
        assert len(got.times) > 1  # snapshots past t = 0, where the gauge acts
        scale = np.max(np.abs(want.coeffs))
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-10 * scale
        assert np.max(np.abs(got.probes["phi"] - want.probes["phi"])) <= 1e-10 * scale

    def test_mode_order_irrelevant(self):
        # the base holds bump mode 4, so the two bumps' defects differ and the
        # prediction must take the top mode's, wherever it is listed
        def report(modes):
            spec = replace(small_spec(modes=modes, horizon=0.2, dt=1e-3),
                           base=fld.TorusField.from_modes({1: 1.0, 4: 0.5}))
            spec = replace(spec, integrator=replace(spec.integrator, snapshot_stride=50))
            return xp.phase_defect_contrast_run(spec)

        a, b = report((4, 8)), report((8, 4))
        for s in a.series:
            t = b.get_series(s.name)
            assert dict(zip(s.index, s.values)) == dict(zip(t.index, t.values))
        assert a.details == b.details and a.verdicts == b.verdicts
        assert b.verdicts["nls_plateau_matches_prediction"]

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("bump", [0.5, 1.0, 1.2j, 1.0 - 0.8j, 1.7])
    def test_prediction_closed_form(self, sign, bump):
        # base and probe e^{ix}: |<u_ref(t), phi>| = 2 pi and the defect is
        # delta = |c|^2, so the prediction is 2 pi max_t |e^{2 i delta t} - 1|
        # = 2 pi 2 sin(delta T) while delta T <= pi/2 (the grid holds t = +-T)
        spec = small_spec(eq=EquationSpec("wnls", sign), bump=bump)
        delta = abs(bump) ** 2
        assert delta * spec.horizon <= math.pi / 2
        predicted = xp.phase_defect_contrast_run(spec).details["predicted_plateau"]
        assert predicted == pytest.approx(TWO_PI * 2.0 * math.sin(delta * spec.horizon),
                                          rel=1e-12)

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

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 5), st.floats(1e-3, 1.0), st.integers(0, 2**32 - 1))
    def test_exact_matches_quadruple_sum(self, band, t_hor, seed):
        rng = np.random.default_rng(seed)
        n = 2 * band + 1
        f = fld.TorusField(rng.standard_normal(n) + 1j * rng.standard_normal(n), band)
        expected = quadruple_sum_free_l4(f.coeffs, band, t_hor)
        assert xp.free_flow_l4_norm(f, t_hor) ** 4 == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 40), st.floats(1e-6, 1.0), st.integers(0, 2**32 - 1),
           st.lists(st.integers(0, 2), min_size=1, max_size=24))
    def test_block_rows_match_one_row_calls(self, band, t_hor, seed, picks):
        # any subset, order and repeats of three fields: group boundaries of
        # the work buffer fall anywhere, and no row may notice its neighbours
        rng = np.random.default_rng(seed)
        n = 2 * band + 1
        source = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        got = xp._free_flow_l4_exact(source[picks], t_hor)
        alone = {k: xp._free_flow_l4_exact(source[k:k + 1], t_hor) for k in set(picks)}
        for r, k in enumerate(picks):
            assert got[r:r + 1].tobytes() == alone[k].tobytes()
        for k, value in alone.items():
            expected = quadruple_sum_free_l4(source[k], band, t_hor)
            assert value[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("t_hor", [1e-6, 0.3, 1.0])
    @pytest.mark.parametrize("band", [0, 1, 2, 3, 4, 5, 6, 7, 8, 16, 32, 64])
    def test_lag_classes_match_quadruple_sum(self, band, t_hor):
        # the kernel transforms the lags 1..band: bands 0-7 have fewer than
        # eight of them (none at band 0), so fewer than eight classes of one
        # lag each; band 8 has exactly eight, and from band 9 on a class holds
        # several lags
        rng = np.random.default_rng(band)
        n = 2 * band + 1
        block = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        got = xp._free_flow_l4_exact(block, t_hor)
        for row, value in zip(block, got):
            assert value == pytest.approx(quadruple_sum_free_l4(row, band, t_hor), rel=1e-12)

    def test_transform_budget(self, monkeypatch):
        # lags 1..32 of a band-32 field in eight classes of four, each at its
        # own length: 4 * (128 + 120 + 112 + 105 + 96 + 90 + 80 + 72) points
        points = []
        fft = np.fft.fft

        def counted(a, *args, **kwargs):
            points.append(np.asarray(a).size)
            return fft(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, "fft", counted)
        xp._free_flow_l4_exact(np.ones((1, 65), dtype=complex), 0.5)
        assert sum(points) == 3212

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 12), st.floats(0.0, 1.0, exclude_min=True, allow_subnormal=False),
           st.floats(-math.pi, math.pi), st.integers(0, 2**32 - 1))
    def test_invariances(self, band, t_hor, x0, seed):
        # reflection, translation and the Galilean shift of one mode keep
        # |S(t)f| up to a motion of x, so they keep the norm; each moves the
        # correlation terms R_m(d) between lags m and d differently
        rng = np.random.default_rng(seed)
        n = 2 * band + 1
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        moved = [c[::-1], np.exp(1j * x0 * np.arange(-band, band + 1)) * c]
        base = xp._free_flow_l4_exact(c[None, :], t_hor)[0]
        got = xp._free_flow_l4_exact(np.array(moved), t_hor)
        boosted = xp._free_flow_l4_exact(np.concatenate([[0.0, 0.0], c])[None, :], t_hor)
        for value in (*got, *boosted):
            assert value == pytest.approx(base, rel=1e-12)

    def test_memory_of_a_block(self):
        # 100 white-noise fields at band 64: the work buffers, the copies of
        # the block and numpy's iterator buffers; 1.27 MiB measured
        block = rnd.sample_block(rnd.RandomDataSpec(alpha=0.0, max_mode=64, seed=0),
                                 range(100))
        tracemalloc.start()
        try:
            xp._free_flow_l4_exact(block, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * 2**20

    @pytest.mark.parametrize("t_hor", [-0.5, float("nan"), float("inf"), float("-inf")])
    def test_norm_rejects_bad_horizon(self, t_hor):
        f = fld.TorusField.single_mode(1, 1.0)
        with pytest.raises(ValueError, match=repr(t_hor)):
            xp.free_flow_l4_norm(f, t_hor)

    def test_zero_horizon_gives_zero(self):
        f = fld.TorusField.from_modes({0: 0.5, 2: 1.0j, -1: 0.25})
        assert xp.free_flow_l4_norm(f, 0.0) == 0.0

    def test_probe_rejects_nan_horizon(self):
        ens = rnd.RandomDataSpec(alpha=0.0, max_mode=4, seed=0)
        with pytest.raises(ValueError, match="nan") as info:
            xp.strichartz_ratio_probe(ens, float("nan"), 100)
        assert info.value.field == "t_horizon"

    def test_probe_rejects_non_integral_samples(self):
        ens = rnd.RandomDataSpec(alpha=0.0, max_mode=4, seed=0)
        with pytest.raises(ValueError, match="100.5"):
            xp.strichartz_ratio_probe(ens, 0.5, 100.5)

    def test_periodic_preapplication_invariance(self):
        # S(2 pi) is the identity (integer frequencies), so pre-applying it
        # cannot change the ratio
        f = fld.TorusField.from_modes({0: 0.5, 2: 1.0j, -1: 0.25})
        a = xp.free_flow_l4_norm(f, 0.5)
        b = xp.free_flow_l4_norm(linear_propagator(f, TWO_PI), 0.5)
        assert a == pytest.approx(b, rel=1e-12)

    def test_probe_report(self):
        ens = rnd.RandomDataSpec(alpha=0.0, max_mode=8, seed=4)
        report = xp.strichartz_ratio_probe(ens, 0.5, 100, threads=2)
        assert "max_ratio_stable_under_doubling" in report.verdicts
        assert len(report.get_series("l4_ratio_band8").values) == 100
        assert len(report.get_series("l4_ratio_band16").values) == 100

    def test_probe_independent_of_threads(self):
        ens = rnd.RandomDataSpec(alpha=0.0, max_mode=8, seed=4)
        one = xp.strichartz_ratio_probe(ens, 0.5, 100, threads=1)
        two = xp.strichartz_ratio_probe(ens, 0.5, 100, threads=2)
        for name in ("l4_ratio_band8", "l4_ratio_band16"):
            assert one.get_series(name).values == two.get_series(name).values

    def test_probe_matches_per_sample_loop(self):
        ens = rnd.RandomDataSpec(alpha=0.0, max_mode=8, seed=4)
        report = xp.strichartz_ratio_probe(ens, 0.5, 100)
        for band in (8, 16):
            spec = rnd.RandomDataSpec(alpha=0.0, max_mode=band, seed=4)
            loop = []
            for k in range(100):
                f = rnd.sample(spec, k)
                loop.append(xp.free_flow_l4_norm(f, 0.5) / math.sqrt(fld.pairing(f, f).real))
            assert report.get_series(f"l4_ratio_band{band}").values == tuple(loop)

    def test_probe_matches_per_sample_loop_across_blocks(self, monkeypatch):
        # 1000 normals a block: 15 rows at band 16, in 7 blocks; band 8 reads
        # the centre columns of the same blocks
        monkeypatch.setattr(rnd, "_BLOCK_NORMALS", 1000)
        assert rnd._block_rows(rnd.RandomDataSpec(alpha=0.0, max_mode=16, seed=4)) == 15
        self.test_probe_matches_per_sample_loop()

    def test_zero_samples_skipped(self):
        ens = rnd.RandomDataSpec(alpha=0.0, max_mode=4, seed=5, gaussian_scale=0.0)
        report = xp.strichartz_ratio_probe(ens, 0.5, 100)
        assert len(report.get_series("l4_ratio_band4").values) == 0

    def test_validation(self):
        ens = rnd.RandomDataSpec(alpha=0.0, max_mode=4, seed=0)
        with pytest.raises(ValueError) as info:
            xp.strichartz_ratio_probe(ens, 1.5, 100)
        assert info.value.field == "t_horizon"
        with pytest.raises(ValueError) as info:
            xp.strichartz_ratio_probe(ens, 0.5, 10)
        assert info.value.field == "samples"


@pytest.mark.parametrize("probe", [
    lambda ens: xp.strichartz_ratio_probe(ens, 0.5, 100),
    lambda ens: xp.apriori_growth_probe(ens, -0.25, 0.1, 100),
], ids=["strichartz", "growth"])
def test_band_doubling_draws_each_sample_once(monkeypatch, probe):
    # one draw at band 16, in blocks of 15 rows; the band-8 rows are the
    # centre columns of those blocks, not a second draw
    draws = []

    def counted(spec, indices):
        draws.append((spec.max_mode, list(indices)))
        return sample_block(spec, indices)
    sample_block = rnd.sample_block
    monkeypatch.setattr(rnd, "sample_block", counted)
    monkeypatch.setattr(rnd, "_BLOCK_NORMALS", 1000)
    report = probe(rnd.RandomDataSpec(alpha=0.5, max_mode=8, seed=3))
    assert [band for band, _ in draws] == [16] * 7
    assert [k for _, rows in draws for k in rows] == list(range(100))
    assert [len(s.values) for s in report.series] == [100, 100]


@pytest.mark.parametrize("probe", [
    lambda ens: xp.strichartz_ratio_probe(ens, 0.5, 100),
    lambda ens: xp.apriori_growth_probe(ens, -0.25, 0.1, 100),
], ids=["strichartz", "growth"])
def test_band_zero_has_no_doubling(monkeypatch, probe):
    # doubling band 0 gives band 0 again: two series of one name, a verdict of
    # nothing; refused before any draw
    def refuse(*args):
        raise AssertionError("a sample was drawn")
    monkeypatch.setattr(rnd, "sample_block", refuse)
    with pytest.raises(fld.SpecFieldError, match="max_mode must be >= 1") as info:
        probe(rnd.RandomDataSpec(alpha=0.0, max_mode=0, seed=3))
    assert info.value.field == "max_mode"


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

    @pytest.mark.parametrize("scheme", ["strang", "rk4"])
    def test_probe_matches_per_sample_loop(self, scheme):
        ens = rnd.RandomDataSpec(alpha=0.5, max_mode=8, seed=9)
        integ = IntegratorSpec(scheme, dt=1e-3, t_end=0.1, snapshot_stride=20)
        s = -0.25
        report = xp.apriori_growth_probe(ens, s, 0.1, samples=5, integ=integ, sign=-1)
        norm_spec = fld.NormSpec.sobolev(s)
        eq = EquationSpec("wnls", sign=-1)
        for band in (8, 16):
            spec = replace(ens, max_mode=band)
            loop = []
            for k in range(5):
                u0 = rnd.sample(spec, k)
                worst = max(fld.norm(u, norm_spec) for u in evolve(u0, eq, integ).snapshots)
                loop.append(worst / fld.norm(u0, norm_spec))
            assert report.get_series(f"growth_ratio_band{band}").values == tuple(loop)

    @pytest.mark.parametrize("scheme", ["strang", "rk4"])
    def test_probe_matches_per_sample_loop_across_blocks(self, monkeypatch, scheme):
        # 132 normals a block: 2 rows at band 16, in 3 blocks; band 8 reads
        # the centre columns of the same blocks
        monkeypatch.setattr(rnd, "_BLOCK_NORMALS", 132)
        assert rnd._block_rows(rnd.RandomDataSpec(alpha=0.5, max_mode=16, seed=9)) == 2
        self.test_probe_matches_per_sample_loop(scheme)

    @pytest.mark.parametrize("scheme, dt, stride", [("strang", 2e-3, 5), ("rk4", 5e-4, 10)])
    def test_block_norms_match_per_snapshot_norms(self, scheme, dt, stride):
        # each snapshot's H^s norm as one 1-D sum, as field.norm once took it
        def h_s(c, s):
            w = 1.0 + np.abs(np.arange(-(len(c) // 2), len(c) // 2 + 1))
            return float(np.sqrt(np.sum(w ** (2.0 * s) * np.abs(c) ** 2)))

        ens = rnd.RandomDataSpec(alpha=0.5, max_mode=32, seed=5)
        integ = IntegratorSpec(scheme, dt=dt, t_end=0.05, snapshot_stride=stride)
        report = xp.apriori_growth_probe(ens, -0.25, 0.05, samples=12, integ=integ)
        for band in (32, 64):
            block = rnd.sample_block(replace(ens, max_mode=band), range(12))
            trajs = evolve_batch([fld.TorusField(c, band) for c in block],
                                 EquationSpec("wnls"), integ)
            want = tuple(max(h_s(c, -0.25) for c in traj.coeffs) / h_s(c0, -0.25)
                         for c0, traj in zip(block, trajs))
            assert report.get_series(f"growth_ratio_band{band}").values == want

    def test_validation(self):
        ens = rnd.RandomDataSpec(alpha=0.0, max_mode=4, seed=0)
        with pytest.raises(ValueError) as info:
            xp.apriori_growth_probe(ens, 0.25, 0.5, samples=4)
        assert info.value.field == "s"

    def test_default_integrator_fits_any_horizon_on_its_grid(self):
        # 25 steps of 2e-3: the default snapshot stride is gcd(10, 25) = 5
        ens = rnd.RandomDataSpec(alpha=0.3, max_mode=5, seed=1)
        report = xp.apriori_growth_probe(ens, -0.4, 0.05, 30)
        assert report.config["integrator"]["snapshot_stride"] == 5
        assert len(report.get_series("growth_ratio_band10").values) == 30

    @pytest.mark.parametrize("integ", [None, IntegratorSpec("rk4", dt=1e-3, t_end=0.1)])
    def test_horizon_off_the_time_grid_names_it(self, integ):
        ens = rnd.RandomDataSpec(alpha=0.0, max_mode=4, seed=0)
        with pytest.raises(xp.SpecFieldError, match="dt must divide t_end") as info:
            xp.apriori_growth_probe(ens, 0.0, 0.0503, samples=2, integ=integ)
        assert info.value.field == "t_horizon"

    @pytest.mark.parametrize("samples", [0, -3, 2.5])
    def test_rejects_a_sample_count_below_one_or_not_integral(self, samples):
        # 0 and -3 raised IndexError from np.percentile, 2.5 a TypeError
        ens = rnd.RandomDataSpec(alpha=0.0, max_mode=4, seed=0)
        with pytest.raises(ValueError, match=rf"\(got {samples}\)"):
            xp.apriori_growth_probe(ens, 0.0, 0.1, samples=samples)


class TestOrderStudy:
    def test_strang_second_order_on_two_modes(self):
        u0 = fld.TorusField.from_modes({0: 0.8, 1: 0.5}, max_mode=4)
        report = xp.integrator_order_study(u0, EquationSpec("wnls", sign=1),
                                           [8e-3, 4e-3, 2e-3], scheme="strang")
        assert 1.8 <= report.details["fitted_order"] <= 2.2
        assert report.verdict

    def test_truncated_study_compares_the_projected_data(self):
        # a plane wave on a band wider than the truncation runs, and is
        # compared, as its projection: the study equals the one on that data
        eq = EquationSpec("truncated-wnls-hamiltonian", truncation=4)
        dts = [1e-2, 5e-3, 2.5e-3]
        wide = xp.integrator_order_study(fld.TorusField.single_mode(1, 1.0, max_mode=8), eq,
                                         dts, scheme="rk4")
        narrow = xp.integrator_order_study(fld.TorusField.single_mode(1, 1.0, max_mode=4), eq,
                                           dts, scheme="rk4")
        assert wide.details == narrow.details and wide.verdict

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

    def test_rk4_fourth_order_on_rough_wick_data(self):
        # dt * N^2 = 2.0 at the largest step: classical RK4 fitted 1.72 here
        u0 = rnd.sample(rnd.RandomDataSpec(alpha=1, max_mode=32, seed=0), 0)
        report = xp.integrator_order_study(u0, EquationSpec("wnls"), [2e-3, 1e-3, 5e-4],
                                           scheme="rk4", t_end=0.5)
        assert report.verdicts == {"order_in_band": True}

    def test_validation(self):
        u0 = fld.TorusField.single_mode(1, 1.0)
        with pytest.raises(ValueError):
            xp.integrator_order_study(u0, EquationSpec("nls", sign=1), [1e-2, 2e-2, 4e-2])
        with pytest.raises(ValueError):
            xp.integrator_order_study(u0, EquationSpec("nls", sign=1), [1e-2, 5e-3])

    @pytest.mark.parametrize("dts, t_end, match, field", [
        ([0.1, 0.07, 0.05], 1.0, "dt must divide t_end", "dts"),
        ([0.1, 0.05, 0.025], 0.0, "t_end must be finite and > 0", "t_end"),
        ([0.1, 0.05, 0.025], -1.0, "t_end must be finite and > 0", "t_end"),
        ([0.1, 0.05, 0.025], math.nan, "t_end must be finite and > 0", "t_end"),
        ([0.1, 0.05, 0.025], math.inf, "t_end must be finite and > 0", "t_end"),
        # a subnormal or NaN step: no OverflowError or NaN-to-int ValueError
        ([1e-3, 5e-4, 1e-310], 1.0, "too small", "dts"),
        ([1e-3, math.nan, 5e-4], 1.0, "strictly decreasing", "dts"),
        # a t_end below every step: a grid of no step, once reported as exact
        ([1e-3, 5e-4, 2.5e-4], 5e-10, "dt must divide t_end", "dts"),
    ])
    def test_validates_before_the_first_run(self, monkeypatch, dts, t_end, match, field):
        calls = []
        monkeypatch.setattr(xp, "evolve", lambda *args, **kwargs: calls.append(args))
        u0 = fld.TorusField.from_modes({0: 0.8, 1: 0.5}, max_mode=4)  # needs a reference run
        with pytest.raises(xp.SpecFieldError, match=match) as info:
            xp.integrator_order_study(u0, EquationSpec("wnls"), dts, t_end=t_end)
        assert info.value.field == field
        assert calls == []


class TestResolutionDoubling:
    def test_resolved_run_stable(self):
        # the same data run at band N and at band 2N end within roundoff
        u0 = fld.TorusField.from_modes({0: 0.4, 1: 0.3}, max_mode=8)
        integ = IntegratorSpec("strang", dt=2e-3, t_end=0.5, snapshot_stride=250)
        eq = EquationSpec("wnls", sign=1)
        a = evolve(u0, eq, integ).final
        b = evolve(u0.padded_to(16), eq, integ).final
        n = max(a.max_mode, b.max_mode)
        assert fld.norm(a.padded_to(n) - b.padded_to(n), fld.NormSpec.l2()) < 1e-10


class TestReportPlumbing:
    def test_thresholds_versioned(self):
        thr = xp.verdict_thresholds()
        assert thr["version"] == 1
        assert thr["weak_decay_ratio_max"] == 0.2

    def test_import_leaves_pyyaml_unloaded(self):
        # the thresholds load PyYAML when first read, not when wicknls is imported
        code = ("import json, sys, wicknls\n"
                "assert 'yaml' not in sys.modules\n"
                "print(json.dumps(wicknls.verdict_thresholds()))")
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        shipped = yaml.safe_load(
            (REPO / "src" / "wicknls" / "data" / "verdict_thresholds.yaml").read_text())
        assert json.loads(proc.stdout) == shipped == xp.verdict_thresholds()

    def test_records_round_trip_shape(self):
        report = xp.weak_continuity_run(small_spec(bump=0.0))
        records = report.to_records()
        assert records[0]["record"] == "report"
        assert records[0]["verdicts"]
        assert all(r["record"] == "series" for r in records[1:])
        rows = report.summary_rows()
        assert all(len(row) == 5 for row in rows)
