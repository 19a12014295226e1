import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wicknls import dynamics as dyn
from wicknls import field as fld
from wicknls import random_data as rnd
from wicknls._kernels import fast_fft_size
from wicknls.wick import intensity_fluctuation, renormalization_constant, wick_hamiltonian

from oracles import (dense_quartic_integral, galerkin_rk4, strang_step, triple_sum_cubic,
                     triple_sum_nonresonant)

TWO_PI = 2.0 * np.pi


def random_field(max_mode, seed=0, scale=0.5):
    rng = np.random.default_rng(seed)
    c = scale * (rng.standard_normal(2 * max_mode + 1)
                 + 1j * rng.standard_normal(2 * max_mode + 1))
    return fld.TorusField(c, max_mode)


def final_distance(a, b):
    n = max(a.max_mode, b.max_mode)
    return float(np.max(np.abs((a.padded_to(n) - b.padded_to(n)).coeffs)))


class TestEquationSpec:
    def test_truncation_required_iff_truncated(self):
        with pytest.raises(ValueError):
            dyn.EquationSpec("truncated-nls", sign=1)
        with pytest.raises(ValueError):
            dyn.EquationSpec("nls", sign=1, truncation=8)
        with pytest.raises(ValueError):
            dyn.EquationSpec("nls", sign=2)

    def test_variant_coercion(self):
        eq = dyn.EquationSpec("wnls", sign=-1)
        assert eq.variant is dyn.Variant.WNLS and eq.mean_shifted

    @pytest.mark.parametrize("alpha", [math.nan, -1.0, math.inf])
    def test_alpha_must_be_finite_and_non_negative(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
            dyn.EquationSpec("truncated-wnls-hamiltonian", truncation=4, alpha=alpha)


class TestIntegratorSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            dyn.IntegratorSpec("euler", dt=0.1, t_end=1.0)
        with pytest.raises(ValueError):
            dyn.IntegratorSpec("strang", dt=-0.1, t_end=1.0)
        with pytest.raises(ValueError):
            dyn.IntegratorSpec("strang", dt=0.1, t_end=1.0, snapshot_stride=0)
        for dt, t_end in [(math.nan, 1.0), (math.inf, 1.0), (0.1, math.inf),
                          (0.1, -math.inf), (0.1, math.nan)]:
            with pytest.raises(ValueError):
                dyn.IntegratorSpec("strang", dt=dt, t_end=t_end)

    def test_step_divisibility(self):
        with pytest.raises(ValueError):
            dyn.IntegratorSpec("strang", dt=0.3, t_end=1.0).step_count()
        with pytest.raises(ValueError):
            dyn.IntegratorSpec("strang", dt=0.1, t_end=1.0, snapshot_stride=3).step_count()
        with pytest.raises(fld.SpecFieldError, match="too small") as subnormal:
            dyn.IntegratorSpec("strang", dt=1e-310, t_end=1.0).step_count()
        assert subnormal.value.field == "dt"
        assert dyn.IntegratorSpec("strang", dt=0.1, t_end=1.0,
                                  snapshot_stride=5).step_count() == 10


class TestNonlinearity:
    def test_plane_wave_wnls(self):
        # |u|^2 - 2 mu = -A^2 on a single mode
        f = fld.TorusField.single_mode(2, 1.5)
        out = dyn.nonlinearity(f, dyn.EquationSpec("wnls", sign=1))
        assert out.coeff(2) == pytest.approx(-(1.5**2) * 1.5, rel=1e-12)

    def test_plane_wave_nls(self):
        f = fld.TorusField.single_mode(-1, 2.0)
        out = dyn.nonlinearity(f, dyn.EquationSpec("nls", sign=1))
        assert out.coeff(-1) == pytest.approx(2.0**3, rel=1e-12)

    def test_matches_triple_sum_oracle(self):
        f = random_field(5, seed=1, scale=1.0)
        out = dyn.nonlinearity(f, dyn.EquationSpec("nls", sign=1))
        want = triple_sum_cubic(f.coeffs, 5)
        assert np.max(np.abs(out.coeffs - want)) < 1e-12 * np.max(np.abs(want))

    def test_truncated_projects(self):
        f = random_field(5, seed=2)
        eq = dyn.EquationSpec("truncated-nls", sign=1, truncation=3)
        out = dyn.nonlinearity(f, eq)
        assert out.max_mode == 3
        want = triple_sum_cubic(fld.project(f, 3).coeffs, 3)
        center = want[6:13]  # |n| <= 3 slice of the band-9 result
        assert np.max(np.abs(out.coeffs - center)) < 1e-12 * np.max(np.abs(want))


class TestResonantSplit:
    def test_single_mode(self):
        f = fld.TorusField.single_mode(3, 1.5 + 0.5j, max_mode=4)
        nonres, res = dyn.resonant_split(f)
        assert np.max(np.abs(nonres.coeffs)) < 1e-12
        expected = -(abs(1.5 + 0.5j) ** 2) * (1.5 + 0.5j)
        assert res.coeff(3) == pytest.approx(expected, rel=1e-12)

    def test_matches_restricted_triple_sum(self):
        f = random_field(4, seed=3, scale=1.0)
        nonres, res = dyn.resonant_split(f)
        want = triple_sum_nonresonant(f.coeffs, 4)
        assert np.max(np.abs(nonres.coeffs - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))
        diag = -(np.abs(f.coeffs) ** 2) * f.coeffs
        assert np.allclose(res.coeffs, diag, rtol=1e-14)

    def test_split_identity(self):
        # nonresonant + resonant = the mean-shifted cubic term, exactly
        f = random_field(6, seed=4, scale=1.0)
        nonres, res = dyn.resonant_split(f)
        wick_term = dyn.nonlinearity(f, dyn.EquationSpec("wnls", sign=1))
        total = nonres + res
        assert final_distance(total, wick_term) < 1e-12 * np.max(np.abs(wick_term.coeffs))


class TestLinearPropagator:
    def test_quarter_period(self):
        f = fld.TorusField.single_mode(1, 1.0)
        g = dyn.linear_propagator(f, math.pi)
        assert g.coeff(1) == pytest.approx(-1.0)

    def test_zero_mode_invariant(self):
        f = fld.TorusField.single_mode(0, 2.0)
        assert dyn.linear_propagator(f, 17.3).coeff(0) == pytest.approx(2.0)

    def test_unitary(self):
        f = random_field(8, seed=5)
        g = dyn.linear_propagator(f, 0.37)
        assert fld.norm(g, fld.NormSpec.l2()) == pytest.approx(
            fld.norm(f, fld.NormSpec.l2()), rel=1e-14)

    def test_group_property(self):
        f = random_field(6, seed=6)
        a = dyn.linear_propagator(dyn.linear_propagator(f, 0.2), 0.3)
        b = dyn.linear_propagator(f, 0.5)
        assert final_distance(a, b) < 1e-13


class TestConserved:
    def test_plane_wave(self):
        f = fld.TorusField.single_mode(1, 1.0)
        for sign in (1, -1):
            mass, momentum, ham = dyn.conserved(f, sign)
            assert mass == pytest.approx(TWO_PI)
            assert momentum == pytest.approx(TWO_PI)
            assert ham == pytest.approx(math.pi + sign * math.pi / 2.0)

    def test_zero_field(self):
        assert dyn.conserved(fld.TorusField.zeros(3), 1) == (0.0, 0.0, 0.0)

    def test_constant_field(self):
        f = fld.TorusField.single_mode(0, 1.0)
        mass, momentum, ham = dyn.conserved(f, -1)
        assert mass == pytest.approx(TWO_PI)
        assert momentum == 0.0
        assert ham == pytest.approx(-math.pi / 2.0)


class TestGalileanBoost:
    def test_identity(self):
        f = random_field(3, seed=7)
        assert dyn.galilean_boost(f, 0) is f

    def test_mode_shift(self):
        f = fld.TorusField.single_mode(1, 1.0)
        g = dyn.galilean_boost(f, 2)
        assert g.coeff(2) == 1.0 and fld.mean_intensity(g) == 1.0

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            dyn.galilean_boost(random_field(2), 3)

    def test_momentum_shift_identity(self):
        # P(u^beta) = (beta/2) N(u) + P(u)
        f = random_field(5, seed=8)
        for beta in (2, -4, 6):
            n0, p0, _ = dyn.conserved(f, 1)
            _, p1, _ = dyn.conserved(dyn.galilean_boost(f, beta), 1)
            assert p1 == pytest.approx((beta / 2.0) * n0 + p0, rel=1e-12)


class TestPlaneWaveEvolution:
    @pytest.mark.parametrize("variant,sign,expected_shift", [
        ("nls", 1, +1.0), ("nls", -1, -1.0),
        ("wnls", 1, -1.0), ("wnls", -1, +1.0),
    ])
    def test_frequency_table(self, variant, sign, expected_shift):
        eq = dyn.EquationSpec(variant, sign=sign)
        w = dyn.plane_wave_frequency(2, 1.0, eq)
        assert w == pytest.approx(4.0 + expected_shift)

    def test_renormalized_truncated_frequency(self):
        eq = dyn.EquationSpec("truncated-wnls-hamiltonian", sign=1, truncation=4,
                              alpha=1.0)
        w = dyn.plane_wave_frequency(1, 1.0, eq)
        assert w == pytest.approx(1.0 + 1.0 - 2.0 * renormalization_constant(4, 1.0))

    @pytest.mark.parametrize("variant", ["nls", "wnls"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_strang_phase_error(self, variant, sign):
        amp, mode = 1.0, 1
        eq = dyn.EquationSpec(variant, sign=sign)
        integ = dyn.IntegratorSpec("strang", dt=1e-3, t_end=1.0, snapshot_stride=1000)
        traj = dyn.evolve(fld.TorusField.single_mode(mode, amp), eq, integ)
        expected = amp * np.exp(1j * dyn.plane_wave_frequency(mode, amp, eq))
        assert abs(traj.final.coeff(mode) - expected) < 1e-8

    def test_rk4_plane_wave(self):
        eq = dyn.EquationSpec("truncated-nls", sign=1, truncation=4)
        integ = dyn.IntegratorSpec("rk4", dt=1e-3, t_end=1.0, snapshot_stride=1000)
        traj = dyn.evolve(fld.TorusField.single_mode(1, 1.0, max_mode=4), eq, integ)
        expected = np.exp(1j * dyn.plane_wave_frequency(1, 1.0, eq))
        assert abs(traj.final.coeff(1) - expected) < 1e-9

    def test_rk4_band64_plane_wave_stays_on_its_circle(self):
        # dt * 64^2 = 4.1 lies past classical RK4's stability limit 2.83 on
        # the imaginary axis; the integrating factor takes n^2 out of RK4
        eq = dyn.EquationSpec("wnls", sign=1)
        integ = dyn.IntegratorSpec("rk4", dt=1e-3, t_end=1.0, snapshot_stride=10)
        traj = dyn.evolve(fld.TorusField.single_mode(3, 0.5, max_mode=64), eq, integ)
        assert traj.times[-1] == pytest.approx(1.0)
        assert max(abs(abs(u.coeff(3)) - 0.5) for u in traj.snapshots) <= 1e-12

    def test_zero_data(self):
        eq = dyn.EquationSpec("wnls", sign=1)
        integ = dyn.IntegratorSpec("strang", dt=0.01, t_end=0.1, snapshot_stride=10)
        traj = dyn.evolve(fld.TorusField.zeros(4), eq, integ)
        assert all(fld.mean_intensity(u) == 0.0 for u in traj.snapshots)

    def test_backward_run_increasing_times(self):
        eq = dyn.EquationSpec("nls", sign=1)
        integ = dyn.IntegratorSpec("strang", dt=0.01, t_end=-0.5, snapshot_stride=10)
        traj = dyn.evolve(fld.TorusField.single_mode(1, 1.0), eq, integ)
        assert traj.times[0] == pytest.approx(-0.5)
        assert np.all(np.diff(traj.times) > 0)
        expected = np.exp(-1j * dyn.plane_wave_frequency(1, 1.0, eq) * 0.5)
        assert abs(traj.snapshots[0].coeff(1) - expected) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(variant=st.sampled_from(list(dyn.Variant)), sign=st.sampled_from([1, -1]),
           mode=st.integers(-4, 4), amplitude=st.floats(0.1, 2.0),
           phase=st.floats(0.0, 2.0 * math.pi), dt=st.floats(1e-3, 2e-2),
           steps=st.integers(1, 40), backward=st.booleans())
    def test_strang_exact_on_single_mode(self, variant, sign, mode, amplitude, phase,
                                         dt, steps, backward):
        # both substeps are exact flows on A e^{inx}, so Strang is exact at any dt
        amp = amplitude * complex(math.cos(phase), math.sin(phase))
        eq = dyn.EquationSpec(variant, sign=sign,
                              truncation=4 if variant.value.startswith("truncated") else None)
        t_end = -steps * dt if backward else steps * dt
        integ = dyn.IntegratorSpec("strang", dt=dt, t_end=t_end, snapshot_stride=steps)
        traj = dyn.evolve(fld.TorusField.single_mode(mode, amp, max_mode=4), eq, integ)
        final = traj.snapshots[0] if backward else traj.final
        expected = amp * np.exp(1j * dyn.plane_wave_frequency(mode, amp, eq) * t_end)
        rest = final.coeffs.copy()
        rest[mode + final.max_mode] = 0.0
        assert abs(final.coeff(mode) - expected) <= 1e-13 * amplitude
        assert np.max(np.abs(rest)) <= 1e-13 * amplitude


class TestLawsonRK4:
    @pytest.mark.parametrize("variant,sign,truncation", [
        ("nls", 1, None), ("wnls", -1, None),
        ("truncated-nls", -1, 4), ("truncated-wnls-hamiltonian", 1, 4),
    ])
    def test_matches_classical_rk4_on_the_triple_sum(self, variant, sign, truncation):
        # both schemes are fourth order for the same Galerkin system, so they
        # agree to their O(dt^4) errors (2e-7 here); a cubic aliased on a grid
        # under 4N+1 = 17 points is off by 0.1
        rng = np.random.default_rng(30)
        u0 = fld.TorusField(0.5 * (rng.standard_normal(9) + 1j * rng.standard_normal(9)), 4)
        eq = dyn.EquationSpec(variant, sign=sign, truncation=truncation)
        shift = 2.0 * sign * eq.renorm_constant() if eq.renorm_shifted else 0.0
        want = galerkin_rk4(u0.coeffs, 4, sign, shift, eq.mean_shifted, 2e-3, 50)
        integ = dyn.IntegratorSpec("rk4", dt=2e-3, t_end=0.1, snapshot_stride=50)
        got = dyn.evolve(u0, eq, integ).final
        assert got.max_mode == 4
        assert np.max(np.abs(got.coeffs - want)) <= 1e-6


class TestStrangStep:
    @pytest.mark.parametrize("variant,sign,truncation", [
        ("nls", 1, None), ("wnls", -1, None), ("truncated-nls", 1, 4)])
    def test_one_step_matches_the_reference_step(self, variant, sign, truncation):
        # band-4 data on the odd 27-point grid (>= 3 * 9): untruncated runs
        # keep the grid band 13, the truncated run its truncation 4
        rng = np.random.default_rng(31)
        u0 = fld.TorusField(0.8 * (rng.standard_normal(9) + 1j * rng.standard_normal(9)), 4)
        eq = dyn.EquationSpec(variant, sign=sign, truncation=truncation)
        dt = 0.05
        got = dyn.evolve(u0, eq, dyn.IntegratorSpec("strang", dt=dt, t_end=dt)).final
        band = 4 if eq.truncated else 13
        offset = -2.0 * fld.mean_intensity(u0) if eq.mean_shifted else 0.0
        want = strang_step(u0.padded_to(band).coeffs, 27, sign, dt, offset)
        assert got.max_mode == band
        assert np.max(np.abs(got.coeffs - want)) <= 1e-14 * np.max(np.abs(want))


def seven_smooth(m):
    for p in (2, 3, 5, 7):
        while m % p == 0:
            m //= p
    return m == 1


class TestStrangGrid:
    """Strang's grid holds the band and the cubic of the data's top mode."""

    @settings(max_examples=100, deadline=None)
    @given(band=st.integers(0, 700), data=st.data())
    def test_grid_rule(self, band, data):
        top = data.draw(st.integers(0, band), label="top")
        m = dyn._strang_grid(band, top)
        need = max(2 * band + 1, 3 * (2 * top + 1))
        assert m % 2 == 1 and seven_smooth(m) and m >= need
        assert not any(seven_smooth(k) for k in range(need, m, 2))  # need is odd
        if top == band:  # data that fill their band, and every truncated run
            assert m == fast_fft_size(3 * (2 * band + 1), odd=True)

    @settings(max_examples=60, deadline=None)
    @given(scheme=st.sampled_from(["strang", "rk4"]),
           eq=st.sampled_from([dyn.EquationSpec("nls", sign=1),
                               dyn.EquationSpec("wnls", sign=-1),
                               dyn.EquationSpec("truncated-wnls-gauged", sign=1,
                                                truncation=4)]),
           probe_band=st.integers(0, 20), seed=st.integers(0, 2**16))
    def test_a_probe_never_changes_the_run(self, scheme, eq, probe_band, seed):
        # mode-1 data at band 4 step on 9 points under Strang: a probe of any
        # band is projected onto the run's band, and neither widens nor refuses it
        u0 = fld.TorusField.from_modes({1: 0.7, -1: 0.2j}, max_mode=4)
        phi = random_field(probe_band, seed=seed)
        integ = dyn.IntegratorSpec(scheme, dt=0.01, t_end=0.1, snapshot_stride=5)
        plain = dyn.evolve(u0, eq, integ)
        traj = dyn.evolve(u0, eq, integ, probes={"phi": phi})
        assert traj.coeffs.shape == plain.coeffs.shape
        assert np.array_equal(traj.coeffs, plain.coeffs)
        assert all(np.array_equal(traj.ledger[k], plain.ledger[k]) for k in plain.ledger)
        want = fld.pairing(traj.final, phi)
        assert abs(traj.probes["phi"][-1] - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("variant,sign", [("nls", 1), ("wnls", -1)])
    @pytest.mark.parametrize("band,top", [(12, 3), (40, 13)])
    def test_sparse_datum_steps_on_the_band_grid(self, variant, sign, band, top):
        # top <= (N-1)/3: the cubic of the datum fits the 2N+1 grid, 25 and 81 points
        rng = np.random.default_rng(32)
        width = 2 * top + 1
        u0 = fld.TorusField(0.8 * (rng.standard_normal(width)
                                   + 1j * rng.standard_normal(width)), top).padded_to(band)
        eq = dyn.EquationSpec(variant, sign=sign)
        dt = 0.05
        got = dyn.evolve(u0, eq, dyn.IntegratorSpec("strang", dt=dt, t_end=dt)).final
        m = fast_fft_size(2 * band + 1, odd=True)
        assert m == 2 * band + 1 and got.max_mode == band
        offset = -2.0 * fld.mean_intensity(u0) if eq.mean_shifted else 0.0
        want = strang_step(u0.coeffs, m, sign, dt, offset)
        assert np.max(np.abs(got.coeffs - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("variant", ["nls", "wnls"])
    @pytest.mark.parametrize("n", [4, 8])
    def test_weak_family_datum_matches_rk4_at_the_data_band(self, n, variant, sign):
        # e^{ix} + e^{inx} at band 4n runs on the 8n+1 grid rounded up (35 and 75
        # points), not on 3 (8n+1) points; measured <= 1.43e-5 of ||u0||
        u0 = fld.TorusField.from_modes({1: 1.0, n: 1.0}, max_mode=4 * n)
        eq = dyn.EquationSpec(variant, sign=sign)
        strang = dyn.evolve(u0, eq, dyn.IntegratorSpec("strang", dt=1e-3, t_end=0.5,
                                                       snapshot_stride=500)).final
        rk4 = dyn.evolve(u0, eq, dyn.IntegratorSpec("rk4", dt=1e-3, t_end=0.5,
                                                    snapshot_stride=500)).final
        assert strang.max_mode == (fast_fft_size(8 * n + 1, odd=True) - 1) // 2
        gap = fld.norm(fld.project(strang, 4 * n) - rk4, fld.NormSpec.l2())
        assert gap <= 1e-4 * fld.norm(u0, fld.NormSpec.l2())


class TestUntruncatedModels:
    """An untruncated run at band N is a different discrete model under each scheme."""

    N = 16
    U0 = rnd.sample(rnd.RandomDataSpec(alpha=0.5, max_mode=N, seed=3), 0)

    @staticmethod
    def run(u0, variant, sign, scheme, truncation=None):
        integ = dyn.IntegratorSpec(scheme, dt=5e-4, t_end=0.5, snapshot_stride=100)
        return dyn.evolve(u0, dyn.EquationSpec(variant, sign=sign, truncation=truncation), integ)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("variant, truncated", [
        ("nls", "truncated-nls"), ("wnls", "truncated-wnls-gauged")])
    def test_rk4_is_the_galerkin_model_at_the_data_band(self, sign, variant, truncated):
        got = self.run(self.U0, variant, sign, "rk4")
        want = self.run(self.U0, truncated, sign, "rk4", truncation=self.N)
        assert got.coeffs.shape[1] == 2 * self.N + 1
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.coeffs, want.coeffs)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_strang_is_collocation_on_its_grid_band(self, sign):
        # fast_fft_size(3 * 33, odd=True) = 105 points: grid band 52. RK4 on the
        # data padded to that band agrees to 1.4e-4 and 1.8e-4 of ||u0|| (the
        # two schemes' time-step errors); RK4 at the data band differs by 7.7e-2
        # and 8.1e-2, the difference of the two models
        band = (fast_fft_size(3 * (2 * self.N + 1), odd=True) - 1) // 2
        strang = self.run(self.U0, "nls", sign, "strang").final
        padded = self.run(self.U0.padded_to(band), "nls", sign, "rk4").final
        galerkin = self.run(self.U0, "nls", sign, "rk4").final
        scale = fld.norm(self.U0, fld.NormSpec.l2())
        assert strang.max_mode == band == 52
        assert fld.norm(strang - padded, fld.NormSpec.l2()) <= 1e-3 * scale
        assert fld.norm(strang - galerkin.padded_to(band), fld.NormSpec.l2()) >= 5e-2 * scale


class TestConservation:
    def test_mass_machine_precision_long_run(self):
        f = fld.TorusField.from_modes({0: 0.7, 1: 0.5 + 0.2j, 2: 0.3j, -3: 0.4},
                                      max_mode=16)
        eq = dyn.EquationSpec("wnls", sign=1)
        integ = dyn.IntegratorSpec("strang", dt=1e-3, t_end=10.0, snapshot_stride=500)
        traj = dyn.evolve(f, eq, integ)
        mass = traj.ledger["mass"]
        assert np.max(np.abs(mass - mass[0])) / mass[0] <= 1e-12

    def test_mass_pinned_to_roundoff(self):
        # the same run as above: the pin to the initial mass leaves only the
        # rounding of the last linear multiplier
        f = fld.TorusField.from_modes({0: 0.7, 1: 0.5 + 0.2j, 2: 0.3j, -3: 0.4},
                                      max_mode=16)
        eq = dyn.EquationSpec("wnls", sign=1)
        integ = dyn.IntegratorSpec("strang", dt=1e-3, t_end=10.0, snapshot_stride=500)
        mass = dyn.evolve(f, eq, integ).ledger["mass"]
        assert np.max(np.abs(mass - mass[0])) / mass[0] <= 1e-14

    def test_momentum_drift_short_run(self):
        f = fld.TorusField.from_modes({1: 0.6, 2: 0.4j, -1: 0.2}, max_mode=12)
        eq = dyn.EquationSpec("nls", sign=1)
        integ = dyn.IntegratorSpec("strang", dt=1e-3, t_end=1.0, snapshot_stride=100)
        traj = dyn.evolve(f, eq, integ)
        p = traj.ledger["momentum"]
        assert np.max(np.abs(p - p[0])) / abs(p[0]) <= 1e-10

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), band=st.integers(1, 16),
           variant=st.sampled_from(["nls", "wnls"]), sign=st.sampled_from([1, -1]),
           t_end=st.sampled_from([0.1, -0.1]), stride=st.sampled_from([5, 25]))
    def test_snapshot_stride_does_not_change_the_run(self, seed, band, variant, sign,
                                                     t_end, stride):
        # untruncated substeps are unitary, so pinning the mass only at
        # snapshot steps makes the stride a pure output choice: the runs agree
        # to roundoff at their common times, and every recorded mass is the
        # initial one
        u0 = rnd.sample(rnd.RandomDataSpec(alpha=0.5, max_mode=band, seed=seed), 0)
        phi = random_field(3, seed=31)
        eq = dyn.EquationSpec(variant, sign=sign)
        fine, coarse = (dyn.evolve(u0, eq, dyn.IntegratorSpec(
            "strang", dt=2e-3, t_end=t_end, snapshot_stride=k), probes={"phi": phi})
            for k in (1, stride))
        size = float(np.linalg.norm(u0.coeffs))
        common = [i for i, t in enumerate(fine.times) if np.any(coarse.times == t)]
        assert len(common) == len(coarse.times)
        for i, u in zip(common, coarse.snapshots):
            assert np.max(np.abs(fine.snapshots[i].coeffs - u.coeffs)) <= 1e-13 * size
        assert np.array_equal(fine.probe_times, coarse.probe_times)
        pairing_bound = TWO_PI * size * float(np.linalg.norm(phi.coeffs))
        assert np.max(np.abs(fine.probes["phi"] - coarse.probes["phi"])) \
            <= 1e-13 * pairing_bound
        mass0 = TWO_PI * size * size
        for traj in (fine, coarse):
            assert np.max(np.abs(traj.ledger["mass"] - mass0)) <= 1e-14 * mass0

    def test_strang_hamiltonian_second_order(self):
        u0 = fld.TorusField.from_modes({0: 0.6, 1: 0.4 + 0.3j, -2: 0.35, 3: 0.2j},
                                       max_mode=8)
        eq = dyn.EquationSpec("wnls", sign=1)
        drifts = []
        for dt in (2e-3, 1e-3):
            integ = dyn.IntegratorSpec("strang", dt=dt, t_end=1.0,
                                       snapshot_stride=round(0.02 / dt))
            h = dyn.evolve(u0, eq, integ).ledger["hamiltonian"]
            drifts.append(np.max(np.abs(h - h[0])))
        ratio = drifts[0] / drifts[1]
        assert 3.5 <= ratio <= 4.5

    @pytest.mark.parametrize("sign", [1, -1])
    def test_rk4_wick_hamiltonian_fourth_order(self, sign):
        u0 = fld.TorusField.from_modes({0: 0.6, 1: 0.4 + 0.3j, -2: 0.35, 3: 0.2j},
                                       max_mode=4)
        eq = dyn.EquationSpec("truncated-wnls-hamiltonian", sign=sign, truncation=4,
                              alpha=1.0)
        drifts = []
        for dt in (5e-3, 2.5e-3):
            integ = dyn.IntegratorSpec("rk4", dt=dt, t_end=1.0,
                                       snapshot_stride=round(0.05 / dt))
            hw = dyn.evolve(u0, eq, integ).ledger["wick_hamiltonian"]
            drifts.append(np.max(np.abs(hw - hw[0])))
        ratio = drifts[0] / drifts[1]
        if sign == 1:
            assert 12.0 <= ratio <= 20.0
        else:
            # focusing runs show the per-step energy errors averaging out:
            # the drift shrinks at least as fast as dt^4 (measured ~dt^5)
            assert ratio >= 12.0

    def test_ledger_wick_hamiltonian_matches_module(self):
        u0 = fld.TorusField.from_modes({0: 0.5, 1: 0.3}, max_mode=4)
        eq = dyn.EquationSpec("truncated-wnls-hamiltonian", sign=1, truncation=4,
                              alpha=1.0)
        integ = dyn.IntegratorSpec("rk4", dt=1e-2, t_end=0.1, snapshot_stride=10)
        traj = dyn.evolve(u0, eq, integ)
        assert traj.ledger["wick_hamiltonian"][0] == pytest.approx(
            wick_hamiltonian(u0, 4, 1.0, 1), rel=1e-12)


class TestLedger:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["strang", "rk4"]), st.sampled_from(list(dyn.Variant)),
           st.sampled_from([1, -1]), st.booleans(), st.integers(1, 6),
           st.integers(0, 2**32 - 1))
    def test_columns_match_independent_sums(self, scheme, variant, sign, backward,
                                            band, seed):
        truncated = variant.value.startswith("truncated")
        eq = dyn.EquationSpec(variant, sign=sign, truncation=band if truncated else None,
                              alpha=0.5)
        rows = [random_field(band, seed=seed), fld.TorusField.zeros(band),
                random_field(band, seed=seed + 1, scale=0.3)]
        integ = dyn.IntegratorSpec(scheme, dt=0.01, t_end=-0.04 if backward else 0.04,
                                   snapshot_stride=2)
        for traj in dyn.evolve_batch(rows, eq, integ):
            ledger = traj.ledger
            assert len(traj.snapshots) == 3
            for k, u in enumerate(traj.snapshots):
                n = u.modes.astype(np.float64)
                a2 = np.abs(u.coeffs) ** 2
                mass = TWO_PI * np.sum(a2)
                kinetic = 0.5 * TWO_PI * np.sum(n**2 * a2)
                quartic = dense_quartic_integral(u.coeffs, u.max_mode)
                scale = 1e-12 * (mass + kinetic + quartic)
                assert abs(ledger["mass"][k] - mass) <= scale
                assert abs(ledger["mu"][k] - mass / TWO_PI) <= scale
                assert abs(ledger["momentum"][k] - TWO_PI * np.sum(n * a2)) <= band * scale
                assert abs(ledger["hamiltonian"][k] - (kinetic + sign * quartic / 4)) <= scale
                if eq.renorm_shifted:
                    a = renormalization_constant(band, eq.alpha)
                    want = wick_hamiltonian(u, band, eq.alpha, sign)
                    assert abs(ledger["wick_hamiltonian"][k] - want) <= (
                        1e-12 * (kinetic + quartic + 4 * a * mass + 4 * math.pi * a * a))
                else:
                    assert "wick_hamiltonian" not in ledger


class TestGaugeEquivalence:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_plane_wave_gauge(self, sign):
        # gauging the plain run by mu0 = A^2 reproduces the Wick run exactly
        amp = 1.3
        f = fld.TorusField.single_mode(1, amp)
        integ = dyn.IntegratorSpec("strang", dt=1e-3, t_end=1.0, snapshot_stride=200)
        tn = dyn.evolve(f, dyn.EquationSpec("nls", sign=sign), integ)
        tw = dyn.evolve(f, dyn.EquationSpec("wnls", sign=sign), integ)
        tg = dyn.gauge_transform(tn, amp**2, sign)
        assert max(final_distance(a, b) for a, b in zip(tg.snapshots, tw.snapshots)) < 1e-10

    def test_random_data_gauge(self):
        u0 = random_field(24, seed=12, scale=0.4)
        integ = dyn.IntegratorSpec("strang", dt=2e-3, t_end=1.0, snapshot_stride=100)
        tn = dyn.evolve(u0, dyn.EquationSpec("nls", sign=1), integ)
        tw = dyn.evolve(u0, dyn.EquationSpec("wnls", sign=1), integ)
        tg = dyn.gauge_transform(tn, fld.mean_intensity(u0), 1)
        worst = max(
            fld.norm(a - b, fld.NormSpec.l2())
            for a, b in zip(tg.snapshots, tw.snapshots))
        assert worst < 1e-10

    @pytest.mark.parametrize("scheme", ["strang", "rk4"])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), band=st.integers(0, 32),
           sign=st.sampled_from([1, -1]))
    def test_gauge_identity_property(self, scheme, seed, band, sign):
        # both schemes treat the -2 mu0 u term as part of an exact linear
        # factor, so the scalar gauge maps one run onto the other to roundoff
        spec = rnd.RandomDataSpec(alpha=0.5, max_mode=band, seed=seed)
        rows = [fld.TorusField(c, band) for c in rnd.sample_block(spec, range(3))]
        integ = dyn.IntegratorSpec(scheme, dt=2e-3, t_end=0.2, snapshot_stride=25)
        plain = dyn.evolve_batch(rows, dyn.EquationSpec("nls", sign=sign), integ)
        wick = dyn.evolve_batch(rows, dyn.EquationSpec("wnls", sign=sign), integ)
        l2 = fld.NormSpec.l2()
        for u0, tn, tw in zip(rows, plain, wick):
            gauged = dyn.gauge_transform(tn, fld.mean_intensity(u0), sign)
            worst = max(fld.norm(a - b, l2) for a, b in zip(gauged.snapshots, tw.snapshots))
            assert worst <= 1e-12 * fld.norm(u0, l2)

    @pytest.mark.parametrize("scheme", ["strang", "rk4"])
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), band=st.integers(0, 8),
           truncation=st.integers(0, 8), sign=st.sampled_from([1, -1]))
    def test_discrete_gauge_maps_property(self, scheme, seed, band, truncation, sign):
        # every Wick shift is a linear rate of the row, so the three gauge maps
        # hold for the discrete flows, truncated or not, to roundoff
        spec = rnd.RandomDataSpec(alpha=0.5, max_mode=band, seed=seed)
        rows = [fld.TorusField(c, band) for c in rnd.sample_block(spec, range(3))]
        integ = dyn.IntegratorSpec(scheme, dt=2e-3, t_end=0.2, snapshot_stride=20)

        def run(variant, truncated):
            eq = dyn.EquationSpec(variant, sign=sign,
                                  truncation=truncation if truncated else None)
            return dyn.evolve_batch(rows, eq, integ)

        pairs = [(dyn.gauge_transform(tn, fld.mean_intensity(u0), sign), tw)
                 for u0, tn, tw in zip(rows, run("nls", False), run("wnls", False))]
        gauged = run("truncated-wnls-gauged", True)
        pairs += [(dyn.gauge_transform(
            tn, fld.mean_intensity(fld.project(u0, truncation)), sign), tg)
            for u0, tn, tg in zip(rows, run("truncated-nls", True), gauged)]
        pairs += [(dyn.truncation_gauge(th), tg)
                  for th, tg in zip(run("truncated-wnls-hamiltonian", True), gauged)]
        for mapped, target in pairs:
            assert np.max(np.abs(mapped.coeffs - target.coeffs)) <= 1e-12

    def test_mu_zero_identity(self):
        u0 = random_field(4, seed=13)
        integ = dyn.IntegratorSpec("strang", dt=0.01, t_end=0.1, snapshot_stride=10)
        traj = dyn.evolve(u0, dyn.EquationSpec("nls", sign=1), integ)
        same = dyn.gauge_transform(traj, 0.0, 1)
        assert all(np.array_equal(a.coeffs, b.coeffs)
                   for a, b in zip(traj.snapshots, same.snapshots))

    def test_ledger_invariant(self):
        u0 = random_field(4, seed=14)
        integ = dyn.IntegratorSpec("strang", dt=0.01, t_end=0.2, snapshot_stride=10)
        traj = dyn.evolve(u0, dyn.EquationSpec("nls", sign=1), integ)
        gauged = dyn.gauge_transform(traj, 1.7, 1)
        for key in ("mass", "momentum", "mu"):
            assert np.array_equal(traj.ledger[key], gauged.ledger[key])


class TestDerivedLedger:
    def test_read_once_on_demand(self, monkeypatch):
        calls = []
        ledger = dyn._ledger

        def counting(*args):
            calls.append(args)
            return ledger(*args)

        monkeypatch.setattr(dyn, "_ledger", counting)
        rows = [random_field(4, seed=31), random_field(6, seed=32)]
        for scheme in ("strang", "rk4"):
            integ = dyn.IntegratorSpec(scheme, dt=0.01, t_end=0.1, snapshot_stride=5)
            trajs = dyn.evolve_batch(rows, dyn.EquationSpec("wnls", sign=1), integ)
            assert calls == []  # no run pays for a ledger nobody reads
            first = [traj.ledger for traj in trajs]
            assert len(calls) == len(trajs)  # one call per trajectory
            assert all(traj.ledger is led for traj, led in zip(trajs, first))
            assert len(calls) == len(trajs)  # a second read is cached
            calls.clear()

    @pytest.mark.parametrize("t_end", [0.3, -0.3])
    def test_gauge_keeps_the_ledger_to_roundoff(self, t_end):
        u0 = random_field(6, seed=33)
        integ = dyn.IntegratorSpec("strang", dt=0.01, t_end=t_end, snapshot_stride=10)
        traj = dyn.evolve(u0, dyn.EquationSpec("nls", sign=-1), integ)
        gauged = dyn.gauge_transform(traj, fld.mean_intensity(u0), -1)
        assert gauged.ledger.keys() == traj.ledger.keys()
        for key, col in traj.ledger.items():
            assert np.max(np.abs(gauged.ledger[key] - col) / np.abs(col)) <= 1e-13

    def test_truncation_gauge_takes_the_gauged_columns(self):
        u0 = random_field(4, seed=34)
        integ = dyn.IntegratorSpec("strang", dt=0.01, t_end=0.1, snapshot_stride=5)
        eq = dyn.EquationSpec("truncated-wnls-hamiltonian", sign=1, truncation=4)
        traj = dyn.evolve(u0, eq, integ)
        assert "wick_hamiltonian" in traj.ledger
        gauged = dyn.truncation_gauge(traj)
        direct = dyn.evolve(u0, replace(eq, variant="truncated-wnls-gauged"), integ)
        assert gauged.ledger.keys() == direct.ledger.keys()
        assert "wick_hamiltonian" not in gauged.ledger


class TestTruncationGauge:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_two_route_equivalence(self, sign):
        u0 = fld.TorusField.from_modes({0: 0.6, 1: 0.4 + 0.3j, -2: 0.35, 3: 0.2j},
                                       max_mode=4)
        integ = dyn.IntegratorSpec("strang", dt=1e-3, t_end=1.0, snapshot_stride=100)
        tr_h = dyn.evolve(u0, dyn.EquationSpec("truncated-wnls-hamiltonian",
                                               sign=sign, truncation=16, alpha=1.0), integ)
        tr_g = dyn.evolve(u0, dyn.EquationSpec("truncated-wnls-gauged",
                                               sign=sign, truncation=16), integ)
        # the gauge's c = mu(P_N u) - a is constant along the flow
        c0 = intensity_fluctuation(tr_h.snapshots[0], 16, 1.0)
        assert all(abs(intensity_fluctuation(u, 16, 1.0) - c0) <= 1e-10
                   for u in tr_h.snapshots)
        gauged = dyn.truncation_gauge(tr_h)
        worst = max(final_distance(a, b) for a, b in zip(gauged.snapshots, tr_g.snapshots))
        assert worst <= 1e-12  # Strang takes the Wick shift as a linear rate
        assert gauged.eq.variant is dyn.Variant.TRUNCATED_WNLS_GAUGED

    def test_zero_fluctuation_identity(self):
        # data whose projected mean intensity equals the renormalization
        # constant has c = 0: the gauge is the identity
        a = renormalization_constant(2, 1.0)
        u0 = fld.TorusField.single_mode(1, math.sqrt(a), max_mode=2)
        integ = dyn.IntegratorSpec("strang", dt=0.01, t_end=0.1, snapshot_stride=10)
        traj = dyn.evolve(u0, dyn.EquationSpec("truncated-wnls-hamiltonian",
                                               sign=1, truncation=2, alpha=1.0), integ)
        gauged = dyn.truncation_gauge(traj)
        assert all(final_distance(x, y) < 1e-13
                   for x, y in zip(traj.snapshots, gauged.snapshots))

    def test_requires_hamiltonian_variant(self):
        u0 = random_field(4, seed=15)
        integ = dyn.IntegratorSpec("strang", dt=0.01, t_end=0.1, snapshot_stride=10)
        traj = dyn.evolve(u0, dyn.EquationSpec("wnls", sign=1), integ)
        with pytest.raises(ValueError):
            dyn.truncation_gauge(traj)


def boosted_prediction(base_final, beta, t_end, max_mode):
    """Coefficients of u^beta at t_end from those of u, by the boost formula."""
    shift = beta // 2
    predicted = {}
    for n in base_final.modes:
        n = int(n)
        if abs(n + shift) <= max_mode:
            predicted[n + shift] = (np.exp(1j * beta**2 * t_end / 4.0)
                                    * np.exp(1j * n * beta * t_end)
                                    * base_final.coeff(n))
    return fld.TorusField.from_modes(predicted, max_mode)


class TestGalileanCovariance:
    def test_boosted_evolution(self):
        # u^beta(x,t) = e^{i beta x/2} e^{i beta^2 t/4} u(x + beta t, t)
        beta, t_end = 2, 1.0
        u0 = fld.TorusField.from_modes({0: 0.5, 1: 0.3 + 0.1j, -1: 0.2}).padded_to(16)
        eq = dyn.EquationSpec("nls", sign=1)
        integ = dyn.IntegratorSpec("strang", dt=5e-4, t_end=t_end, snapshot_stride=2000)
        boosted_final = dyn.evolve(dyn.galilean_boost(u0, beta), eq, integ).final
        base_final = dyn.evolve(u0, eq, integ).final
        pred = boosted_prediction(base_final, beta, t_end, boosted_final.max_mode)
        assert final_distance(boosted_final, pred) < 1e-8

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from([-6, -4, -2, 2, 4, 6]), st.sampled_from(["nls", "wnls"]),
           st.sampled_from([1, -1]),
           st.lists(st.complex_numbers(max_magnitude=0.4), min_size=3, max_size=3))
    def test_boost_property(self, beta, variant, sign, amps):
        # the same boost identity for even beta, both signs and the Wick
        # equation (the boost keeps mu), on data in modes -1..1
        t_end = 1.0
        u0 = fld.TorusField(np.array(amps), 1).padded_to(16)
        eq = dyn.EquationSpec(variant, sign=sign)
        integ = dyn.IntegratorSpec("strang", dt=5e-4, t_end=t_end, snapshot_stride=2000)
        boosted_final = dyn.evolve(dyn.galilean_boost(u0, beta), eq, integ).final
        base_final = dyn.evolve(u0, eq, integ).final
        pred = boosted_prediction(base_final, beta, t_end, boosted_final.max_mode)
        assert final_distance(boosted_final, pred) < 1e-8


class TestDivergenceGuard:
    def test_rk4_instability_detected(self):
        u0 = fld.TorusField.from_modes({0: 2.0, 1: 1.5, -2: 1.0}, max_mode=8)
        eq = dyn.EquationSpec("truncated-nls", sign=-1, truncation=8)
        integ = dyn.IntegratorSpec("rk4", dt=0.1, t_end=2.0, snapshot_stride=1)
        with pytest.raises(dyn.IntegrationDivergedError) as info:
            dyn.evolve(u0, eq, integ)
        assert info.value.trajectory is not None
        assert info.value.last_valid_time >= 0.0

    def test_rk4_mass_check_alone_trips(self):
        # at stride 1 the first step's mass jump (45.6 -> 2.6e8) is caught by
        # the snapshot's drift check before the next step's intensity bound
        u0 = fld.TorusField.from_modes({0: 2.0, 1: 1.5, -2: 1.0}, max_mode=8)
        eq = dyn.EquationSpec("truncated-nls", sign=-1, truncation=8)
        integ = dyn.IntegratorSpec("rk4", dt=0.1, t_end=2.0, snapshot_stride=1)
        with pytest.raises(dyn.IntegrationDivergedError,
                           match="numerical scheme failure: relative mass drift") as info:
            dyn.evolve(u0, eq, integ)
        assert info.value.last_valid_time == 0.0
        partial = info.value.trajectory
        assert partial.times.tolist() == [0.0]
        assert partial.ledger["mass"][0] == pytest.approx(45.553, rel=1e-4)

    def test_rk4_step_bound_trips_between_snapshots(self):
        # with one snapshot at the end, the first step's mass jump shows in the
        # next step's grid values, past the certified (2N+1) mu0 bound
        u0 = fld.TorusField.from_modes({0: 2.0, 1: 1.5, -2: 1.0}, max_mode=8)
        eq = dyn.EquationSpec("truncated-nls", sign=-1, truncation=8)
        integ = dyn.IntegratorSpec("rk4", dt=0.1, t_end=2.0, snapshot_stride=20)
        with pytest.raises(dyn.IntegrationDivergedError,
                           match=r"numerical scheme failure: max \|u\|\^2 above") as info:
            dyn.evolve(u0, eq, integ)
        assert info.value.last_valid_time == pytest.approx(0.1)
        assert info.value.trajectory.times.tolist() == [0.0]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_large_plane_wave_is_no_failure(self, sign):
        # no amplitude is a failure in itself: a plane wave of |u| = 2e6
        # takes its exact Strang step, a phase of 4e6 rad, to roundoff
        amp = 2e6
        u0 = fld.TorusField.single_mode(1, amp, max_mode=4)
        eq = dyn.EquationSpec("nls", sign=sign)
        integ = dyn.IntegratorSpec("strang", dt=1e-6, t_end=1e-6)
        traj = dyn.evolve(u0, eq, integ)
        band = traj.final.max_mode
        exact = np.zeros(2 * band + 1, dtype=complex)
        exact[band + 1] = amp * np.exp(1j * dyn.plane_wave_frequency(1, amp, eq) * 1e-6)
        assert np.max(np.abs(traj.final.coeffs - exact)) < 1e-8 * amp
        assert traj.ledger["mass"][1] == pytest.approx(traj.ledger["mass"][0], rel=1e-14)


class TestProbes:
    def test_probe_matches_pairing(self):
        u0 = random_field(6, seed=16)
        phi = fld.TorusField.single_mode(1, 1.0)
        eq = dyn.EquationSpec("wnls", sign=1)
        integ = dyn.IntegratorSpec("strang", dt=0.01, t_end=0.2, snapshot_stride=10)
        traj = dyn.evolve(u0, eq, integ, probes={"phi": phi})
        assert len(traj.probe_times) == 21
        for t, u in zip(traj.times, traj.snapshots):
            k = np.argmin(np.abs(traj.probe_times - t))
            assert traj.probes["phi"][k] == pytest.approx(fld.pairing(u, phi), rel=1e-12)

    @pytest.mark.parametrize("backward, eq", [
        (True, dyn.EquationSpec("wnls", sign=1)),
        (False, dyn.EquationSpec("truncated-wnls-gauged", sign=-1, truncation=8)),
    ])
    def test_probe_matches_pairing_backward_and_truncated(self, backward, eq):
        # pins the rotated-probe pairing at the snapshot times
        u0 = random_field(6, seed=16)
        phi = fld.TorusField.single_mode(1, 1.0)
        integ = dyn.IntegratorSpec("strang", dt=0.01, t_end=-0.2 if backward else 0.2,
                                   snapshot_stride=10)
        traj = dyn.evolve(u0, eq, integ, probes={"phi": phi})
        assert len(traj.probe_times) == 21
        for t, u in zip(traj.times, traj.snapshots):
            k = np.argmin(np.abs(traj.probe_times - t))
            assert traj.probes["phi"][k] == pytest.approx(fld.pairing(u, phi), rel=1e-12)


def assert_same_trajectory(a, b):
    assert np.array_equal(a.times, b.times)
    assert len(a.snapshots) == len(b.snapshots)
    assert all(x.max_mode == y.max_mode and np.array_equal(x.coeffs, y.coeffs)
               for x, y in zip(a.snapshots, b.snapshots))
    assert a.ledger.keys() == b.ledger.keys()
    # equal_nan: a row whose mass overflowed has NaN energy columns
    assert all(np.array_equal(a.ledger[k], b.ledger[k], equal_nan=True) for k in a.ledger)
    if a.probe_times is None:
        assert b.probe_times is None
    else:
        assert np.array_equal(a.probe_times, b.probe_times)
    assert a.probes.keys() == b.probes.keys()
    assert all(np.array_equal(a.probes[k], b.probes[k]) for k in a.probes)


# a scheme failure of each scheme: (failing row, dt, snapshots recorded before
# the failure at stride 10). Under RK4 a focusing plane wave with seeded
# sidebands outruns the step and gains mass; Strang pins the mass, so only a
# row whose mass overflows (|c|^2 = 1e310) turns non-finite.
FAILING_ROWS = {
    "strang": (fld.TorusField.single_mode(0, 1e155, max_mode=4), 0.01, 1),
    "rk4": (fld.TorusField.from_modes({0: 2.0, 1: 0.05, -1: 0.05}, max_mode=4), 0.05, 3),
}


class TestTrajectoryBlock:
    @pytest.mark.parametrize("scheme", ["strang", "rk4"])
    @pytest.mark.parametrize("t_end", [0.2, -0.2])
    def test_snapshots_are_rows_of_a_read_only_block(self, scheme, t_end):
        # a plane wave keeps one mode at A e^{i w t}, which pins each row to its time
        amp = 0.8 - 0.3j
        eq = dyn.EquationSpec("wnls", sign=1)
        rows = [fld.TorusField.single_mode(2, amp, max_mode=6), fld.TorusField.zeros(6)]
        integ = dyn.IntegratorSpec(scheme, dt=0.01, t_end=t_end, snapshot_stride=5)
        for traj in dyn.evolve_batch(rows, eq, integ):
            band = traj.final.max_mode
            assert traj.coeffs.shape == (5, 2 * band + 1)
            assert not traj.coeffs.flags.writeable
            with pytest.raises(ValueError):
                traj.coeffs[0, 0] = 1.0
            assert len(traj.snapshots) == len(traj.times) == 5
            for row, u in zip(traj.coeffs, traj.snapshots):
                assert u.max_mode == band
                assert np.array_equal(u.coeffs, row)
                assert not u.coeffs.flags.writeable
            if traj.ledger["mass"][0] > 0.0:
                w = dyn.plane_wave_frequency(2, amp, eq)
                assert np.max(np.abs(traj.coeffs[:, band + 2]
                                     - amp * np.exp(1j * w * traj.times))) < 1e-9

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("eq", [dyn.EquationSpec("nls", sign=-1),
                                    dyn.EquationSpec("truncated-nls", sign=-1, truncation=4)],
                             ids=lambda eq: eq.variant.value)
    @pytest.mark.parametrize("scheme", ["strang", "rk4"])
    @pytest.mark.parametrize("t_end", [10.0, -10.0])
    def test_divergence_keeps_exactly_the_recorded_prefix(self, scheme, t_end, eq):
        # a run to the last recorded time takes the same steps, so it is the
        # partial trajectory, bit for bit
        failing, dt, recorded = FAILING_ROWS[scheme]
        rows = [fld.TorusField.single_mode(0, 0.3, max_mode=4), failing]
        probes = {"phi": fld.TorusField.single_mode(1, 1.0)}
        integ = dyn.IntegratorSpec(scheme, dt=dt, t_end=t_end, snapshot_stride=10)
        with pytest.raises(dyn.IntegrationDivergedError) as info:
            dyn.evolve_batch(rows, eq, integ, probes=probes)
        partial = info.value.trajectory
        steps = round(abs(info.value.last_valid_time) / integ.dt)
        n = steps // integ.snapshot_stride + 1
        assert partial.coeffs.shape[0] == n == recorded
        last = partial.times[-1] if t_end > 0 else partial.times[0]
        # the probe pairings, too, end at the last snapshot
        assert_same_trajectory(
            partial, dyn.evolve_batch(rows, eq, replace(integ, t_end=last), probes=probes)[1])
        ledger = dyn._ledger(partial.coeffs, eq.sign)
        assert partial.ledger.keys() == ledger.keys()
        assert all(np.array_equal(partial.ledger[k], ledger[k], equal_nan=True)
                   for k in ledger)


class TestEvolveBatch:
    @pytest.mark.parametrize("eq", [
        dyn.EquationSpec("nls", sign=1),
        dyn.EquationSpec("wnls", sign=-1),
        dyn.EquationSpec("truncated-wnls-gauged", sign=1, truncation=8),
    ], ids=lambda eq: eq.variant.value)
    @pytest.mark.parametrize("t_end", [0.2, -0.2])
    def test_rows_match_evolve_bit_for_bit(self, eq, t_end):
        rows = [random_field(6, seed=21), fld.TorusField.zeros(6),
                fld.TorusField.single_mode(2, 0.8 - 0.3j, max_mode=6),
                random_field(6, seed=22, scale=0.9)]
        probes = {"phi": fld.TorusField.single_mode(1, 1.0),
                  "psi": random_field(3, seed=23)}
        integ = dyn.IntegratorSpec("strang", dt=0.01, t_end=t_end, snapshot_stride=5)
        batch = dyn.evolve_batch(rows, eq, integ, probes=probes)
        assert len(batch) == len(rows)
        for u0, traj in zip(rows, batch):
            assert_same_trajectory(traj, dyn.evolve(u0, eq, integ, probes=probes))

    def test_rk4_rows_match_evolve(self):
        probes = {"phi": fld.TorusField.single_mode(1, 1.0),
                  "psi": random_field(3, seed=23)}
        for eq in (dyn.EquationSpec("truncated-nls", sign=1, truncation=6),
                   dyn.EquationSpec("wnls", sign=-1),
                   dyn.EquationSpec("truncated-wnls-hamiltonian", sign=1, truncation=6)):
            rows = [random_field(6, seed=24), fld.TorusField.zeros(6),
                    random_field(6, seed=25, scale=0.9)]
            if eq.truncated:
                rows.append(random_field(4, seed=26))  # padded to the truncation band
            for t_end in (0.1, -0.1):
                integ = dyn.IntegratorSpec("rk4", dt=0.01, t_end=t_end, snapshot_stride=5)
                batch = dyn.evolve_batch(rows, eq, integ, probes=probes)
                assert len(batch) == len(rows)
                for u0, traj in zip(rows, batch):
                    assert_same_trajectory(traj, dyn.evolve(u0, eq, integ, probes=probes))

    @pytest.mark.parametrize("scheme", ["strang", "rk4"])
    def test_rows_of_any_band(self, scheme):
        # rows at bands 4, 5 and 4, given as a generator, step as two stacks
        eq = dyn.EquationSpec("nls", sign=1)
        integ = dyn.IntegratorSpec(scheme, dt=0.01, t_end=0.1, snapshot_stride=5)
        probes = {"phi": random_field(3, seed=23)}
        rows = [random_field(4, seed=27), random_field(5, seed=28), random_field(4, seed=29)]
        batch = dyn.evolve_batch((u0 for u0 in rows), eq, integ, probes=probes)
        assert len(batch) == len(rows)
        for u0, traj in zip(rows, batch):
            assert_same_trajectory(traj, dyn.evolve(u0, eq, integ, probes=probes))
        assert dyn.evolve_batch([], eq, integ) == []

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_divergence_carries_the_failing_row(self):
        # the failing row's partial trajectory is the same alone or batched
        # with a calm row, which stays put
        eq = dyn.EquationSpec("nls", sign=-1)
        calm = fld.TorusField.single_mode(0, 0.3, max_mode=4)
        faster = fld.TorusField.from_modes({0: 3.0, 1: 0.05, -1: 0.05}, max_mode=4)
        for scheme, (failing, dt, recorded) in [("strang", FAILING_ROWS["strang"]),
                                                ("rk4", (faster, 0.02, 7))]:
            integ = dyn.IntegratorSpec(scheme, dt=dt, t_end=10.0, snapshot_stride=10)
            with pytest.raises(dyn.IntegrationDivergedError) as single:
                dyn.evolve(failing, eq, integ)
            with pytest.raises(dyn.IntegrationDivergedError) as batch:
                dyn.evolve_batch([calm, failing], eq, integ)
            assert batch.value.last_valid_time == single.value.last_valid_time > 0.0
            assert str(batch.value) == str(single.value)
            assert str(batch.value).startswith("numerical scheme failure")
            assert len(batch.value.trajectory.snapshots) == recorded
            assert_same_trajectory(batch.value.trajectory, single.value.trajectory)


def assert_bitwise_trajectory(a, b):
    """Coefficients, times, probe pairings and probe times equal byte for byte."""
    assert a.eq == b.eq and a.integrator == b.integrator
    assert a.coeffs.shape == b.coeffs.shape and a.coeffs.tobytes() == b.coeffs.tobytes()
    assert a.times.tobytes() == b.times.tobytes()
    assert a.probes.keys() == b.probes.keys()
    assert all(a.probes[k].tobytes() == b.probes[k].tobytes() for k in a.probes)
    if a.probe_times is None:
        assert b.probe_times is None
    else:
        assert a.probe_times.tobytes() == b.probe_times.tobytes()


class TestTrajectoryIdentity:
    def test_compares_and_hashes_by_identity(self):
        u0 = random_field(4, seed=40)
        eq = dyn.EquationSpec("wnls", sign=1)
        integ = dyn.IntegratorSpec("strang", dt=0.01, t_end=0.1, snapshot_stride=5)
        a, b = dyn.evolve(u0, eq, integ), dyn.evolve(u0, eq, integ)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert a == a and a != b and not (a == b)
        assert len({a, b, a}) == 2
        index = {a: "a", b: "b"}
        assert index[a] == "a" and index[b] == "b"
        assert hash(a) == hash(a)


# a mixed stack draws its runs from these: every variant at one truncation,
# both signs, both directions and two step sizes of one step count
MIXED_VARIANTS = ["nls", "wnls", "truncated-nls", "truncated-wnls-hamiltonian",
                  "truncated-wnls-gauged"]
# (scaled so that RK4 drifts by at most 3e-6 of the mass at dt 0.02)
MIXED_DATA = [random_field(6, seed=41, scale=0.25), random_field(6, seed=42, scale=0.35),
              fld.TorusField.single_mode(2, 0.8 - 0.3j, max_mode=6), fld.TorusField.zeros(6),
              random_field(4, seed=43, scale=0.3),
              fld.TorusField.from_modes({1: 0.7, -1: 0.2j}, max_mode=6)]
MIXED_RUN = st.tuples(st.sampled_from(MIXED_VARIANTS), st.sampled_from([1, -1]),
                      st.sampled_from([0.01, 0.02]), st.sampled_from([1, -1]),
                      st.integers(0, len(MIXED_DATA) - 1))


class TestEvolveRuns:
    """One stacking rule over (u0, eq, integ) runs: each run is its own ``evolve``."""

    @settings(max_examples=40, deadline=None)
    @given(scheme=st.sampled_from(["strang", "rk4"]),
           specs=st.lists(MIXED_RUN, min_size=1, max_size=7), with_probe=st.booleans())
    def test_mixed_stacks_match_evolve(self, scheme, specs, with_probe):
        probes = {"phi": random_field(3, seed=44)} if with_probe else None
        runs = []
        for variant, sign, dt, direction, datum in specs:
            truncation = 6 if variant.startswith("truncated") else None
            runs.append((MIXED_DATA[datum], dyn.EquationSpec(variant, sign, truncation),
                         dyn.IntegratorSpec(scheme, dt=dt, t_end=direction * 10 * dt,
                                            snapshot_stride=5)))
        trajs = dyn._evolve_runs(runs, probes)
        assert len(trajs) == len(runs)
        for (u0, eq, integ), traj in zip(runs, trajs):
            assert_bitwise_trajectory(traj, dyn.evolve(u0, eq, integ, probes=probes))

    def test_equation_sign_and_direction_share_one_stack(self, monkeypatch):
        # the contrast's rows: plain and Wick, forward and backward, one Strang call
        calls = []
        core = dyn._evolve_strang
        monkeypatch.setattr(dyn, "_evolve_strang",
                            lambda runs, *args: calls.append(len(runs)) or core(runs, *args))
        rows = [random_field(6, seed=45), random_field(6, seed=46)]
        runs = [(u0, dyn.EquationSpec(variant, sign),
                 dyn.IntegratorSpec("strang", dt=0.01, t_end=t_end, snapshot_stride=5))
                for variant in ("wnls", "nls") for sign in (1, -1)
                for t_end in (0.1, -0.1) for u0 in rows]
        trajs = dyn._evolve_runs(runs, {"phi": fld.TorusField.single_mode(1, 1.0)})
        assert calls == [len(runs)]
        assert [t.integrator.t_end for t in trajs] == [r[2].t_end for r in runs]
        assert all(np.all(np.diff(t.times) > 0) for t in trajs)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_earliest_failing_row_in_run_order(self):
        # Strang: a 1e155 row overflows its mass and fails at its first
        # snapshot step. The band-6 row steps on a 15-point grid, the band-4
        # rows on 9 points, so the first failing run is in the stack that runs second
        calm = fld.TorusField.single_mode(0, 0.3, max_mode=4)
        narrow = fld.TorusField.single_mode(0, 1e155, max_mode=4)
        wide = fld.TorusField.single_mode(0, 1e155, max_mode=6)
        plain, wick = dyn.EquationSpec("nls", sign=-1), dyn.EquationSpec("wnls", sign=1)
        fwd = dyn.IntegratorSpec("strang", dt=0.01, t_end=1.0, snapshot_stride=10)
        bwd = replace(fwd, t_end=-1.0)
        assert dyn._strang_grid(4, 0) == 9 and dyn._strang_grid(6, 0) == 15

        def failure(runs):
            with pytest.raises(dyn.IntegrationDivergedError) as info:
                dyn._evolve_runs(runs, {"phi": fld.TorusField.single_mode(1, 1.0)})
            return info.value

        def alone(run):
            return failure([run])

        # all fail at step 9: the first in run order is reported
        runs = [(calm, plain, fwd), (wide, wick, bwd), (narrow, wick, bwd), (narrow, plain, fwd)]
        got, want = failure(runs), alone(runs[1])
        assert str(got) == str(want) and got.last_valid_time == want.last_valid_time == -0.09
        assert_bitwise_trajectory(got.trajectory, want.trajectory)

        # a backward row of stride 5 fails at step 4, before every stride-10 row
        early = (narrow, wick, replace(bwd, snapshot_stride=5))
        runs = [(wide, plain, fwd), (calm, wick, bwd), (narrow, plain, fwd), early]
        got, want = failure(runs), alone(early)
        assert str(got) == str(want) and got.last_valid_time == -0.04
        assert_bitwise_trajectory(got.trajectory, want.trajectory)
        assert got.trajectory.times.tolist() == [0.0]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_backward_failure_keeps_ascending_times(self):
        # a backward RK4 row fails after three snapshots, before the Strang row
        # of a stack that runs first
        failing, dt, recorded = FAILING_ROWS["rk4"]
        eq = dyn.EquationSpec("nls", sign=-1)
        rk4 = dyn.IntegratorSpec("rk4", dt=dt, t_end=-10.0, snapshot_stride=10)
        strang = dyn.IntegratorSpec("strang", dt=0.01, t_end=10.0, snapshot_stride=1000)
        runs = [(FAILING_ROWS["strang"][0], eq, strang),
                (fld.TorusField.single_mode(0, 0.3, max_mode=4), eq, rk4), (failing, eq, rk4)]
        with pytest.raises(dyn.IntegrationDivergedError) as info:
            dyn._evolve_runs(runs)
        partial = info.value.trajectory
        assert partial.integrator == rk4 and len(partial.times) == recorded
        assert np.all(np.diff(partial.times) > 0) and partial.times[-1] == 0.0
        assert info.value.last_valid_time <= partial.times[0] < 0.0
        with pytest.raises(dyn.IntegrationDivergedError) as single:
            dyn.evolve(failing, eq, rk4)
        assert str(info.value) == str(single.value)
        assert info.value.last_valid_time == single.value.last_valid_time
        assert_bitwise_trajectory(partial, single.value.trajectory)
