import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wicknls import field as fld

from oracles import dense_quartic_integral, direct_samples

TWO_PI = 2.0 * np.pi


def random_field(max_mode, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    c = scale * (rng.standard_normal(2 * max_mode + 1)
                 + 1j * rng.standard_normal(2 * max_mode + 1))
    return fld.TorusField(c, max_mode)


class TestTorusField:
    def test_length_invariant(self):
        with pytest.raises(ValueError):
            fld.TorusField(np.zeros(4, dtype=complex), 2)

    def test_rejects_nan(self):
        c = np.zeros(3, dtype=complex)
        c[1] = np.nan
        with pytest.raises(ValueError):
            fld.TorusField(c, 1)

    def test_accepts_strided_input(self):
        c = np.arange(10, dtype=complex)
        f = fld.TorusField(c[::2], 2)
        assert np.array_equal(f.coeffs, c[::2]) and f.coeffs.flags.c_contiguous
        block = np.arange(12, dtype=complex).reshape(2, 6)
        assert np.array_equal(fld.TorusField(block[1, ::2], 1).coeffs, [6, 8, 10])
        c[4] = np.inf
        with pytest.raises(ValueError):
            fld.TorusField(c[::2], 2)

    def test_immutable(self):
        f = random_field(3)
        with pytest.raises(ValueError):
            f.coeffs[0] = 1.0

    def test_coeff_and_padding(self):
        f = fld.TorusField.from_modes({2: 1.5, -1: 2j})
        assert f.max_mode == 2
        assert f.coeff(2) == 1.5
        assert f.coeff(-1) == 2j
        assert f.coeff(7) == 0
        g = f.padded_to(5)
        assert g.max_mode == 5 and g.coeff(2) == 1.5

    def test_arithmetic_extends_band(self):
        f = fld.TorusField.single_mode(1, 1.0)
        g = fld.TorusField.single_mode(3, 2.0)
        h = f + g
        assert h.max_mode == 3 and h.coeff(1) == 1.0 and h.coeff(3) == 2.0
        assert (2.0 * f).coeff(1) == 2.0


class TestSynthesizeAnalyze:
    def test_constant_mode(self):
        f = fld.TorusField.single_mode(0, 1.0)
        assert np.allclose(fld.synthesize(f, 8), 1.0)

    def test_first_mode_quarter_points(self):
        f = fld.TorusField.single_mode(1, 1.0)
        assert np.allclose(fld.synthesize(f, 4), [1, 1j, -1, -1j], atol=1e-15)

    def test_zero_grid_rejected(self):
        with pytest.raises(ValueError):
            fld.synthesize(fld.TorusField.single_mode(0, 1.0), 0)

    def test_analyze_constant(self):
        f = fld.analyze(np.full(8, 2.0 + 0j))
        assert f.coeff(0) == pytest.approx(2.0)
        assert fld.mean_intensity(f) == pytest.approx(4.0)

    def test_analyze_second_harmonic(self):
        x = TWO_PI * np.arange(16) / 16
        f = fld.analyze(np.exp(2j * x), max_mode=3)
        assert abs(f.coeff(2) - 1.0) < 1e-14
        assert abs(f.coeff(1)) < 1e-14

    def test_analyze_too_few_samples(self):
        with pytest.raises(ValueError):
            fld.analyze(np.zeros(4, dtype=complex), max_mode=3)

    @pytest.mark.parametrize("max_mode,grid", [(4, 32), (9, 32), (9, 64)])
    def test_round_trip(self, max_mode, grid):
        f = random_field(max_mode, seed=max_mode)
        g = fld.analyze(fld.synthesize(f, grid), max_mode=max_mode)
        scale = np.max(np.abs(f.coeffs))
        assert np.max(np.abs(g.coeffs - f.coeffs)) <= 1e-12 * scale

    def test_matches_direct_summation(self):
        f = random_field(5, seed=7)
        direct = direct_samples(f.coeffs, 5, 24)
        assert np.allclose(fld.synthesize(f, 24), direct, atol=1e-12)


class TestProject:
    def test_idempotent_on_band_limited(self):
        f = random_field(3)
        assert fld.project(f, 3) is f
        assert fld.project(f, 5) is f

    def test_kills_high_mode(self):
        f = fld.TorusField.single_mode(3, 1.0)
        g = fld.project(f, 2)
        assert fld.mean_intensity(g) == 0.0

    def test_nesting(self):
        f = random_field(9)
        a = fld.project(fld.project(f, 5), 3)
        b = fld.project(f, 3)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_contraction_in_norms(self):
        f = random_field(8, seed=3)
        for spec in (fld.NormSpec.l2(), fld.NormSpec.sobolev(1.5),
                     fld.NormSpec.sobolev(-0.5), fld.NormSpec.fourier_lebesgue(0.0, 1.0),
                     fld.NormSpec.fourier_lebesgue(0.25, np.inf)):
            assert fld.norm(fld.project(f, 4), spec) <= fld.norm(f, spec)


class TestNorms:
    def test_single_mode_sobolev(self):
        f = fld.TorusField.single_mode(2, 1.0)
        assert fld.norm(f, fld.NormSpec.sobolev(1.0)) == pytest.approx(3.0)

    def test_single_mode_fourier_lebesgue(self):
        f = fld.TorusField.single_mode(2, 1.0)
        assert fld.norm(f, fld.NormSpec.fourier_lebesgue(0.0, 4.0)) == pytest.approx(1.0)

    def test_two_modes_l2(self):
        f = fld.TorusField.from_modes({0: 1.0, 1: 1.0})
        assert fld.norm(f, fld.NormSpec.sobolev(0.0)) == pytest.approx(np.sqrt(2))

    def test_sobolev_zero_equals_fl_zero_two_exactly(self):
        f = random_field(12, seed=9)
        a = fld.norm(f, fld.NormSpec.sobolev(0.0))
        b = fld.norm(f, fld.NormSpec.fourier_lebesgue(0.0, 2.0))
        assert a == b

    def test_sup_norm(self):
        f = fld.TorusField.from_modes({0: 3.0, 2: 1.0})
        assert fld.norm(f, fld.NormSpec.fourier_lebesgue(1.0, np.inf)) == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            fld.NormSpec.fourier_lebesgue(0.0, 0.5)
        with pytest.raises(ValueError):
            fld.NormSpec.sobolev(np.inf)
        with pytest.raises(ValueError):
            fld.NormSpec("energy")


class TestMeanIntensityPairing:
    def test_single_mode(self):
        assert fld.mean_intensity(fld.TorusField.single_mode(3, 1.0)) == 1.0
        assert fld.mean_intensity(fld.TorusField.zeros(4)) == 0.0

    def test_sum_of_squares(self):
        f = fld.TorusField.from_modes({0: 1.0, -1: 2.0})
        assert fld.mean_intensity(f) == pytest.approx(5.0)

    def test_pairing_same_mode(self):
        f = fld.TorusField.single_mode(1, 1.0)
        assert fld.pairing(f, f) == pytest.approx(TWO_PI)

    def test_pairing_orthogonal(self):
        f = fld.TorusField.single_mode(1, 1.0)
        g = fld.TorusField.single_mode(2, 1.0)
        assert fld.pairing(f, g) == 0

    def test_mean_intensity_is_normalized_pairing(self):
        f = random_field(6, seed=2)
        assert fld.mean_intensity(f) == pytest.approx(
            fld.pairing(f, f).real / TWO_PI, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_pairing_conjugate_symmetry(self, s1, s2):
        f, g = random_field(4, seed=s1), random_field(4, seed=s2)
        assert fld.pairing(f, g) == pytest.approx(np.conj(fld.pairing(g, f)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_pairing_linear_first_argument(self, seed):
        f, g, h = (random_field(3, seed=seed + k) for k in range(3))
        lhs = fld.pairing(f + 2.0 * g, h)
        rhs = fld.pairing(f, h) + 2.0 * fld.pairing(g, h)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestQuadrature:
    def test_quartic_integral_matches_dense_oracle(self):
        f = random_field(6, seed=5)
        assert fld.quartic_integral(f) == pytest.approx(
            dense_quartic_integral(f.coeffs, 6), rel=1e-10)


class _Traj:
    def __init__(self, times, snapshots):
        self.times = times
        self.snapshots = snapshots


class TestSpacetimeL4:
    def test_constant_plane_wave(self):
        # |u| = A everywhere: norm over unit time is (2 pi)^(1/4) A, exactly
        # reproduced by the left rectangle rule for a constant integrand.
        amp = 1.7
        f = fld.TorusField.single_mode(1, amp)
        traj = _Traj(np.linspace(0, 1, 11), [f] * 11)
        assert fld.spacetime_l4_norm(traj) == pytest.approx(
            TWO_PI**0.25 * amp, rel=1e-12)

    def test_zero_trajectory(self):
        z = fld.TorusField.zeros(2)
        traj = _Traj(np.linspace(0, 1, 5), [z] * 5)
        assert fld.spacetime_l4_norm(traj) == 0.0

    def test_amplitude_homogeneity(self):
        f = random_field(3, seed=1)
        traj1 = _Traj(np.linspace(0, 1, 5), [f] * 5)
        traj2 = _Traj(np.linspace(0, 1, 5), [2.0 * f] * 5)
        assert fld.spacetime_l4_norm(traj2) == pytest.approx(
            2.0 * fld.spacetime_l4_norm(traj1), rel=1e-12)

    def test_several_exponents_from_one_synthesis(self):
        # one pass on the p=6 grid gives every sum the one-exponent norm gives
        snaps = [random_field(5, seed=s) for s in range(4)]
        traj = _Traj(np.linspace(0, 0.3, 4), snaps)
        s4, s6 = fld._lp_sums(traj, (4.0, 6.0))
        assert s4 == pytest.approx(fld.spacetime_lp_norm(traj, 4.0) ** 4, rel=1e-12)
        assert s6 == pytest.approx(fld.spacetime_lp_norm(traj, 6.0) ** 6, rel=1e-12)

    def test_nonuniform_times_rejected(self):
        f = random_field(2)
        with pytest.raises(ValueError):
            fld.spacetime_l4_norm(_Traj(np.array([0.0, 0.1, 0.3]), [f] * 3))

    def test_single_snapshot_rejected(self):
        with pytest.raises(ValueError):
            fld.spacetime_l4_norm(_Traj(np.array([0.0]), [random_field(2)]))
