import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wicknls import _kernels as K

from oracles import hermite_reference, triple_sum_cubic


def random_coeffs(max_mode, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(2 * max_mode + 1) + 1j * rng.standard_normal(2 * max_mode + 1)


class TestCubicConvolution:
    @pytest.mark.parametrize("max_mode", [0, 1, 4, 7])
    def test_numpy_path_matches_triple_sum(self, max_mode):
        c = random_coeffs(max_mode, seed=max_mode)
        got = K.cubic_convolution(c)
        want = triple_sum_cubic(c, max_mode)
        assert len(got) == 6 * max_mode + 1
        assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))
        # the Galerkin projections onto bands N, 2N and 3N are central slices
        full = 3 * max_mode
        for band in (max_mode, 2 * max_mode, full):
            got = K.cubic_convolution(c, band)
            part = want[full - band:full + band + 1]
            assert np.max(np.abs(got - part)) < 1e-12 * max(1.0, np.max(np.abs(part)))

    @pytest.mark.parametrize("max_mode", [0, 5])
    def test_batched_rows_match_one_row_calls(self, max_mode):
        block = np.array([random_coeffs(max_mode, seed=s) for s in range(4)])
        block[2] = 0.0
        for band in (max_mode, 3 * max_mode):
            cubic = K.GalerkinCubic(len(block), max_mode, band)
            cubic.inputs[...] = block
            got = cubic(np.empty((len(block), 2 * band + 1), dtype=complex))
            for row, c in zip(got, block):
                assert row.tobytes() == K.cubic_convolution(c, band).tobytes()

    def test_even_grid_matches_triple_sum(self):
        # band 64 needs 3N + K + 1 = 257 points: the 7-smooth 270, not the odd 315
        c = random_coeffs(64, seed=64)
        cubic = K.GalerkinCubic(2, 64, 64)
        assert cubic.intensity.shape == (2, 270)
        cubic.inputs[...] = [c, 0.5j * c]
        got = cubic(np.empty((2, 129), dtype=complex), -2.0)
        want = -2.0 * triple_sum_cubic(c, 64)[128:257]
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got[0] - want)) < 1e-12 * scale
        assert np.max(np.abs(got[1] - 0.125j * want)) < 1e-12 * scale

    def test_band_below_the_input_band_is_rejected(self):
        with pytest.raises(ValueError):
            K.cubic_convolution(random_coeffs(3), 2)

    def test_fft_path_matches_numpy_path(self):
        c = random_coeffs(60, seed=1)
        a = K.cubic_convolution(c)
        b = triple_sum_cubic(c, 60)
        assert np.max(np.abs(a - b)) < 1e-11 * np.max(np.abs(b))

    def test_dispatch_small_and_large(self):
        # bands on both sides of mode 48, where a direct O(N^2) route once
        # took over from the transform: one route now serves both
        for n in (3, 58):
            c = random_coeffs(n, seed=n)
            got = K.cubic_convolution(c)
            assert len(got) == 6 * n + 1
            ref = triple_sum_cubic(c, n)
            assert np.max(np.abs(got - ref)) < 1e-11 * np.max(np.abs(ref))


class TestHermiteBatch:
    @pytest.mark.parametrize("degree", [0, 1, 2, 5, 12])
    def test_numpy_path_matches_closed_form(self, degree):
        x = np.linspace(-3, 3, 41)
        got = K.hermite_batch(degree, x, 1.0)
        want = np.array([hermite_reference(degree, xi, 1.0) for xi in x])
        assert np.max(np.abs(got - want)) < 1e-9 * max(1.0, np.max(np.abs(want)))

    def test_variance_parameter(self):
        x = np.array([1.25])
        got = K.hermite_batch(4, x, 2.5)[0]
        assert got == pytest.approx(hermite_reference(4, 1.25, 2.5), rel=1e-12)


def _near_pole(k: int, ulps: int) -> float:
    """A phase theta whose half lies ``ulps`` ULP from (2k + 1) pi / 2, where tan ~ 1e16."""
    half = (2 * k + 1) * np.pi / 2
    for _ in range(abs(ulps)):
        half = np.nextafter(half, np.copysign(np.inf, ulps))
    return 2.0 * half


class TestNonlinearPhase:
    def test_numpy_path(self):
        u = np.array([1.0 + 0j, 2.0j, 0.5 - 0.5j])
        v = u.copy()
        K.nonlinear_phase(v, 0.3, -0.1)
        expect = u * np.exp(0.3j * (np.abs(u) ** 2 - 0.1))
        assert np.allclose(v, expect, atol=1e-15)

    @pytest.mark.parametrize("shape, offset", [((64,), -0.4), ((3, 64), None)])
    def test_matches_exponential_form(self, shape, offset):
        rng = np.random.default_rng(7)
        u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if offset is None:  # one offset per row of a stack
            offset = rng.standard_normal((shape[0], 1))
        v = u.copy()
        K.nonlinear_phase(v, 0.7, offset)
        expect = u * np.exp(1j * 0.7 * (np.abs(u) ** 2 + offset))
        assert np.allclose(v, expect, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("offset", [-0.4, 0.0, None])
    def test_cayley_contract(self, offset):
        rng = np.random.default_rng(8)
        u = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
        if offset is None:  # one offset per row of a stack
            offset = rng.standard_normal((3, 1))
        work = K.phase_work(u.shape)
        for _ in range(2):  # the prebuilt views serve every call
            v = u.copy()
            K.nonlinear_phase(v, 0.7, offset, work=work)
        # the prebuilt buffer and view change nothing, and den keeps real part 1
        w = u.copy()
        K.nonlinear_phase(w, 0.7, offset)
        assert v.tobytes() == w.tobytes()
        a2, den, den_imag = work
        assert np.shares_memory(den, den_imag)
        assert np.array_equal(den.real, np.ones(u.shape))
        # one buffer holds both Cayley factors: it ends as the numerator 1 + i tau
        assert np.array_equal(den_imag, -np.tan(a2))
        # each row is rotated as it would be alone, as evolve_batch promises
        for r in range(len(u)):
            row = u[r:r + 1].copy()
            K.nonlinear_phase(row, 0.7, offset[r:r + 1] if isinstance(offset, np.ndarray)
                              else offset)
            assert np.array_equal(v[r:r + 1], row)
        # the Cayley form of exp(i theta) holds to roundoff
        expect = u * np.exp(1j * 0.7 * (np.abs(u) ** 2 + offset))
        assert np.max(np.abs(v - expect)) <= 1e-15 * np.max(np.abs(u))

    def test_modulus_preserved(self):
        rng = np.random.default_rng(6)
        u = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        before = np.abs(u).copy()
        K.nonlinear_phase(u, 1.3, -0.4)
        assert np.max(np.abs(np.abs(u) - before)) < 1e-14

    @settings(max_examples=200, deadline=None)
    @given(theta=st.one_of(st.floats(-12.0, 6.0).map(lambda e: 10.0 ** e),
                           st.builds(_near_pole, st.integers(0, 159_000),
                                     st.integers(-4, 4))),
           sign=st.sampled_from([1, -1]), exponent=st.integers(-4, 4),
           axis=st.sampled_from([1, -1, 1j, -1j]), zero_offset=st.floats(-10.0, 10.0),
           bad=st.sampled_from([np.inf, complex(0.0, -np.inf), np.nan, 1e200]),
           seed=st.integers(0, 2**32 - 1))
    def test_rotation_property(self, theta, sign, exponent, axis, zero_offset, bad, seed):
        # element 0 of row 0 has |u|^2 = 4^exponent exactly, so its phase is
        # exactly sign * theta; row 1 is zero, row 2 is row 0 with one
        # non-finite intensity
        rng = np.random.default_rng(seed)
        scale = 2.0 ** exponent
        factor = sign * theta / (scale * scale)
        u = np.empty((3, 32), dtype=complex)
        u[0] = (rng.standard_normal(32) + 1j * rng.standard_normal(32)) * (scale / 2)
        u[0, 0] = axis * scale
        u[1] = 0.0
        u[2] = u[0]
        u[2, 1] = bad
        v = u.copy()
        with np.errstate(over="ignore", invalid="ignore"):  # from row 2's bad value
            K.nonlinear_phase(v, factor, np.array([[0.0], [zero_offset], [0.0]]))
        modulus = np.abs(u[0])
        assert np.all(np.abs(np.abs(v[0]) - modulus) <= 1e-15 * modulus)
        expect = u[0] * np.exp(1j * factor * np.abs(u[0]) ** 2)
        assert np.all(np.abs(v[0] - expect) <= 1e-15 * modulus)
        assert np.array_equal(v[1], np.zeros(32))
        assert np.isnan(v[2, 1])
        assert np.array_equal(np.delete(v[2], 1), np.delete(v[0], 1))


class TestFastFftSize:
    def test_smooth_and_minimal(self):
        for m in (1, 7, 100, 1539):
            size = K.fast_fft_size(m)
            assert size >= m
            k = size
            for p in (2, 3, 5, 7):
                while k % p == 0:
                    k //= p
            assert k == 1

    def test_odd_constraint(self):
        size = K.fast_fft_size(1540, odd=True)
        assert size % 2 == 1 and size >= 1540

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            K.fast_fft_size(0)
