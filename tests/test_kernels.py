import numpy as np
import pytest

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

    @pytest.mark.parametrize("shape, offset", [((64,), -0.4), ((3, 64), 0.0),
                                               ((3, 64), None)])
    def test_work_buffers_bit_for_bit(self, shape, offset):
        rng = np.random.default_rng(8)
        u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if offset is None:
            offset = rng.standard_normal((shape[0], 1))
        a2, rotation = np.empty(shape), np.empty(shape, dtype=complex)
        v = u.copy()
        K.nonlinear_phase(v, 0.7, offset, a2=a2, rotation=rotation)
        intensity = u.real * u.real + u.imag * u.imag
        theta = 0.7 * (intensity + offset)
        assert np.array_equal(v, u * np.exp(1j * 0.7 * (intensity + offset)))
        # the kernel worked in the buffers it was handed
        assert np.array_equal(a2, theta)
        assert np.array_equal(rotation, np.exp(1j * theta))

    def test_modulus_preserved(self):
        rng = np.random.default_rng(6)
        u = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        before = np.abs(u).copy()
        K.nonlinear_phase(u, 1.3, -0.4)
        assert np.max(np.abs(np.abs(u) - before)) < 1e-14


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
