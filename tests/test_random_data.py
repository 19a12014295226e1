import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from wicknls import field as fld
from wicknls import random_data as rnd
from wicknls.field import SpecFieldError
from wicknls.wick import renormalization_constant

from oracles import keyed_sample_coeffs, regularity_profile_loop


class TestSpecValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            rnd.RandomDataSpec(alpha=-0.5, max_mode=4, seed=0)
        with pytest.raises(ValueError):
            rnd.RandomDataSpec(alpha=0.0, max_mode=-1, seed=0)
        with pytest.raises(ValueError):
            rnd.RandomDataSpec(alpha=0.0, max_mode=4, seed=-3)
        with pytest.raises(ValueError):
            rnd.RandomDataSpec(alpha=0.0, max_mode=4, seed=0, gaussian_scale=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("alpha", math.nan), ("alpha", math.inf),
        ("gaussian_scale", math.nan), ("gaussian_scale", math.inf),
    ])
    def test_rejects_non_finite_parameters(self, field, value):
        kwargs = {"alpha": 0.0, "max_mode": 4, "seed": 0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            rnd.RandomDataSpec(**kwargs)

    @pytest.mark.parametrize("seed", [1.5, 2.0, "3"])
    def test_rejects_non_integral_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            rnd.RandomDataSpec(alpha=0.0, max_mode=4, seed=seed)

    @pytest.mark.parametrize("draw", [rnd.sample, lambda spec: rnd.sample_ensemble(spec, 1)],
                             ids=["sample", "ensemble-call"])
    def test_unallocatable_band_names_max_mode(self, draw):
        # the spec admits 2**57 - 1, but numpy refuses the 4 EiB of its
        # normals at once, before a page is touched; an ensemble meets it
        # when called, not at its first member
        spec = rnd.RandomDataSpec(alpha=0.0, max_mode=2**57 - 1, seed=0)
        with pytest.raises(SpecFieldError, match="max_mode .* is too large") as info:
            draw(spec)
        assert info.value.field == "max_mode"

    def test_offset_band_checked(self):
        wide = fld.TorusField.single_mode(6, 1.0)
        with pytest.raises(ValueError):
            rnd.RandomDataSpec(alpha=0.0, max_mode=4, seed=0, offset=wide)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        spec = rnd.RandomDataSpec(alpha=1.0, max_mode=16, seed=42)
        a, b = rnd.sample(spec), rnd.sample(spec)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_seed_changes_output(self):
        a = rnd.sample(rnd.RandomDataSpec(alpha=1.0, max_mode=16, seed=1))
        b = rnd.sample(rnd.RandomDataSpec(alpha=1.0, max_mode=16, seed=2))
        assert not np.allclose(a.coeffs, b.coeffs)

    def test_truncations_nested(self):
        # the same seed draws the same coefficient at mode n regardless of
        # the band, so wider samples extend narrower ones
        small = rnd.sample(rnd.RandomDataSpec(alpha=0.5, max_mode=8, seed=5))
        wide = rnd.sample(rnd.RandomDataSpec(alpha=0.5, max_mode=64, seed=5))
        assert np.array_equal(fld.project(wide, 8).coeffs, small.coeffs)

    def test_ensemble_distinct_and_reproducible(self):
        spec = rnd.RandomDataSpec(alpha=0.0, max_mode=8, seed=9)
        fields = list(rnd.sample_ensemble(spec, 3))
        assert np.array_equal(fields[0].coeffs, rnd.sample(spec, 0).coeffs)
        assert not np.allclose(fields[0].coeffs, fields[1].coeffs)


def _offset(band):
    m = min(band, 2)
    return fld.TorusField.from_modes({n: complex(n, 0.5 - n) for n in range(-m, m + 1)}, m)


# unsorted, with gaps and repeats, empty; small indices and the full 64-bit range
_INDEX_LISTS = (st.lists(st.integers(0, 20), max_size=8)
                | st.lists(st.integers(0, 2**64 - 1), max_size=4))


class TestSampleBlock:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1),
           band=st.integers(0, 40), alpha=st.sampled_from([0.0, 0.5, 1.0, 1.7]),
           scale=st.sampled_from([1.0, 0.0, 2.5]), with_offset=st.booleans(),
           indices=_INDEX_LISTS)
    def test_rows_bit_identical_to_sample(self, seed, band, alpha, scale, with_offset,
                                          indices):
        offset = _offset(band) if with_offset else None
        spec = rnd.RandomDataSpec(alpha=alpha, max_mode=band, seed=seed,
                                  gaussian_scale=scale, offset=offset)
        block = rnd.sample_block(spec, indices)
        assert block.shape == (len(indices), 2 * band + 1)
        assert block.dtype == np.complex128 and block.flags.c_contiguous
        off = None if offset is None else offset.padded_to(band).coeffs
        for row, k in zip(block, indices):
            assert row.tobytes() == rnd.sample(spec, k).coeffs.tobytes()
            assert row.tobytes() == keyed_sample_coeffs(seed, k, alpha, band, scale,
                                                        off).tobytes()

    def test_empty(self):
        spec = rnd.RandomDataSpec(alpha=1.0, max_mode=5, seed=0)
        assert rnd.sample_block(spec, []).shape == (0, 11)
        assert list(rnd.sample_ensemble(spec, 0)) == []

    @pytest.mark.parametrize("count", [-1, True, 2.0])
    def test_ensemble_rejects_count_when_called(self, count):
        # no next(): the count is checked by the call itself
        spec = rnd.RandomDataSpec(alpha=1.0, max_mode=5, seed=0)
        with pytest.raises(SpecFieldError, match=rf"count must be .* \(got {count!r}\)"):
            rnd.sample_ensemble(spec, count)

    def test_ensemble_accepts_numpy_count(self):
        spec = rnd.RandomDataSpec(alpha=1.0, max_mode=5, seed=0)
        fields = list(rnd.sample_ensemble(spec, np.int64(2)))
        assert [f.coeffs.tobytes() for f in fields] == \
            [rnd.sample(spec, k).coeffs.tobytes() for k in range(2)]

    def test_rejects_index_outside_64_bits(self):
        spec = rnd.RandomDataSpec(alpha=1.0, max_mode=5, seed=0)
        for indices in ([-1], [0, -1], [2**64], [3, 2**64], range(-1, 3),
                        range(2**64 - 2, 2**64 + 1), np.array([4, -2])):
            bad = min(indices) if min(indices) < 0 else max(indices)
            with pytest.raises(ValueError, match=r"index must lie in \[0, 2\*\*64\) and be "
                               rf"an integer \(got {re.escape(repr(bad))}\)"):
                rnd.sample_block(spec, indices)

    @pytest.mark.parametrize("indices", [[0, 1.5], [True], [2, np.True_], [3.0],
                                         np.array([0.5]), ["1"]])
    def test_rejects_non_integral_index(self, indices):
        # a float or bool index once drew the member it rounds or casts to
        spec = rnd.RandomDataSpec(alpha=1.0, max_mode=5, seed=0)
        pattern = rf"\(got {re.escape(repr(indices[-1]))}\)"
        with pytest.raises(ValueError, match=pattern):
            rnd.sample_block(spec, indices)
        with pytest.raises(ValueError, match=pattern):
            rnd.sample(spec, indices[-1])

    def test_accepts_numpy_and_mixed_width_integers(self):
        spec = rnd.RandomDataSpec(alpha=1.0, max_mode=5, seed=0)
        indices = [np.uint64(2**64 - 1), 0, np.int32(3), 2**63]
        block = rnd.sample_block(spec, indices)
        for row, k in zip(block, indices):
            assert row.tobytes() == rnd.sample(spec, int(k)).coeffs.tobytes()
        assert rnd.sample_block(spec, np.arange(3)).tobytes() == \
            rnd.sample_block(spec, range(3)).tobytes()

    def test_sample_rejects_index_outside_64_bits(self):
        spec = rnd.RandomDataSpec(alpha=1.0, max_mode=5, seed=0)
        for index in (-1, 2**64):
            with pytest.raises(ValueError, match=r"index must lie in \[0, 2\*\*64\)"):
                rnd.sample(spec, index)
        last = rnd.sample(spec, 2**64 - 1)
        assert np.array_equal(last.coeffs, rnd.sample_block(spec, [2**64 - 1])[0])

    def test_ensemble_across_block_boundary(self):
        spec = rnd.RandomDataSpec(alpha=0.0, max_mode=256, seed=7)
        rows_per_block = rnd._BLOCK_NORMALS // (2 * 513)
        count = 2 * rows_per_block + 4
        fields = list(rnd.sample_ensemble(spec, count))
        assert len(fields) == count
        for k, f in enumerate(fields):
            assert f.coeffs.tobytes() == rnd.sample(spec, k).coeffs.tobytes()

    def test_ensemble_members_are_read_only_views(self):
        spec = rnd.RandomDataSpec(alpha=1.0, max_mode=40, seed=3, gaussian_scale=2.0,
                                  offset=fld.TorusField.from_modes({0: 0.5, -2: 1j}))
        rows_per_block = rnd._BLOCK_NORMALS // (2 * 81)
        count = 2 * rows_per_block + 3
        for k, f in enumerate(rnd.sample_ensemble(spec, count)):
            assert f.coeffs.tobytes() == rnd.sample(spec, k).coeffs.tobytes()
            assert f.max_mode == 40 and not f.coeffs.flags.writeable
            with pytest.raises(ValueError):
                f.coeffs[0] = 0.0

    @pytest.mark.parametrize("alpha, band, cutoffs, samples", [
        (1.0, 64, [0, 5, 16, 64], 300),   # two blocks of 254 rows and 46
        (0.5, 3, [1, 3], 7),
    ])
    def test_profile_matches_per_sample_loop(self, alpha, band, cutoffs, samples):
        spec = rnd.RandomDataSpec(alpha=alpha, max_mode=band, seed=12)
        s_values = [0.0, -0.25, 0.5]
        rows = rnd.regularity_profile(spec, s_values, cutoffs, samples)
        want = regularity_profile_loop(lambda k: rnd.sample(spec, k).coeffs, band,
                                       s_values, cutoffs, samples)
        assert rows == want

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), small=st.integers(0, 16),
           extra=st.integers(0, 48), alpha=st.floats(0.0, 3.0), indices=_INDEX_LISTS)
    def test_truncations_nested(self, seed, small, extra, alpha, indices):
        wide = small + extra
        big = rnd.sample_block(rnd.RandomDataSpec(alpha=alpha, max_mode=wide, seed=seed),
                               indices)
        narrow = rnd.sample_block(rnd.RandomDataSpec(alpha=alpha, max_mode=small,
                                                     seed=seed), indices)
        assert big[:, extra:extra + 2 * small + 1].tobytes() == narrow.tobytes()


class TestDistribution:
    def test_offset_only_at_zero_scale(self):
        v0 = fld.TorusField.single_mode(1, 2.0 + 1.0j)
        spec = rnd.RandomDataSpec(alpha=1.0, max_mode=4, seed=0, offset=v0,
                                  gaussian_scale=0.0)
        u = rnd.sample(spec)
        assert np.array_equal(u.coeffs, v0.padded_to(4).coeffs)

    def test_white_noise_mode_variance(self):
        # alpha = 0: E|u(n)|^2 = 1/2 on every mode
        spec = rnd.RandomDataSpec(alpha=0.0, max_mode=4, seed=3)
        coeffs = rnd.sample_block(spec, range(100_000))
        second = np.mean(np.abs(coeffs) ** 2, axis=0)
        stderr = np.std(np.abs(coeffs) ** 2, axis=0) / math.sqrt(len(coeffs))
        assert np.all(np.abs(second - 0.5) <= 3.0 * stderr)

    def test_mode_independence(self):
        spec = rnd.RandomDataSpec(alpha=0.0, max_mode=3, seed=11)
        coeffs = rnd.sample_block(spec, range(50_000))
        a, b = coeffs[:, 1], coeffs[:, 4]  # modes -2 and +1
        corr = np.mean(a * np.conj(b))
        assert abs(corr) <= 3.0 / math.sqrt(len(coeffs))

    def test_rotation_invariance_chi2(self):
        # phases of a fixed mode are uniform: chi-squared test at the 1% level
        spec = rnd.RandomDataSpec(alpha=0.5, max_mode=2, seed=21)
        phases = np.angle(rnd.sample_block(spec, range(100_000))[:, 1 + spec.max_mode])
        counts, _ = np.histogram(phases, bins=16, range=(-np.pi, np.pi))
        expected = len(phases) / 16.0
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < stats.chi2.ppf(0.99, 15)


class TestExpectedMeanIntensity:
    def test_matches_renormalization_constant(self):
        spec = rnd.RandomDataSpec(alpha=1.0, max_mode=1, seed=0)
        assert rnd.expected_mean_intensity(spec) == 2.0
        spec = rnd.RandomDataSpec(alpha=0.7, max_mode=33, seed=0)
        assert rnd.expected_mean_intensity(spec) == renormalization_constant(33, 0.7)

    def test_offset_adds(self):
        v0 = fld.TorusField.single_mode(1, 1.0)
        spec = rnd.RandomDataSpec(alpha=1.0, max_mode=2, seed=0, offset=v0,
                                  gaussian_scale=0.0)
        assert rnd.expected_mean_intensity(spec) == 1.0

    def test_monte_carlo_agreement(self):
        spec = rnd.RandomDataSpec(alpha=1.0, max_mode=8, seed=17)
        vals = np.array([fld.mean_intensity(u) for u in rnd.sample_ensemble(spec, 100_000)])
        stderr = vals.std() / math.sqrt(len(vals))
        assert abs(vals.mean() - rnd.expected_mean_intensity(spec)) <= 3.0 * stderr


class TestRegularityProfile:
    def test_validation(self):
        spec = rnd.RandomDataSpec(alpha=0.0, max_mode=16, seed=0)
        with pytest.raises(ValueError):
            rnd.regularity_profile(spec, [0.0], [4, 32], samples=10)
        with pytest.raises(ValueError):
            rnd.regularity_profile(spec, [0.0], [8, 4], samples=10)

    @pytest.mark.parametrize("cutoffs, samples, message", [
        ([4, 8], 0, "samples must be >= 1"),
        ([4, 8], -2, "samples must be >= 1"),
        ([-1, 4], 10, "cutoffs must be >= 0"),
    ])
    def test_rejects_empty_ensemble_and_negative_cutoff(self, cutoffs, samples, message):
        spec = rnd.RandomDataSpec(alpha=0.0, max_mode=16, seed=0)
        with pytest.raises(ValueError, match=message):
            rnd.regularity_profile(spec, [0.0], cutoffs, samples=samples)

    def test_white_noise_sqrt_growth(self):
        spec = rnd.RandomDataSpec(alpha=0.0, max_mode=256, seed=1)
        rows = rnd.regularity_profile(spec, [0.0], [16, 32, 64, 128, 256], samples=3000)
        meds = np.array([r["median"] for r in rows])
        cutoffs = np.array([r["cutoff"] for r in rows], dtype=float)
        slope = np.polyfit(np.log(cutoffs), np.log(meds), 1)[0]
        assert 0.45 <= slope <= 0.55

    def test_free_field_saturates(self):
        spec = rnd.RandomDataSpec(alpha=1.0, max_mode=64, seed=2)
        rows = rnd.regularity_profile(spec, [0.0], [16, 64], samples=40_000)
        ratio_sq = (rows[1]["median"] / rows[0]["median"]) ** 2
        deterministic = renormalization_constant(64, 1.0) / renormalization_constant(16, 1.0)
        assert abs(ratio_sq / deterministic - 1.0) < 0.02

    def test_critical_line_slow_growth(self):
        # s = alpha - 1/2: squared norms grow like log M, far slower than
        # any power; check the doubling increments shrink
        spec = rnd.RandomDataSpec(alpha=1.0, max_mode=256, seed=3)
        rows = rnd.regularity_profile(spec, [0.5], [16, 64, 256], samples=3000)
        meds = [r["median"] for r in rows]
        assert meds[0] < meds[1] < meds[2]  # unbounded growth
        assert (meds[2] - meds[1]) < (meds[1] - meds[0]) * 1.2  # but sublinear in log M

    def test_quartiles_ordered(self):
        spec = rnd.RandomDataSpec(alpha=0.5, max_mode=8, seed=4)
        rows = rnd.regularity_profile(spec, [0.0, -0.25], [4, 8], samples=500)
        assert len(rows) == 4
        for r in rows:
            assert r["q25"] <= r["median"] <= r["q75"]
