import math

import numpy as np
import pytest

from wicknls import _kernels as K
from wicknls import cli
from wicknls import field as fld
from wicknls import serialization as ser
from wicknls import wick

from oracles import (gaussian_even_moment, hermite_recurrence, hermite_reference,
                     hypercontractivity_moments, rational_weight_sum)

TWO_PI = 2.0 * np.pi


def standard_complex_gaussians(count, seed=0):
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    z = gen.standard_normal((count, 2))
    return z[:, 0] + 1j * z[:, 1]  # Var(g) = 2


class TestHermite:
    def test_h2(self):
        assert wick.hermite(2, 2.0, 1.0) == 3.0

    def test_h4(self):
        assert wick.hermite(4, 1.0, 1.0) == -2.0

    def test_degree_zero(self):
        assert wick.hermite(0, 7.3, 2.0) == 1.0

    @pytest.mark.parametrize("n", [1, 3, 6, 10])
    def test_matches_closed_form(self, n):
        for x in (-2.5, 0.3, 1.9):
            for sigma in (0.5, 1.0, 3.0):
                assert wick.hermite(n, x, sigma) == pytest.approx(
                    hermite_reference(n, x, sigma), rel=1e-10, abs=1e-10)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            wick.hermite(-1, 0.0)
        with pytest.raises(ValueError):
            wick.hermite(2, 0.0, 0.0)
        with pytest.raises(ValueError):
            wick.hermite(2, 1.0, math.nan)
        with pytest.raises(ValueError):
            wick.hermite(51, 0.0)

    @pytest.mark.parametrize("sigma", [1.0, 0.7, 2.5])
    def test_work_buffers_bit_for_bit(self, sigma):
        # one out row and one pair of work rows serve every degree in turn; a
        # strided column of a (b, 2) batch reads as its contiguous copy
        x = np.random.default_rng(5).standard_normal((1001, 2))
        out, work = np.full(1001, np.nan), np.full((2, 1001), np.nan)
        for n in range(8):
            got = K.hermite_batch(n, x[:, 1], sigma, out=out, work=work)
            assert got is out
            assert got.tobytes() == hermite_recurrence(n, x[:, 1].copy(), sigma).tobytes()
            assert K.hermite_batch(n, x[:, 1], sigma).tobytes() == got.tobytes()

    def test_generating_function(self):
        # |t| <= 0.5: the degree-12 partial sum of sum H_n t^n / n! tracks
        # exp(t x - sigma t^2 / 2) to 1e-8 (tail term H_13 t^13/13! is below
        # that for these x, sigma)
        for x in (-1.5, 0.0, 1.5):
            for sigma in (0.5, 1.0):
                for t in (-0.5, 0.25, 0.5):
                    series = sum(wick.hermite(k, x, sigma) * t**k / math.factorial(k)
                                 for k in range(13))
                    assert abs(series - math.exp(t * x - 0.5 * sigma * t * t)) < 1e-8

    def test_orthogonality_monte_carlo(self):
        gen = np.random.Generator(np.random.Philox(key=np.array([3, 0], dtype=np.uint64)))
        x = gen.standard_normal(400_000)
        for m, n in ((1, 2), (2, 3), (1, 4)):
            prod = wick.hermite(m, x) * wick.hermite(n, x)
            assert abs(prod.mean()) <= 3.0 * prod.std() / math.sqrt(len(x))
        for n in (1, 2, 3, 4):
            sq = wick.hermite(n, x) ** 2
            stderr = sq.std() / math.sqrt(len(x))
            assert abs(sq.mean() - math.factorial(n)) <= 3.0 * stderr


class TestWickPowers:
    def test_square_values(self):
        assert wick.wick_abs_square(1 + 1j, 2.0) == 0.0
        assert wick.wick_abs_square(0.0, 2.0) == -2.0

    def test_fourth_values(self):
        # |g|^4 - 4 Var |g|^2 + 2 Var^2 at g = 1+i, Var 2: 4 - 16 + 8
        assert wick.wick_abs_fourth(1 + 1j, 2.0) == -4.0
        assert wick.wick_abs_fourth(0.0, 2.0) == 8.0

    def test_zero_mean_under_matching_variance(self):
        g = standard_complex_gaussians(1_000_000, seed=7)
        for values in (wick.wick_abs_square(g, 2.0), wick.wick_abs_fourth(g, 2.0)):
            stderr = values.std() / math.sqrt(len(values))
            assert abs(values.mean()) <= 3.0 * stderr

    def test_fourth_equals_chaos_expansion(self):
        # :|g|^4: = H4(x) + 2 H2(x) H2(y) + H4(y) for g = x + iy, Var 2
        xs, ys = np.meshgrid(np.linspace(-3, 3, 25), np.linspace(-3, 3, 25))
        lhs = wick.wick_abs_fourth(xs + 1j * ys, 2.0)
        rhs = (wick.hermite(4, xs) + 2.0 * wick.hermite(2, xs) * wick.hermite(2, ys)
               + wick.hermite(4, ys))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestWickCheckSuite:
    def test_identity_checks_pass(self):
        checks = wick.identity_checks()
        assert [c["name"] for c in checks] == [
            "hermite_h2", "hermite_h4", "hermite_generating_function",
            "wick_fourth_chaos_expansion"]
        assert all(c["pass"] is True for c in checks)

    def test_power_means_fail_only_under_a_wrong_variance(self):
        for variance, passed in ((2.0, True), (3.0, False)):
            checks = wick.wick_power_means(7, 20_000, variance)
            assert [c["name"] for c in checks] == ["wick_square_mean", "wick_fourth_mean"]
            assert [c["pass"] for c in checks] == [passed, passed]
            assert all(c["variance"] == variance for c in checks)

    @pytest.mark.parametrize("seed, samples, variance, field", [
        (2**64, 1_000, 2.0, "seed"),
        (-1, 1_000, 2.0, "seed"),
        (1.5, 1_000, 2.0, "seed"),
        (0, 1, 2.0, "samples"),
        (0, 2.5, 2.0, "samples"),
        (0, 2**60, 2.0, "samples"),  # a draw numpy cannot allocate
        (0, 1_000, 0.0, "variance"),
        (0, 1_000, -2.0, "variance"),
        (0, 1_000, math.nan, "variance"),
        (0, 1_000, math.inf, "variance"),
    ])
    def test_power_means_reject_an_argument_before_any_draw(self, monkeypatch, seed, samples,
                                                            variance, field):
        def refuse(*args):
            raise AssertionError("a normal was drawn")
        monkeypatch.setattr(wick, "philox_streams", refuse)
        with pytest.raises(fld.SpecFieldError, match=field) as info:
            wick.wick_power_means(seed, samples, variance)
        assert info.value.field == field


    def test_case_seed_names_the_seed_and_the_key(self):
        assert wick._case_seed(2**64 - 2, 0) == 2**64 - 1
        with pytest.raises(fld.SpecFieldError) as info:
            wick._case_seed(2**64 - 2, 1)
        assert info.value.field == "seed"
        assert str(info.value) == (f"the key seed + 2 of hypercontractivity case 1 is {2**64}, "
                                   f"outside [0, 2**64) (got seed {2**64 - 2})")


class TestRenormalizationConstant:
    def test_zero_band(self):
        assert wick.renormalization_constant(0, 1.0) == 1.0

    def test_first_band(self):
        assert wick.renormalization_constant(1, 1.0) == 2.0

    def test_matches_rational_sum(self):
        got = wick.renormalization_constant(10, 1.0)
        assert got == pytest.approx(float(rational_weight_sum(10, 2)), rel=1e-13)
        assert got == pytest.approx(2.96358564467035, rel=1e-10)

    def test_white_noise_weights(self):
        # alpha = 0 gives weight 1/2 on every mode including n = 0
        assert wick.renormalization_constant(4, 0.0) == pytest.approx(4.5)

    def test_log_growth_needs_exponent_one(self):
        # The alpha = 1 sum converges (to pi coth pi), so only the exponent-1
        # weight reproduces logarithmic growth in one dimension.
        a3 = wick.renormalization_constant(1000, 0.5)
        a5 = wick.renormalization_constant(100_000, 0.5)
        assert abs((a5 / math.log(1e5)) / (a3 / math.log(1e3)) - 1.0) < 0.10
        assert wick.renormalization_constant(100_000, 1.0) == pytest.approx(
            math.pi / math.tanh(math.pi), rel=1e-4)


class TestIntensityFluctuation:
    def test_zero_field(self):
        z = fld.TorusField.zeros(3)
        assert wick.intensity_fluctuation(z, 0, 1.0) == -1.0

    def test_definition(self):
        f = fld.TorusField.from_modes({0: 1.0, 1: 1.0})
        expect = 2.0 - wick.renormalization_constant(1, 1.0)
        assert wick.intensity_fluctuation(f, 1, 1.0) == pytest.approx(expect)

    def test_stabilizes_in_band(self):
        # tail effect on c_N shrinks fast: compare N = 20 vs N = 50 samplewise
        from wicknls.random_data import RandomDataSpec, sample

        spec = RandomDataSpec(alpha=1.0, max_mode=50, seed=13)
        diffs = [wick.intensity_fluctuation(sample(spec, k), 50, 1.0)
                 - wick.intensity_fluctuation(sample(spec, k), 20, 1.0)
                 for k in range(200)]
        assert np.std(diffs) < 0.1
        assert abs(np.mean(diffs)) < 0.05


class TestWickHamiltonian:
    def test_zero_field_constant_term(self):
        # only the constant 2 a^2 survives: (1/4) * 2 pi * 2 * 1 = pi
        z = fld.TorusField.zeros(2)
        assert wick.wick_hamiltonian(z, 0, 1.0, 1) == pytest.approx(math.pi)

    def test_plane_wave_kinetic_part(self):
        f = fld.TorusField.single_mode(1, 1.0, max_mode=2)
        a = wick.renormalization_constant(2, 1.0)
        # kinetic pi; quartic block: |u|^4 = 1 integrates to 2 pi, etc.
        quartic = 0.25 * (TWO_PI - 4.0 * a * TWO_PI + 2.0 * a * a * TWO_PI)
        assert wick.wick_hamiltonian(f, 2, 1.0, 1) == pytest.approx(math.pi + quartic)

    def test_sign_flips_quartic_block(self):
        f = fld.TorusField.from_modes({0: 0.5, 1: 0.25j})
        a_plus = wick.wick_hamiltonian(f, 1, 1.0, 1)
        a_minus = wick.wick_hamiltonian(f, 1, 1.0, -1)
        kinetic = 0.5 * TWO_PI * 0.25**2
        assert a_plus + a_minus == pytest.approx(2.0 * kinetic)


class TestHypercontractivity:
    def test_h2_q4_exact_ratio(self):
        # E[(x^2-1)^4] = 60, E[(x^2-1)^2] = 2: ratio 60^(1/4)/sqrt(2)
        r = wick.hypercontractivity_check(2, 1, 4.0, samples=2_000_000, seed=3)
        ratio = r.lhs / math.sqrt(r.rhs**2 / 9.0)  # rhs = 3 ||F||_2
        exact = 60.0**0.25 / math.sqrt(2.0)
        assert abs(ratio / exact - 1.0) < 0.02
        assert r.lhs <= 3.0 * 1.01  # bound (q-1)^{n/2} = 3 on the raw ratio
        assert r.passed

    def test_gaussian_moment_oracle(self):
        # cross-check the frozen 60 via double factorials
        moments = {k: gaussian_even_moment(k) for k in range(5)}
        e4 = moments[4] - 4 * moments[3] + 6 * moments[2] - 4 * moments[1] + 1
        assert e4 == 60

    def test_order_zero_equality(self):
        r = wick.hypercontractivity_check(0, 1, 4.0, samples=10_000, seed=1)
        assert r.lhs == pytest.approx(r.rhs)
        assert r.passed

    def test_q2_exact_equality(self):
        r = wick.hypercontractivity_check(2, 2, 2.0, samples=10_000, seed=1,
                                          terms=[(1.0, (1, 1))])
        assert r.lhs == r.rhs
        assert r.passed

    def test_validation(self):
        with pytest.raises(ValueError):
            wick.hypercontractivity_check(2, 1, 1.5, samples=10_000)
        with pytest.raises(ValueError):
            wick.hypercontractivity_check(2, 1, 4.0, samples=100)
        with pytest.raises(ValueError):
            wick.hypercontractivity_check(2, 1, 4.0, samples=10_000,
                                          terms=[(1.0, (1,))])
        with pytest.raises(ValueError):
            wick.hypercontractivity_check(2, 0, 4.0, samples=10_000)

    @pytest.mark.parametrize("q", [math.nan, math.inf])
    def test_rejects_non_finite_q(self, q):
        with pytest.raises(ValueError, match="q must be finite"):
            wick.hypercontractivity_check(2, 1, q, samples=10_000)

    @pytest.mark.parametrize("order, terms", [
        (51, None),
        (60, [(1.0, (60,))]),           # a degree past the recurrence's limit
        (60, [(1.0, (30, 30))]),
    ])
    def test_rejects_order_past_hermite_limit(self, order, terms):
        dim = 1 if terms is None else len(terms[0][1])
        with pytest.raises(ValueError, match="order > 50"):
            wick.hypercontractivity_check(order, dim, 4.0, samples=10_000, terms=terms)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed_outside_64_bits(self, seed):
        with pytest.raises(ValueError, match="seed must lie in"):
            wick.hypercontractivity_check(2, 1, 4.0, samples=10_000, seed=seed)

    @pytest.mark.parametrize("degree", [2.5, True])
    def test_rejects_a_degree_that_is_not_an_integer(self, degree):
        # int(2.5) would run it as degree 2, and True as degree 1
        with pytest.raises(fld.SpecFieldError, match="terms must be an integer") as info:
            wick.hypercontractivity_check(2, 1, 4.0, samples=10_000, terms=[(1.0, (degree,))])
        assert info.value.field == "terms"

    @pytest.mark.parametrize("degree", [2, np.int64(2)])
    def test_accepts_integer_degrees(self, degree):
        got = wick.hypercontractivity_check(2, 1, 4.0, samples=10_000, seed=3,
                                            terms=[(1.0, (degree,))])
        assert got == wick.hypercontractivity_check(2, 1, 4.0, samples=10_000, seed=3)

    @pytest.mark.parametrize("q", [2.0, 2.5, 3.0, 4.0, 6.0])
    @pytest.mark.parametrize("order, dim, terms, samples", [
        (2, 1, None, 70_001),                                   # a short second batch
        (3, 2, [(1.0, (3,)), (-0.5, (1, 2))], 10_000),          # one short batch
        (4, 3, [(1.0, (4,)), (0.5, (2, 2)), (2.0, (1, 0, 3))], 131_073),
        (0, 2, [(1.5, (0, 0))], 65_536),                        # exactly one batch
    ])
    def test_matches_allocating_oracle(self, q, order, dim, terms, samples):
        r = wick.hypercontractivity_check(order, dim, q, samples=samples, seed=17,
                                          terms=terms)
        assert (r.lhs, r.rhs, r.stderr, r.passed) == hypercontractivity_moments(
            order, dim, q, samples, 17, terms)

    def test_report_record(self):
        r = wick.hypercontractivity_check(1, 1, 4.0, samples=10_000, seed=2)
        d = r.to_dict()
        assert set(d) == {"n", "d", "q", "samples", "seed", "lhs", "rhs",
                          "stderr", "pass"}

    def test_deterministic_given_seed(self):
        a = wick.hypercontractivity_check(2, 1, 4.0, samples=50_000, seed=9)
        b = wick.hypercontractivity_check(2, 1, 4.0, samples=50_000, seed=9)
        assert a == b


def fresh_normals(seed, index, shape):
    """Normals of a new generator keyed [seed, index]: the stream every draw must equal."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(shape)


class TestGaussianBatches:
    @pytest.mark.parametrize("dim, samples, seed, batch", [
        (1, 25, 4, 10), (3, 30, 4, 10), (2, 7, 4, 64), (2, 41, 2**64 - 1, 8)])
    def test_buffer_matches_allocating_path(self, dim, samples, seed, batch):
        buffer = np.empty((batch, dim))
        fresh = list(wick.gaussian_batches(dim, samples, seed, batch=batch))
        reused = [x.copy() for x in wick.gaussian_batches(dim, samples, seed, batch=batch,
                                                          out=buffer)]
        assert [len(x) for x in fresh] == [len(x) for x in reused]
        assert sum(len(x) for x in fresh) == samples
        for b, (a, c) in enumerate(zip(fresh, reused)):
            assert a.tobytes() == c.tobytes() == fresh_normals(seed, b, (len(a), dim)).tobytes()

    def test_wick_check_draw_is_the_fresh_stream(self, tmp_path):
        # the Monte-Carlo means of the wick-check command come from the
        # stream keyed [seed, 0], the same rule as every batch above
        seed, samples, variance = 2**64 - 1, 5_000, 2.0
        cfg = {"schema_version": 1, "seed": seed, "mc_samples": samples,
               "wick_variance": variance}
        code, files, _ = cli.cmd_wick_check(cli._tracked(cfg, None))()
        assert code == cli.EXIT_OK
        ser.write_ndjson(tmp_path / "wick_check.ndjson", dict(files)["wick_check.ndjson"])
        records = {r.get("name"): r for r in ser.read_ndjson(tmp_path / "wick_check.ndjson")}
        library = {c["name"]: c for c in wick.wick_power_means(seed, samples, variance)}
        z = fresh_normals(seed, 0, (samples, 2))
        g = z[:, 0] + 1j * z[:, 1]
        for name, values in (("wick_square_mean", wick.wick_abs_square(g, variance)),
                             ("wick_fourth_mean", wick.wick_abs_fourth(g, variance))):
            for got in (records[name], library[name]):
                assert got["mean"] == float(np.mean(values))
                assert got["stderr"] == float(np.std(values) / math.sqrt(samples))

    def test_keyed_streams_reset_to_each_fresh_key(self):
        indices = [3, 0, 2**64 - 1, 3]
        draws = [gen.standard_normal(5) for gen in K.philox_streams(7, indices)]
        assert [d.tobytes() for d in draws] == \
            [fresh_normals(7, k, 5).tobytes() for k in indices]
        assert list(K.philox_streams(7, [])) == []

    @pytest.mark.parametrize("batch", [0, -3])
    def test_rejects_empty_batches(self, batch):
        with pytest.raises(ValueError, match="batch must be >= 1"):
            next(wick.gaussian_batches(1, 10, 0, batch=batch))
