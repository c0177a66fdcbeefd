import numpy as np
import pytest

from vql import amm, glm
from vql.core import DimensionError, EmptyInputError, ParameterError, bilinear_resize, gaussian_label, im2col
from vql.selfcheck import empty_banks, solve_track_normal_equations


def rng(seed=0):
    return np.random.default_rng(seed)


def random_samples(r, n, size=5, channels=2, region="mixed"):
    out = []
    for _ in range(n):
        feature = r.uniform(-1, 1, size=(size, size, channels))
        label = gaussian_label(r.uniform(1, size - 2, size=2), 1.5, (size, size))
        s = np.ones((size, size)) if region == "ones" else r.random((size, size))
        out.append(glm.GlmSample(feature, label, s))
    return out


class TestSpatialWeight:
    def test_zero_label(self):
        out = glm.spatial_weight(np.zeros((4, 4)))
        np.testing.assert_allclose(out, glm.W_BG)

    def test_peak_label(self):
        label = np.zeros((3, 3))
        label[1, 1] = 1.0
        assert glm.spatial_weight(label)[1, 1] == glm.W_FG

    def test_midpoint(self):
        assert glm.spatial_weight(np.array([[0.5]]))[0, 0] == pytest.approx(0.625)


class TestTrackResidual:
    def test_exact_fit_inside_region(self):
        label = gaussian_label((2, 2), 1.0, (5, 5))
        sample = glm.GlmSample(np.zeros((5, 5, 1)), label, np.ones((5, 5)))
        residual = glm.track_residual(label, sample)
        np.testing.assert_allclose(residual, 0.0, atol=1e-15)

    def test_hinge_clamps_negative_background(self):
        sample = glm.GlmSample(
            np.zeros((3, 3, 1)), np.zeros((3, 3)), np.zeros((3, 3))
        )
        residual = glm.track_residual(np.full((3, 3), -5.0), sample)
        np.testing.assert_allclose(residual, 0.0, atol=1e-15)

    def test_blend_arithmetic(self):
        sample = glm.GlmSample(
            np.zeros((1, 1, 1)), np.ones((1, 1)), np.full((1, 1), 0.5)
        )
        residual = glm.track_residual(np.full((1, 1), 2.0), sample)
        assert residual[0, 0] == pytest.approx(0.5 * 2 + 0.5 * 2 - 1)

    def test_piecewise_identities(self):
        r = rng(1)
        score = r.uniform(-2, 2, size=(5, 5))
        label = gaussian_label((2, 2), 1.0, (5, 5))
        ones = glm.GlmSample(np.zeros((5, 5, 1)), label, np.ones((5, 5)))
        got = glm.track_residual(score, ones)
        np.testing.assert_array_equal(got, glm.spatial_weight(label) * (score - label))
        zeros = glm.GlmSample(np.zeros((5, 5, 1)), label, np.zeros((5, 5)))
        negative = -np.abs(score)
        got = glm.track_residual(negative, zeros)
        np.testing.assert_array_equal(got, -glm.spatial_weight(label) * label)

    def test_shape_mismatch(self):
        sample = glm.GlmSample(np.zeros((3, 3, 1)), np.zeros((3, 3)), np.zeros((3, 3)))
        with pytest.raises(DimensionError):
            glm.track_residual(np.zeros((4, 4)), sample)


class TestTrackLoss:
    def test_zero_filter_zero_labels(self):
        sample = glm.GlmSample(np.ones((4, 4, 1)), np.zeros((4, 4)), np.ones((4, 4)))
        assert glm.track_loss(np.zeros((3, 3, 1, 1)), [sample]) == 0.0

    def test_zero_filter_single_sample(self):
        label = gaussian_label((2, 2), 1.0, (5, 5))
        sample = glm.GlmSample(rng(2).uniform(size=(5, 5, 1)), label, np.ones((5, 5)))
        want = float(np.sum((glm.spatial_weight(label) * label) ** 2))
        assert glm.track_loss(np.zeros((3, 3, 1, 1)), [sample]) == pytest.approx(want, rel=1e-12)


class TestTrackGradient:
    def test_zero_at_trivial_optimum(self):
        sample = glm.GlmSample(np.ones((4, 4, 1)), np.zeros((4, 4)), np.ones((4, 4)))
        g = glm.track_gradient(np.zeros((3, 3, 1, 1)), [sample])
        np.testing.assert_allclose(g, 0.0, atol=1e-15)


class TestGaussNewtonStep:
    def test_zero_gradient_signals_converged(self):
        sample = glm.GlmSample(np.ones((4, 4, 1)), np.zeros((4, 4)), np.ones((4, 4)))
        with pytest.raises(ParameterError, match="converged"):
            glm.gauss_newton_step(np.zeros((3, 3, 1, 1)), [sample])

    def test_pure_quadratic_one_scaled_step_sequence(self):
        samples = random_samples(rng(8), 1, size=4, region="ones")
        best = glm.track_loss(solve_track_normal_equations(samples, (1, 1, 2, 1)), samples)
        kernel = glm.optimize_filter(np.zeros((1, 1, 2, 1)), samples, 50)
        assert glm.track_loss(kernel, samples) - best < 1e-8


class TestOptimizeFilter:
    def test_zero_iterations(self):
        samples = random_samples(rng(9), 1)
        start = rng(10).uniform(-1, 1, size=(3, 3, 2, 1))
        out = glm.optimize_filter(start, samples, 0)
        assert np.array_equal(out, start)


class TestDynamicSample:
    def test_label_peaks_at_center(self):
        feature = rng(12).uniform(size=(40, 40, 2))
        prob = np.zeros((40, 40))
        prob[15:26, 15:26] = 0.9
        sample = glm.glm_make_dynamic_sample(feature, (15, 15, 25, 25), prob, resolution=17)
        peak = np.unravel_index(np.argmax(sample.label), sample.label.shape)
        assert abs(peak[0] - 8) <= 1 and abs(peak[1] - 8) <= 1

    def test_degenerate_bbox(self):
        with pytest.raises(EmptyInputError):
            glm.glm_make_dynamic_sample(np.ones((8, 8, 1)), (5, 5, 4, 6), np.ones((8, 8)), 16)

    def test_region_in_unit_interval(self):
        feature = rng(13).uniform(size=(30, 30, 1))
        prob = rng(14).random((30, 30))
        sample = glm.glm_make_dynamic_sample(feature, (10, 10, 20, 20), prob, resolution=16)
        assert sample.target_region.min() >= 0.0
        assert sample.target_region.max() <= 1.0


class TestUpdateSource:
    def test_empty_history(self):
        with pytest.raises(EmptyInputError):
            glm.glm_update_source([])


class TestMemory:
    def test_static_never_replaced(self):
        static = glm.GlmSample(np.ones((4, 4, 1)), np.zeros((4, 4)), np.ones((4, 4)))
        frozen = static.feature.copy()
        mem = empty_banks(static)
        for i in range(6):
            dynamic = glm.GlmSample(np.full((4, 4, 1), float(i)), np.zeros((4, 4)), np.ones((4, 4)))
            mem = mem.admit(amm.AmmSample(np.ones((4, 4, 1)), np.ones((4, 4))), dynamic, capacity=3)
        assert mem.glm_static is static
        assert np.array_equal(mem.glm_static.feature, frozen)
        assert [s.feature[0, 0, 0] for s in mem.glm_dynamic] == [4.0, 5.0]
        assert len(mem.glm_samples) <= 3

    def test_samples_order(self):
        static = glm.GlmSample(np.ones((4, 4, 1)), np.zeros((4, 4)), np.ones((4, 4)))
        dynamic = glm.GlmSample(np.zeros((4, 4, 1)), np.zeros((4, 4)), np.ones((4, 4)))
        mem = empty_banks(static).admit(amm.AmmSample(np.ones((4, 4, 1)), np.ones((4, 4))), dynamic, capacity=5)
        assert len(mem.glm_samples) == 2
        assert mem.glm_samples[0] is static and mem.glm_samples[1] is dynamic


class TestPatchRows:
    """Each sample keeps its im2col rows; refits build them once."""

    def test_rows_are_read_only_and_equal_im2col(self):
        (sample,) = random_samples(rng(20), 1, size=6, channels=3)
        for ksz in (1, 3, 5):
            rows = glm._patch_rows(sample, ksz)
            np.testing.assert_array_equal(rows, im2col(sample.feature, ksz))
            assert not rows.flags.writeable
            with pytest.raises(ValueError):
                rows[0, 0] = 1.0
            assert glm._patch_rows(sample, ksz) is rows

    def test_refits_build_each_sample_rows_once(self, monkeypatch):
        built = []
        monkeypatch.setattr(glm, "im2col", lambda x, ksz: built.append(ksz) or im2col(x, ksz))
        samples = random_samples(rng(21), 3, size=6)
        kernel = np.zeros((3, 3, 2, 1))
        for _ in range(3):
            kernel = glm.optimize_filter(kernel, samples, 2)
            glm.track_loss(kernel, samples)
        assert built == [3, 3, 3]

    def test_memory_values_sharing_a_sample_share_its_rows(self, monkeypatch):
        built = []
        monkeypatch.setattr(glm, "im2col", lambda x, ksz: built.append(ksz) or im2col(x, ksz))
        static, first, second = random_samples(rng(22), 3, size=6)
        entry = amm.AmmSample(np.ones((6, 6, 2)), np.ones((6, 6)))
        one = empty_banks(static).admit(entry, first, capacity=4)
        two = one.admit(entry, second, capacity=4)
        glm.optimize_filter(np.zeros((3, 3, 2, 1)), one.glm_samples, 1)
        rows = [glm._patch_rows(s, 3) for s in one.glm_samples]
        glm.optimize_filter(np.zeros((3, 3, 2, 1)), two.glm_samples, 1)
        # only the sample new in the second value had its rows built
        assert len(built) == 3
        assert all(glm._patch_rows(s, 3) is r for s, r in zip(two.glm_samples, rows))

    def test_solver_matches_stacked_rows(self):
        # the per-sample products against one stacked patch matrix
        samples = random_samples(rng(23), 4, size=6)
        kernel = rng(24).uniform(-0.5, 0.5, size=(3, 3, 2, 1))
        stacked = np.concatenate([im2col(s.feature, 3) for s in samples])
        label = np.concatenate([s.label.ravel() for s in samples])
        region = np.concatenate([s.target_region.ravel() for s in samples])
        c = kernel.ravel()
        residual, q = glm._blend(stacked @ c, glm.spatial_weight(label), region, label)
        want = 2.0 / len(samples) * (stacked.T @ (q * residual)) + 2.0 * glm.RIDGE**2 * c
        got = glm.track_gradient(kernel, samples).ravel()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


class TestResampledLabel:
    @pytest.mark.parametrize("side,resolution", [(9, 32), (32, 32), (72, 32), (5, 17)])
    def test_built_once_per_side_as_the_crop_label(self, side, resolution):
        center = ((side - 1) / 2.0, (side - 1) / 2.0)
        want = bilinear_resize(gaussian_label(center, glm.label_sigma(side), (side, side)), (resolution, resolution))
        got = glm._resampled_label(side, resolution)
        np.testing.assert_array_equal(got, want)
        assert not got.flags.writeable
        assert glm._resampled_label(side, resolution) is got
