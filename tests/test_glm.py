from dataclasses import replace

import numpy as np
import pytest

from vql import core, glm
from vql.core import (
    BankEntry,
    DimensionError,
    EmptyInputError,
    ParameterError,
    bilinear_resize,
    gaussian_label,
    im2col,
)
from vql.selfcheck import empty_banks, solve_track_normal_equations, track_entry


def rng(seed=0):
    return np.random.default_rng(seed)


def random_samples(r, n, size=5, channels=2, region="mixed"):
    out = []
    for _ in range(n):
        feature = r.uniform(-1, 1, size=(size, size, channels))
        label = gaussian_label(r.uniform(1, size - 2, size=2), 1.5, (size, size))
        s = np.ones((size, size)) if region == "ones" else r.random((size, size))
        out.append(track_entry(feature, label, s))
    return out


class TestSampleChecks:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["feature", "label", "target_region"])
    def test_non_finite_sample_refused(self, name, value):
        # a non-finite entry would leave the solver's start kernel unchanged without a word
        sample = random_samples(rng(15), 1)[0]
        arrays = {key: np.array(getattr(sample, key)) for key in ("feature", "label", "target_region")}
        arrays[name].flat[3] = value
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            BankEntry(mask=np.zeros((5, 5)), **arrays)


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


def residual_of(score, sample):
    """The residual the solver computes for one sample's score map."""
    problem = glm._Problem([sample], (1, 1, sample.feature.shape[2], 1))
    return problem.residual(score.ravel())[0].reshape(score.shape)


def hinge_samples(r, n, size=8, channels=2):
    """Positive features, a 2x2 target region and hinge elsewhere: a full step lifts the background over the kink."""
    region = np.zeros((size, size))
    c = size // 2
    region[c - 1 : c + 1, c - 1 : c + 1] = 1.0
    label = gaussian_label((c - 0.5, c - 0.5), 1.0, (size, size))
    return [track_entry(r.uniform(0.5, 1.5, (size, size, channels)), label, region) for _ in range(n)]


def count_row_passes(monkeypatch, n_samples):
    """Make the solver's patch rows count the products taken with them; returns the passes over the bank so far."""
    products = []

    class CountingRows(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            products.append(ufunc.__name__)
            if "out" in kwargs:
                kwargs["out"] = tuple(np.asarray(a) for a in kwargs["out"])
            return getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kwargs)

    rows = BankEntry.rows
    monkeypatch.setattr(BankEntry, "rows", lambda entry, ksz: rows(entry, ksz).view(CountingRows))

    def passes():
        assert set(products) <= {"matmul"} and len(products) % n_samples == 0
        return len(products) // n_samples

    return passes


def record_losses(monkeypatch):
    """Record every loss the solver evaluates, in order."""
    losses = []
    evaluate = glm._Problem.evaluate

    def recording(self, h, c):
        out = evaluate(self, h, c)
        losses.append(out[0])
        return out

    monkeypatch.setattr(glm._Problem, "evaluate", recording)
    return losses


def accepted_steps(losses):
    """Candidates accepted by the rule of optimize_filter: the loss does not rise."""
    current, accepted = losses[0], 0
    for loss in losses[1:]:
        if loss <= current:
            current, accepted = loss, accepted + 1
    return accepted


class TestTrackResidual:
    def test_exact_fit_inside_region(self):
        label = gaussian_label((2, 2), 1.0, (5, 5))
        sample = track_entry(np.zeros((5, 5, 1)), label, np.ones((5, 5)))
        residual = residual_of(label, sample)
        np.testing.assert_allclose(residual, 0.0, atol=1e-15)

    def test_hinge_clamps_negative_background(self):
        sample = track_entry(
            np.zeros((3, 3, 1)), np.zeros((3, 3)), np.zeros((3, 3))
        )
        residual = residual_of(np.full((3, 3), -5.0), sample)
        np.testing.assert_allclose(residual, 0.0, atol=1e-15)

    def test_blend_arithmetic(self):
        sample = track_entry(
            np.zeros((1, 1, 1)), np.ones((1, 1)), np.full((1, 1), 0.5)
        )
        residual = residual_of(np.full((1, 1), 2.0), sample)
        assert residual[0, 0] == pytest.approx(0.5 * 2 + 0.5 * 2 - 1)

    def test_piecewise_identities(self):
        r = rng(1)
        score = r.uniform(-2, 2, size=(5, 5))
        label = gaussian_label((2, 2), 1.0, (5, 5))
        ones = track_entry(np.zeros((5, 5, 1)), label, np.ones((5, 5)))
        got = residual_of(score, ones)
        sw = glm.spatial_weight(label)
        np.testing.assert_array_equal(got, sw * score - sw * label)
        zeros = track_entry(np.zeros((5, 5, 1)), label, np.zeros((5, 5)))
        negative = -np.abs(score)
        got = residual_of(negative, zeros)
        np.testing.assert_array_equal(got, -glm.spatial_weight(label) * label)

    @pytest.mark.parametrize("region", ["mixed", "zeros", "ones"])
    def test_fused_weights_match_the_blend(self, region):
        # q = ws + wn [h > 0] and r = q h - wg with the weights formed once per refit
        r = rng(25)
        samples = random_samples(r, 3, size=6, channels=1)
        if region != "mixed":
            value = 1.0 if region == "ones" else 0.0
            samples = [replace(s, target_region=np.full(s.label.shape, value)) for s in samples]
        score = r.uniform(-1, 1, size=3 * 36)
        score[::4] = 0.0
        sw = glm.spatial_weight(np.concatenate([s.label.ravel() for s in samples]))
        s_map = np.concatenate([s.target_region.ravel() for s in samples])
        g_map = np.concatenate([s.label.ravel() for s in samples])
        residual, q = glm._Problem(samples, (1, 1, 1, 1)).residual(score)
        want_r = sw * (s_map * score + (1.0 - s_map) * np.maximum(0.0, score) - g_map)
        want_q = sw * (s_map + (1.0 - s_map) * (score > 0.0))
        np.testing.assert_allclose(residual, want_r, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(q, want_q, rtol=1e-14, atol=0)
        # the subgradient is zero at the kink: a zero score is weighted by ws alone
        at_kink = score == 0.0
        np.testing.assert_array_equal(q[at_kink], (sw * s_map)[at_kink])
        np.testing.assert_array_equal(residual[at_kink], -(sw * g_map)[at_kink])


class TestTrackLoss:
    def test_zero_filter_zero_labels(self):
        sample = track_entry(np.ones((4, 4, 1)), np.zeros((4, 4)), np.ones((4, 4)))
        assert glm.track_loss(np.zeros((3, 3, 1, 1)), [sample]) == 0.0

    def test_zero_filter_single_sample(self):
        label = gaussian_label((2, 2), 1.0, (5, 5))
        sample = track_entry(rng(2).uniform(size=(5, 5, 1)), label, np.ones((5, 5)))
        want = float(np.sum((glm.spatial_weight(label) * label) ** 2))
        assert glm.track_loss(np.zeros((3, 3, 1, 1)), [sample]) == pytest.approx(want, rel=1e-12)


class TestTrackGradient:
    def test_zero_at_trivial_optimum(self):
        sample = track_entry(np.ones((4, 4, 1)), np.zeros((4, 4)), np.ones((4, 4)))
        g = glm.track_gradient(np.zeros((3, 3, 1, 1)), [sample])
        np.testing.assert_allclose(g, 0.0, atol=1e-15)


class TestGaussNewtonStep:
    def test_zero_gradient_signals_converged(self):
        sample = track_entry(np.ones((4, 4, 1)), np.zeros((4, 4)), np.ones((4, 4)))
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

    @pytest.mark.parametrize("shape", [(3, 3, 2), (3, 1, 2, 1), (3, 3, 2, 1, 1)])
    def test_kernel_must_be_square_4d(self, shape):
        with pytest.raises(DimensionError, match="kernel must be"):
            glm.optimize_filter(np.zeros(shape), random_samples(rng(11), 1), 1)


class TestUpdateSource:
    def test_empty_history(self):
        with pytest.raises(EmptyInputError):
            glm.glm_update_source([])


class TestPatchRows:
    """Each entry keeps its im2col rows; refits build them once."""

    def test_rows_are_read_only_and_equal_im2col(self):
        (sample,) = random_samples(rng(20), 1, size=6, channels=3)
        for ksz in (1, 3, 5):
            rows = sample.rows(ksz)
            np.testing.assert_array_equal(rows, im2col(sample.feature, ksz))
            assert not rows.flags.writeable
            with pytest.raises(ValueError):
                rows[0, 0] = 1.0
            assert sample.rows(ksz) is rows

    def test_refits_build_each_sample_rows_once(self, monkeypatch):
        built = []
        monkeypatch.setattr(core, "im2col", lambda x, ksz: built.append(ksz) or im2col(x, ksz))
        samples = random_samples(rng(21), 3, size=6)
        kernel = np.zeros((3, 3, 2, 1))
        for _ in range(3):
            kernel = glm.optimize_filter(kernel, samples, 2)
            glm.track_loss(kernel, samples)
        assert built == [3, 3, 3]

    @pytest.mark.parametrize("n_iter", [1, 3, 6])
    def test_refit_makes_two_row_passes_per_iteration(self, monkeypatch, n_iter):
        passes = count_row_passes(monkeypatch, n_samples=3)
        losses = record_losses(monkeypatch)
        samples = random_samples(rng(26), 3, size=6)
        glm.optimize_filter(rng(27).uniform(-1, 1, size=(3, 3, 2, 1)), samples, n_iter)
        assert accepted_steps(losses) == n_iter
        # A c at the start, then A^T (q r) and A g per iteration
        assert passes() == 1 + 2 * n_iter

    def test_step_halvings_make_no_row_pass(self, monkeypatch):
        passes = count_row_passes(monkeypatch, n_samples=2)
        losses = record_losses(monkeypatch)
        samples = hinge_samples(rng(1), 2)
        glm.optimize_filter(np.full((1, 1, 2, 1), -0.05), samples, 3)
        accepted = accepted_steps(losses)
        assert accepted == 3
        # every candidate loss was evaluated, some of them after a halving
        assert len(losses) - 1 > accepted
        assert passes() == 1 + 2 * accepted

    def test_memory_values_sharing_a_sample_share_its_rows(self, monkeypatch):
        built = []
        monkeypatch.setattr(core, "im2col", lambda x, ksz: built.append(ksz) or im2col(x, ksz))
        static, first, second = random_samples(rng(22), 3, size=6)
        one = empty_banks(static).admit(first, capacity=4)
        two = one.admit(second, capacity=4)
        glm.optimize_filter(np.zeros((3, 3, 2, 1)), one.glm_samples, 1)
        rows = [s.rows(3) for s in one.glm_samples]
        glm.optimize_filter(np.zeros((3, 3, 2, 1)), two.glm_samples, 1)
        # only the sample new in the second value had its rows built
        assert len(built) == 3
        assert all(s.rows(3) is r for s, r in zip(two.glm_samples, rows))

    def test_solver_matches_stacked_rows(self):
        # the per-sample products against one stacked patch matrix
        samples = random_samples(rng(23), 4, size=6)
        kernel = rng(24).uniform(-0.5, 0.5, size=(3, 3, 2, 1))
        stacked = np.concatenate([im2col(s.feature, 3) for s in samples])
        c = kernel.ravel()
        residual, q = glm._Problem(samples, kernel.shape).residual(stacked @ c)
        want = 2.0 / len(samples) * (stacked.T @ (q * residual)) + 2.0 * glm.RIDGE**2 * c
        got = glm.track_gradient(kernel, samples).ravel()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


class TestResidualWeights:
    """Each entry keeps its residual weights ws, ws + wn and wg; a refit only joins them."""

    def test_formed_once_per_entry(self, monkeypatch):
        formed = []
        spatial_weight = glm.spatial_weight
        monkeypatch.setattr(glm, "spatial_weight", lambda label: formed.append(label.shape) or spatial_weight(label))
        samples = random_samples(rng(28), 3, size=6)
        kernel = np.zeros((3, 3, 2, 1))
        for _ in range(3):
            kernel = glm.optimize_filter(kernel, samples, 2)
            glm.track_loss(kernel, samples)
        assert formed == [(6, 6)] * 3
        for weights in map(glm._residual_weights, samples):
            assert all(not w.flags.writeable and w.shape == (36,) for w in weights)

    @pytest.mark.parametrize("n_samples", [1, 4])
    def test_bits_of_the_bank_formula(self, n_samples):
        # q = ws + wn [h > 0] and r = q h - wg with the weights formed over the whole bank, bit for bit
        samples = random_samples(rng(29), n_samples, size=6)
        label = np.concatenate([s.label.ravel() for s in samples])
        region = np.concatenate([s.target_region.ravel() for s in samples])
        sw = glm.spatial_weight(label)
        kernel = rng(30).uniform(-0.5, 0.5, size=(3, 3, 2, 1))
        problem = glm._Problem(samples, kernel.shape)
        h = problem.times(kernel.ravel())
        r, q = problem.residual(h)
        want_q = sw * region + sw * (1.0 - region) * (h > 0.0)
        np.testing.assert_array_equal(q, want_q, strict=True)
        np.testing.assert_array_equal(r, want_q * h - sw * label, strict=True)


class TestResampledLabel:
    @pytest.mark.parametrize("side,resolution", [(9, 32), (32, 32), (72, 32), (5, 17)])
    def test_built_once_per_side_as_the_crop_label(self, side, resolution):
        center = ((side - 1) / 2.0, (side - 1) / 2.0)
        want = bilinear_resize(gaussian_label(center, glm.label_sigma(side), (side, side)), (resolution, resolution))
        got = glm._resampled_label(side, resolution)
        np.testing.assert_array_equal(got, want)
        assert not got.flags.writeable
        assert glm._resampled_label(side, resolution) is got
