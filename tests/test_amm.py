from dataclasses import replace

import numpy as np
import pytest

from vql import amm
from vql.core import DimensionError, EmptyInputError, ParameterError
from vql.fusion import SegmentationResult
from vql.selfcheck import seg_entry


def rng(seed=0):
    return np.random.default_rng(seed)


def random_samples(r, n, size=5, channels=2):
    out = []
    for _ in range(n):
        feature = r.uniform(-1, 1, size=(size, size, channels))
        mask = (r.random((size, size)) > 0.5).astype(np.uint8)
        out.append(seg_entry(feature, mask))
    return out


class TestEntryChecks:
    """An entry that would poison the filter is refused when it is made, and so is an empty bank."""

    @pytest.mark.parametrize(
        "index,value,message",
        [
            pytest.param((1, 2, 0), np.nan, "finite", id="nan-feature"),
            pytest.param((0, 0, 1), -np.inf, "finite", id="inf-feature"),
            pytest.param((2, 2), 2, "0 or 1", id="mask-of-two"),
            pytest.param((3, 3), -1, "0 or 1", id="negative-mask"),
        ],
    )
    def test_poisoning_entry_refused(self, index, value, message):
        feature = rng(20).uniform(-1, 1, size=(5, 5, 2))
        mask = np.zeros((5, 5), dtype=np.int64)
        mask[1:4, 1:4] = 1
        (feature if len(index) == 3 else mask)[index] = value
        with pytest.raises(ParameterError, match=message):
            seg_entry(feature, mask)

    @pytest.mark.parametrize(
        "solve",
        [
            pytest.param(lambda k: amm.steepest_descent(k, [], 3), id="steepest_descent"),
            pytest.param(lambda k: amm.seg_loss(k, []), id="seg_loss"),
            pytest.param(lambda k: amm.seg_gradient(k, []), id="seg_gradient"),
        ],
    )
    def test_empty_bank_refused(self, solve):
        with pytest.raises(EmptyInputError, match="no entries"):
            solve(np.ones((3, 3, 2, 3)))


class TestPseudoLabelEncoder:
    def test_empty_mask(self):
        out = amm.encode_pseudo_label(np.zeros((5, 5)))
        assert not out.any()

    def test_single_pixel(self):
        mask = np.zeros((5, 5))
        mask[2, 3] = 1
        out = amm.encode_pseudo_label(mask)
        assert out[2, 3, 0] == 1 and out[2, 3, 1] == 1 and out[2, 3, 2] == 1
        assert out.sum() == 3.0

    def test_deterministic(self):
        mask = (rng(1).random((6, 6)) > 0.5).astype(np.uint8)
        a = amm.encode_pseudo_label(mask)
        b = amm.encode_pseudo_label(mask)
        assert np.array_equal(a, b)


class TestReweight:
    def test_empty_mask_uniform_background(self):
        out = amm.reweight(np.zeros((6, 6)))
        np.testing.assert_allclose(out, amm.BACKGROUND_WEIGHT)

    def test_range(self):
        mask = (rng(2).random((8, 8)) > 0.5).astype(float)
        out = amm.reweight(mask)
        assert out.min() >= amm.BACKGROUND_WEIGHT - 1e-12
        assert out.max() <= amm.FOREGROUND_WEIGHT + 1e-12


class TestSegLoss:
    def test_zero_filter_zero_labels(self):
        sample = seg_entry(np.ones((4, 4, 1)), np.zeros((4, 4), dtype=np.uint8))
        # empty mask encodes to all-zero labels, zero filter fits exactly
        assert amm.seg_loss(np.zeros((3, 3, 1, 3)), [sample]) == 0.0

    def test_zero_filter_single_sample(self):
        r = rng(3)
        sample = random_samples(r, 1)[0]
        weights = amm.reweight(sample.mask)[:, :, None]
        want = 0.5 * float(np.sum((weights * amm.encode_pseudo_label(sample.mask)) ** 2))
        assert amm.seg_loss(np.zeros((3, 3, 2, 3)), [sample]) == pytest.approx(want, rel=1e-12)


class TestSegGradient:
    def test_ridge_only_direction(self):
        # zero features and empty masks kill the data term; the gradient is exactly delta * sigma
        samples = [seg_entry(np.zeros((5, 5, 2)), np.zeros((5, 5), dtype=np.uint8)) for _ in range(2)]
        kernel = rng(8).uniform(-1, 1, size=(3, 3, 2, 3))
        for t in (0.5, 2.0):
            g = amm.seg_gradient(t * kernel, samples)
            np.testing.assert_allclose(g, amm.RIDGE * t * kernel, rtol=0, atol=1e-15)


class TestSteepestDescent:
    def test_zero_iterations_returns_start(self):
        samples = random_samples(rng(12), 1)
        start = rng(13).uniform(-1, 1, size=(3, 3, 2, 3))
        out = amm.steepest_descent(start, samples, 0)
        assert np.array_equal(out, start)

    @pytest.mark.parametrize("shape", [(3, 3, 2), (3, 1, 2, 3), (3, 3, 2, 3, 1)])
    def test_kernel_must_be_square_4d(self, shape):
        with pytest.raises(DimensionError, match="kernel must be"):
            amm.steepest_descent(np.zeros(shape), random_samples(rng(14), 1), 1)

    @pytest.mark.parametrize("n_iter,message", [(-1, ">= 0"), (2.5, "an integer"), (True, "an integer")])
    def test_n_iter_must_be_a_non_negative_integer(self, n_iter, message):
        with pytest.raises(ParameterError, match=f"^n_iter must be {message}"):
            amm.steepest_descent(np.zeros((3, 3, 2, 3)), random_samples(rng(14), 1), n_iter)


class TestAdmission:
    def test_empty_mask_rejected(self):
        assert not amm.amm_admit(SegmentationResult(np.full((3, 3), 0.4)))

    def test_no_box_rejected_above_threshold(self):
        # a confidence follows from the map, so no result is confident without a box
        with pytest.raises(ValueError, match="init=False"):
            replace(SegmentationResult(np.zeros((4, 4))), s_conf=1.0)

    def test_boundary_inclusive(self):
        assert amm.amm_admit(SegmentationResult(np.full((3, 3), amm.ADMIT_THRESHOLD)))

    def test_mean_below_threshold(self):
        prob = np.zeros((1, 3))
        prob[0, 0], prob[0, 1], prob[0, 2] = 0.65, 0.5, 0.2
        # the mask is the two pixels at or above 0.5; their mean 0.575 falls short of 0.6
        assert not amm.amm_admit(SegmentationResult(prob))
