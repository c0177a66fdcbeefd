from dataclasses import replace

import numpy as np
import pytest

from vql import amm, glm
from vql.core import (
    DimensionError,
    EmptyInputError,
    ParameterError,
    bilinear_resize,
    extract_square_crop,
    nearest_resize,
)
from vql.fusion import extract_result
from vql.pipeline import SAMPLE_RESOLUTION, Pipeline, PipelineConfig, QuerySpec, crop_entries
from vql.scenario import ScenarioParams, gen_scenario
from vql.selfcheck import empty_banks


def rng(seed=0):
    return np.random.default_rng(seed)


def random_samples(r, n, size=5, channels=2):
    out = []
    for _ in range(n):
        feature = r.uniform(-1, 1, size=(size, size, channels))
        mask = (r.random((size, size)) > 0.5).astype(np.uint8)
        out.append(amm.AmmSample(feature, mask))
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
            amm.AmmSample(feature, mask)

    @pytest.mark.parametrize(
        "solve",
        [
            pytest.param(lambda k: amm.steepest_descent(k, [], 3), id="steepest_descent"),
            pytest.param(lambda k: amm.steepest_step_size(k, []), id="steepest_step_size"),
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
        sample = amm.AmmSample(np.ones((4, 4, 1)), np.zeros((4, 4), dtype=np.uint8))
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
        samples = [amm.AmmSample(np.zeros((5, 5, 2)), np.zeros((5, 5), dtype=np.uint8)) for _ in range(2)]
        kernel = rng(8).uniform(-1, 1, size=(3, 3, 2, 3))
        for t in (0.5, 2.0):
            g = amm.seg_gradient(t * kernel, samples)
            np.testing.assert_allclose(g, amm.RIDGE * t * kernel, rtol=0, atol=1e-15)


class TestSteepestStepSize:
    def test_zero_gradient_signals_converged(self):
        sample = amm.AmmSample(np.ones((2, 2, 1)), np.ones((2, 2), dtype=np.uint8))
        with pytest.raises(ParameterError, match="converged"):
            amm.steepest_step_size(np.zeros((1, 1, 1, 3)), [sample])


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


class TestAdmission:
    def test_empty_mask_rejected(self):
        assert not amm.amm_admit(extract_result(np.full((3, 3), 0.4), 0))

    def test_no_box_rejected_above_threshold(self):
        # a result with no box is refused whatever its confidence says
        result = replace(extract_result(np.zeros((4, 4)), 0), s_conf=1.0)
        assert not amm.amm_admit(result)

    def test_boundary_inclusive(self):
        assert amm.amm_admit(extract_result(np.full((3, 3), amm.ADMIT_THRESHOLD), 0))

    def test_mean_below_threshold(self):
        prob = np.zeros((1, 3))
        prob[0, 0], prob[0, 1], prob[0, 2] = 0.65, 0.5, 0.2
        # the mask is the two pixels at or above 0.5; their mean 0.575 falls short of 0.6
        assert not amm.amm_admit(extract_result(prob, 0))


class TestCropSample:
    def test_centered_object_keeps_top_scale(self):
        # 10-pixel box: the 1.5x rung gives a 15-pixel crop with no padding
        feature = rng(16).uniform(size=(64, 64, 2))
        mask = np.zeros((64, 64), dtype=np.uint8)
        mask[27:37, 27:37] = 1
        crop, frac = extract_square_crop(feature, (31.5, 31.5), 15)
        assert frac == 0.0
        sample, _ = crop_entries(feature, mask, mask, (27, 27, 36, 36))
        assert sample.feature.shape == (SAMPLE_RESOLUTION, SAMPLE_RESOLUTION, 2)
        assert sample.mask.shape == (SAMPLE_RESOLUTION, SAMPLE_RESOLUTION)
        np.testing.assert_array_equal(sample.feature, bilinear_resize(crop, (SAMPLE_RESOLUTION,) * 2))

    def test_empty_mask_raises(self):
        with pytest.raises(EmptyInputError):
            crop_entries(np.ones((8, 8, 1)), np.zeros((8, 8)), np.zeros((8, 8)), (2, 2, 5, 5))

    def test_ingest_cuts_around_the_box_not_a_stray_component(self):
        # the mask keeps a stray component far from the largest one's box;
        # the appearance entry is cut around the box, like the tracking one
        feature = rng(17).uniform(-1, 1, size=(48, 48, 2))
        prob = np.zeros((48, 48))
        prob[12:23, 20:31] = 0.9
        prob[40:44, 2:6] = 0.8
        result = extract_result(prob, 0)
        assert result.bbox == (20, 12, 30, 22)
        pipe = Pipeline(QuerySpec(feature, result.mask), PipelineConfig(kernel_size=1))
        memory = pipe._ingest(replace(pipe.initial_memory, responses=(1.0,)), feature, result)
        crop, _ = extract_square_crop(feature, (17.0, 25.0), 16)
        want = bilinear_resize(crop, (SAMPLE_RESOLUTION,) * 2)
        np.testing.assert_array_equal(memory.amm_entries[-1].feature, want)
        np.testing.assert_array_equal(memory.amm_entries[-1].feature, memory.glm_dynamic[-1].feature)
        mask_crop, _ = extract_square_crop(result.mask, (17.0, 25.0), 16)
        np.testing.assert_array_equal(memory.amm_entries[-1].mask, nearest_resize(mask_crop, (SAMPLE_RESOLUTION,) * 2))


class TestMemory:
    # the appearance FIFO of the pipeline's memory value
    STATIC = glm.GlmSample(np.zeros((4, 4, 1)), np.zeros((4, 4)), np.ones((4, 4)))

    def admit_all(self, count, capacity):
        mem = empty_banks(self.STATIC)
        for i in range(count):
            mem = mem.admit(amm.AmmSample(np.full((4, 4, 1), float(i)), np.ones((4, 4))), self.STATIC, capacity)
        return mem

    def test_no_eviction_at_capacity(self):
        mem = self.admit_all(50, capacity=50)
        assert len(mem.amm_entries) == 50
        assert mem.amm_entries[0].feature[0, 0, 0] == 0.0

    def test_resolution_mismatch(self):
        # entries come only from crops at the sample resolution, and a
        # frame at another resolution is refused before it reaches a bank
        sc = gen_scenario(7, ScenarioParams(n_frames=3, canvas=(32, 32), object_size=13))
        pipe = Pipeline(sc.query, PipelineConfig(kernel_size=1))
        with pytest.raises(DimensionError):
            pipe.step_frame(sc.frames[0].feature[:16], 0)
        assert pipe.memory is pipe.initial_memory
        pipe.run([f.feature for f in sc.frames])
        assert len(pipe.memory.amm_entries) > 4 and pipe.memory.glm_dynamic
        for entry in pipe.memory.amm_entries + pipe.memory.glm_samples:
            assert entry.feature.shape[:2] == (SAMPLE_RESOLUTION, SAMPLE_RESOLUTION)
