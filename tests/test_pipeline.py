import os
import subprocess
import sys
import tempfile
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vql import amm, core, fileio, fusion, geo3d, glm
from vql.core import (
    DimensionError,
    EmptyInputError,
    ParameterError,
    bilinear_resize,
    conv2d,
    extract_square_crop,
    ladder_crop,
    min_bounding_rect,
    nearest_resize,
)
from vql.fusion import SegmentationResult, TemporalInterval
from vql.pipeline import (
    HALT_WINDOW,
    SAMPLE_RESOLUTION,
    NoDetectionError,
    Pipeline,
    PipelineConfig,
    QuerySpec,
    TrackOutput,
    crop_entry,
    finalize_3d,
)
from vql.scenario import ScenarioParams, gen_scenario, ground_truth_track, preset_params
from vql.selfcheck import empty_banks, seg_entry, track_entry


def rng(seed=0):
    return np.random.default_rng(seed)


MAPS = ("feature", "mask", "target_region", "label")


def small_identity(n_frames=6):
    return gen_scenario(7, ScenarioParams(n_frames=n_frames, canvas=(32, 32), object_size=13))


def unit_cfg(**kw):
    return PipelineConfig(kernel_size=1, **kw)


def background_of(scenario):
    frame = scenario.frames[0].feature.copy()
    frame[:, :, :] = frame[0, 0, :]
    return frame


class TestInitialize:
    def test_static_entry_is_unaugmented_query(self):
        sc = small_identity()
        pipe = Pipeline(sc.query, unit_cfg())
        base = crop_entry(sc.query.feature, sc.query.mask, min_bounding_rect(sc.query.mask))
        # one entry is both the first appearance entry and the static snapshot
        assert pipe.memory.glm_static is pipe.memory.amm_entries[0]
        for name in MAPS:
            assert np.array_equal(getattr(pipe.memory.glm_static, name), getattr(base, name))
        assert not pipe.memory.glm_dynamic

    def test_filters_finite(self):
        sc = small_identity()
        pipe = Pipeline(sc.query, unit_cfg())
        assert pipe.memory.finite
        assert np.isfinite(pipe.memory.seg_kernel).all()
        assert np.isfinite(pipe.memory.track_kernel).all()

    def test_empty_query_mask_rejected(self):
        with pytest.raises(EmptyInputError):
            QuerySpec(np.ones((8, 8, 1)), np.zeros((8, 8)))

    def test_non_finite_query_rejected(self):
        feature = np.ones((8, 8, 1))
        feature[3, 3, 0] = np.inf
        with pytest.raises(ParameterError):
            QuerySpec(feature, np.ones((8, 8)))

    def test_two_dimensional_query_feature_rejected(self):
        with pytest.raises(DimensionError, match="query feature"):
            QuerySpec(np.ones((8, 8)), np.ones((8, 8)))

    def test_query_mask_values_must_be_0_or_1(self):
        mask = np.zeros((8, 8))
        mask[2:5, 2:5] = 1
        mask[3, 3] = 2
        with pytest.raises(ParameterError, match="query mask"):
            QuerySpec(np.ones((8, 8, 1)), mask)


class TestCropEntry:
    """``crop_entry`` cuts one window into the one entry both banks hold."""

    def test_centered_object_keeps_top_scale(self):
        # 10-pixel box: the 1.5x rung gives a 15-pixel crop with no padding
        feature = rng(16).uniform(size=(64, 64, 2))
        mask = np.zeros((64, 64), dtype=np.uint8)
        mask[27:37, 27:37] = 1
        crop, frac = extract_square_crop(feature, (31.5, 31.5), 15)
        assert frac == 0.0
        entry = crop_entry(feature, mask, (27, 27, 36, 36))
        assert entry.feature.shape == (SAMPLE_RESOLUTION, SAMPLE_RESOLUTION, 2)
        for name in MAPS[1:]:
            assert getattr(entry, name).shape == (SAMPLE_RESOLUTION, SAMPLE_RESOLUTION)
        np.testing.assert_array_equal(entry.feature, bilinear_resize(crop, (SAMPLE_RESOLUTION,) * 2))

    def test_empty_mask_raises(self):
        # no pixel of the map reaches the mask threshold
        with pytest.raises(EmptyInputError):
            crop_entry(np.ones((8, 8, 1)), np.full((8, 8), 0.49), (2, 2, 5, 5))

    def test_degenerate_bbox(self):
        for bbox in ((5, 5, 4, 6), (5, 5, 6, 4)):
            with pytest.raises(EmptyInputError):
                crop_entry(np.ones((8, 8, 1)), np.ones((8, 8)), bbox)

    @pytest.mark.parametrize("prob_hw", [(8, 9), (9, 8)])
    def test_map_shapes_must_agree(self, prob_hw):
        with pytest.raises(DimensionError):
            crop_entry(np.ones((8, 8, 1)), np.ones(prob_hw), (2, 2, 5, 5))

    def test_label_peaks_at_center(self):
        feature = rng(12).uniform(size=(40, 40, 2))
        prob = np.zeros((40, 40))
        prob[15:26, 15:26] = 0.9
        entry = crop_entry(feature, prob, (15, 15, 25, 25))
        peak = np.unravel_index(np.argmax(entry.label), entry.label.shape)
        center = (SAMPLE_RESOLUTION - 1) / 2.0
        assert abs(peak[0] - center) <= 1 and abs(peak[1] - center) <= 1

    def test_region_in_unit_interval(self):
        feature = rng(13).uniform(size=(30, 30, 1))
        prob = rng(14).random((30, 30))
        entry = crop_entry(feature, prob, (10, 10, 20, 20))
        assert entry.target_region.min() >= 0.0
        assert entry.target_region.max() <= 1.0

    @pytest.mark.parametrize("bbox", [(10, 12, 20, 19), (0, 0, 6, 3), (25, 24, 29, 29)])
    def test_entry_bit_equal_to_separate_resamples(self, bbox):
        # feature and prob are resampled as one stacked map
        r = rng(29)
        feature = r.uniform(-1, 1, size=(30, 30, 3))
        prob = r.random((30, 30))
        # the entry's mask is the map's threshold, as a result's mask is
        mask = prob >= 0.5
        entry = crop_entry(feature, prob, bbox)
        x_min, y_min, x_max, y_max = bbox
        center = ((y_min + y_max) / 2.0, (x_min + x_max) / 2.0)
        longest = max(x_max - x_min + 1, y_max - y_min + 1)
        side, (crop_f, crop_m, crop_p) = ladder_crop((feature, mask, prob), center, longest)
        out_hw = (SAMPLE_RESOLUTION, SAMPLE_RESOLUTION)
        np.testing.assert_array_equal(entry.feature, bilinear_resize(crop_f, out_hw))
        np.testing.assert_array_equal(entry.mask, nearest_resize(crop_m, out_hw) != 0)
        np.testing.assert_array_equal(entry.target_region, np.clip(bilinear_resize(crop_p, out_hw), 0.0, 1.0))
        np.testing.assert_array_equal(entry.label, glm._resampled_label(side, SAMPLE_RESOLUTION))

    def test_ingest_cuts_around_the_box_not_a_stray_component(self):
        # the mask keeps a stray component far from the largest one's box;
        # the entry is cut around the box and lands in both banks
        feature = rng(17).uniform(-1, 1, size=(48, 48, 2))
        prob = np.zeros((48, 48))
        prob[12:23, 20:31] = 0.9
        prob[40:44, 2:6] = 0.8
        result = SegmentationResult(prob)
        assert result.bbox == (20, 12, 30, 22)
        pipe = Pipeline(QuerySpec(feature, result.mask), PipelineConfig(kernel_size=1))
        memory = pipe._ingest(replace(pipe.initial_memory, responses=(1.0,)), feature, result)
        crop, _ = extract_square_crop(feature, (17.0, 25.0), 16)
        entry = memory.amm_entries[-1]
        assert memory.glm_dynamic[-1] is entry
        np.testing.assert_array_equal(entry.feature, bilinear_resize(crop, (SAMPLE_RESOLUTION,) * 2))
        mask_crop, _ = extract_square_crop(result.mask, (17.0, 25.0), 16)
        np.testing.assert_array_equal(entry.mask, nearest_resize(mask_crop, (SAMPLE_RESOLUTION,) * 2))


def box_blur_by_hand(feature):
    h, w = feature.shape[:2]
    padded = np.pad(feature, ((1, 1), (1, 1), (0, 0)))
    return sum(padded[dy : dy + h, dx : dx + w] for dy in range(3) for dx in range(3)) / 9.0


def shift_by_hand(m):
    out = np.zeros_like(m)
    out[2:, 2:] = m[:-2, :-2]
    return out


class TestQueryAugmentations:
    """The appearance bank starts with the query entry, then its flip, shift and blur."""

    @pytest.fixture(scope="class")
    def entries(self):
        # an off-center, irregular target on a random feature map
        feature = rng(31).uniform(-1, 1, size=(20, 24, 3))
        mask = np.zeros((20, 24), dtype=np.uint8)
        mask[4:11, 13:19] = 1
        mask[9:13, 13:15] = 1
        pipe = Pipeline(QuerySpec(feature, mask), unit_cfg())
        base = crop_entry(feature, mask, min_bounding_rect(mask))
        return base, pipe.memory

    def test_bank_order_is_base_flip_shift_blur(self, entries):
        # the base entry comes first; test_maps_bit_equal_to_hand_built pins the other three by position
        base, memory = entries
        assert len(memory.amm_entries) == 4
        assert memory.amm_entries[0] is memory.glm_static
        for name in MAPS:
            np.testing.assert_array_equal(getattr(memory.amm_entries[0], name), getattr(base, name))
        # the target is not symmetric, so the flip and the shift each move it
        for entry in memory.amm_entries[1:3]:
            assert not np.array_equal(entry.mask, base.mask)

    @pytest.mark.parametrize(
        "position,build",
        [
            pytest.param(1, {name: (lambda m: m[:, ::-1]) for name in MAPS}, id="flip"),
            pytest.param(2, {name: shift_by_hand for name in MAPS}, id="shift-2-2-zero-fill"),
            pytest.param(
                3,
                {"feature": box_blur_by_hand, **{name: (lambda m: m) for name in MAPS[1:]}},
                id="blur-feature-only",
            ),
        ],
    )
    def test_maps_bit_equal_to_hand_built(self, entries, position, build):
        base, memory = entries
        entry = memory.amm_entries[position]
        for name in MAPS:
            got, want = getattr(entry, name), build[name](getattr(base, name))
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)
            assert got.dtype == getattr(base, name).dtype


class TestMemory:
    """Both banks of the memory value take the one entry an admission appends."""

    STATIC = track_entry(np.zeros((4, 4, 1)), np.zeros((4, 4)), np.ones((4, 4)))

    def admit_all(self, count, capacity):
        mem = empty_banks(self.STATIC)
        for i in range(count):
            mem = mem.admit(seg_entry(np.full((4, 4, 1), float(i)), np.ones((4, 4))), capacity)
        return mem

    def test_no_eviction_at_capacity(self):
        mem = self.admit_all(50, capacity=50)
        assert len(mem.amm_entries) == 50
        assert mem.amm_entries[0].feature[0, 0, 0] == 0.0
        # the tracking FIFO holds the newest capacity - 1 of the same entries
        assert len(mem.glm_dynamic) == 49
        assert all(a is b for a, b in zip(mem.glm_dynamic, mem.amm_entries[1:]))

    def test_static_never_replaced(self):
        static = track_entry(np.ones((4, 4, 1)), np.zeros((4, 4)), np.ones((4, 4)))
        frozen = static.feature.copy()
        mem = empty_banks(static)
        for i in range(6):
            mem = mem.admit(track_entry(np.full((4, 4, 1), float(i)), np.zeros((4, 4)), np.ones((4, 4))), capacity=3)
        assert mem.glm_static is static
        assert np.array_equal(mem.glm_static.feature, frozen)
        assert [s.feature[0, 0, 0] for s in mem.glm_dynamic] == [4.0, 5.0]
        assert [s.feature[0, 0, 0] for s in mem.amm_entries] == [3.0, 4.0, 5.0]
        assert len(mem.glm_samples) <= 3

    def test_samples_order(self):
        static = track_entry(np.ones((4, 4, 1)), np.zeros((4, 4)), np.ones((4, 4)))
        dynamic = track_entry(np.zeros((4, 4, 1)), np.zeros((4, 4)), np.ones((4, 4)))
        mem = empty_banks(static).admit(dynamic, capacity=5)
        assert len(mem.glm_samples) == 2
        assert mem.glm_samples[0] is static and mem.glm_samples[1] is dynamic
        assert len(mem.amm_entries) == 1 and mem.amm_entries[0] is dynamic

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
            for name in MAPS:
                assert getattr(entry, name).shape[:2] == (SAMPLE_RESOLUTION, SAMPLE_RESOLUTION)


class TestOneUnroll:
    """Each window is unrolled to patch rows once, for both solvers."""

    @pytest.fixture
    def unrolls(self, monkeypatch):
        calls = []
        im2col = core.im2col
        monkeypatch.setattr(core, "im2col", lambda x, ksz: calls.append(ksz) or im2col(x, ksz))
        return calls

    def test_ingest_unrolls_its_window_once(self, unrolls):
        sc = small_identity()
        pipe = Pipeline(sc.query, PipelineConfig())
        result = SegmentationResult(sc.frames[1].gt_mask * 0.9)
        before = len(unrolls)
        memory = pipe._ingest(replace(pipe.initial_memory, responses=(1.0,)), sc.frames[1].feature, result)
        assert memory.amm_entries[-1] is memory.glm_dynamic[-1]
        assert unrolls[before:] == [3]

    def test_geo_query_unrolls_each_window_once(self, unrolls):
        # the query entry and its three augmentations, then one entry per ingest
        sc = gen_scenario(1000, preset_params("geo"))
        pipe = Pipeline(sc.query)
        pipe.run([f.feature for f in sc.frames])
        assert len(pipe.memory.glm_dynamic) == len(sc.frames) == 5
        assert unrolls == [3] * 9


class TestConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("kernel_size", 2),
            ("kernel_size", -1),
            ("zeta", 0.0),
            ("capacity", 0),
        ],
    )
    def test_invalid_field_raises_at_construction(self, field, value):
        with pytest.raises(ParameterError, match=field):
            PipelineConfig(**{field: value})

    def test_values_of_the_default_kind_construct(self):
        # numpy scalars of a field's kind are taken, and each value is stored as its default's type
        cfg = PipelineConfig(capacity=np.int64(5), zeta=2, updates_enabled=np.True_)
        assert cfg == PipelineConfig(capacity=5, zeta=2.0, updates_enabled=True)
        assert [type(cfg.capacity), type(cfg.zeta), type(cfg.updates_enabled)] == [int, float, bool]


class TestStepFrame:
    def test_banks_grow_on_confident_update_frames(self):
        sc = small_identity()
        pipe = Pipeline(sc.query, unit_cfg())
        for t in range(3):
            pipe.step_frame(sc.frames[t].feature, t)
        assert len(pipe.memory.amm_entries) == 4 + 3
        assert len(pipe.memory.glm_dynamic) == 3


def count_labellings(monkeypatch):
    """A list that gains one entry per call of the component labelling behind a result's box."""
    calls = []
    runs = fusion._component_runs
    monkeypatch.setattr(fusion, "_component_runs", lambda fg: calls.append(fg.shape) or runs(fg))
    return calls


class TestLazyBox:
    """A frame is labelled only when something reads its box, and its maps are frozen, not copied."""

    def test_updates_off_run_labels_nothing(self, monkeypatch, tmp_path):
        sc = small_identity(n_frames=20)
        calls = count_labellings(monkeypatch)
        pipe = Pipeline(sc.query, PipelineConfig(updates_enabled=False))
        for index, frame in enumerate(sc.frames):
            pipe.step_frame(frame.feature, index)
        track = pipe.finalize_2d()
        fileio.save_track(track, str(tmp_path / "track.npz"))
        assert calls == [] and track.interval is not None
        boxes = [r.bbox for r in track.results]
        non_empty = sum(bool(r.mask.any()) for r in track.results)
        assert non_empty > 0 and len(calls) == non_empty
        assert [r.bbox for r in track.results] == boxes and len(calls) == non_empty

    def test_updates_on_run_labels_the_admitted_frames(self, monkeypatch):
        sc = small_identity(n_frames=20)
        # every third frame shows no target, so some frames are refused
        frames = [background_of(sc) if t % 3 == 2 else f.feature for t, f in enumerate(sc.frames)]
        calls = count_labellings(monkeypatch)
        track = Pipeline(sc.query).run(frames)
        admitted = sum(r.s_conf >= amm.ADMIT_THRESHOLD for r in track.results)
        assert 0 < admitted < 20 and len(calls) == admitted

    def test_fresh_map_kept_without_a_copy(self, monkeypatch):
        sc = small_identity(n_frames=1)
        made = []
        fuse = fusion.fuse
        monkeypatch.setattr(fusion, "fuse", lambda a, h: made.append(fuse(a, h)) or made[-1])
        result = Pipeline(sc.query, PipelineConfig(updates_enabled=False)).step_frame(sc.frames[0].feature, 0)
        assert result.prob is made[0]
        for name in ("prob", "mask"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(result, name)[0, 0] = 1

    def test_lift_skips_an_empty_frame_without_labelling_it(self, monkeypatch, tmp_path):
        sc = gen_scenario(7, preset_params("geo"))
        track = Pipeline(sc.query, PipelineConfig(updates_enabled=False)).run([f.feature for f in sc.frames])
        # an empty frame inside the interval is skipped as a frame without a camera is
        empty = track.interval.start_frame
        blanked = replace(track, results=[SegmentationResult(np.zeros_like(r.prob)) if t == empty else r
                                          for t, r in enumerate(track.results)])
        pairs = (sc.alignment_src, sc.alignment_dst)
        calls = count_labellings(monkeypatch)
        lifted = [finalize_3d(track, sc.cameras, pairs), finalize_3d(blanked, sc.cameras, pairs)]
        assert calls == [] and empty not in lifted[1].displacements
        no_camera = [None if t == empty else c for t, c in enumerate(sc.cameras)]
        lifted.append(replace(finalize_3d(track, no_camera, pairs), results=blanked.results))
        # reading every box afterwards changes none of the lifted track's bytes
        fileio.save_track(lifted[0], str(tmp_path / "before.npz"))
        assert all(r.bbox is not None for r in lifted[0].results) and len(calls) == len(track.results)
        for name, out in zip(("after", "blanked", "no_camera"), lifted):
            fileio.save_track(out, str(tmp_path / f"{name}.npz"))
        data = {path.stem: path.read_bytes() for path in tmp_path.iterdir()}
        assert data["after"] == data["before"] and data["blanked"] == data["no_camera"]

    def test_loaded_maps_are_views_of_one_read_only_stack(self, tmp_path):
        sc = small_identity(n_frames=4)
        path = str(tmp_path / "track.npz")
        fileio.save_track(Pipeline(sc.query).run([f.feature for f in sc.frames]), path)
        track = fileio.load_track(path)
        stack = track.results[0].prob.base
        assert isinstance(stack, np.ndarray) and stack.shape == (4, 32, 32) and not stack.flags.writeable
        assert all(r.prob.base is stack and not r.prob.flags.writeable for r in track.results)


class TestOneConvolution:
    """One two-output convolution gives what the seg and track convolutions give apart."""

    @given(st.sampled_from([1, 3]), st.integers(1, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_two_convolutions(self, ksz, channels, data):
        def draw(shape):
            return data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-1, 1)))

        frame = draw((6, 7, channels))
        seg, track = draw((ksz, ksz, channels, 3)), draw((ksz, ksz, channels, 1))
        mask = np.zeros((6, 7), dtype=np.uint8)
        mask[2:4, 2:5] = 1
        pipe = Pipeline(QuerySpec(frame, mask), PipelineConfig(kernel_size=ksz))
        pipe.memory = replace(pipe.memory, seg_kernel=seg, track_kernel=track)
        result = pipe.step_frame(frame, 0)

        score = conv2d(frame, track)[:, :, 0]
        want = 1.0 / (1.0 + np.exp(-(conv2d(frame, seg).mean(axis=2) + np.maximum(0.0, score))))
        np.testing.assert_allclose(result.prob, want, rtol=0, atol=1e-12)
        # an updates-on step records the frame's tracking peak in the memory's history
        assert abs(pipe.memory.responses[-1] - score.max()) <= 1e-12

    def test_kernel_built_once_per_memory_value(self):
        sc = small_identity()
        pipe = Pipeline(sc.query, PipelineConfig(updates_enabled=False))
        memory = pipe.memory
        kernel = memory.inference_kernel
        assert not kernel.flags.writeable
        seg, track = memory.seg_kernel, memory.track_kernel
        np.testing.assert_array_equal(kernel, np.concatenate([seg.mean(axis=3, keepdims=True), track], axis=3))
        for index, frame in enumerate(sc.frames):
            pipe.step_frame(frame.feature, index)
        assert pipe.memory is memory and memory.inference_kernel is kernel
        refit = replace(memory, track_kernel=2.0 * track)
        assert refit.inference_kernel is not kernel
        np.testing.assert_array_equal(refit.inference_kernel[..., 1:], 2.0 * track)


class TestFrameValidation:
    def test_nan_pixel_rejected_before_any_bank_is_touched(self):
        # one NaN at the target's centroid used to be admitted and to turn
        # the appearance filter non-finite, zeroing the next frame's s_conf
        sc = gen_scenario(3, preset_params("identity"))
        pipe = Pipeline(sc.query)
        pipe.step_frame(sc.frames[0].feature, 0)
        memory = pipe.memory
        bad = sc.frames[1].feature.copy()
        rows, cols = np.nonzero(sc.frames[1].gt_mask)
        bad[int(round(rows.mean())), int(round(cols.mean())), 0] = np.nan
        with pytest.raises(ParameterError):
            pipe.step_frame(bad, 1)
        assert len(pipe.results) == 1
        assert pipe.memory is memory
        assert pipe.step_frame(sc.frames[2].feature, 1).s_conf > amm.ADMIT_THRESHOLD

    def test_huge_finite_frame_leaves_banks_and_filters(self):
        # a finite frame scaled by 1e100 is admitted, but its refit overflows, without a warning;
        # the ingest is dropped whole, so the next clean frame still localizes
        sc = gen_scenario(3, preset_params("identity"))
        pipe = Pipeline(sc.query)
        pipe.step_frame(sc.frames[0].feature, 0)
        memory = pipe.memory
        huge = pipe.step_frame(sc.frames[1].feature * 1e100, 1)
        assert huge.s_conf >= amm.ADMIT_THRESHOLD
        assert pipe.memory is memory
        assert pipe.memory.finite
        assert pipe.step_frame(sc.frames[2].feature, 2).s_conf > 0.6

    def test_undone_frame_leaves_no_trace(self):
        # the refit of frame 1 x 1e100 overflows; the run must go on exactly
        # as if frame 1 never came, so its peak must not steer the choice of
        # tracking snapshots either
        sc = gen_scenario(3, preset_params("identity"))
        kept = Pipeline(sc.query)
        for t in range(12):
            kept.step_frame(sc.frames[t].feature * (1e100 if t == 1 else 1.0), t)
        skipped = Pipeline(sc.query)
        for index, t in enumerate([0] + list(range(2, 12))):
            skipped.step_frame(sc.frames[t].feature, index)
        assert np.array_equal(kept.memory.seg_kernel, skipped.memory.seg_kernel)
        assert np.array_equal(kept.memory.track_kernel, skipped.memory.track_kernel)
        assert kept.memory.responses == skipped.memory.responses

    def test_infinite_frame_rejected(self):
        sc = small_identity()
        pipe = Pipeline(sc.query, unit_cfg())
        with pytest.raises(ParameterError):
            pipe.step_frame(np.full_like(sc.frames[0].feature, np.inf), 0)
        assert not pipe.results

    @pytest.mark.parametrize("shape", [(31, 32, None), (32, 33, None), (32, 32, 1)])
    def test_frame_shape_must_match_the_query(self, shape):
        sc = small_identity()
        pipe = Pipeline(sc.query, unit_cfg())
        h, w, c = sc.query.feature.shape
        frame = np.zeros((shape[0], shape[1], shape[2] or c))
        with pytest.raises(DimensionError):
            pipe.step_frame(frame, 0)
        assert not pipe.results

    @pytest.mark.parametrize(
        "indices", [[5, 4, 3, 2, 1, 0], [0] * 6, [-1, 0, 1, 2, 3, 4], [0, 2], [0, True], [0, 1.0], [np.int64(0), 1]]
    )
    def test_frame_indices_must_increase(self, indices):
        # an index is refused unless it is an integer, and not a bool, and the next frame, the
        # number of frames stepped so far; a refused frame changes nothing
        sc = small_identity()
        pipe = Pipeline(sc.query, unit_cfg())
        for frame, index in zip(sc.frames, indices):
            results, memory = list(pipe.results), pipe.memory
            if isinstance(index, (bool, float)) or index != len(results):
                with pytest.raises(ParameterError, match="not the next frame|must be an integer"):
                    pipe.step_frame(frame.feature, index)
                assert pipe.results == results
                assert pipe.memory is memory
            else:
                pipe.step_frame(frame.feature, index)


class TestHalt:
    def test_no_halt_before_window_fills(self):
        sc = small_identity(n_frames=3)
        pipe = Pipeline(sc.query, unit_cfg())
        bg = background_of(sc)
        for t in range(HALT_WINDOW - 1):
            pipe.step_frame(bg, t)
        assert not pipe.halted


class TestStaticSource:
    def test_absence_refits_on_the_static_snapshot(self, monkeypatch):
        # after a 10-frame absence the recent peaks are low, so glm_update_source picks
        # "static" and the tracking filter is refit on the query's entry alone
        sc = gen_scenario(1, replace(preset_params("identity"), n_frames=80, absence=(40, 49)))
        views = []
        optimize_filter = glm.optimize_filter

        def recording(kernel, entries, iters):
            views.append(tuple(entries))
            return optimize_filter(kernel, entries, iters)

        monkeypatch.setattr(glm, "optimize_filter", recording)
        pipe = Pipeline(sc.query)
        pipe.run([frame.feature for frame in sc.frames])
        # the first call is the initialization fit, on the query's entry too
        static = [view for view in views[1:] if view == (pipe.memory.glm_static,)]
        assert static and not pipe.halted


BANK_SCENARIO = small_identity(n_frames=2)


def ids(entries):
    return [id(entry) for entry in entries]


class TestBankBounds:
    @given(st.integers(1, 6), st.lists(st.booleans(), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_capacity_never_exceeded(self, capacity, targets):
        sc = BANK_SCENARIO
        pipe = Pipeline(sc.query, unit_cfg(capacity=capacity))
        static = pipe.initial_memory.glm_static
        bg = background_of(sc)
        for t, target in enumerate(targets):
            before = pipe.memory
            pipe.step_frame(sc.frames[t % 2].feature if target else bg, t)
            after = pipe.memory
            assert len(after.amm_entries) <= capacity
            assert after.glm_static is static
            assert len(after.glm_dynamic) <= capacity - 1
            old, new = ids(before.amm_entries), ids(after.amm_entries)
            if new != old:
                # one admission: the newest entry is last, the oldest left first
                assert new[-1] not in old
                grown = old + new[-1:]
                assert new == grown[max(0, len(grown) - capacity) :]


class TestRunInvariants:
    @given(
        st.lists(
            st.tuples(st.booleans(), st.floats(-1e100, 1e100), st.floats(0, 1), st.integers(0, 2**16)),
            min_size=1,
            max_size=6,
        )
    )
    # admitted frames, then one whose refit overflows and is undone
    @example([(True, 1.0, 0.0, 0), (True, 3.0, 0.3, 1), (True, 1e100, 0.0, 0), (False, 1.0, 0.5, 2)])
    @settings(max_examples=25, deadline=None)
    def test_finite_frames_give_finite_outputs_and_identical_tracks(self, draws):
        sc = BANK_SCENARIO
        bg = background_of(sc)
        frames = [
            (sc.frames[1].feature if target else bg) * scale
            + noise * np.random.default_rng(seed).normal(size=bg.shape)
            for target, scale, noise, seed in draws
        ]
        tracks = []
        with tempfile.TemporaryDirectory() as work:
            for run in ("a", "b"):
                with np.errstate(over="ignore", invalid="ignore"):
                    out = Pipeline(sc.query).run(frames)
                assert all(np.isfinite(r.prob).all() and np.isfinite(r.s_conf) for r in out.results)
                path = os.path.join(work, f"{run}.json")
                fileio.save_track(out, path)
                with open(path, "rb") as handle:
                    tracks.append(handle.read())
        assert tracks[0] == tracks[1]

    def test_track_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # OpenBLAS splits a dot product of more than ~10,000 elements across its threads, which moves its last
        # bits; a tracking bank of 10 or more entries of 1,024 rows is that long, and seed 7 fills one
        scenario = tmp_path / "identity.npz"
        fileio.save_scenario(gen_scenario(7, preset_params("identity")), str(scenario))
        tracks = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.npz"
            proc = subprocess.run(
                [sys.executable, "-m", "vql.cli", "run2d", "--scenario", str(scenario), "--out", str(out)],
                capture_output=True,
                text=True,
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads),
            )
            assert proc.returncode == 0, proc.stderr
            tracks.append(out.read_bytes())
        assert tracks[0] == tracks[1]


class TestFinalize2d:
    def test_requires_frames(self):
        pipe = Pipeline(small_identity().query, unit_cfg())
        with pytest.raises(EmptyInputError):
            pipe.finalize_2d()

    def test_determinism(self):
        sc = small_identity(n_frames=5)
        runs = []
        for _ in range(2):
            pipe = Pipeline(sc.query, unit_cfg())
            out = pipe.run([f.feature for f in sc.frames])
            runs.append(out)
        for a, b in zip(runs[0].results, runs[1].results):
            assert np.array_equal(a.prob, b.prob)
            assert a.bbox == b.bbox and a.s_conf == b.s_conf
        assert runs[0].interval == runs[1].interval


class TestTrackOutput:
    """The track contract lives in ``TrackOutput``; every way a track can break it is in
    test_harness's test_save_refuses_what_load_refuses, which also checks that nothing is written."""

    @staticmethod
    def lifted():
        sc = gen_scenario(3, preset_params("geo"))
        return finalize_3d(ground_truth_track(sc), sc.cameras, (sc.alignment_src, sc.alignment_dst))

    @pytest.mark.parametrize(
        "interval",
        [
            pytest.param((0, 999), id="past-end"),
            pytest.param((-3, 2), id="negative-start"),
            pytest.param((0, 5), id="one-past-end"),
        ],
    )
    def test_interval_outside_the_track_raises(self, interval):
        track = ground_truth_track(gen_scenario(3, preset_params("geo")))
        message = rf"^interval \[{interval[0]}, {interval[1]}\] leaves the track's frames \[0, 5\)$"
        with pytest.raises(ParameterError, match=message):
            TrackOutput(track.results, TemporalInterval(*interval))
        with pytest.raises(ParameterError, match=message):
            replace(track, interval=TemporalInterval(*interval))

    @pytest.mark.parametrize(
        "fields, message",
        [
            pytest.param(
                {"interval": (0, 1)}, r"^interval must be None or a TemporalInterval, got tuple$", id="tuple-interval"
            ),
            pytest.param({"displacements": [1]}, r"^displacements must be a mapping, got list$", id="list-displacements"),
            pytest.param(
                {"results": [np.zeros((2, 2))] * 3},
                r"^result 0 must be a fusion.SegmentationResult, got ndarray$",
                id="array-result",
            ),
            pytest.param({"results": 5}, r"^results must be an iterable, got int$", id="int-results"),
            pytest.param({"results": None}, r"^results must be an iterable, got NoneType$", id="none-results"),
            pytest.param(
                {"displacements": {0: "abc"}},
                r"^frame 0's displacement must hold real numbers, got str$",
                id="str-displacement",
            ),
            pytest.param({"world_point": "abc"}, r"^world_point must hold real numbers, got str$", id="str-world-point"),
        ],
    )
    def test_field_of_the_wrong_type_raises(self, fields, message):
        # the loader always builds these types; a library caller gets a typed error that names the field
        arguments = {"results": [SegmentationResult(np.zeros((2, 2)))] * 3, "interval": None, **fields}
        with pytest.raises(ParameterError, match=message):
            TrackOutput(**arguments)

    def test_frozen_and_read_only(self):
        track = self.lifted()
        assert isinstance(track.results, tuple)
        with pytest.raises(FrozenInstanceError):
            track.interval = None
        with pytest.raises(FrozenInstanceError):
            track.results[0].prob = np.zeros((2, 2))
        with pytest.raises(TypeError):
            track.displacements[0] = np.zeros(3)
        for vector in track.world_point, track.displacements[0]:
            with pytest.raises(ValueError, match="read-only"):
                vector[0] = 1.0

    def test_saturated_maps_are_kept(self):
        # fuse reaches both ends of [0, 1] at finite logits, and a track holds such maps as they are
        full = SegmentationResult(fusion.fuse(np.full((3, 3), 40.0), np.zeros((3, 3))))
        empty = SegmentationResult(fusion.fuse(np.full((3, 3), -745.0), np.zeros((3, 3))))
        assert (full.prob == 1.0).all() and full.s_conf == 1.0 and full.mask.all()
        assert (empty.prob == 0.0).all() and empty.s_conf == 0.0 and not empty.mask.any()
        track = TrackOutput([full, empty], TemporalInterval(0, 0))
        assert [result.s_conf for result in track.results] == [1.0, 0.0]

    def test_keeps_its_own_vectors_in_frame_order(self):
        track = self.lifted()
        vector = np.zeros(3)
        edited = replace(track, world_point=vector, displacements={3: vector, 1: vector.tolist()})
        vector[0] = np.nan
        assert list(edited.displacements) == [1, 3]
        assert all(np.isfinite(v).all() for v in (edited.world_point, *edited.displacements.values()))


class TestFinalize3d:
    def test_camera_on_another_canvas_raises(self):
        # a 32x32 track lifted through 48x48 depth maps would read depth at the wrong pixels
        sc = gen_scenario(3, preset_params("geo"))
        track = ground_truth_track(gen_scenario(3, replace(preset_params("geo"), canvas=(32, 32))))
        message = r"^camera 0's depth map is \(48, 48\), not the track's \(H, W\) \(32, 32\)$"
        with pytest.raises(DimensionError, match=message):
            finalize_3d(track, sc.cameras, (sc.alignment_src, sc.alignment_dst))

    def test_no_interval_raises(self):
        sc = gen_scenario(3, preset_params("geo"))
        track = replace(ground_truth_track(sc), interval=None)
        with pytest.raises(NoDetectionError):
            finalize_3d(track, sc.cameras, (sc.alignment_src, sc.alignment_dst))

    def test_single_response_frame_is_its_own_ray(self):
        sc = gen_scenario(3, preset_params("geo"))
        gt = ground_truth_track(sc)
        track = replace(gt, results=gt.results[:1], interval=TemporalInterval(0, 0))
        out = finalize_3d(track, sc.cameras, (sc.alignment_src, sc.alignment_dst))
        from vql.geo3d import align_sim3, backproject

        t_eta = align_sim3(sc.alignment_src, sc.alignment_dst)
        rows, cols = np.nonzero(track.results[0].mask)
        want = backproject(sc.cameras[0], cols.mean(), rows.mean(), t_eta)
        np.testing.assert_allclose(out.world_point, want, atol=1e-12)
        assert set(out.displacements) == {0}

    def test_aggregate_matches_ground_truth(self):
        sc = gen_scenario(3, preset_params("geo"))
        out = finalize_3d(ground_truth_track(sc), sc.cameras, (sc.alignment_src, sc.alignment_dst))
        np.testing.assert_allclose(out.world_point, sc.gt_point, atol=1e-6)
        assert len(out.displacements) == 5

    def test_view_without_depth_is_skipped(self):
        sc = gen_scenario(3, preset_params("geo"))
        cameras = list(sc.cameras)
        cameras[2] = replace(cameras[2], depth=np.zeros_like(cameras[2].depth))
        out = finalize_3d(ground_truth_track(sc), cameras, (sc.alignment_src, sc.alignment_dst))
        assert set(out.displacements) == {0, 1, 3, 4}
        np.testing.assert_allclose(out.world_point, sc.gt_point, atol=1e-6)

    def test_no_view_with_depth_raises(self):
        sc = gen_scenario(3, preset_params("geo"))
        cameras = [replace(camera, depth=np.zeros_like(camera.depth)) for camera in sc.cameras]
        with pytest.raises(NoDetectionError, match="no interval frame had a usable mask and depth"):
            finalize_3d(ground_truth_track(sc), cameras, (sc.alignment_src, sc.alignment_dst))

    @pytest.mark.parametrize("interval", [pytest.param((0, 999), id="past-end"), pytest.param((-3, 2), id="negative-start")])
    def test_interval_outside_the_track_raises(self, interval, monkeypatch):
        # the track is refused as it is built, so no alignment is fitted and nothing is lifted
        sc = gen_scenario(3, preset_params("geo"))
        monkeypatch.setattr(geo3d, "align_sim3", None)
        with pytest.raises(ParameterError, match=rf"interval \[{interval[0]}, {interval[1]}\] leaves the track's frames \[0, 5\)"):
            track = replace(ground_truth_track(sc), interval=TemporalInterval(*interval))
            finalize_3d(track, sc.cameras, (sc.alignment_src, sc.alignment_dst))

    def test_inverts_the_alignment_once(self, monkeypatch):
        # every displacement starts from one reconstruction-frame point
        sc = gen_scenario(3, preset_params("geo"))
        track = ground_truth_track(sc)
        inverse = geo3d.Sim3Transform.inverse
        calls = []
        monkeypatch.setattr(geo3d.Sim3Transform, "inverse", lambda t: calls.append(t) or inverse(t))
        out = finalize_3d(track, sc.cameras, (sc.alignment_src, sc.alignment_dst))
        assert len(out.displacements) == 5
        assert len(calls) == 1

    def test_full_pipeline_geo_run(self):
        # unit kernels keep the predicted masks exactly on the synthetic target,
        # so the whole 2D-to-3D chain reproduces the annotated point
        sc = gen_scenario(3, preset_params("geo"))
        pipe = Pipeline(sc.query, unit_cfg())
        track = pipe.run([f.feature for f in sc.frames])
        out = finalize_3d(track, sc.cameras, (sc.alignment_src, sc.alignment_dst))
        np.testing.assert_allclose(out.world_point, sc.gt_point, atol=1e-6)
