import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vql import amm, fileio, glm
from vql.core import DimensionError, EmptyInputError, ParameterError, conv2d, min_bounding_rect
from vql.pipeline import (
    HALT_WINDOW,
    SAMPLE_RESOLUTION,
    NoDetectionError,
    Pipeline,
    PipelineConfig,
    QuerySpec,
    finalize_3d,
)
from vql.scenario import ScenarioParams, gen_scenario, ground_truth_track, preset_params


def small_identity(n_frames=6):
    return gen_scenario(7, ScenarioParams("identity", n_frames=n_frames, canvas=(32, 32), object_size=13))


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
        rebuilt = glm.glm_make_dynamic_sample(
            sc.query.feature,
            min_bounding_rect(sc.query.mask),
            (sc.query.mask != 0).astype(np.float64),
            SAMPLE_RESOLUTION,
        )
        assert np.array_equal(pipe.memory.glm_static.feature, rebuilt.feature)
        assert np.array_equal(pipe.memory.glm_static.label, rebuilt.label)
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


class TestConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("kernel_size", 2),
            ("kernel_size", -1),
            ("zeta", 0.0),
            ("lambda_thr", 1.5),
            ("capacity", 0),
        ],
    )
    def test_invalid_field_raises_at_construction(self, field, value):
        with pytest.raises(ParameterError, match=field):
            PipelineConfig(**{field: value})


class TestStepFrame:
    def test_banks_grow_on_confident_update_frames(self):
        sc = small_identity()
        pipe = Pipeline(sc.query, unit_cfg())
        for t in range(3):
            pipe.step_frame(sc.frames[t].feature, t)
        assert len(pipe.memory.amm_entries) == 4 + 3
        assert len(pipe.memory.glm_dynamic) == 3


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
        cfg = PipelineConfig(kernel_size=ksz, updates_enabled=False)
        pipe = Pipeline(QuerySpec(frame, mask), cfg)
        pipe.memory = replace(pipe.memory, seg_kernel=seg, track_kernel=track)
        result = pipe.step_frame(frame, 0)

        score = conv2d(frame, track)[:, :, 0]
        want = 1.0 / (1.0 + np.exp(-(conv2d(frame, seg).mean(axis=2) + np.maximum(0.0, score))))
        np.testing.assert_allclose(result.prob, want, rtol=0, atol=1e-12)
        assert abs(pipe.peaks[-1] - score.max()) <= 1e-12

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
        assert pipe.step_frame(sc.frames[2].feature, 2).s_conf > amm.ADMIT_THRESHOLD

    def test_huge_finite_frame_leaves_banks_and_filters(self):
        # a finite frame scaled by 1e100 is admitted, but its refit overflows;
        # the ingest is dropped whole, so the next clean frame still localizes
        sc = gen_scenario(3, preset_params("identity"))
        pipe = Pipeline(sc.query)
        pipe.step_frame(sc.frames[0].feature, 0)
        memory = pipe.memory
        with np.errstate(over="ignore", invalid="ignore"):
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
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(12):
                kept.step_frame(sc.frames[t].feature * (1e100 if t == 1 else 1.0), t)
        skipped = Pipeline(sc.query)
        for t in [0] + list(range(2, 12)):
            skipped.step_frame(sc.frames[t].feature, t)
        assert np.array_equal(kept.memory.seg_kernel, skipped.memory.seg_kernel)
        assert np.array_equal(kept.memory.track_kernel, skipped.memory.track_kernel)
        assert kept.memory.responses == skipped.memory.responses
        # the track still records every frame's peak
        peaks = kept.finalize_2d().peaks
        assert len(peaks) == 12 and peaks[1] > 1e90
        assert peaks[:1] + peaks[2:] == skipped.finalize_2d().peaks

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
        assert not pipe.results and not pipe.peaks

    @pytest.mark.parametrize("indices", [[5, 4, 3, 2, 1, 0], [0] * 6, [-1, 0, 1, 2, 3, 4]])
    def test_frame_indices_must_increase(self, indices):
        # an index is refused when it is negative or does not exceed the last
        # accepted one, and a refused frame changes nothing
        sc = small_identity()
        pipe = Pipeline(sc.query, unit_cfg())
        for frame, index in zip(sc.frames, indices):
            results, peaks, memory = list(pipe.results), list(pipe.peaks), pipe.memory
            if index < 0 or (results and index <= results[-1].frame_index):
                with pytest.raises(ParameterError, match="index"):
                    pipe.step_frame(frame.feature, index)
                assert pipe.results == results and pipe.peaks == peaks
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
                assert np.isfinite(out.peaks).all()
                path = os.path.join(work, f"{run}.json")
                fileio.save_track(out, path)
                with open(path, "rb") as handle:
                    tracks.append(handle.read())
        assert tracks[0] == tracks[1]


class TestFinalize2d:
    def test_requires_frames(self):
        pipe = Pipeline(small_identity().query, unit_cfg())
        with pytest.raises(EmptyInputError):
            pipe.finalize_2d()

    def test_interval_in_frame_indices(self):
        # frames numbered 10..15: the interval reports indices, not positions 0..5
        sc = small_identity(n_frames=6)
        pipe = Pipeline(sc.query, unit_cfg())
        for index, frame in enumerate(sc.frames, start=10):
            pipe.step_frame(frame.feature, index)
        out = pipe.finalize_2d()
        assert out.interval is not None
        assert (out.interval.start_frame, out.interval.end_frame) == (10, 15)

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
        assert runs[0].peaks == runs[1].peaks


class TestFinalize3d:
    def test_no_interval_raises(self):
        sc = gen_scenario(3, preset_params("geo"))
        track = ground_truth_track(sc)
        track.interval = None
        with pytest.raises(NoDetectionError):
            finalize_3d(track, sc.cameras, (sc.alignment_src, sc.alignment_dst))

    def test_single_response_frame_is_its_own_ray(self):
        sc = gen_scenario(3, preset_params("geo"))
        track = ground_truth_track(sc)
        track.results = track.results[:1]
        from vql.fusion import TemporalInterval

        track.interval = TemporalInterval(0, 0)
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

    def test_full_pipeline_geo_run(self):
        # unit kernels keep the predicted masks exactly on the synthetic target,
        # so the whole 2D-to-3D chain reproduces the annotated point
        sc = gen_scenario(3, preset_params("geo"))
        pipe = Pipeline(sc.query, unit_cfg())
        track = pipe.run([f.feature for f in sc.frames])
        out = finalize_3d(track, sc.cameras, (sc.alignment_src, sc.alignment_dst))
        np.testing.assert_allclose(out.world_point, sc.gt_point, atol=1e-6)
