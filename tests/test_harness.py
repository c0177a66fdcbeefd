import base64
import builtins
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import time
import zipfile
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vql import fileio, geo3d, metrics
from vql import scenario as scenario_module
from vql.cli import main as cli_main
from vql.core import DimensionError, EmptyInputError, ParameterError
from vql.fusion import SegmentationResult, TemporalInterval
from vql.geo3d import CameraFrame
from vql.pipeline import Pipeline, PipelineConfig, QuerySpec, TrackOutput
from vql.scenario import (
    PRESETS,
    Scenario,
    ScenarioParams,
    _random_rotation,
    gen_scenario,
    ground_truth_track,
    preset_params,
)


# JSON readers accept NaN and the infinities; no config field takes them
NON_FINITE = (float("nan"), float("inf"), -float("inf"))


def small_identity(n_frames=3):
    return gen_scenario(5, ScenarioParams(n_frames=n_frames, canvas=(32, 32), object_size=13))


class TestGenScenario:
    def test_identity_gt_constant(self):
        sc = gen_scenario(1, preset_params("identity"))
        first = sc.frames[0].gt_mask
        assert all(np.array_equal(f.gt_mask, first) for f in sc.frames)
        assert sc.gt_interval == (0, len(sc.frames) - 1)

    def test_absence_interval_is_last_run(self):
        params = preset_params("absence")
        sc = gen_scenario(3, params)
        a0, a1 = params.absence
        assert sc.gt_interval == (a1 + 1, params.n_frames - 1)
        assert not sc.frames[a0].gt_mask.any()
        assert sc.frames[a1 + 1].gt_mask.any()

    def test_all_presets_generate(self):
        for name in PRESETS:
            sc = gen_scenario(4, preset_params(name))
            assert len(sc.frames) == preset_params(name).n_frames

    def test_geo_has_3d_ground_truth(self):
        sc = gen_scenario(5, preset_params("geo"))
        assert sc.gt_point is not None
        assert sc.alignment_src.shape[0] >= 3
        assert all(f.camera is not None for f in sc.frames)

    @pytest.mark.parametrize("canvas", [(16, 16), (24, 24), (16, 24), (48, 48)])
    def test_geo_target_follows_the_canvas(self, canvas):
        # the target sits whole on the principal point, the canvas's central pixel, so the
        # ground-truth track lifts to the annotated point
        from vql.pipeline import finalize_3d

        sc = gen_scenario(7, replace(preset_params("geo"), canvas=canvas))
        size = preset_params("geo").object_size
        x0, y0, x1, y1 = sc.frames[0].gt_bbox
        assert ((y0 + y1) // 2, (x0 + x1) // 2) == ((canvas[0] - 1) // 2, (canvas[1] - 1) // 2)
        assert (x1 - x0 + 1, y1 - y0 + 1) == (size, size)
        track = finalize_3d(ground_truth_track(sc), sc.cameras, (sc.alignment_src, sc.alignment_dst))
        np.testing.assert_allclose(track.world_point, sc.gt_point, atol=1e-6)

    def test_distractor_preset_draws_one_look_alike(self):
        params = preset_params("distractor")
        assert params.distractor is True
        with_one = gen_scenario(3, params)
        without = gen_scenario(3, replace(params, distractor=False))
        for a, b in zip(with_one.frames, without.frames):
            # the look-alike changes only pixels away from the target
            changed = np.any(a.feature != b.feature, axis=2)
            assert changed.any() and not (changed & (b.gt_mask != 0)).any()
            np.testing.assert_array_equal(a.gt_mask, b.gt_mask)

    def test_invalid_params(self):
        from vql.core import ParameterError

        with pytest.raises(ParameterError):
            gen_scenario(0, ScenarioParams(n_frames=0))
        with pytest.raises(ParameterError):
            gen_scenario(0, ScenarioParams(n_frames=2, canvas=(4, 4)))
        # generator inputs outside the clip: a reversed or out-of-range absence window, one that hides
        # the query frame, more views than frames, a view it lacks
        for absence in (15, 5), (-1, 3), (5, 20), (0, 5), (0, 19):
            with pytest.raises(ParameterError, match="absence"):
                gen_scenario(0, ScenarioParams(n_frames=20, absence=absence))
        for n_views in 6, -1:
            with pytest.raises(ParameterError, match="n_views"):
                gen_scenario(0, replace(preset_params("geo"), n_views=n_views))
        with pytest.raises(ParameterError, match="n_views"):
            gen_scenario(0, ScenarioParams(n_frames=3, n_views=5, object_size=9, corrupt_views=(4,)))
        for corrupt in (5,), (9,), (-1,), (0, 5):
            with pytest.raises(ParameterError, match="corrupt_views"):
                gen_scenario(0, replace(preset_params("geo"), corrupt_views=corrupt))
        with pytest.raises(ParameterError, match="corrupt_views"):
            gen_scenario(0, ScenarioParams(n_frames=5, corrupt_views=(0,)))

    @pytest.mark.parametrize(
        "changes",
        [
            {"n_frames": 3.0},
            {"n_frames": True},
            {"object_size": "9"},
            {"n_views": 1.5},
            {"canvas": (32.0, 32)},
            {"canvas": [32, 32]},
            {"canvas": (32, 32, 3)},
            {"absence": (1, 2.0)},
            {"absence": (False, 1)},
            {"corrupt_views": (0.0,)},
            {"corrupt_views": 0},
            {"corrupt_views": None},
            {"canvas": None},
            {"drift_step": "0.1"},
            {"drift_step": float("nan")},
            {"drift_step": float("inf")},
            {"drift_step": True},
            {"distractor": "no"},
            {"distractor": 1},
            {"distractor": None},
        ],
    )
    def test_params_refuse_non_integers_at_construction(self, changes):
        field = next(iter(changes))
        with pytest.raises(ParameterError, match=rf"^{field} must be"):
            ScenarioParams(**{"n_frames": 4, **changes})

    def test_params_store_python_ints(self):
        params = ScenarioParams(
            n_frames=np.int64(4), canvas=(np.int32(32), 32), corrupt_views=(np.uint8(0),), n_views=1
        )
        assert params == ScenarioParams(n_frames=4, canvas=(32, 32), corrupt_views=(0,), n_views=1)
        assert all(type(v) is int for v in (params.n_frames, *params.canvas, *params.corrupt_views))

    def test_params_store_a_float_step_and_a_bool_distractor(self):
        params = ScenarioParams(n_frames=4, drift_step=np.float32(0.25), distractor=np.bool_(True))
        assert params == ScenarioParams(n_frames=4, drift_step=0.25, distractor=True)
        assert type(params.drift_step) is float and params.distractor is True


class TestValues:
    """Scenarios, their parts and tracks are frozen values: equal field by field, arrays by
    ``np.array_equal``, unhashable, and their arrays are read-only."""

    @staticmethod
    def values(seed):
        # a geo scenario's masks do not depend on the seed, so the track holds its world point
        sc = gen_scenario(seed, preset_params("geo"))
        track = replace(ground_truth_track(sc), world_point=sc.gt_point)
        t_eta = geo3d.align_sim3(sc.alignment_src, sc.alignment_dst)
        return [sc, sc.frames[0], sc.query, sc.cameras[0], t_eta, track, SegmentationResult(sc.query.feature[:, :, 0])]

    def test_equal_values_compare_equal(self):
        for a, b, other in zip(self.values(7), self.values(7), self.values(8), strict=True):
            assert a is not b and a == b and not a != b, type(a).__name__
            assert a != other, type(a).__name__
            with pytest.raises(TypeError, match="unhashable"):
                hash(a)
        track = ground_truth_track(small_identity())
        assert track != replace(track, world_point=np.zeros(3))
        assert track != "a track" and track.results[0] != track

    def test_source_arrays_cannot_change_the_value(self, tmp_path):
        # a writable input is copied; only an input that nothing can write is kept as it is
        sc = gen_scenario(7, preset_params("geo"))
        features, masks, depth = (np.array(a) for a in (sc.features, sc.gt_masks, sc.cameras[1].depth))
        points = np.array(sc.alignment_dst)
        cameras = (sc.cameras[0], replace(sc.cameras[1], depth=depth), *sc.cameras[2:])
        changed = replace(sc, features=features, gt_masks=masks, cameras=cameras, alignment_dst=points)
        assert changed == sc
        features[1, 0, 0, 0], masks[1, 0, 0], depth[0, 0], points[0, 0] = np.nan, 2, np.nan, np.inf
        assert changed == sc and changed.frames[1] == sc.frames[1]
        fileio.save_scenario(changed, str(tmp_path / "a.npz"))
        assert fileio.load_scenario(str(tmp_path / "a.npz")) == sc
        # a read-only view of a writable array is still copied: its base could change
        view = np.array(sc.features).view()
        view.flags.writeable = False
        assert replace(sc, features=view).features is not view

    def test_frozen_and_read_only(self):
        sc = gen_scenario(7, preset_params("geo"))
        assert isinstance(sc.frames, tuple) and isinstance(sc.cameras, tuple)
        frame, camera = sc.frames[0], sc.cameras[0]
        for value, name in (sc, "frames"), (sc, "features"), (frame, "gt_mask"), (sc.query, "mask"), (camera, "depth"):
            with pytest.raises(FrozenInstanceError):
                setattr(value, name, None)
        arrays = sc.features, sc.gt_masks, frame.feature, frame.gt_mask, sc.query.mask, camera.pose, sc.gt_point
        for arr in *arrays, sc.alignment_src:
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1


class TestFileRoundTrips:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_scenario_round_trip(self, tmp_path, preset):
        sc = gen_scenario(6, preset_params(preset))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        fileio.save_scenario(sc, str(a))
        loaded = fileio.load_scenario(str(a))
        fileio.save_scenario(loaded, str(b))
        assert a.read_bytes() == b.read_bytes()
        assert loaded == sc

    def test_track_round_trip(self, tmp_path):
        sc = small_identity()
        path = tmp_path / "t.json"
        for track in ground_truth_track(sc), Pipeline(sc.query).run([f.feature for f in sc.frames]):
            fileio.save_track(track, str(path))
            # masks, boxes and confidences are not stored; the loader derives them from the probabilities
            assert fileio.load_track(str(path)) == track

    def test_config_round_trip(self, tmp_path):
        cfg = PipelineConfig(zeta=0.7, capacity=20)
        path = tmp_path / "c.json"
        fileio.save_config(cfg, str(path))
        assert fileio.load_config(str(path)) == cfg
        # a float field takes a JSON integer and reads it as a float
        path.write_text(json.dumps({"version": fileio.FORMAT_VERSION, "kind": "config", "zeta": 2}))
        zeta = fileio.load_config(str(path)).zeta
        assert zeta == 2.0 and type(zeta) is float

    @pytest.mark.parametrize(
        "field,value",
        [
            *((name, v) for name in ("capacity", "kernel_size") for v in (True, 2.5, "3", None, *NON_FINITE)),
            *(("zeta", v) for v in (True, "1.0", None, *NON_FINITE)),
            *(("updates_enabled", v) for v in ("no", 1, 0.0, None)),
        ],
    )
    def test_library_and_loader_refuse_the_same_values(self, tmp_path, field, value):
        # PipelineConfig states the type rules once, for library callers and config files
        with pytest.raises(ParameterError, match=rf"^{field} must be"):
            PipelineConfig(**{field: value})
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"version": fileio.FORMAT_VERSION, "kind": "config", field: value}))
        with pytest.raises(fileio.SchemaError, match=rf"^{re.escape(str(path))}: invalid config: {field} must be"):
            fileio.load_config(str(path))

    @pytest.mark.parametrize(
        "field",
        [
            "clip_length",
            "label_channels",
            "seg_kernel_size",
            "track_kernel_size",
            "amm_iters_init",
            "glm_iters_init",
            "amm_iters_update",
            "glm_iters_update",
            "dense_update_horizon",
            "update_stride",
            "admit_threshold",
            "halt_threshold",
            "temporal_ratio",
            "median_window",
            "seg_regularizer",
            "track_regularizer",
            "source_window",
            "iters_init",
            "iters_update",
            "halt_window",
            "sample_resolution",
            "lambda_thr",
        ],
    )
    def test_removed_config_fields_rejected(self, tmp_path, field):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"version": fileio.FORMAT_VERSION, "kind": "config", field: 3}))
        with pytest.raises(fileio.SchemaError, match=field):
            fileio.load_config(str(path))

    def test_schema_errors_name_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        config = {"version": fileio.FORMAT_VERSION, "kind": "config", "capacity": 0}
        path.write_text(json.dumps(config))
        with pytest.raises(fileio.SchemaError, match="invalid config: capacity must be >= 1"):
            fileio.load_config(str(path))
        path.write_text('{"version": 1, "kind": "scenario"}')
        upgrade = rf"\.version: expected {fileio.FORMAT_VERSION}, got 1; regenerate it with `vql gen`$"
        with pytest.raises(fileio.SchemaError, match=upgrade):
            fileio.load_scenario(str(path))
        path.write_text("not json")
        with pytest.raises(fileio.SchemaError, match=f"not a version {fileio.FORMAT_VERSION} scenario file"):
            fileio.load_scenario(str(path))
        with pytest.raises(fileio.SchemaError, match="JSON"):
            fileio.load_config(str(path))

    def test_bytes_do_not_depend_on_the_clock(self, tmp_path, monkeypatch):
        # a zip member records a date; every member is stamped with the same fixed one
        sc = small_identity()
        track = ground_truth_track(sc)
        fileio.save_scenario(sc, str(tmp_path / "s1"))
        fileio.save_track(track, str(tmp_path / "t1"))
        now = time.time()
        monkeypatch.setattr(time, "time", lambda: now + 86400.0)
        fileio.save_scenario(sc, str(tmp_path / "s2"))
        fileio.save_track(track, str(tmp_path / "t2"))
        assert (tmp_path / "s1").read_bytes() == (tmp_path / "s2").read_bytes()
        assert (tmp_path / "t1").read_bytes() == (tmp_path / "t2").read_bytes()

    @pytest.mark.parametrize(
        "kind,edit,error,message",
        [
            # TrackOutput's contract: the edited track is refused as it is built, with the message the loader wraps
            pytest.param(
                "track",
                lambda t: replace(t, results=()),
                EmptyInputError,
                r"^a track needs at least one result$",
                id="no-frames",
            ),
            pytest.param(
                "track",
                lambda t: replace(t, displacements={99: np.zeros(3)}),
                ParameterError,
                r"^displacement frame 99 is not a frame of the track, \[0, 5\)$",
                id="stray-displacement",
            ),
            pytest.param(
                "track",
                lambda t: replace(t, displacements={True: np.zeros(3)}),
                ParameterError,
                r"^displacement frame must be an integer, got True$",
                id="bool-displacement-frame",
            ),
            pytest.param(
                "track",
                lambda t: replace(t, displacements={1: np.array([0.0, np.nan, 0.0])}),
                ParameterError,
                r"^frame 1's displacement must be finite",
                id="nan-displacement",
            ),
            pytest.param(
                "track",
                lambda t: replace(t, displacements={1: np.zeros(2)}),
                DimensionError,
                r"^frame 1's displacement must be a 3-vector, got shape \(2,\)$",
                id="short-displacement",
            ),
            pytest.param(
                "track",
                lambda t: replace(t, world_point=np.array([0.0, np.inf, 0.0])),
                ParameterError,
                r"^world_point must be finite",
                id="inf-world-point",
            ),
            pytest.param(
                "track",
                lambda t: replace(t, results=(*t.results[:4], SegmentationResult(np.zeros((16, 16))))),
                DimensionError,
                r"^result 4's map is \(16, 16\), not result 0's \(H, W\) \(48, 48\)$",
                id="other-canvas",
            ),
            pytest.param(
                "track",
                lambda t: replace(t, interval=TemporalInterval(0, 999)),
                ParameterError,
                r"^interval \[0, 999\] leaves the track's frames \[0, 5\)$",
                id="interval-past-end",
            ),
            # Scenario's contract, likewise refused as the scenario is built
            pytest.param(
                "scenario",
                lambda s: replace(s, alignment_dst=None),
                ParameterError,
                r"^alignment_dst is missing; an alignment holds both point sets$",
                id="lone-src",
            ),
            pytest.param(
                "scenario",
                lambda s: replace(s, alignment_dst=s.alignment_dst[1:]),
                DimensionError,
                r"^alignment_dst must be of shape \(12, 3\), got shape \(11, 3\)$",
                id="alignment-rows",
            ),
            pytest.param(
                "scenario",
                lambda s: replace(s, features=with_item(s.features, (3, 0, 0, 0), np.inf)),
                ParameterError,
                r"^frame 3 features must be finite$",
                id="inf-feature",
            ),
            pytest.param(
                "scenario",
                lambda s: replace(s, gt_point=s.gt_point[:2]),
                DimensionError,
                r"^gt_point must be a 3-vector, got shape \(2,\)$",
                id="short-gt-point",
            ),
            pytest.param(
                "scenario",
                lambda s: replace(s, features=s.features[:, :32, :32], gt_masks=s.gt_masks[:, :32, :32]),
                DimensionError,
                r"^features must be of shape \(-1, 48, 48, 3\), got shape \(5, 32, 32, 3\)$",
                id="other-canvas-stack",
            ),
            pytest.param(
                "scenario",
                lambda s: replace(s, gt_masks=s.gt_masks[:4]),
                DimensionError,
                r"^gt_masks must be of shape \(5, 48, 48\), got shape \(4, 48, 48\)$",
                id="mask-count",
            ),
            pytest.param(
                "scenario",
                lambda s: replace(s, cameras=s.cameras[:4]),
                DimensionError,
                r"^4 cameras for 5 frames; a frame without one has None$",
                id="camera-count",
            ),
            pytest.param(
                "scenario",
                lambda s: with_camera(s, 1, depth=np.ones((32, 32)), depth_uncertainty=np.zeros((32, 32))),
                DimensionError,
                r"^frame 1 depth must be of shape \(48, 48\), got shape \(32, 32\)$",
                id="other-canvas-camera",
            ),
            pytest.param(
                "scenario",
                lambda s: replace(s, gt_masks=with_item(s.gt_masks, (2, 0, 0), 2)),
                ParameterError,
                r"^frame 2 mask values must be 0 or 1$",
                id="gt-mask-2",
            ),
            # a result's map holds probabilities, NaN refused, as the s_conf it gives weights the 3D lift
            pytest.param(
                "track",
                lambda t: with_prob(t, 7.5),
                ParameterError,
                r"^result 2's map must hold probabilities in \[0, 1\]$",
                id="prob-above-1",
            ),
            pytest.param(
                "track",
                lambda t: with_prob(t, -3.0),
                ParameterError,
                r"^result 2's map must hold probabilities in \[0, 1\]$",
                id="prob-below-0",
            ),
            pytest.param(
                "track",
                lambda t: with_prob(t, np.nan),
                ParameterError,
                r"^result 2's map must hold probabilities in \[0, 1\]$",
                id="nan-prob",
            ),
            # a missing depth sample is a non-positive one, so a depth is finite like every other array
            pytest.param(
                "scenario",
                lambda s: with_camera(s, 2, depth=s.cameras[2].depth * np.nan),
                ParameterError,
                r"^depth must be finite$",
                id="nan-depth",
            ),
        ],
    )
    def test_save_refuses_what_load_refuses(self, tmp_path, kind, edit, error, message):
        # refused with the loader's own words, and before anything is written
        geo = gen_scenario(7, preset_params("geo"))
        value = geo if kind == "scenario" else ground_truth_track(geo)
        with pytest.raises(error, match=message):
            getattr(fileio, f"save_{kind}")(edit(value), str(tmp_path / "out.npz"))
        assert not list(tmp_path.iterdir())

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_valid_track_round_trip(self, data):
        # any track TrackOutput accepts survives the file: it loads equal, and a re-save writes the same bytes
        n = data.draw(st.integers(1, 6))
        canvas = (data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5)))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        vectors = hnp.arrays(np.float64, 3, elements=finite)
        ends = st.lists(st.integers(0, n - 1), min_size=2, max_size=2)
        maps = data.draw(hnp.arrays(np.float64, (n, *canvas), elements=st.floats(0.0, 1.0)))
        track = TrackOutput(
            [SegmentationResult(p) for p in maps],
            data.draw(st.none() | ends.map(lambda e: TemporalInterval(*sorted(e)))),
            data.draw(st.none() | vectors),
            {t: data.draw(vectors) for t in data.draw(st.lists(st.integers(0, n - 1), unique=True))},
        )
        with tempfile.TemporaryDirectory() as work:
            first, second = os.path.join(work, "a.npz"), os.path.join(work, "b.npz")
            fileio.save_track(track, first)
            loaded = fileio.load_track(first)
            fileio.save_track(loaded, second)
            with open(first, "rb") as a, open(second, "rb") as b:
                assert a.read() == b.read()
        assert loaded == track

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_valid_scenario_round_trip(self, data):
        # any scenario Scenario accepts survives the file: it loads equal, and a re-save writes the same bytes;
        # a camera refuses a non-finite depth as it is built
        n, h, w, c = (data.draw(st.integers(1, 4)) for _ in range(4))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        positive = st.floats(1e-3, 1e6)
        features = data.draw(hnp.arrays(np.float64, (n + 1, h, w, c), elements=finite))
        masks = data.draw(hnp.arrays(np.uint8, (n + 1, h, w), elements=st.integers(0, 1)))
        masks[0].flat[data.draw(st.integers(0, h * w - 1))] = 1

        def camera():
            pose = np.eye(4)
            pose[:3, :3] = _random_rotation(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
            pose[:3, 3] = data.draw(hnp.arrays(np.float64, 3, elements=finite))
            fx, fy, skew, cx, cy = (data.draw(s) for s in (positive, positive, finite, finite, finite))
            intrinsics = [[fx, skew, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]]
            depth = data.draw(hnp.arrays(np.float64, (h, w), elements=finite))
            uncertainty = data.draw(hnp.arrays(np.float64, (h, w), elements=st.floats(0.0, 1e300)))
            bad = depth.copy()
            bad.flat[data.draw(st.integers(0, h * w - 1))] = data.draw(st.sampled_from(NON_FINITE))
            with pytest.raises(ParameterError, match=r"^depth must be finite$"):
                CameraFrame(pose, intrinsics, bad, uncertainty)
            return CameraFrame(pose, intrinsics, depth, uncertainty)

        m = data.draw(st.integers(0, 5))
        alignment = data.draw(st.none() | hnp.arrays(np.float64, (2, m, 3), elements=finite))
        scenario = Scenario(
            features[1:],
            masks[1:],
            [camera() if data.draw(st.booleans()) else None for _ in range(n)],
            QuerySpec(features[0], masks[0]),
            data.draw(st.none() | hnp.arrays(np.float64, 3, elements=finite)),
            *((None, None) if alignment is None else alignment),
        )
        with tempfile.TemporaryDirectory() as work:
            first, second = os.path.join(work, "a.npz"), os.path.join(work, "b.npz")
            fileio.save_scenario(scenario, first)
            loaded = fileio.load_scenario(first)
            fileio.save_scenario(loaded, second)
            with open(first, "rb") as a, open(second, "rb") as b:
                assert a.read() == b.read()
        assert loaded == scenario

    def test_loaded_frames_are_read_only_views_of_the_stacks(self, tmp_path):
        path = str(tmp_path / "geo.npz")
        fileio.save_scenario(gen_scenario(7, preset_params("geo")), path)
        loaded = fileio.load_scenario(path)
        tensors = {"feature": [f.feature for f in loaded.frames], "gt_mask": [f.gt_mask for f in loaded.frames]}
        tensors.update(depth=[camera.depth for camera in loaded.cameras])
        for name, arrays in tensors.items():
            assert not any(a.flags.writeable or a.flags.owndata for a in arrays), name
            # one stack under every frame's tensor, each frame its own slice of it
            stack = arrays[0].base
            assert all(a.base is stack for a in arrays) and stack.shape == (5, *arrays[0].shape), name
            assert all(a.ctypes.data == stack.ctypes.data + t * a.nbytes for t, a in enumerate(arrays)), name
        with pytest.raises(ValueError, match="read-only"):
            loaded.frames[0].feature[0, 0, 0] = 1.0

    def test_numpy_integer_interval_saves_like_int(self, tmp_path):
        track = ground_truth_track(small_identity())
        as_int64 = replace(track, interval=TemporalInterval(np.int64(0), np.int64(2)))
        assert as_int64 == track and type(as_int64.interval.start_frame) is int
        fileio.save_track(track, str(tmp_path / "a.npz"))
        fileio.save_track(as_int64, str(tmp_path / "b.npz"))
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_track_without_frames_refused(self, tmp_path):
        # the file save_track refuses to write: no frame, no prob plane
        path = str(tmp_path / "empty.npz")
        document = {
            "version": fileio.FORMAT_VERSION,
            "kind": "track",
            "interval": None,
            "displacement_frames": [],
        }
        fileio._write_archive(path, document, {"prob": np.zeros((0, 4, 4)), "deltas": np.zeros((0, 3))})
        with pytest.raises(fileio.SchemaError, match=r"empty\.npz: invalid track: a track needs at least one result$"):
            fileio.load_track(path)

    def test_prob_outside_unit_interval_refused(self, tmp_path):
        # a frame's s_conf is the mean probability in its mask, so a 7.5 would reach the 3D lift's confidence
        path = str(tmp_path / "track.npz")
        fileio.save_track(ground_truth_track(small_identity()), path)
        rewrite(path, lambda p: with_item(p, (1, 16, 16), 7.5), "prob.npy")
        message = r"track\.npz: invalid track: result 1's map must hold probabilities in \[0, 1\]$"
        with pytest.raises(fileio.SchemaError, match=message):
            fileio.load_track(path)

    def test_displacement_outside_the_track_refused(self, tmp_path):
        # a displacement is the lift of a frame's result, so its frame must be one of the track's
        path = str(tmp_path / "track.npz")
        track = ground_truth_track(small_identity())
        n = len(track.results)
        fileio.save_track(track, path)
        rewrite(path, lambda d: d.update(displacement_frames=[n]))
        rewrite(path, lambda deltas: np.zeros((1, 3)), "deltas.npy")
        message = rf"track\.npz: invalid track: displacement frame {n} is not a frame of the track, \[0, {n}\)$"
        with pytest.raises(fileio.SchemaError, match=message):
            fileio.load_track(path)

    def test_writes_exactly_the_path(self, tmp_path):
        path = tmp_path / "scenario.json"
        fileio.save_scenario(small_identity(), str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]
        assert zipfile.is_zipfile(path)


def rewrite(path, edit, member="document.json"):
    """Rewrite one member of the archive at ``path`` in place, every other member as it was.

    For ``document.json``, ``edit`` changes the document (a dict) in place.
    For an array member it takes the stored array (None when there is
    none) and returns the replacement, or None to drop the member; any
    dtype may be written, objects too.
    """
    with zipfile.ZipFile(path) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    if member == "document.json":
        document = json.loads(members[member])
        edit(document)
        members[member] = json.dumps(document).encode()
    else:
        old = members.get(member)
        new = edit(None if old is None else np.lib.format.read_array(io.BytesIO(old)))
        members.pop(member, None)
        if new is not None:
            buffer = io.BytesIO()
            np.lib.format.write_array(buffer, np.asarray(new), allow_pickle=True)
            members[member] = buffer.getvalue()
    with zipfile.ZipFile(path, "w") as archive:
        for name, data in members.items():
            archive.writestr(name, data)


def with_item(arr, index, value):
    """A copy of ``arr`` with ``value`` at ``index``."""
    arr = arr.copy()
    arr[index] = value
    return arr


def with_prob(track, value):
    """The track with ``value`` in one pixel of the third frame's probability map."""
    results = list(track.results)
    results[2] = SegmentationResult(with_item(results[2].prob, (0, 0), value))
    return replace(track, results=results)


def with_camera(scenario, t, **changes):
    """The scenario with the given fields of frame t's camera replaced."""
    cameras = list(scenario.cameras)
    cameras[t] = replace(cameras[t], **changes)
    return replace(scenario, cameras=cameras)


class TestStackContract:
    """A scenario holds the stacks its file stores, each checked once; its frames are views of them."""

    SCENARIO = gen_scenario(4, ScenarioParams(n_frames=6, canvas=(12, 10), object_size=5))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_one_bad_value_is_refused_naming_its_frame(self, data):
        sc = self.SCENARIO
        (n, h, w, c), t = sc.features.shape, data.draw(st.integers(0, len(sc.features) - 1))
        pixel = (t, data.draw(st.integers(0, h - 1)), data.draw(st.integers(0, w - 1)))
        if data.draw(st.booleans()):
            value = data.draw(st.sampled_from(NON_FINITE))
            edit = {"features": with_item(sc.features, (*pixel, data.draw(st.integers(0, c - 1))), value)}
            message = rf"^frame {t} features must be finite$"
        else:
            edit = {"gt_masks": with_item(sc.gt_masks, pixel, data.draw(st.integers(2, 255)))}
            message = rf"^frame {t} mask values must be 0 or 1$"
        with pytest.raises(ParameterError, match=message):
            replace(sc, **edit)

    def test_frames_view_the_stacks(self, tmp_path):
        path = str(tmp_path / "geo.npz")
        fileio.save_scenario(gen_scenario(3, preset_params("geo")), path)
        for sc in fileio.load_scenario(path), self.SCENARIO:
            for t, frame in enumerate(sc.frames):
                assert frame.feature.base is sc.features and frame.gt_mask.base is sc.gt_masks
                assert np.shares_memory(frame.feature, sc.features[t]) and frame.camera is sc.cameras[t]
        # a generated query is frame 0 of the stacks; a loaded one is its own member
        assert self.SCENARIO.query.feature.base is self.SCENARIO.features

    @pytest.mark.parametrize(
        "params",
        [
            pytest.param(ScenarioParams(n_frames=7, n_views=3, object_size=9), id="cameras-on-3-of-7"),
            pytest.param(ScenarioParams(n_frames=9, distractor=True, absence=(2, 4)), id="distractor-absence"),
        ],
    )
    def test_save_writes_the_stacks_and_a_resave_the_same_bytes(self, tmp_path, monkeypatch, params):
        first, second = tmp_path / "a.npz", tmp_path / "b.npz"
        sc = gen_scenario(2, params)
        written = {}
        write = fileio._write_archive
        monkeypatch.setattr(fileio, "_write_archive", lambda *args: written.update(args[2]) or write(*args))
        fileio.save_scenario(sc, str(first))
        # the stacks themselves, not a copy stacked frame by frame
        assert written["features"] is sc.features and written["gt_masks"] is sc.gt_masks
        fileio.save_scenario(fileio.load_scenario(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()


class TestVersion:
    """One format version for every kind; a file of an older version is not read."""

    # the hints name no version number (the expected version is matched on its own),
    # so the test ids outlive a version bump
    HINTS = [("scenario", "vql gen"), ("track", "vql run2d"), ("config", "write version")]

    @staticmethod
    def assert_rejected(tmp_path, version, kind, hint):
        # versions 1-3 of every kind were one JSON document; from version 4 on,
        # a scenario or a track is an archive whose document holds the header
        path = tmp_path / f"{kind}.json"
        document = {"version": version, "kind": kind}
        if version >= 4 and kind != "config":
            fileio._write_archive(str(path), document, {})
        else:
            path.write_text(json.dumps(document))
        want = rf"\.version: expected {fileio.FORMAT_VERSION}, got {version}; .*{hint}"
        with pytest.raises(fileio.SchemaError, match=want):
            getattr(fileio, f"load_{kind}")(str(path))

    @pytest.mark.parametrize("kind,hint", HINTS)
    def test_version_1_file_rejected(self, tmp_path, kind, hint):
        self.assert_rejected(tmp_path, 1, kind, hint)

    @pytest.mark.parametrize("kind,hint", HINTS)
    def test_version_2_file_rejected(self, tmp_path, kind, hint):
        # version 2 stored boxes, confidences and the ground-truth interval beside their sources
        self.assert_rejected(tmp_path, 2, kind, hint)

    @pytest.mark.parametrize("kind,hint", HINTS)
    def test_version_3_file_rejected(self, tmp_path, kind, hint):
        # version 3 stored each tensor as a base64 string in the JSON document
        self.assert_rejected(tmp_path, 3, kind, hint)

    @pytest.mark.parametrize("kind,hint", HINTS)
    def test_version_4_file_rejected(self, tmp_path, kind, hint):
        # version 4 stored the generator's seed and parameters, the query's frame index
        # and the track's canvas, and its config had a lambda_thr field
        self.assert_rejected(tmp_path, 4, kind, hint)

    @pytest.mark.parametrize("kind,hint", HINTS)
    def test_version_5_file_rejected(self, tmp_path, kind, hint):
        # version 5 stored a track's frame_index, which the frames' order already gives
        self.assert_rejected(tmp_path, 5, kind, hint)

    @pytest.mark.parametrize("kind,hint", HINTS)
    def test_version_6_file_rejected(self, tmp_path, kind, hint):
        # version 6 stored a track's per-frame tracking peaks, which nothing read
        self.assert_rejected(tmp_path, 6, kind, hint)


@pytest.fixture
def geo_files(tmp_path):
    """A geo scenario and its ground-truth track lifted to 3D by ``vql run3d``."""
    sc = gen_scenario(11, preset_params("geo"))
    scenario_path, track_path = tmp_path / "geo.json", tmp_path / "track.json"
    fileio.save_scenario(sc, str(scenario_path))
    fileio.save_track(ground_truth_track(sc), str(track_path))
    out = tmp_path / "track3d.json"
    args = ["run3d", "--scenario", str(scenario_path), "--track", str(track_path), "--out", str(out)]
    assert cli_main(args) == 0
    return scenario_path, out


class TestUnknownEntries:
    """A document field or an archive member the loader does not read is an error, not ignored."""

    @pytest.mark.parametrize(
        "target,key,value",
        [
            pytest.param(0, "gt_interval", [1, 2], id="scenario-gt_interval"),
            pytest.param(1, "s_conf", [0.9] * 5, id="track-s_conf"),
            # the fields version 5 dropped: the generator's recipe and the track's canvas
            pytest.param(0, "seed", 11, id="scenario-seed"),
            pytest.param(0, "params", {"preset": "geo", "n_frames": 5}, id="scenario-params"),
            pytest.param(0, "query_frame_index", 0, id="scenario-query_frame_index"),
            pytest.param(1, "canvas", [48, 48], id="track-canvas"),
            # the field version 6 dropped: a track frame's index is its position
            pytest.param(1, "frame_index", [0, 1, 2, 3, 4], id="track-frame_index"),
            # the field version 7 dropped: the per-frame tracking peaks
            pytest.param(1, "peaks", [0.5] * 5, id="track-peaks"),
        ],
    )
    def test_unknown_document_field_exits_2(self, geo_files, capsys, target, key, value):
        rewrite(geo_files[target], lambda d: d.update({key: value}))
        with pytest.raises(fileio.SchemaError, match=rf"\.{key}: unknown field"):
            (fileio.load_track if target else fileio.load_scenario)(str(geo_files[target]))
        assert cli_main(["eval", "--scenario", str(geo_files[0]), "--track", str(geo_files[1])]) == 2
        assert f".{key}: unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "target,member",
        [pytest.param(0, "gt_bboxes.npy", id="scenario"), pytest.param(1, "masks.npy", id="track")],
    )
    def test_unknown_member_exits_2(self, geo_files, capsys, target, member):
        rewrite(geo_files[target], lambda _: np.zeros((5, 4), np.uint8), member)
        with pytest.raises(fileio.SchemaError, match=rf"\.{re.escape(member)}: unknown member"):
            (fileio.load_track if target else fileio.load_scenario)(str(geo_files[target]))
        assert cli_main(["eval", "--scenario", str(geo_files[0]), "--track", str(geo_files[1])]) == 2
        assert f".{member}: unknown member" in capsys.readouterr().err


class TestLoaderVectors:
    """3-vectors in track and scenario files are read like every other tensor."""

    def test_short_nan_world_point_rejected(self, geo_files, capsys):
        scenario_path, track_path = geo_files
        rewrite(track_path, lambda _: np.array([float("nan"), 0.0]), "world_point.npy")
        with pytest.raises(fileio.SchemaError, match="world_point"):
            fileio.load_track(str(track_path))
        args = ["eval", "--scenario", str(scenario_path), "--track", str(track_path), "--metrics-3d"]
        assert cli_main(args) == 2
        assert "world_point" in capsys.readouterr().err

    def test_infinite_delta_rejected(self, geo_files):
        _, track_path = geo_files
        rewrite(track_path, lambda d: with_item(d, (0, 1), float("inf")), "deltas.npy")
        message = r"track3d\.json: invalid track: frame 0's displacement must be finite"
        with pytest.raises(fileio.SchemaError, match=message):
            fileio.load_track(str(track_path))

    def test_short_nan_gt_point_rejected(self, geo_files):
        scenario_path, _ = geo_files
        rewrite(scenario_path, lambda _: np.array([float("nan")]), "gt_point.npy")
        with pytest.raises(fileio.SchemaError, match="gt_point"):
            fileio.load_scenario(str(scenario_path))

    def test_displacement_without_delta_exits_2(self, geo_files, capsys):
        # one row of the stacked deltas per frame listed in displacement_frames
        scenario_path, track_path = geo_files
        rewrite(track_path, lambda d: d[1:], "deltas.npy")
        args = ["eval", "--scenario", str(scenario_path), "--track", str(track_path), "--metrics-3d"]
        assert cli_main(args) == 2
        assert "deltas: expected shape (5, 3), got (4, 3)" in capsys.readouterr().err


class TestLoaderScalars:
    """Track frame lists are type-checked by the loader, and interval ends by ``TemporalInterval``, whose
    refusal it wraps."""

    @staticmethod
    def put(document, keys, value):
        *outer, last = keys
        for key in outer:
            document = document[key]
        document[last] = value

    @pytest.mark.parametrize(
        "keys,value,message",
        [
            pytest.param(
                ("displacement_frames", 0), 1.5, r"\.displacement_frames: expected", id="float-displacement-frame_index"
            ),
        ],
    )
    def test_mistyped_track_scalar_rejected(self, geo_files, keys, value, message):
        _, track_path = geo_files
        rewrite(track_path, lambda d: self.put(d, keys, value))
        with pytest.raises(fileio.SchemaError, match=message):
            fileio.load_track(str(track_path))

    @pytest.mark.parametrize(
        "keys,value,message",
        [
            pytest.param(
                ("interval", 1),
                float("inf"),
                "invalid track: end_frame must be an integer, got inf",
                id="inf-interval-end",
            ),
            pytest.param(
                ("displacement_frames", 0),
                -float("inf"),
                ".displacement_frames: expected increasing frame indices from 0, got [-inf, 1, 2, 3, 4]",
                id="minus-inf-displacement-frame",
            ),
        ],
    )
    def test_non_finite_scalar_exits_2(self, geo_files, capsys, keys, value, message):
        # json reads NaN and Infinity; every number of a track's document is a frame index
        rewrite(geo_files[1], lambda d: self.put(d, keys, value))
        with pytest.raises(fileio.SchemaError, match=re.escape(message)):
            fileio.load_track(str(geo_files[1]))
        assert cli_main(["eval", "--scenario", str(geo_files[0]), "--track", str(geo_files[1])]) == 2
        assert message in capsys.readouterr().err


class TestLoaderContainers:
    """Every list of the document and every stacked member is checked before it is read:
    a list must be one, and a stack holds one row for each frame its list names. An
    alignment holds both point sets, with as many rows."""

    DOCUMENT = "document.json"

    @pytest.mark.parametrize(
        "target,member,edit,message",
        [
            # the probability maps give the frame count, so the interval ends one frame past the track
            pytest.param(
                1,
                "prob.npy",
                lambda p: p[1:],
                "invalid track: interval [0, 4] leaves the track's frames [0, 4)",
                id="track-frame",
            ),
            pytest.param(
                1,
                DOCUMENT,
                lambda d: d.update(displacement_frames=5),
                ".displacement_frames: expected a list",
                id="displacements",
            ),
            pytest.param(1, "deltas.npy", lambda d: d.ravel(), ".deltas: expected shape (5, 3)", id="displacement"),
            pytest.param(0, "query_mask.npy", lambda _: None, ".query_mask: missing member", id="query"),
            # the features give the frame count, so the ground-truth masks are one frame too many
            pytest.param(
                0, "features.npy", lambda f: f[1:], ".gt_masks: expected shape (4, 48, 48), got (5, 48, 48)", id="frame"
            ),
            pytest.param(
                0, DOCUMENT, lambda d: d.update(camera_frames=7), ".camera_frames: expected a list", id="camera"
            ),
            pytest.param(0, "poses.npy", lambda _: None, ".poses: missing member", id="camera-pose"),
            # an alignment is Scenario's contract, which the loader wraps
            pytest.param(
                0,
                "alignment_dst.npy",
                lambda _: None,
                "invalid scenario: alignment_dst is missing; an alignment holds both point sets",
                id="alignment-dst",
            ),
            pytest.param(
                0,
                "alignment_src.npy",
                lambda _: None,
                "invalid scenario: alignment_src is missing; an alignment holds both point sets",
                id="alignment-src",
            ),
            pytest.param(
                0,
                "alignment_dst.npy",
                lambda a: a[1:],
                "invalid scenario: alignment_dst must be of shape (12, 3), got shape (11, 3)",
                id="alignment-rows",
            ),
        ],
    )
    def test_wrong_container_exits_2(self, geo_files, capsys, target, member, edit, message):
        rewrite(geo_files[target], edit, member)
        with pytest.raises(fileio.SchemaError, match=re.escape(message)):
            (fileio.load_track if target else fileio.load_scenario)(str(geo_files[target]))
        args = ["eval", "--scenario", str(geo_files[0]), "--track", str(geo_files[1]), "--metrics-3d"]
        assert cli_main(args) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "frames",
        [pytest.param([0, 2, 1, 3, 4], id="unordered"), pytest.param([0, 1, 2, 3, 5], id="past-end")],
    )
    def test_camera_frames_are_increasing_scenario_frames(self, geo_files, frames):
        rewrite(geo_files[0], lambda d: d.update(camera_frames=frames))
        with pytest.raises(fileio.SchemaError, match=r"\.camera_frames: expected increasing frame indices"):
            fileio.load_scenario(str(geo_files[0]))


class TestLoaderIntVectors:
    """The track interval is read as a list of 2; ``TemporalInterval`` keeps its ends integers and
    its start at most its end, and ``TrackOutput`` both in the track's frames."""

    @pytest.fixture
    def files(self, tmp_path):
        sc = small_identity()
        scenario_path, track_path = tmp_path / "s.json", tmp_path / "t.json"
        fileio.save_scenario(sc, str(scenario_path))
        fileio.save_track(ground_truth_track(sc), str(track_path))
        return scenario_path, track_path

    def eval_rejects(self, files, field, capsys):
        scenario_path, track_path = files
        assert cli_main(["eval", "--scenario", str(scenario_path), "--track", str(track_path)]) == 2
        assert field in capsys.readouterr().err

    def test_short_interval_rejected(self, files, capsys):
        _, track_path = files
        rewrite(track_path, lambda d: d.update(interval=[1]))
        with pytest.raises(fileio.SchemaError, match=r"\.interval: expected a list of 2 integers"):
            fileio.load_track(str(track_path))
        self.eval_rejects(files, ".interval", capsys)

    @pytest.mark.parametrize("ends,end", [([0.0, 2], "start_frame"), ([0, True], "end_frame"), ([0, "2"], "end_frame")])
    def test_non_integer_end_rejected_by_the_interval(self, files, capsys, ends, end):
        rewrite(files[1], lambda d: d.update(interval=ends))
        message = f"t.json: invalid track: {end} must be an integer, got {ends[end == 'end_frame']!r}"
        with pytest.raises(fileio.SchemaError, match=re.escape(message)):
            fileio.load_track(str(files[1]))
        self.eval_rejects(files, message, capsys)

    def test_reversed_interval_exits_2(self, files, capsys):
        rewrite(files[1], lambda d: d.update(interval=[2, 1]))
        self.eval_rejects(files, "t.json: invalid track: interval must satisfy start <= end", capsys)

    @pytest.mark.parametrize("interval", [[0, 999], [0, 3], [-1, 0]])
    def test_interval_outside_the_track_rejected(self, files, capsys, interval):
        # the track has 3 frames; an interval is a run of them
        rewrite(files[1], lambda d: d.update(interval=interval))
        message = f"t.json: invalid track: interval {interval} leaves the track's frames [0, 3)"
        with pytest.raises(fileio.SchemaError, match=re.escape(message)):
            fileio.load_track(str(files[1]))
        self.eval_rejects(files, message, capsys)


class TestLoaderMasks:
    """Query and ground-truth masks hold only 0 and 1."""

    @pytest.fixture
    def geo_path(self, tmp_path):
        path = tmp_path / "geo.json"
        fileio.save_scenario(gen_scenario(7, preset_params("geo")), str(path))
        return path

    def test_negative_pixel_rejected(self, geo_path):
        # -1 written as a mask byte is 255, which would count as foreground
        rewrite(geo_path, lambda m: with_item(m, (0, 0), np.int8(-1).view(np.uint8)), "query_mask.npy")
        with pytest.raises(fileio.SchemaError, match=r"geo\.json: invalid scenario: query mask values must be 0 or 1$"):
            fileio.load_scenario(str(geo_path))

    def test_fractional_pixel_rejected(self, geo_path):
        # a mask has one byte per pixel, so a fractional pixel needs a float member
        rewrite(geo_path, lambda m: with_item(m.astype(np.float64), (2, 0, 5), 0.4), "gt_masks.npy")
        with pytest.raises(fileio.SchemaError, match=r"\.gt_masks: expected dtype u1, got <f8"):
            fileio.load_scenario(str(geo_path))

    def test_all_fractional_query_mask_names_the_field(self, geo_path):
        rewrite(geo_path, lambda m: np.full(m.shape, 0.4), "query_mask.npy")
        with pytest.raises(fileio.SchemaError, match=r"\.query_mask"):
            fileio.load_scenario(str(geo_path))

    def test_save_refuses_non_binary_gt_mask(self, tmp_path):
        # Scenario refuses the mask as it is built, so there is nothing to save
        sc = small_identity()
        with pytest.raises(ParameterError, match=r"^frame 1 mask values must be 0 or 1$"):
            edited = replace(sc, gt_masks=with_item(sc.gt_masks, (1, 0, 0), 2))
            fileio.save_scenario(edited, str(tmp_path / "s.json"))
        assert not list(tmp_path.iterdir())

    def test_save_refuses_query_mask_that_one_byte_would_wrap(self, tmp_path):
        # 256 cast to one byte is 0, which would save a different mask without notice; QuerySpec refuses it
        sc = small_identity()
        mask = with_item(sc.query.mask.astype(np.int64), (0, 0), 256)
        with pytest.raises(ParameterError, match=r"^query mask values must be 0 or 1$"):
            fileio.save_scenario(replace(sc, query=QuerySpec(sc.query.feature, mask)), str(tmp_path / "s.json"))
        assert not list(tmp_path.iterdir())


finite_arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6),
    elements=st.floats(allow_nan=False, allow_infinity=False),
)
# signed zeros, the smallest subnormals, one near the normal boundary and the largest magnitudes
EXTREMES = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, np.finfo(float).max, -np.finfo(float).max])


# a member whose header is not the one fileio writes, whatever numpy makes of it
HEADER_REFUSED = r"unreadable member \(not a version 1\.0 \.npy header of a C-order <f8 or \|u1 array\)$"


def stored(arr, dtype, shape, edit=None):
    """``arr`` written as the member ``x`` of an archive (``edit`` rewrites it
    first), read back and checked as a ``dtype`` tensor of ``shape``."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "doc")
        fileio._write_archive(path, {"version": fileio.FORMAT_VERSION, "kind": "track"}, {"x": arr})
        if edit is not None:
            rewrite(path, edit, "x.npy")
        _, arrays = fileio._read_archive(path, "track", (), ("x",))
        return fileio._member(arrays, "x", dtype, shape, "doc")


class TestTensorCodec:
    """A tensor is stored as one .npy member holding its exact bits; the member
    check accepts only the dtype and shape the document implies."""

    @given(finite_arrays)
    @example(EXTREMES)
    @example(EXTREMES.reshape(7, 1, 1))
    @settings(max_examples=200, deadline=None)
    def test_finite_float64_round_trip_bit_exact(self, arr):
        got = stored(arr, "<f8", arr.shape)
        assert got.dtype == np.float64 and got.shape == arr.shape
        assert got.tobytes() == arr.tobytes()
        assert got.flags.writeable and got.flags.c_contiguous

    @given(hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2), elements=st.integers(0, 1)))
    @settings(max_examples=50, deadline=None)
    def test_mask_round_trip(self, mask):
        got = stored(mask, "u1", mask.shape)
        assert got.dtype == np.uint8 and np.array_equal(got, mask)
        assert got.flags.writeable and got.flags.c_contiguous

    @given(st.integers(1, 40), st.sampled_from([-1, 1]))
    @settings(max_examples=50, deadline=None)
    def test_one_element_short_or_long_rejected(self, n, off):
        want = rf"doc\.x: expected shape \({n},\), got \({n + off},\)$"
        with pytest.raises(fileio.SchemaError, match=want):
            stored(np.zeros(n + off), "<f8", (n,))

    @pytest.mark.parametrize("dtype", ["<f4", ">f8", "<i8", "|u1", "|b1"])
    def test_other_float_dtype_rejected(self, dtype):
        # a mask member is read and refused by its dtype; the header of any other dtype is not read
        want = r"expected dtype <f8, got \|u1$" if dtype == "|u1" else HEADER_REFUSED
        with pytest.raises(fileio.SchemaError, match=rf"doc\.x: {want}"):
            stored(np.zeros(3, dtype), "<f8", (3,))

    @pytest.mark.parametrize("dtype", ["|i1", "<u2", "|b1", "<f8"])
    def test_other_mask_dtype_rejected(self, dtype):
        # a float member is read and refused by its dtype; the header of any other dtype is not read
        want = r"expected dtype u1, got <f8$" if dtype == "<f8" else HEADER_REFUSED
        with pytest.raises(fileio.SchemaError, match=rf"doc\.x: {want}"):
            stored(np.zeros((2, 2), dtype), "u1", (2, 2))

    @pytest.mark.parametrize("shape", [(), (2, 2), (4, 1), (1, 4)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(fileio.SchemaError, match=re.escape(f"doc.x: expected shape (4,), got {shape}")):
            stored(np.zeros(shape), "<f8", (4,))

    def test_pickled_member_rejected(self):
        # an object array is stored as a pickle, which the loader never runs: its header is refused
        with pytest.raises(fileio.SchemaError, match=rf"\.x: {HEADER_REFUSED}"):
            stored(np.zeros(3), "<f8", (3,), edit=lambda _: np.array([{"a": 1}, None, 3], dtype=object))

    def test_member_that_is_not_npy_rejected(self):
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "doc")
            fileio._write_archive(path, {"version": fileio.FORMAT_VERSION, "kind": "track"}, {})
            with zipfile.ZipFile(path, "a") as archive:
                archive.writestr("x.npy", b"[0.0, 1.0, 2.0]")
            with pytest.raises(fileio.SchemaError, match=r"\.x: expected an \.npy array"):
                fileio._read_archive(path, "track", (), ("x",))

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8), st.sampled_from("!-_ \n.é@"), st.data())
    @settings(max_examples=50, deadline=None)
    def test_invalid_base64_rejected(self, values, char, data):
        # version 3 held each tensor as base64 text in one JSON document; such a
        # file is refused by its version and its text, valid or not, is never decoded
        text = base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")
        at = data.draw(st.integers(0, len(text)))
        document = {"version": 3, "kind": "track", "world_point": text[:at] + char + text[at:]}
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "track.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(document, handle)
            want = rf"\.version: expected {fileio.FORMAT_VERSION}, got 3; regenerate it with `vql run2d`"
            with pytest.raises(fileio.SchemaError, match=want):
                fileio.load_track(path)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=30), st.integers(2, 255), st.data())
    @settings(max_examples=50, deadline=None)
    def test_mask_byte_above_one_rejected(self, pixels, bad, data):
        # the member keeps the stored byte; the mask rule is the contracts', here the query's
        pixels[data.draw(st.integers(0, len(pixels) - 1))] = bad
        mask = stored(np.array([pixels], np.uint8), "u1", (1, len(pixels)))
        assert mask.max() == bad
        with pytest.raises(ParameterError, match=r"^query mask values must be 0 or 1$"):
            QuerySpec(np.zeros((*mask.shape, 1)), mask)

    @given(st.integers(0, 12), st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_alignment_rows_fill_the_bytes(self, rows, width):
        # the document names no alignment length: its rows are as many as the member holds
        arr = np.arange(rows * width, dtype=np.float64).reshape(rows, width)
        if width != 3:
            with pytest.raises(fileio.SchemaError, match=r"doc\.x: expected shape \(None, 3\)"):
                stored(arr, "<f8", (None, 3))
        else:
            assert stored(arr, "<f8", (None, 3)).shape == (rows, 3)

    @pytest.fixture(scope="class")
    def scenario_bytes(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("archive") / "s.json"
        fileio.save_scenario(small_identity(), str(path))
        return path.read_bytes()

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_truncated_archive_rejected(self, scenario_bytes, data):
        cut = data.draw(st.integers(0, len(scenario_bytes) - 1))
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "cut.json")
            with open(path, "wb") as handle:
                handle.write(scenario_bytes[:cut])
            with pytest.raises(fileio.SchemaError, match=rf"not a version {fileio.FORMAT_VERSION} scenario file"):
                fileio.load_scenario(path)

    def test_truncated_archive_exits_2(self, tmp_path, capsys):
        scenario_path, track_path = tmp_path / "s.json", tmp_path / "t.json"
        sc = small_identity()
        fileio.save_scenario(sc, str(scenario_path))
        fileio.save_track(ground_truth_track(sc), str(track_path))
        track_path.write_bytes(track_path.read_bytes()[:-100])
        assert cli_main(["eval", "--scenario", str(scenario_path), "--track", str(track_path)]) == 2
        assert "not a version" in capsys.readouterr().err


def member_data(archive_bytes, member):
    """The offset and length of ``member``'s stored data in the archive ``archive_bytes``."""
    info = zipfile.ZipFile(io.BytesIO(archive_bytes)).getinfo(member)
    # a local header is 30 bytes, its name and extra field lengths the last two 2-byte fields
    name_length, extra_length = struct.unpack_from("<2H", archive_bytes, info.header_offset + 26)
    return info.header_offset + 30 + name_length + extra_length, info.file_size


def rezip(path, member, data, compress_type=zipfile.ZIP_STORED):
    """Rewrite the archive at ``path`` with ``data`` as ``member``, compressed by ``compress_type``."""
    with zipfile.ZipFile(path) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    members[member] = data
    with zipfile.ZipFile(path, "w") as archive:
        for name, value in members.items():
            archive.writestr(name, value, compress_type=compress_type if name == member else zipfile.ZIP_STORED)


class TestArchiveIntegrity:
    """A member whose bytes are not the ones written, or are not stored as written, is refused
    with an error that names the member."""

    MEMBERS = ["document.json", *(f"{name}.npy" for name in (*fileio._SCENARIO_MEMBERS, *fileio._SCENARIO_OPTIONAL))]

    @pytest.fixture(scope="class")
    def geo_bytes(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("archive") / "geo.npz"
        fileio.save_scenario(gen_scenario(7, preset_params("geo")), str(path))
        return path.read_bytes()

    @staticmethod
    def refused(data, member, message=""):
        """``data``, a scenario file, is refused with an error naming ``member``, then ``message``."""
        name = member.removesuffix(".npy")
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "geo.npz")
            with open(path, "wb") as handle:
                handle.write(data)
            with pytest.raises(fileio.SchemaError, match=rf"^{re.escape(path)}\.{re.escape(name)}: {message}"):
                fileio.load_scenario(path)

    def test_members_are_every_scenario_member(self, geo_bytes):
        assert sorted(zipfile.ZipFile(io.BytesIO(geo_bytes)).namelist()) == sorted(self.MEMBERS)

    @given(st.sampled_from(MEMBERS), st.data(), st.integers(1, 255))
    @settings(max_examples=100, deadline=None)
    def test_flipped_byte_refused(self, geo_bytes, member, data, mask):
        # a flip in the data fails the member's CRC-32; one in an .npy header may fail its parse first
        start, size = member_data(geo_bytes, member)
        at = start + data.draw(st.integers(0, size - 1))
        flipped = bytearray(geo_bytes)
        flipped[at] ^= mask
        self.refused(bytes(flipped), member)

    @pytest.mark.parametrize("member", ["features.npy", "gt_masks.npy"])
    def test_crc_mismatch_refused(self, geo_bytes, member):
        # the last data byte is a tensor's, past the .npy header, so only the checksum can catch it
        start, size = member_data(geo_bytes, member)
        flipped = bytearray(geo_bytes)
        flipped[start + size - 1] ^= 0x01
        self.refused(bytes(flipped), member, r"unreadable member \(CRC-32 [0-9a-f]{8}, the archive records")

    @pytest.mark.parametrize("member", ["document.json", "query_mask.npy", "poses.npy"])
    def test_deflated_member_refused(self, tmp_path, geo_bytes, member):
        path = tmp_path / "geo.npz"
        path.write_bytes(geo_bytes)
        rezip(path, member, zipfile.ZipFile(path).read(member), zipfile.ZIP_DEFLATED)
        self.refused(path.read_bytes(), member, r"unreadable member \(compressed; members must be stored uncompressed\)")

    @pytest.mark.parametrize("cut", [1, 8, 24])
    @pytest.mark.parametrize("member", ["features.npy", "poses.npy", "gt_point.npy"])
    def test_member_shorter_than_its_shape_refused(self, tmp_path, geo_bytes, member, cut):
        path = tmp_path / "geo.npz"
        path.write_bytes(geo_bytes)
        rezip(path, member, zipfile.ZipFile(path).read(member)[:-cut])
        self.refused(path.read_bytes(), member, r"unreadable member \(\d+ data bytes for shape \(")

    def test_member_longer_than_its_shape_refused(self, tmp_path, geo_bytes):
        path = tmp_path / "geo.npz"
        path.write_bytes(geo_bytes)
        rezip(path, "gt_point.npy", zipfile.ZipFile(path).read("gt_point.npy") + bytes(8))
        self.refused(path.read_bytes(), "gt_point.npy", r"unreadable member \(32 data bytes for shape \(3,\) of <f8\)")

    @pytest.mark.parametrize("member", ["query_feature.npy", "depths.npy"])
    def test_member_that_is_not_npy_refused(self, tmp_path, geo_bytes, member):
        path = tmp_path / "geo.npz"
        path.write_bytes(geo_bytes)
        rezip(path, member, b"[0.0, 1.0, 2.0]")
        self.refused(path.read_bytes(), member, r"expected an \.npy array$")

    def test_fortran_order_member_refused(self, tmp_path, geo_bytes):
        path = tmp_path / "geo.npz"
        path.write_bytes(geo_bytes)
        rewrite(path, np.asfortranarray, "depths.npy")
        self.refused(path.read_bytes(), "depths.npy", HEADER_REFUSED)

    @pytest.mark.parametrize("member", ["features.npy", "gt_point.npy"])
    def test_version_2_header_refused(self, tmp_path, geo_bytes, member):
        # the writer writes only 1.0 headers; the same array and bytes behind a 2.0 header are not read
        path = tmp_path / "geo.npz"
        path.write_bytes(geo_bytes)
        arr = np.lib.format.read_array(io.BytesIO(zipfile.ZipFile(path).read(member)))
        header = io.BytesIO()
        np.lib.format.write_array_header_2_0(header, np.lib.format.header_data_from_array_1_0(arr))
        rezip(path, member, header.getvalue() + arr.tobytes())
        self.refused(path.read_bytes(), member, HEADER_REFUSED)

    @pytest.mark.parametrize(
        "text",
        [
            "{'shape': (5, 48, 48, 3), 'fortran_order': False, 'descr': '<f8', }",
            "{'descr': '<f8', 'fortran_order': False, 'shape': (5, 48, 48, 3),   }",
        ],
        ids=["key_order", "spaces_before_brace"],
    )
    def test_header_numpy_reads_but_fileio_does_not_write_refused(self, tmp_path, geo_bytes, text):
        path = tmp_path / "geo.npz"
        path.write_bytes(geo_bytes)
        arr = np.lib.format.read_array(io.BytesIO(zipfile.ZipFile(path).read("features.npy")))
        assert arr.shape == (5, 48, 48, 3)
        # a version 1.0 prefix and the text, padded with spaces and a newline to a multiple of 64 bytes
        pad = 63 - (10 + len(text)) % 64
        data = b"\x93NUMPY\x01\x00" + struct.pack("<H", len(text) + pad + 1) + text.encode() + b" " * pad + b"\n"
        assert np.array_equal(np.lib.format.read_array(io.BytesIO(data + arr.tobytes())), arr)
        rezip(path, "features.npy", data + arr.tobytes())
        self.refused(path.read_bytes(), "features.npy", HEADER_REFUSED)


class TestNpyHeader:
    """fileio writes and reads one .npy header layout, the version 1.0 header numpy writes for a
    C-order array; numpy is the reference here and nowhere in the package."""

    @pytest.mark.parametrize("descr", ["<f8", "|u1"])
    @pytest.mark.parametrize("shape", [(), (0, 3), (3,), (12, 3), (5, 48, 48), (5, 48, 48, 3)])
    def test_layout_is_numpys(self, descr, shape):
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(header, {"descr": descr, "fortran_order": False, "shape": shape})
        assert fileio._npy_header(descr, shape) == header.getvalue()
        assert len(header.getvalue()) % 64 == 0

    @given(st.sampled_from(["<f8", "|u1"]), st.lists(st.integers(0, 10**18), max_size=5).map(tuple))
    @example("<f8", (1, 10**17, 10**18))
    @settings(max_examples=200, deadline=None)
    def test_layout_is_numpys_for_any_shape(self, descr, shape):
        # the first axis's growth room and the padding are both spaces, so one space more of the one and
        # one less of the other shows only where the header would end on a multiple of 64, as in the example
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(header, {"descr": descr, "fortran_order": False, "shape": shape})
        assert fileio._npy_header(descr, shape) == header.getvalue()

    def test_load_compiles_nothing(self, geo_files, monkeypatch):
        # numpy's header reader compiles each header it parses with ast.literal_eval
        scenario_path, track_path = geo_files
        calls = []
        real_compile = compile

        def counting_compile(*args, **kwargs):
            calls.append(args[1:2])
            return real_compile(*args, **kwargs)

        monkeypatch.setattr(builtins, "compile", counting_compile)
        fileio.load_scenario(str(scenario_path))
        fileio.load_track(str(track_path))
        assert calls == []


class TestEval2d:
    def test_no_interval_scores_zero(self):
        sc = small_identity(n_frames=8)
        track = replace(ground_truth_track(sc), interval=None)
        report = metrics.eval_2d(track, sc)
        assert report == metrics.MetricsReport2D(0.0, 0.0, 0.0, 0.0)

    def test_ground_truth_boxes_worked_out_once(self, monkeypatch):
        sc = gen_scenario(5, ScenarioParams(n_frames=12, canvas=(32, 32), object_size=13, absence=(4, 7)))
        calls = []
        rect = scenario_module.min_bounding_rect
        monkeypatch.setattr(scenario_module, "min_bounding_rect", lambda mask: calls.append(mask.shape) or rect(mask))
        track = ground_truth_track(sc)
        first = metrics.eval_2d(track, sc)
        non_empty = sum(bool(f.gt_mask.any()) for f in sc.frames)
        assert 0 < non_empty < 12 and len(calls) == non_empty
        assert metrics.eval_2d(track, sc) == first and len(calls) == non_empty

    def test_box_iou(self):
        assert metrics.box_iou((0, 0, 9, 9), (0, 0, 9, 9)) == 1.0
        assert metrics.box_iou((0, 0, 4, 4), (5, 5, 9, 9)) == 0.0
        assert metrics.box_iou((0, 0, 9, 9), (5, 0, 14, 9)) == pytest.approx(50 / 150)


class TestEval3d:
    def test_ground_truth_scores_perfectly(self):
        from vql.pipeline import finalize_3d

        sc = gen_scenario(8, preset_params("geo"))
        track = finalize_3d(ground_truth_track(sc), sc.cameras, (sc.alignment_src, sc.alignment_dst))
        report = metrics.eval_3d(track, sc)
        assert report.success_pct == 100.0
        assert report.success_star_pct == 100.0
        assert report.l2 < 1e-9
        assert report.angle < 1e-6
        assert report.qwp_pct == 100.0

    def test_opposite_displacement_is_pi(self):
        from vql.pipeline import finalize_3d

        sc = gen_scenario(8, preset_params("geo"))
        track = finalize_3d(ground_truth_track(sc), sc.cameras, (sc.alignment_src, sc.alignment_dst))
        flipped = TrackOutput(
            track.results,
            track.interval,
            track.world_point,
            {t: -d for t, d in track.displacements.items()},
        )
        report = metrics.eval_3d(flipped, sc)
        assert report.angle == pytest.approx(np.pi)
        assert report.success_pct == 0.0

    def test_inverts_the_alignment_once(self, monkeypatch):
        from vql import geo3d
        from vql.pipeline import finalize_3d

        sc = gen_scenario(8, preset_params("geo"))
        track = finalize_3d(ground_truth_track(sc), sc.cameras, (sc.alignment_src, sc.alignment_dst))
        inverse = geo3d.Sim3Transform.inverse
        calls = []
        monkeypatch.setattr(geo3d.Sim3Transform, "inverse", lambda t: calls.append(t) or inverse(t))
        assert metrics.eval_3d(track, sc).qwp_pct == 100.0
        assert len(calls) == 1

    @pytest.mark.parametrize("member", ["alignment_src", "alignment_dst"])
    def test_unpaired_alignment_rejected(self, member):
        from dataclasses import replace
        from vql.pipeline import finalize_3d

        sc = gen_scenario(8, preset_params("geo"))
        track = finalize_3d(ground_truth_track(sc), sc.cameras, (sc.alignment_src, sc.alignment_dst))
        # a lone point set breaks Scenario's contract; a scenario without an alignment cannot be scored
        other = "alignment_dst" if member == "alignment_src" else "alignment_src"
        with pytest.raises(ParameterError, match=f"^{other} is missing; an alignment holds both point sets$"):
            replace(sc, **{other: None})
        with pytest.raises(ValueError, match="scenario carries no 3D ground truth"):
            metrics.eval_3d(track, replace(sc, alignment_src=None, alignment_dst=None))

    def test_perturbation_l2(self):
        from vql.pipeline import finalize_3d

        sc = gen_scenario(8, preset_params("geo"))
        track = finalize_3d(ground_truth_track(sc), sc.cameras, (sc.alignment_src, sc.alignment_dst))
        eps = np.array([0.03, -0.04, 0.12])
        shifted = TrackOutput(
            track.results,
            track.interval,
            track.world_point,
            {t: d + eps for t, d in track.displacements.items()},
        )
        report = metrics.eval_3d(shifted, sc)
        assert report.l2 == pytest.approx(float(np.linalg.norm(eps)), rel=1e-9)


class TestEvalInterval:
    """Neither evaluator can be given a predicted interval that leaves the track's frames:
    ``TrackOutput`` refuses it as the track is built, and the loader refuses it in a file."""

    @pytest.mark.parametrize(
        "interval", [pytest.param([0, 999], id="past-end"), pytest.param([-3, 2], id="negative-start")]
    )
    def test_interval_outside_clip_exits_2(self, geo_files, capsys, interval):
        scenario_path, track_path = geo_files
        track = fileio.load_track(str(track_path))
        message = f"interval {interval} leaves the track's frames [0, 5)"
        with pytest.raises(ParameterError, match=re.escape(message)):
            replace(track, interval=TemporalInterval(*interval))
        rewrite(track_path, lambda d: d.update(interval=interval))
        args = ["eval", "--scenario", str(scenario_path), "--track", str(track_path), "--metrics-3d"]
        assert cli_main(args) == 2
        assert f"track3d.json: invalid track: {message}" in capsys.readouterr().err


class TestEvalFrames:
    """Both evaluators reject a track that is not one result per scenario frame."""

    # the edit cuts the displacement frames with the frames (every frame is lifted) and ends the
    # interval at the last frame kept, so the file loads and only the scenario's frame check can refuse it
    @staticmethod
    def cut(track_path):
        rewrite(
            track_path,
            lambda d: d.update(displacement_frames=d["displacement_frames"][:3], interval=[d["interval"][0], 2]),
        )
        rewrite(track_path, lambda p: p[:3], "prob.npy")
        rewrite(track_path, lambda p: p[:3], "deltas.npy")

    @pytest.mark.parametrize("edit", ["cut"])
    def test_track_not_covering_the_frames_exits_2(self, geo_files, capsys, edit):
        scenario_path, track_path = geo_files
        getattr(self, edit)(track_path)
        scenario, track = fileio.load_scenario(str(scenario_path)), fileio.load_track(str(track_path))
        for evaluate in metrics.eval_2d, metrics.eval_3d:
            with pytest.raises(ValueError, match="track has 3 results for the scenario's 5 frames"):
                evaluate(track, scenario)
        args = ["eval", "--scenario", str(scenario_path), "--track", str(track_path), "--metrics-3d"]
        assert cli_main(args) == 2
        assert "track has 3 results" in capsys.readouterr().err

    def test_track_on_another_canvas_exits_2(self, geo_files, capsys):
        # a 32x32 track for the 48x48 geo scenario: as many frames, none of them scored against its masks
        scenario_path, track_path = geo_files
        small = gen_scenario(7, replace(preset_params("geo"), canvas=(32, 32)))
        fileio.save_track(ground_truth_track(small), str(track_path))
        scenario, track = fileio.load_scenario(str(scenario_path)), fileio.load_track(str(track_path))
        message = "track's (H, W) (32, 32) is not the scenario's (48, 48)"
        for evaluate in metrics.eval_2d, metrics.eval_3d:
            with pytest.raises(DimensionError, match=re.escape(message)):
                evaluate(track, scenario)
        args = ["eval", "--scenario", str(scenario_path), "--track", str(track_path), "--metrics-3d"]
        assert cli_main(args) == 2
        assert message in capsys.readouterr().err


class TestCli:
    def run_cli(self, *args):
        return cli_main(list(args))

    @pytest.mark.parametrize("preset", PRESETS)
    def test_gen_deterministic_bytes(self, tmp_path, preset):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert self.run_cli("gen", "--seed", "7", "--preset", preset, "--out", str(a)) == 0
        assert self.run_cli("gen", "--seed", "7", "--preset", preset, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_preset_is_validation_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            self.run_cli("gen", "--seed", "1", "--preset", "nope", "--out", str(tmp_path / "x.json"))
        assert err.value.code == 2

    def test_missing_file_is_validation_error(self, tmp_path):
        code = self.run_cli(
            "run2d", "--scenario", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o.json")
        )
        assert code == 2

    def test_directory_as_scenario_is_input_error(self, tmp_path, capsys):
        code = self.run_cli("run2d", "--scenario", str(tmp_path), "--out", str(tmp_path / "o.npz"))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_selfcheck_filter(self, capsys):
        assert self.run_cli("selfcheck", "--filter", "core.median") == 0
        out = capsys.readouterr().out
        assert "core.median_filter_sort_oracle" in out and "PASS" in out

    def test_selfcheck_json(self, capsys):
        assert self.run_cli("selfcheck", "--filter", "scalar_loop", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failures"] == 0

    def test_selfcheck_unknown_filter(self):
        assert self.run_cli("selfcheck", "--filter", "nonexistent.check") == 2

    @pytest.mark.parametrize(
        "field,value",
        [("updates_enabled", "no"), ("capacity", True), ("zeta", "1.0"), ("zeta", float("nan")), ("kernel_size", 3.0)],
    )
    def test_mistyped_config_field_exits_2(self, tmp_path, capsys, field, value):
        scenario_path, config_path = tmp_path / "s.json", tmp_path / "c.json"
        fileio.save_scenario(small_identity(), str(scenario_path))
        config_path.write_text(json.dumps({"version": fileio.FORMAT_VERSION, "kind": "config", field: value}))
        args = ["run2d", "--scenario", str(scenario_path), "--config", str(config_path)]
        assert self.run_cli(*args, "--out", str(tmp_path / "t.json")) == 2
        assert f"c.json: invalid config: {field} must be" in capsys.readouterr().err

    def test_gen_into_missing_directory_names_the_output(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.npz"
        assert self.run_cli("gen", "--seed", "1", "--preset", "identity", "--out", str(out)) == 2
        # the path given, not the temporary file the write goes through
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"

    def test_eval_json_output(self, tmp_path, capsys):
        scenario_path = tmp_path / "s.json"
        track_path = tmp_path / "t.json"
        sc = small_identity(n_frames=4)
        fileio.save_scenario(sc, str(scenario_path))
        fileio.save_track(ground_truth_track(sc), str(track_path))
        code = self.run_cli(
            "eval", "--scenario", str(scenario_path), "--track", str(track_path), "--json"
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stAP25"] == 1.0

    def test_run2d_run3d_eval_chain(self, tmp_path, capsys):
        scenario_path = tmp_path / "geo.json"
        sc = gen_scenario(11, preset_params("geo"))
        fileio.save_scenario(sc, str(scenario_path))
        track_path = tmp_path / "track.json"
        fileio.save_track(ground_truth_track(sc), str(track_path))
        out3d = tmp_path / "track3d.json"
        code = self.run_cli(
            "run3d", "--scenario", str(scenario_path), "--track", str(track_path), "--out", str(out3d)
        )
        assert code == 0
        code = self.run_cli(
            "eval", "--scenario", str(scenario_path), "--track", str(out3d), "--metrics-3d", "--json"
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["3d_l2"] < 1e-9
        assert payload["3d_qwp_pct"] == 100.0

    def test_run3d_without_boxes_writes_no_world_point(self, tmp_path, capsys):
        sc = gen_scenario(11, preset_params("geo"))
        track = ground_truth_track(sc)
        # an interval but no box: no frame can be lifted
        track = replace(track, results=[SegmentationResult(np.zeros_like(r.prob)) for r in track.results])
        scenario_path, track_path, out3d = tmp_path / "geo.npz", tmp_path / "track.npz", tmp_path / "track3d.npz"
        fileio.save_scenario(sc, str(scenario_path))
        fileio.save_track(track, str(track_path))
        args = ["run3d", "--scenario", str(scenario_path), "--track", str(track_path), "--out", str(out3d)]
        assert self.run_cli(*args) == 0
        assert "no interval frame had a usable mask and depth" in capsys.readouterr().out
        lifted = fileio.load_track(str(out3d))
        assert lifted.world_point is None and lifted.displacements == {}
        assert lifted.interval == track.interval

    def test_run3d_without_alignment_exits_2(self, tmp_path, capsys):
        sc = small_identity()
        scenario_path, track_path = tmp_path / "identity.npz", tmp_path / "track.npz"
        fileio.save_scenario(sc, str(scenario_path))
        fileio.save_track(ground_truth_track(sc), str(track_path))
        args = ["run3d", "--scenario", str(scenario_path), "--track", str(track_path)]
        assert self.run_cli(*args, "--out", str(tmp_path / "track3d.npz")) == 2
        assert "carries no alignment point pairs" in capsys.readouterr().err
        assert not (tmp_path / "track3d.npz").exists()

    def test_console_script_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "vql.cli", "selfcheck", "--filter", "core.conv2d"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "PASS" in proc.stdout
