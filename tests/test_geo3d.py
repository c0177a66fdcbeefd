import numpy as np
import pytest

from vql import geo3d
from vql.core import DimensionError, ParameterError
from vql.fusion import SegmentationResult
from vql.scenario import _random_rotation


def rng(seed=0):
    return np.random.default_rng(seed)


def random_sim3(r):
    return geo3d.Sim3Transform(
        float(r.uniform(0.3, 3.0)), _random_rotation(r), r.uniform(-5, 5, size=3)
    )


def identity_sim3():
    return geo3d.Sim3Transform(1.0, np.eye(3), np.zeros(3))


def simple_camera(f=100.0, cx=4.0, cy=4.0, depth_value=2.0, h=9, w=9):
    intrinsics = np.array([[f, 0, cx], [0, f, cy], [0, 0, 1.0]])
    return geo3d.CameraFrame(np.eye(4), intrinsics, np.full((h, w), depth_value), np.zeros((h, w)))


class TestSim3Transform:
    def test_identity(self):
        t = identity_sim3()
        p = rng(1).uniform(size=(5, 3))
        np.testing.assert_array_equal(t.apply(p), p)

    def test_inverse_round_trip(self):
        t = random_sim3(rng(2))
        p = rng(3).uniform(-2, 2, size=(10, 3))
        np.testing.assert_allclose(t.inverse().apply(t.apply(p)), p, atol=1e-12)

    def test_rejects_reflection(self):
        bad = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ParameterError):
            geo3d.Sim3Transform(1.0, bad, np.zeros(3))

    def test_rotation_tolerance_is_absolute(self):
        # R^T R is 8e-6 off the identity on the diagonal: far outside ROTATION_TOL, though inside
        # the relative tolerance a default np.allclose would add
        bad = np.diag([1 + 4e-6, 1 - 4e-6, 1.0])
        with pytest.raises(ParameterError, match="rotation block is not orthonormal"):
            geo3d.Sim3Transform(1.0, bad, np.zeros(3))
        pose = np.eye(4)
        pose[:3, :3] = bad
        cam = simple_camera()
        with pytest.raises(ParameterError, match="rotation block is not orthonormal"):
            geo3d.CameraFrame(pose, cam.intrinsics, cam.depth, cam.depth_uncertainty)
        # within the tolerance on every entry
        geo3d.Sim3Transform(1.0, np.diag([1 + 4e-10, 1 - 4e-10, 1.0]), np.zeros(3))

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
    def test_scale_must_be_positive_and_finite(self, scale):
        with pytest.raises(ParameterError, match=r"^scale must be positive and finite, got"):
            geo3d.Sim3Transform(scale, np.eye(3), np.zeros(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_translation_must_be_finite(self, value):
        with pytest.raises(ParameterError, match=r"^translation must be finite$"):
            geo3d.Sim3Transform(1.0, np.eye(3), np.array([0.0, value, 0.0]))

    @pytest.mark.parametrize("shape", [(1, 3), (3, 1), (2,)])
    def test_translation_must_be_a_3_vector(self, shape):
        # three numbers in another shape are refused, not reshaped: the shape is the caller's mistake
        with pytest.raises(DimensionError, match=r"^translation must be a 3-vector, got shape"):
            geo3d.Sim3Transform(1.0, np.eye(3), np.zeros(shape))

    @pytest.mark.parametrize("seed", range(20))
    def test_fitted_and_inverted_rotations_pass_the_check(self, seed):
        # align_sim3 builds a Sim3Transform, and so does its inverse: both run the rotation check
        r = rng(seed)
        src = r.uniform(-2, 2, size=(12, 3))
        dst = random_sim3(r).apply(src) + r.normal(0, 0.1, size=(12, 3))
        fitted = geo3d.align_sim3(src, dst)
        np.testing.assert_allclose(fitted.inverse().inverse().apply(src), fitted.apply(src), atol=1e-9)


class TestAlignSim3:
    def test_identity_when_equal(self):
        src = rng(5).uniform(-2, 2, size=(10, 3))
        got = geo3d.align_sim3(src, src)
        assert got.scale == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(got.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(got.translation, 0.0, atol=1e-12)

    def test_local_optimality_spot_check(self):
        r = rng(7)
        want = random_sim3(r)
        src = r.uniform(-2, 2, size=(30, 3))
        dst = want.apply(src) + r.normal(0, 0.05, size=(30, 3))
        got = geo3d.align_sim3(src, dst)
        best = float(np.sum((got.apply(src) - dst) ** 2))
        for _ in range(200):
            jitter = geo3d.Sim3Transform(
                got.scale * float(np.exp(r.normal(0, 0.02))),
                got.rotation @ _random_rotation_small(r, 0.02),
                got.translation + r.normal(0, 0.02, size=3),
            )
            assert best <= float(np.sum((jitter.apply(src) - dst) ** 2)) + 1e-12

    def test_too_few_points(self):
        with pytest.raises(geo3d.DegenerateGeometryError):
            geo3d.align_sim3(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_collinear_points(self):
        src = np.outer(np.arange(5.0), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(geo3d.DegenerateGeometryError):
            geo3d.align_sim3(src, src)


def _random_rotation_small(r, scale):
    axis = r.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = r.normal(0, scale)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


class TestBackproject:
    def test_principal_ray(self):
        cam = simple_camera(f=50.0, cx=4.0, cy=4.0, depth_value=3.0)
        np.testing.assert_allclose(geo3d.backproject(cam, 4, 4, identity_sim3()), [0, 0, 3.0], atol=1e-12)

    def test_translation_equivariance(self):
        cam = simple_camera()
        t = np.array([1.0, -2.0, 0.5])
        t_eta = geo3d.Sim3Transform(1.0, np.eye(3), t)
        base = geo3d.backproject(cam, 3, 5, identity_sim3())
        shifted = geo3d.backproject(cam, 3, 5, t_eta)
        np.testing.assert_allclose(shifted, base + t, atol=1e-12)

    def test_out_of_bounds(self):
        with pytest.raises(geo3d.InvalidSampleError):
            geo3d.backproject(simple_camera(), 99, 0, identity_sim3())

    def test_invalid_depth(self):
        # a missing depth sample is a non-positive one
        for depth in (0.0, -1.0):
            cam = simple_camera(depth_value=depth)
            with pytest.raises(geo3d.InvalidSampleError):
                geo3d.backproject(cam, 4, 4, identity_sim3())


class TestCameraFrame:
    @pytest.mark.parametrize("index", [(1, 0), (2, 0), (2, 1)])
    def test_intrinsics_below_the_diagonal(self, index):
        cam = simple_camera()
        intrinsics = cam.intrinsics.copy()
        intrinsics[index] = -1e-8
        geo3d.CameraFrame(cam.pose, intrinsics, cam.depth, cam.depth_uncertainty)
        intrinsics[index] = 2e-8
        with pytest.raises(ParameterError, match="intrinsics must be upper triangular"):
            geo3d.CameraFrame(cam.pose, intrinsics, cam.depth, cam.depth_uncertainty)

    @pytest.mark.parametrize(
        "field,index", [("pose", (0, 3)), ("intrinsics", (0, 2)), ("depth_uncertainty", (4, 4)), ("depth", (2, 3))]
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_geometry_rejected(self, field, index, value):
        cam = simple_camera()
        arrays = {name: getattr(cam, name).copy() for name in ("pose", "intrinsics", "depth", "depth_uncertainty")}
        arrays[field][index] = value
        with pytest.raises(ParameterError, match=field):
            geo3d.CameraFrame(**arrays)

    @pytest.mark.parametrize("shape", [(5, 5, 2), (25,), ()])
    def test_depth_must_be_a_map(self, shape):
        cam = simple_camera(h=5, w=5)
        with pytest.raises(DimensionError, match=r"^depth must be of shape \(-1, -1\), got shape"):
            geo3d.CameraFrame(cam.pose, cam.intrinsics, np.ones(shape), np.zeros(shape))


class TestSemanticConfidence:
    def test_constant_field(self):
        prob = np.zeros((4, 4))
        prob[1:3, 1:3] = 0.8
        assert geo3d.semantic_confidence(SegmentationResult(prob)) == pytest.approx(0.8)

    def test_empty_mask(self):
        assert geo3d.semantic_confidence(SegmentationResult(np.full((3, 3), 0.4))) == 0.0

    def test_hand_computation(self):
        # the mask mean is the result's s_conf; the pixel at exactly 0.5 is in the mask but not above LAMBDA_THR
        result = SegmentationResult(np.array([[0.9, 0.5]]))
        assert result.s_conf == pytest.approx(0.7)
        assert geo3d.semantic_confidence(result) == pytest.approx((0.7 + 0.9 + 0.9) / 3)

    def test_no_pixels_above_threshold(self):
        got = geo3d.semantic_confidence(SegmentationResult(np.full((2, 2), 0.5)))
        assert got == pytest.approx((0.5 + 0.0 + 0.5) / 3)


class TestGeometricConfidence:
    def test_zero_uncertainty(self):
        assert geo3d.geometric_confidence(0.0, 1.0) == 1.0

    def test_half_at_log_two(self):
        assert geo3d.geometric_confidence(np.log(2.0), 1.0) == pytest.approx(0.5)

    def test_monotone(self):
        taus = np.linspace(0, 5, 40)
        values = [geo3d.geometric_confidence(t, 1.3) for t in taus]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_negative_tau(self):
        with pytest.raises(ParameterError):
            geo3d.geometric_confidence(-0.1, 1.0)

    @pytest.mark.parametrize(
        "tau,zeta,message",
        [
            pytest.param(np.nan, 1.0, "uncertainty must be non-negative", id="nan-tau"),
            pytest.param(1.0, np.nan, "zeta must be positive", id="nan-zeta"),
            pytest.param(1.0, 0.0, "zeta must be positive", id="zero-zeta"),
            pytest.param(0.0, np.inf, "zeta must be positive and finite", id="inf-zeta"),
        ],
    )
    def test_nan_and_out_of_range_inputs_refused(self, tau, zeta, message):
        with pytest.raises(ParameterError, match=f"^{message}"):
            geo3d.geometric_confidence(tau, zeta)

    def test_infinite_uncertainty_weighs_nothing(self):
        assert geo3d.geometric_confidence(np.inf, 1.0) == 0.0


class TestAggregate:
    def test_single_contribution(self):
        np.testing.assert_array_equal(geo3d.aggregate([[1.0, 2.0, 3.0]], [0.25]), [1.0, 2.0, 3.0])

    def test_equal_weights_centroid(self):
        got = geo3d.aggregate([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]], [0.5, 0.5])
        np.testing.assert_allclose(got, [1.0, 0.0, 0.0])

    def test_inside_convex_hull(self):
        r = rng(9)
        points = r.uniform(-3, 3, size=(8, 3))
        weights = r.uniform(0.1, 1, size=8) * r.uniform(0.1, 1, size=8)
        got = geo3d.aggregate(points, weights)
        assert np.all(got >= points.min(axis=0) - 1e-12)
        assert np.all(got <= points.max(axis=0) + 1e-12)

    def test_zero_weights(self):
        with pytest.raises(geo3d.DegenerateGeometryError, match="all fused weights are zero"):
            geo3d.aggregate([[0.0, 0.0, 0.0]], [0.0])
        with pytest.raises(geo3d.DegenerateGeometryError, match="no points to aggregate"):
            geo3d.aggregate([], [])

    @pytest.mark.parametrize(
        "points,weights",
        [
            pytest.param([[0.0, 0.0, 0.0]], [0.5, 0.5], id="more-weights"),
            pytest.param([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], [0.5], id="fewer-weights"),
            pytest.param([0.0, 0.0, 0.0], [0.5], id="one-vector"),
            pytest.param([[0.0, 0.0]], [0.5], id="2d-points"),
        ],
    )
    def test_shape_mismatch(self, points, weights):
        with pytest.raises(DimensionError, match="need \\(N, 3\\) points and N weights"):
            geo3d.aggregate(points, weights)

    @pytest.mark.parametrize(
        "points,weights,message",
        [
            pytest.param([[1.0, 2.0, 3.0]], [np.nan], "weights must be finite", id="nan-weight"),
            pytest.param([[1.0, 2.0, 3.0]], [np.inf], "weights must be finite", id="inf-weight"),
            # the average of [2, -1] is (-1, -1, -1), outside the hull of the two points
            pytest.param([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], [2.0, -1.0], "weights must be non-negative", id="negative"),
            pytest.param([[np.nan, 0.0, 0.0], [1.0, 1.0, 1.0]], [0.5, 0.5], "points must be finite", id="nan-point"),
            pytest.param([[np.inf, 0.0, 0.0]], [0.0], "points must be finite", id="inf-point-zero-weight"),
        ],
    )
    def test_bad_values_refused(self, points, weights, message):
        with pytest.raises(ParameterError, match=f"^{message}"):
            geo3d.aggregate(points, weights)


class TestRelativeDisplacement:
    def test_camera_center_maps_to_origin(self):
        r = rng(10)
        rot = _random_rotation(r)
        pose = np.eye(4)
        pose[:3, :3] = rot
        pose[:3, 3] = r.uniform(-2, 2, size=3)
        cam = geo3d.CameraFrame(pose, simple_camera().intrinsics, np.full((9, 9), 1.0), np.zeros((9, 9)))
        t_eta = random_sim3(r)
        # the lift's path: a benchmark-frame point goes back through t_eta first
        center_in_bench = t_eta.apply(pose[:3, 3])
        np.testing.assert_allclose(
            geo3d.relative_displacement(cam, t_eta.inverse().apply(center_in_bench)), 0.0, atol=1e-10
        )

    def test_identity_everything(self):
        cam = simple_camera()
        p = np.array([0.3, -0.7, 2.2])
        np.testing.assert_array_equal(geo3d.relative_displacement(cam, p), p)
