import numpy as np
import pytest

from pairpose.errors import DegenerateNeighborhood, NonFiniteInput
from pairpose.geom import (
    OrientedPointCloud,
    Pose,
    estimate_normals,
    pose_apply,
    pose_compose,
    pose_invert,
    quat_from_axis_angle,
    quat_normalize,
    quat_to_matrix,
    random_pose,
    rotation_geodesic_angle,
)


def make_cloud(rng, n=50, frame="scene"):
    pos = rng.uniform(-0.1, 0.1, size=(n, 3))
    nrm = rng.standard_normal((n, 3))
    nrm = nrm / np.linalg.norm(nrm, axis=1, keepdims=True)
    return OrientedPointCloud(pos, nrm, frame)


class TestPoseApply:
    def test_identity(self):
        rng = np.random.default_rng(0)
        cloud = make_cloud(rng)
        out = pose_apply(Pose.identity(), cloud)
        np.testing.assert_allclose(out.positions, cloud.positions, atol=1e-15)
        np.testing.assert_allclose(out.normals, cloud.normals, atol=1e-15)

    def test_pure_translation_keeps_normals(self):
        cloud = OrientedPointCloud([[0.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]])
        pose = Pose(np.array([1.0, 0, 0, 0]), np.array([0.01, 0.0, 0.0]))
        out = pose_apply(pose, cloud)
        np.testing.assert_allclose(out.positions[0], [0.01, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(out.normals[0], [0.0, 0.0, 1.0], atol=1e-15)

    def test_rot90_about_z(self):
        cloud = OrientedPointCloud([[1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]])
        pose = Pose.from_axis_angle([0, 0, 1], np.pi / 2)
        out = pose_apply(pose, cloud)
        np.testing.assert_allclose(out.positions[0], [0.0, 1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(out.normals[0], [0.0, 1.0, 0.0], atol=1e-12)

    def test_preserves_distances_and_angles(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            cloud = make_cloud(rng, n=30)
            pose = random_pose(rng)
            out = pose_apply(pose, cloud)
            d_before = np.linalg.norm(
                cloud.positions[:, None] - cloud.positions[None, :], axis=2)
            d_after = np.linalg.norm(
                out.positions[:, None] - out.positions[None, :], axis=2)
            assert np.max(np.abs(d_before - d_after)) < 1e-9
            cos_before = cloud.normals @ cloud.normals.T
            cos_after = out.normals @ out.normals.T
            assert np.max(np.abs(cos_before - cos_after)) < 1e-9


class TestPoseAlgebra:
    def test_compose_identity(self):
        rng = np.random.default_rng(2)
        b = random_pose(rng)
        ab = pose_compose(Pose.identity(), b)
        assert rotation_geodesic_angle(ab.q, b.q) < 1e-12
        np.testing.assert_allclose(ab.t, b.t, atol=1e-12)

    def test_compose_two_quarter_turns(self):
        a = Pose.from_axis_angle([0, 0, 1], np.pi / 2)
        ab = pose_compose(a, a)
        expected = Pose.from_axis_angle([0, 0, 1], np.pi)
        assert rotation_geodesic_angle(ab.q, expected.q) < 1e-12

    def test_compose_matches_sequential_application(self):
        rng = np.random.default_rng(3)
        a, b = random_pose(rng), random_pose(rng)
        ab = pose_compose(a, b)
        pts = rng.uniform(-1, 1, size=(100, 3))
        direct = ab.apply_points(pts)
        sequential = a.apply_points(b.apply_points(pts))
        assert np.max(np.abs(direct - sequential)) < 1e-9

    def test_invert_identity_and_translation(self):
        assert np.allclose(pose_invert(Pose.identity()).t, 0.0)
        p = Pose(np.array([1.0, 0, 0, 0]), np.array([0.1, -0.2, 0.3]))
        np.testing.assert_allclose(pose_invert(p).t, [-0.1, 0.2, -0.3], atol=1e-15)

    def test_invert_round_trip(self):
        rng = np.random.default_rng(4)
        p = random_pose(rng)
        pts = rng.uniform(-1, 1, size=(100, 3))
        back = pose_invert(p).apply_points(p.apply_points(pts))
        assert np.max(np.abs(back - pts)) < 1e-9

    def test_invert_compose_is_identity_many(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            p = random_pose(rng)
            i = pose_compose(pose_invert(p), p)
            assert rotation_geodesic_angle(i.q, [1, 0, 0, 0]) < 1e-9
            assert np.linalg.norm(i.t) < 1e-9

    def test_renormalization_drift(self):
        rng = np.random.default_rng(6)
        p = random_pose(rng)
        for _ in range(10_000):
            p = pose_compose(p, random_pose(rng))
        assert abs(np.linalg.norm(p.q) - 1.0) < 1e-6


class TestQuatToMatrix:
    def test_batched_equals_per_quaternion(self):
        rng = np.random.default_rng(8)
        qs = np.array([random_pose(rng).q for _ in range(24)]).reshape(2, 3, 4, 4)
        batched = quat_to_matrix(qs)
        assert batched.shape == (2, 3, 4, 3, 3)
        for idx in np.ndindex(qs.shape[:-1]):
            assert np.array_equal(batched[idx], quat_to_matrix(qs[idx]))

    def test_single_quaternion_keeps_scalar_formula(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            w, x, y, z = q = random_pose(rng).q
            expected = np.array([
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ])
            assert np.array_equal(quat_to_matrix(q), expected)


class TestGeodesicAngle:
    def test_equal_is_zero(self):
        rng = np.random.default_rng(7)
        q = random_pose(rng).q
        assert rotation_geodesic_angle(q, q) < 1e-12

    def test_quarter_turn(self):
        q = quat_from_axis_angle([1, 0, 0], np.pi / 2)
        assert abs(rotation_geodesic_angle([1, 0, 0, 0], q) - np.pi / 2) < 1e-12

    def test_double_cover(self):
        q = quat_from_axis_angle([0, 1, 0], 1.0)
        assert rotation_geodesic_angle(q, -q) < 1e-9

    def test_symmetric(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a, b = random_pose(rng).q, random_pose(rng).q
            assert rotation_geodesic_angle(a, b) == pytest.approx(
                rotation_geodesic_angle(b, a), abs=1e-12)


class TestQuaternionCanonicalization:
    def test_negative_w_flipped(self):
        q = quat_normalize([-1.0, 0.5, 0.0, 0.0])
        assert q[0] > 0

    def test_zero_w_deterministic(self):
        q = quat_normalize([0.0, -1.0, 0.0, 0.0])
        assert q[1] == 1.0


class TestCloudValidation:
    def test_rejects_nan(self):
        with pytest.raises(NonFiniteInput):
            OrientedPointCloud([[np.nan, 0, 0]], [[0, 0, 1]])

    def test_rejects_non_unit_normals(self):
        with pytest.raises(ValueError):
            OrientedPointCloud([[0, 0, 0]], [[0, 0, 2.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            OrientedPointCloud(np.zeros((0, 3)), np.zeros((0, 3)))

    def test_immutable(self):
        cloud = OrientedPointCloud([[0, 0, 0.0]], [[0, 0, 1.0]])
        with pytest.raises(ValueError):
            cloud.positions[0, 0] = 1.0


class TestEstimateNormals:
    def test_plane_gives_z_normals(self):
        rng = np.random.default_rng(9)
        pos = np.column_stack([rng.uniform(-1, 1, 200), rng.uniform(-1, 1, 200),
                               np.zeros(200)])
        cloud = estimate_normals(pos, k=8, viewpoint=[0, 0, 10.0])
        np.testing.assert_allclose(np.abs(cloud.normals[:, 2]), 1.0, atol=1e-9)
        assert np.all(cloud.normals[:, 2] > 0)  # oriented toward viewpoint

    def test_sphere_north_pole(self):
        rng = np.random.default_rng(10)
        pts = rng.standard_normal((2000, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        pts[0] = [0.0, 0.0, 1.0]
        cloud = estimate_normals(pts, k=12, viewpoint=[0, 0, 10.0])
        angle = np.arccos(np.clip(cloud.normals[0] @ np.array([0, 0, 1.0]), -1, 1))
        assert angle < np.deg2rad(5.0)

    def test_collinear_raises(self):
        pos = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0.0]])
        with pytest.raises(DegenerateNeighborhood):
            estimate_normals(pos, k=3, viewpoint=[0, 0, 1.0])
