import numpy as np
import pytest

from pairpose.errors import EmptyRecords, TooFewPoints
from pairpose.geom import OrientedPointCloud, Pose, pose_compose, random_pose
from pairpose.metrics import (
    EvalRecord,
    accuracy,
    add_metric,
    adds_metric,
    auc,
    model_diameter,
    summarize,
    threshold_absolute,
    threshold_relative,
)
from tests.test_geom import make_cloud


def cylinder_cloud(n=400, radius=0.03, height=0.1, seed=0):
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0, 2 * np.pi, n)
    zs = rng.uniform(-height / 2, height / 2, n)
    pos = np.column_stack([radius * np.cos(angles), radius * np.sin(angles), zs])
    nrm = np.column_stack([np.cos(angles), np.sin(angles), np.zeros(n)])
    return OrientedPointCloud(pos, nrm, "model")


class TestDiameter:
    def test_two_points(self):
        cloud = OrientedPointCloud([[0, 0, 0], [1, 0, 0.0]],
                                   [[0, 0, 1], [0, 0, 1.0]])
        assert model_diameter(cloud) == pytest.approx(1.0)

    def test_sphere_samples(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((3000, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        cloud = OrientedPointCloud(pts, pts, "model")
        assert model_diameter(cloud) == pytest.approx(2.0, abs=0.05)

    def test_single_point_raises(self):
        cloud = OrientedPointCloud([[0, 0, 0.0]], [[0, 0, 1.0]])
        with pytest.raises(TooFewPoints):
            model_diameter(cloud)


class TestAddAdds:
    def test_equal_poses_zero(self):
        rng = np.random.default_rng(2)
        cloud = make_cloud(rng, 20)
        g = random_pose(rng)
        assert add_metric(g, g, cloud) == 0.0
        assert adds_metric(g, g, cloud) == 0.0

    def test_pure_translation_offset(self):
        rng = np.random.default_rng(3)
        cloud = make_cloud(rng, 20)
        gt = random_pose(rng)
        off = Pose(np.array([1.0, 0, 0, 0]), np.array([0.005, 0.0, 0.0]))
        pred = pose_compose(off, gt)
        assert add_metric(pred, gt, cloud) == pytest.approx(0.005, abs=1e-12)

    def test_adds_never_exceeds_add(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            cloud = make_cloud(rng, 15)
            a, b = random_pose(rng), random_pose(rng)
            assert adds_metric(a, b, cloud) <= add_metric(a, b, cloud) + 1e-12

    def test_adds_matches_brute_force_min(self):
        rng = np.random.default_rng(5)
        cloud = make_cloud(rng, 10)
        a, b = random_pose(rng), random_pose(rng)
        pa = a.apply_points(cloud.positions)
        pb = b.apply_points(cloud.positions)
        expected = np.mean([min(np.linalg.norm(pa[j] - pb[k]) for j in range(10))
                            for k in range(10)])
        assert adds_metric(a, b, cloud) == pytest.approx(expected, abs=1e-12)

    def test_adds_equals_broadcast_formula(self):
        rng = np.random.default_rng(7)
        for cloud in [make_cloud(rng, n) for n in (2, 15, 130, 300)] + [
                cylinder_cloud()]:
            a, b = random_pose(rng), random_pose(rng)
            pa = a.apply_points(cloud.positions)
            pb = b.apply_points(cloud.positions)
            d = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)
            assert adds_metric(a, b, cloud) == float(np.mean(d.min(axis=0)))

    def test_cylinder_symmetry(self):
        cloud = cylinder_cloud()
        gt = Pose.identity()
        pred = Pose.from_axis_angle([0, 0, 1], np.deg2rad(60.0))
        assert adds_metric(pred, gt, cloud) < 0.005
        assert add_metric(pred, gt, cloud) > 0.01

    def test_translation_symmetry_of_add(self):
        rng = np.random.default_rng(6)
        cloud = make_cloud(rng, 20)
        a = Pose(np.array([1.0, 0, 0, 0]), np.array([0.1, 0.0, 0.0]))
        b = Pose(np.array([1.0, 0, 0, 0]), np.array([0.0, 0.2, 0.0]))
        assert add_metric(a, b, cloud) == pytest.approx(add_metric(b, a, cloud))


def rec(err, diameter=0.1, symmetric=False, adds=None):
    return EvalRecord("s", err, err if adds is None else adds, diameter, symmetric)


class TestAccuracy:
    def test_all_zero_errors(self):
        assert accuracy([rec(0.0)] * 5, threshold_relative(0.1)) == 1.0

    def test_half(self):
        records = [rec(0.001), rec(0.5)]
        assert accuracy(records, threshold_relative(0.1)) == 0.5

    def test_strict_inequality_at_threshold(self):
        records = [rec(0.02)]  # error equals the 2 cm threshold exactly
        assert accuracy(records, threshold_absolute(0.02)) == 0.0

    def test_symmetric_records_use_adds(self):
        records = [rec(0.5, symmetric=True, adds=0.001)]
        assert accuracy(records, threshold_relative(0.1)) == 1.0
        assert accuracy(records, threshold_absolute(0.02)) == 1.0

    def test_empty_raises(self):
        with pytest.raises(EmptyRecords):
            accuracy([], threshold_relative(0.1))


class TestAuc:
    def test_all_zero_errors(self):
        assert auc([rec(0.0)] * 3, 0.1) == 1.0

    def test_single_record_half_cap(self):
        assert auc([rec(0.05)], 0.1) == pytest.approx(0.5)

    def test_matches_numerical_integration(self):
        errors = [0.01 * k for k in range(1, 11)]
        records = [rec(e) for e in errors]
        exact = auc(records, 0.10)
        # fine-grained quadrature of the accuracy step curve; the error
        # values are inserted as breakpoints so the midpoint rule is exact
        ts = np.unique(np.concatenate([np.linspace(0.0, 0.10, 10_001), errors]))
        numeric = 0.0
        for a, b in zip(ts[:-1], ts[1:]):
            t_mid = 0.5 * (a + b)
            numeric += np.mean([e < t_mid for e in errors]) * (b - a)
        assert exact == pytest.approx(numeric / 0.10, abs=1e-6)

    def test_monotone_in_errors(self):
        base = [rec(0.01), rec(0.02), rec(0.03)]
        worse = [rec(0.01), rec(0.05), rec(0.03)]
        assert auc(worse, 0.1) < auc(base, 0.1)

    def test_errors_above_cap_contribute_zero(self):
        assert auc([rec(5.0)], 0.1) == 0.0

    def test_empty_raises(self):
        with pytest.raises(EmptyRecords):
            auc([], 0.1)


class TestSummary:
    def test_report_fields(self):
        records = [rec(0.001), rec(0.015), rec(0.5)]
        report = summarize(records)
        assert report.count == 3
        assert report.accuracy_at_0p1d == pytest.approx(1 / 3)
        assert report.accuracy_at_2cm == pytest.approx(2 / 3)
        assert 0.0 < report.auc < 1.0
