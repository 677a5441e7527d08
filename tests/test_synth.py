import numpy as np
import pytest

from pairpose.errors import EverythingOccluded
from pairpose.geom import pose_apply, pose_invert, rotation_geodesic_angle
from pairpose.solver import kabsch_points
from pairpose.synth import (
    Dataset,
    SceneSpec,
    ShapeSpec,
    farthest_point_indices,
    gen_shape,
    make_dataset,
    render_scene,
)

DISTANT_VIEW = SceneSpec(viewpoint=(0.0, 0.0, 1000.0), translation=((0,) * 3, (0,) * 3))


class TestGenShape:
    def test_sphere_radius_and_normals(self):
        cloud = gen_shape(ShapeSpec("sphere", (0.05,), n=1000, seed=0))
        radii = np.linalg.norm(cloud.positions, axis=1)
        np.testing.assert_allclose(radii, 0.05, atol=1e-9)
        np.testing.assert_allclose(cloud.normals,
                                   cloud.positions / radii[:, None], atol=1e-9)

    def test_box_points_on_faces(self):
        cloud = gen_shape(ShapeSpec("box", (0.1, 0.1, 0.1), n=500, seed=1))
        half = 0.05
        on_face = np.isclose(np.abs(cloud.positions), half).any(axis=1)
        assert np.all(on_face)
        # each point's normal is the axis of the face it sits on
        for p, n in zip(cloud.positions, cloud.normals):
            axis = np.argmax(np.abs(n))
            assert abs(abs(p[axis]) - half) < 1e-12
            assert abs(n[axis]) == 1.0

    def test_cylinder_side_normals_radial(self):
        cloud = gen_shape(ShapeSpec("cylinder", (0.03, 0.1), n=600, seed=2))
        side = np.abs(np.abs(cloud.positions[:, 2]) - 0.05) > 1e-9
        radial = cloud.positions[side][:, :2]
        radial = radial / np.linalg.norm(radial, axis=1, keepdims=True)
        np.testing.assert_allclose(cloud.normals[side][:, :2], radial, atol=1e-9)

    def test_bump_breaks_no_points_in_footprint(self):
        spec = ShapeSpec("box_with_bump", (0.08, 0.1, 0.12, 0.02), n=800, seed=3)
        cloud = gen_shape(spec)
        assert len(cloud) == 800
        center = np.array([0.04, 0.025, 0.015])
        on_face = np.isclose(cloud.positions[:, 0], 0.04)
        d_face = np.linalg.norm(cloud.positions[on_face][:, 1:] - center[1:], axis=1)
        assert np.all(d_face >= 0.02 - 1e-12)  # footprint cleared for the bump

    def test_deterministic(self):
        spec = ShapeSpec("box_with_bump", (0.08, 0.1, 0.12, 0.02), n=300, seed=4)
        a, b = gen_shape(spec), gen_shape(spec)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.normals, b.normals)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShapeSpec("pyramid", (1.0,), n=10)
        with pytest.raises(ValueError):
            ShapeSpec("sphere", (0.05,), n=3)
        with pytest.raises(ValueError):
            ShapeSpec("box", (0.1, -0.1, 0.1), n=10)
        with pytest.raises(ValueError, match="bump radius"):
            ShapeSpec("box_with_bump", (0.08, 0.1, 0.12, 0.025), n=10)


class TestFarthestPoint:
    def test_exact_output_size(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((100, 3))
        idx = farthest_point_indices(pts, 32, start=0)
        assert idx.shape == (32,)
        assert len(np.unique(idx)) == 32

    def test_spreads_points(self):
        # on a line of 10 points, picking 3 from one end must include both ends
        pts = np.column_stack([np.arange(10.0), np.zeros(10), np.zeros(10)])
        idx = farthest_point_indices(pts, 3, start=0)
        assert set(idx) >= {0, 9}


class TestRenderScene:
    def test_noiseless_is_visible_half(self):
        model = gen_shape(ShapeSpec("sphere", (0.05,), n=400, seed=6))
        scene, gt = render_scene(model, DISTANT_VIEW)
        posed = pose_apply(gt, model)
        facing = np.einsum("ij,ij->i", posed.normals,
                           np.array([0, 0, 1000.0]) - posed.positions) > 0
        visible = posed.positions[facing]
        # every scene point is exactly one of the visible posed points
        uniq = np.unique(scene.positions, axis=0)
        vis_uniq = np.unique(visible, axis=0)
        assert uniq.shape == vis_uniq.shape and np.array_equal(uniq, vis_uniq)

    def test_occlusion_fraction_contract(self):
        model = gen_shape(ShapeSpec("sphere", (0.05,), n=600, seed=7))
        spec_base = SceneSpec(viewpoint=(0, 0, 1000.0), seed=8,
                              translation=((0,) * 3, (0,) * 3))
        scene_free, gt = render_scene(model, spec_base)
        posed = pose_apply(gt, model)
        n_vis = int((np.einsum("ij,ij->i", posed.normals,
                               np.array([0, 0, 1000.0]) - posed.positions) > 0).sum())
        occluded, _ = render_scene(model, SceneSpec(
            viewpoint=(0, 0, 1000.0), seed=8, occlusion_fraction=0.5,
            translation=((0,) * 3, (0,) * 3)))
        survivors = np.unique(occluded.positions, axis=0).shape[0]
        assert abs(survivors - 0.5 * n_vis) <= 1.0

    def test_occlusion_is_contiguous(self):
        model = gen_shape(ShapeSpec("sphere", (0.05,), n=500, seed=9))
        spec = SceneSpec(viewpoint=(0, 0, 1000.0), seed=10, occlusion_fraction=0.4,
                         translation=((0,) * 3, (0,) * 3))
        scene, gt = render_scene(model, spec)
        posed = pose_apply(gt, model)
        facing = np.einsum("ij,ij->i", posed.normals,
                           np.array([0, 0, 1000.0]) - posed.positions) > 0
        visible = posed.positions[facing]
        kept = {tuple(p) for p in np.unique(scene.positions, axis=0)}
        removed = np.array([p for p in visible if tuple(p) not in kept])
        survivors = np.array([p for p in visible if tuple(p) in kept])
        # the removed set is the k-nearest ball around some occluder center:
        # for that center, every removed point is closer than every kept one
        def is_ball_center(c):
            r_removed = np.linalg.norm(removed - c, axis=1).max()
            closest_kept = np.linalg.norm(survivors - c, axis=1).min()
            return r_removed <= closest_kept
        assert any(is_ball_center(c) for c in removed)

    def test_deterministic(self):
        model = gen_shape(ShapeSpec("box_with_bump", (0.08, 0.1, 0.12, 0.02),
                                    n=200, seed=11))
        spec = SceneSpec(viewpoint=(0, 0, 2.0), seed=12, noise_sigma=0.002,
                         occlusion_fraction=0.3)
        s1, g1 = render_scene(model, spec)
        s2, g2 = render_scene(model, spec)
        assert np.array_equal(s1.positions, s2.positions)
        assert np.array_equal(s1.normals, s2.normals)
        assert np.array_equal(g1.q, g2.q) and np.array_equal(g1.t, g2.t)

    def test_resampled_size_equals_model(self):
        model = gen_shape(ShapeSpec("sphere", (0.05,), n=128, seed=13))
        spec = SceneSpec(viewpoint=(0, 0, 2.0), seed=14, noise_sigma=0.002,
                         occlusion_fraction=0.3)
        scene, _ = render_scene(model, spec)
        assert len(scene) == 128

    def test_everything_occluded(self):
        model = gen_shape(ShapeSpec("sphere", (0.05,), n=16, seed=15))
        spec = SceneSpec(viewpoint=(0, 0, 2.0), seed=16, occlusion_fraction=0.99,
                         translation=((0,) * 3, (0,) * 3))
        with pytest.raises(EverythingOccluded):
            render_scene(model, spec)


class TestMakeDataset:
    def test_record_count_and_split(self):
        ds = make_dataset(ShapeSpec("sphere", (0.05,), n=64, seed=17), 10,
                          SceneSpec(viewpoint=(0, 0, 2.0)), seed=18,
                          train_fraction=0.8)
        assert len(ds.records) == 10
        assert len(ds.train_indices) == 8 and len(ds.test_indices) == 2

    def test_deterministic(self):
        args = (ShapeSpec("box", (0.1, 0.1, 0.1), n=64, seed=19), 5,
                SceneSpec(viewpoint=(0, 0, 2.0), noise_sigma=0.001))
        a = make_dataset(*args, seed=20)
        b = make_dataset(*args, seed=20)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.scene.positions, rb.scene.positions)
            assert np.array_equal(ra.gt.q, rb.gt.q)

    def test_symmetry_flags(self):
        assert ShapeSpec("sphere", (0.05,), n=8).symmetric
        assert ShapeSpec("cylinder", (0.03, 0.1), n=8).symmetric
        assert ShapeSpec("box", (0.1, 0.1, 0.1), n=8).symmetric
        assert not ShapeSpec("box_with_bump", (0.08, 0.1, 0.12, 0.02), n=8).symmetric

    def test_gt_consistency_closes_loop_with_kabsch(self):
        # sigma = 0: canonical-frame scene points coincide with model points,
        # so exact index correspondences exist and kabsch recovers gt.
        ds = make_dataset(
            ShapeSpec("box_with_bump", (0.08, 0.1, 0.12, 0.02), n=128, seed=21),
            4, SceneSpec(viewpoint=(0, 0, 2.0)), seed=22)
        for record in ds.records:
            canon = pose_apply(pose_invert(record.gt), record.scene)
            d = np.linalg.norm(
                canon.positions[:, None, :] - ds.model.positions[None, :, :], axis=2)
            nearest = d.min(axis=1)
            assert np.max(nearest) < 1e-9  # every scene point is a model point
            src = ds.model.positions[np.argmin(d, axis=1)]
            pose = kabsch_points(src, record.scene.positions)
            assert rotation_geodesic_angle(pose.q, record.gt.q) < 1e-9
            assert np.linalg.norm(pose.t - record.gt.t) < 1e-9
