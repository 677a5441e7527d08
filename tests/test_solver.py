import numpy as np
import pytest

from pairpose.errors import (
    AllPairsDegenerate,
    DegenerateConfiguration,
    EmptySet,
    NonFiniteInput,
)
from pairpose.geom import (
    Pose,
    pose_compose,
    pose_invert,
    quat_from_axis_angle,
    quat_to_matrix,
    random_pose,
    rotation_geodesic_angle,
)
from pairpose.solver import (
    IN_PLANE_RADIUS_TOL,
    CorrespondenceSet,
    PoseSet,
    align_pairs,
    average_poses,
    frame_quats,
    kabsch_points,
    poses_from_matches,
)
from tests.test_geom import make_cloud


# ---------------------------------------------------------------------------
# the scalar per-pair solve that align_pairs replaced, kept as the oracle
# ---------------------------------------------------------------------------

def reference_local_frame(position, normal) -> Pose:
    """Transform taking position to the origin and normal to +x."""
    x_axis = np.array([1.0, 0.0, 0.0])
    axis = np.cross(normal, x_axis)
    s = np.linalg.norm(axis)
    c = float(normal @ x_axis)
    if s < 1e-12:
        if c > 0.0:
            q = np.array([1.0, 0.0, 0.0, 0.0])
        else:
            q = quat_from_axis_angle([0.0, 0.0, 1.0], np.pi)
    else:
        q = quat_from_axis_angle(axis / s, np.arctan2(s, c))
    rot = Pose(q, np.zeros(3))
    return Pose(q, -rot.rotation_matrix() @ position)


def reference_pair_pose(model_pair, scene_pair):
    """Pose (model -> scene) of one pair of (position, normal) points, by
    composing local frames; None when the pair is degenerate."""
    (m_rp, m_rn), (m_ip, _) = model_pair
    (s_rp, s_rn), (s_ip, _) = scene_pair
    t_mg = reference_local_frame(m_rp, m_rn)
    t_sg = reference_local_frame(s_rp, s_rn)
    m2 = t_mg.apply_point(m_ip)
    s2 = t_sg.apply_point(s_ip)
    rm = np.hypot(m2[1], m2[2])
    rs = np.hypot(s2[1], s2[2])
    if rm < IN_PLANE_RADIUS_TOL or rs < IN_PLANE_RADIUS_TOL:
        return None
    alpha = np.arctan2(s2[2], s2[1]) - np.arctan2(m2[2], m2[1])
    r_g = Pose(quat_from_axis_angle([1.0, 0.0, 0.0], alpha), np.zeros(3))
    return pose_compose(pose_invert(t_sg), pose_compose(r_g, t_mg))


def pair_arrays(pos, nrm, pairs):
    """(K, 2, 3) positions and normals of the index pairs (K, 2)."""
    pairs = np.asarray(pairs)
    return pos[pairs], nrm[pairs]


def unit_rows(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def rotation_of(q):
    return Pose(q, np.zeros(3)).rotation_matrix()


class TestKabsch:
    def test_identity_correspondence(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, size=(10, 3))
        pose = kabsch_points(pts, pts)
        assert rotation_geodesic_angle(pose.q, [1, 0, 0, 0]) < 1e-9
        assert np.linalg.norm(pose.t) < 1e-9

    def test_recovers_random_pose(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pts = rng.uniform(-0.1, 0.1, size=(20, 3))
            g = random_pose(rng, trans_scale=0.5)
            pose = kabsch_points(pts, g.apply_points(pts))
            assert rotation_geodesic_angle(pose.q, g.q) < 1e-9
            assert np.linalg.norm(pose.t - g.t) < 1e-9

    def test_weighted_ignores_zero_weight_outlier(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-0.1, 0.1, size=(12, 3))
        g = random_pose(rng, trans_scale=0.2)
        tgt = g.apply_points(pts)
        tgt[0] += 5.0  # corrupted pair
        w = np.ones(12)
        w[0] = 0.0
        pose = kabsch_points(pts, tgt, weights=w)
        assert rotation_geodesic_angle(pose.q, g.q) < 1e-9

    def test_collinear_raises(self):
        src = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0.0]])
        with pytest.raises(DegenerateConfiguration):
            kabsch_points(src, src + 0.1)

    def test_rotation_is_proper_on_near_planar_data(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1, 1, size=(30, 3))
        pts[:, 2] = 0.0
        g = random_pose(rng)
        pose = kabsch_points(pts, g.apply_points(pts))
        assert np.linalg.det(pose.rotation_matrix()) == pytest.approx(1.0, abs=1e-9)
        assert rotation_geodesic_angle(pose.q, g.q) < 1e-9

    def test_maps_correspondence_sources_onto_targets(self):
        rng = np.random.default_rng(4)
        cloud = make_cloud(rng, 15)
        g = random_pose(rng, trans_scale=0.3)
        c = CorrespondenceSet(cloud.positions, cloud.normals,
                              g.apply_points(cloud.positions),
                              g.apply_directions(cloud.normals),
                              "model_to_scene")
        pose = kabsch_points(c.source_positions, c.target_positions)
        assert rotation_geodesic_angle(pose.q, g.q) < 1e-9


class TestFrameQuats:
    def test_x_axis_normal_is_identity(self):
        q = frame_quats(np.array([[1.0, 0.0, 0.0]]))
        assert np.array_equal(q, [[1.0, 0.0, 0.0, 0.0]])

    def test_contract_on_general_normal(self):
        q = frame_quats(np.array([[0.0, 0.0, 1.0]]))
        rotated = rotation_of(q[0]) @ np.array([0, 0, 1.0])
        np.testing.assert_allclose(rotated, [1, 0, 0], atol=1e-12)

    def test_antipodal_normal(self):
        q = frame_quats(np.array([[-1.0, 0.0, 0.0]]))
        assert np.all(np.isfinite(q))
        rotated = rotation_of(q[0]) @ np.array([-1.0, 0, 0])
        np.testing.assert_allclose(rotated, [1, 0, 0], atol=1e-12)

    def test_contract_on_random_normals(self):
        rng = np.random.default_rng(5)
        normals = unit_rows(rng, 200)
        for q, n in zip(frame_quats(normals), normals):
            np.testing.assert_allclose(rotation_of(q) @ n, [1, 0, 0],
                                       atol=1e-12)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(16)
        normals = np.vstack([unit_rows(rng, 50), [[1, 0, 0], [-1, 0, 0]],
                             [[1, 1e-13, 0], [-1, 0, 1e-13]]])
        for q, n in zip(frame_quats(normals), normals):
            ref = reference_local_frame(np.zeros(3), n)
            np.testing.assert_allclose(rotation_of(q), ref.rotation_matrix(),
                                       rtol=0, atol=1e-12)


class TestAlignPairs:
    def test_identical_pairs_identity(self):
        rng = np.random.default_rng(6)
        cloud = make_cloud(rng, 5)
        pos, nrm = pair_arrays(cloud.positions, cloud.normals, [[0, 1]])
        q, t, valid = align_pairs(pos, nrm, pos, nrm)
        assert valid.tolist() == [True]
        assert rotation_geodesic_angle(q[0], [1, 0, 0, 0]) < 1e-9
        assert np.linalg.norm(t[0]) < 1e-9

    def test_recovers_random_pose(self):
        rng = np.random.default_rng(7)
        clouds = [make_cloud(rng, 6) for _ in range(100)]
        poses = [random_pose(rng, trans_scale=0.4) for _ in clouds]
        m_pos = np.array([c.positions[:2] for c in clouds])
        m_nrm = np.array([c.normals[:2] for c in clouds])
        s_pos = np.array([g.apply_points(p) for g, p in zip(poses, m_pos)])
        s_nrm = np.array([g.apply_directions(n) for g, n in zip(poses, m_nrm)])
        s_nrm /= np.linalg.norm(s_nrm, axis=2, keepdims=True)
        q, t, valid = align_pairs(m_pos, m_nrm, s_pos, s_nrm)
        assert valid.sum() > 90
        for qk, tk, g in zip(q[valid], t[valid], np.array(poses)[valid]):
            assert rotation_geodesic_angle(qk, g.q) < 1e-9
            assert np.linalg.norm(tk - g.t) < 1e-9

    def test_second_point_on_normal_axis_is_invalid(self):
        # the second point lies along the reference normal
        pos = np.array([[[0, 0, 0], [0.3, 0, 0]]], dtype=float)
        nrm = np.array([[[1, 0, 0], [0, 1, 0]]], dtype=float)
        q, t, valid = align_pairs(pos, nrm, pos, nrm)
        assert valid.tolist() == [False]
        assert np.all(np.isfinite(q)) and np.all(np.isfinite(t))

    def test_left_equivariance(self):
        rng = np.random.default_rng(8)
        clouds = [make_cloud(rng, 4) for _ in range(20)]
        m_pos = np.array([c.positions[:2] for c in clouds])
        m_nrm = np.array([c.normals[:2] for c in clouds])
        bases = [random_pose(rng, trans_scale=0.3) for _ in clouds]
        movers = [random_pose(rng, trans_scale=0.3) for _ in clouds]

        def moved(poses, pos, nrm):
            p = np.array([g.apply_points(x) for g, x in zip(poses, pos)])
            n = np.array([g.apply_directions(x) for g, x in zip(poses, nrm)])
            return p, n / np.linalg.norm(n, axis=2, keepdims=True)

        s_pos, s_nrm = moved(bases, m_pos, m_nrm)
        gs_pos, gs_nrm = moved(movers, s_pos, s_nrm)
        lq, lt, lvalid = align_pairs(m_pos, m_nrm, gs_pos, gs_nrm)
        rq, rt, rvalid = align_pairs(m_pos, m_nrm, s_pos, s_nrm)
        assert lvalid.all() and rvalid.all()
        for k, g in enumerate(movers):
            rhs = pose_compose(g, Pose(rq[k], rt[k]))
            assert rotation_geodesic_angle(lq[k], rhs.q) < 1e-9
            assert np.linalg.norm(lt[k] - rhs.t) < 1e-9

    def test_matches_scalar_reference(self):
        # random pairs plus +-x reference normals, second points on the
        # reference normal axis and coincident points
        rng = np.random.default_rng(17)
        n = 60
        m_pos = rng.uniform(-0.1, 0.1, (n, 3))
        m_nrm = unit_rows(rng, n)
        m_nrm[:8] = [[1, 0, 0], [-1, 0, 0]] * 4
        m_pos[8] = m_pos[0] + [0.2, 0, 0]
        m_pos[9] = m_pos[1] - [0.1, 0, 0]
        m_pos[10] = m_pos[2]
        g = random_pose(rng, trans_scale=0.3)
        s_pos = g.apply_points(m_pos) + rng.normal(0.0, 0.01, (n, 3))
        s_nrm = unit_rows(rng, n)
        s_nrm[:4] = [[1, 0, 0], [-1, 0, 0]] * 2
        s_nrm[4:8] = g.apply_directions(m_nrm[4:8])
        s_pos[11] = s_pos[4] + 0.05 * s_nrm[4]
        pairs = [[0, 8], [1, 9], [2, 10], [4, 11], [8, 0], [3, 5], [6, 7]]
        pairs += rng.integers(0, n, (200, 2)).tolist()
        pairs = np.array([p for p in pairs if p[0] != p[1]])
        q, t, valid = align_pairs(*pair_arrays(m_pos, m_nrm, pairs),
                                  *pair_arrays(s_pos, s_nrm, pairs))
        refs = [reference_pair_pose(((m_pos[i], m_nrm[i]), (m_pos[j], m_nrm[j])),
                                    ((s_pos[i], s_nrm[i]), (s_pos[j], s_nrm[j])))
                for i, j in pairs]
        assert valid.tolist() == [r is not None for r in refs]
        assert valid[:4].tolist() == [False] * 4 and valid[4:].sum() > 150
        for qk, tk, ref in zip(q[valid], t[valid], np.array(refs)[valid]):
            np.testing.assert_allclose(rotation_of(qk), ref.rotation_matrix(),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(tk, ref.t, rtol=0, atol=1e-12)


def noiseless_set(rng, n, direction="scene_to_model", trans_scale=0.3):
    cloud = make_cloud(rng, n, frame="model")
    g = random_pose(rng, trans_scale=trans_scale)
    sp = g.apply_points(cloud.positions)
    sn = g.apply_directions(cloud.normals)
    sn /= np.linalg.norm(sn, axis=1, keepdims=True)
    if direction == "scene_to_model":
        c = CorrespondenceSet(sp, sn, cloud.positions, cloud.normals, direction)
    else:
        c = CorrespondenceSet(cloud.positions, cloud.normals, sp, sn, direction)
    return c, g


class TestPosesFromMatches:
    def test_all_poses_near_ground_truth(self):
        rng = np.random.default_rng(9)
        c, g = noiseless_set(rng, 30)
        ps = poses_from_matches(c, num_pairs=50, seed=0)
        assert all(tag == "scene-branch" for tag in ps.provenance)
        for q, t in zip(ps.quats, ps.trans):
            assert rotation_geodesic_angle(q, g.q) < 1e-6
            assert np.linalg.norm(t - g.t) < 1e-6

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(10)
        c, _ = noiseless_set(rng, 10)
        a = poses_from_matches(c, num_pairs=1, seed=42)
        b = poses_from_matches(c, num_pairs=1, seed=42)
        assert len(a) == len(b) == 1
        assert np.array_equal(a.quats, b.quats)
        assert np.array_equal(a.trans, b.trans)

    def test_degenerate_pairs_filtered(self):
        # two correspondences whose pairing is degenerate in one order only
        # is impossible (radius check is symmetric in i/j roles), so build a
        # set where every pairing is degenerate and expect the error.
        src = np.array([[0, 0, 0], [0.3, 0, 0.0]])
        nrm = np.array([[1, 0, 0], [1, 0, 0.0]])
        c = CorrespondenceSet(src, nrm, src, nrm, "scene_to_model")
        with pytest.raises(AllPairsDegenerate):
            poses_from_matches(c, num_pairs=10, seed=0)

    def test_mixed_set_keeps_good_pairs(self):
        rng = np.random.default_rng(11)
        cloud = make_cloud(rng, 3, frame="model")
        pos = cloud.positions.copy()
        nrm = cloud.normals.copy()
        # make point 1 sit on point 0's normal ray: pairs (0,1) degenerate
        nrm[0] = [1, 0, 0]
        pos[1] = pos[0] + np.array([0.5, 0, 0])
        c = CorrespondenceSet(pos, nrm, pos, nrm, "model_to_scene")
        ps = poses_from_matches(c, num_pairs=40, seed=1)
        assert 0 < len(ps) < 40
        assert all(tag == "model-branch" for tag in ps.provenance)

    def test_oracle_equivalence_with_kabsch(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            c, g = noiseless_set(rng, 25)
            avg = average_poses(poses_from_matches(c, num_pairs=60, seed=3))
            (mp, _), (sp, _) = c.model_scene_sides()
            kb = kabsch_points(mp, sp)
            assert rotation_geodesic_angle(avg.q, kb.q) < 1e-6
            assert np.linalg.norm(avg.t - kb.t) < 1e-8


    def test_matches_scalar_reference_loop(self):
        # the seeded index draws of the documented formula, solved pair by
        # pair, give the same poses in the same order
        rng = np.random.default_rng(18)
        for direction in ("scene_to_model", "model_to_scene"):
            c, _ = noiseless_set(rng, 12, direction)
            pos = c.source_positions.copy()
            nrm = c.source_normals.copy()
            nrm[0] = [1, 0, 0]
            nrm[1] = [-1, 0, 0]
            pos[2] = pos[0] + [0.2, 0, 0]
            c = CorrespondenceSet(pos, nrm, c.target_positions,
                                  c.target_normals, direction)
            (mp, mn), (sp, sn) = c.model_scene_sides()
            draws = np.random.default_rng(6)
            first = draws.integers(len(c), size=300)
            second = (first + draws.integers(1, len(c), size=300)) % len(c)
            # the pair (0, 2) is degenerate: point 2 is on point 0's normal
            assert np.any((first == 0) & (second == 2))
            refs = []
            for i, j in zip(first, second):
                ref = reference_pair_pose(((mp[i], mn[i]), (mp[j], mn[j])),
                                          ((sp[i], sn[i]), (sp[j], sn[j])))
                if ref is not None:
                    refs.append(ref)
            ps = poses_from_matches(c, num_pairs=300, seed=6)
            assert 0 < len(ps) == len(refs) < 300
            for q, t, ref in zip(ps.quats, ps.trans, refs):
                np.testing.assert_allclose(quat_to_matrix(q),
                                           ref.rotation_matrix(),
                                           rtol=0, atol=1e-12)
                np.testing.assert_allclose(t, ref.t, rtol=0, atol=1e-12)

    def test_pairs_are_distinct_and_uniform_over_ordered_pairs(
            self, monkeypatch):
        # the model x coordinate is the index; the solve sees the pairs
        import pairpose.solver as solver

        positions = np.array([[i, 0.0, 0.0] for i in range(4)])
        normals = np.tile([0.0, 0.0, 1.0], (4, 1))
        c = CorrespondenceSet(positions, normals, positions, normals,
                              "model_to_scene")
        seen = []

        def recording_align_pairs(model_pos, model_nrm, scene_pos, scene_nrm):
            seen.append(model_pos[:, :, 0].astype(int))
            k = len(model_pos)
            return (np.tile([1.0, 0.0, 0.0, 0.0], (k, 1)), np.zeros((k, 3)),
                    np.ones(k, dtype=bool))

        monkeypatch.setattr(solver, "align_pairs", recording_align_pairs)
        poses_from_matches(c, num_pairs=12_000, seed=3)
        (pairs,) = seen
        assert pairs.shape == (12_000, 2)
        assert np.all(pairs[:, 0] != pairs[:, 1])
        counts = np.zeros((4, 4), dtype=int)
        np.add.at(counts, (pairs[:, 0], pairs[:, 1]), 1)
        # 1,000 expected per ordered pair, standard deviation about 29
        ordered = counts[~np.eye(4, dtype=bool)]
        assert np.all(np.abs(ordered - 1000) < 150), counts

    def test_non_unit_normals_rejected(self):
        rng = np.random.default_rng(19)
        c, _ = noiseless_set(rng, 5)
        with pytest.raises(ValueError, match="unit length"):
            poses_from_matches(CorrespondenceSet(
                c.source_positions, 2.0 * c.source_normals,
                c.target_positions, c.target_normals, c.direction), 4, 0)


def direct_set(*poses):
    """The poses as a PoseSet, every row tagged direct."""
    return PoseSet(np.array([p.q for p in poses]).reshape(-1, 4),
                   np.array([p.t for p in poses]).reshape(-1, 3),
                   ("direct",) * len(poses))


class TestPoseSet:
    def test_rows_normalized_like_single_poses(self):
        rng = np.random.default_rng(20)
        quats = rng.standard_normal((50, 4)) * rng.uniform(0.1, 10, (50, 1))
        quats[:5, 0] = 0.0
        trans = rng.standard_normal((50, 3))
        ps = PoseSet(quats, trans, ("scene-branch",) * 50)
        for q, t, got_q, got_t in zip(quats, trans, ps.quats, ps.trans):
            pose = Pose(q, t)
            assert got_q.tobytes() == pose.q.tobytes()
            assert got_t.tobytes() == pose.t.tobytes()

    def test_arrays_frozen_and_copied(self):
        trans = np.zeros((2, 3))
        ps = PoseSet(np.tile([1.0, 0, 0, 0], (2, 1)), trans, ("direct",) * 2)
        trans[0, 0] = 5.0
        assert ps.trans[0, 0] == 0.0
        for a in (ps.quats, ps.trans):
            with pytest.raises(ValueError):
                a[0, 0] = 1.0

    def test_union_concatenates_rows_and_tags(self):
        rng = np.random.default_rng(21)
        a = direct_set(*(random_pose(rng) for _ in range(3)))
        b = PoseSet(a.quats[:2], a.trans[:2], ("model-branch",) * 2)
        u = PoseSet.union(a, b)
        assert len(u) == 5
        assert u.provenance == ("direct",) * 3 + ("model-branch",) * 2
        assert np.array_equal(u.quats, np.vstack([a.quats, b.quats]))
        assert np.array_equal(u.trans, np.vstack([a.trans, b.trans]))

    @pytest.mark.parametrize("quats, trans, tags, error", [
        (np.ones((2, 4)), np.zeros((3, 3)), ("direct",) * 2, ValueError),
        (np.ones((2, 4)), np.zeros((2, 3)), ("direct",) * 3, ValueError),
        (np.ones((2, 3)), np.zeros((2, 3)), ("direct",) * 2, ValueError),
        (np.ones((2, 4)), np.zeros((2, 3)), ("direct", "bogus"), ValueError),
        (np.ones((2, 4)), [[0, 0, 0], [0, np.inf, 0]], ("direct",) * 2,
         NonFiniteInput),
        ([[1, 0, 0, 0], [0, 0, 0, 0]], np.zeros((2, 3)), ("direct",) * 2,
         ValueError),
        ([[1, 0, 0, np.nan]], np.zeros((1, 3)), ("direct",), NonFiniteInput),
    ], ids=["trans_length", "tag_count", "quat_width", "unknown_tag",
            "infinite_translation", "zero_quaternion", "nan_quaternion"])
    def test_rejects_malformed_rows(self, quats, trans, tags, error):
        with pytest.raises(error):
            PoseSet(quats, trans, tags)


class TestAveragePoses:
    def test_idempotent_on_identical_poses(self):
        rng = np.random.default_rng(13)
        p = random_pose(rng)
        ps = direct_set(p, p, p)
        avg = average_poses(ps)
        assert rotation_geodesic_angle(avg.q, p.q) < 1e-12
        np.testing.assert_allclose(avg.t, p.t, atol=1e-15)

    def test_two_pose_bisection(self):
        a = Pose.identity()
        b = Pose.from_axis_angle([0, 0, 1], np.deg2rad(10.0))
        avg = average_poses(direct_set(a, b))
        expected = Pose.from_axis_angle([0, 0, 1], np.deg2rad(5.0))
        assert rotation_geodesic_angle(avg.q, expected.q) < 1e-6

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(14)
        p = random_pose(rng)
        flipped = Pose(-np.asarray(p.q), p.t)  # canonicalized back by Pose
        ps = direct_set(p, flipped, p)
        avg = average_poses(ps)
        assert rotation_geodesic_angle(avg.q, p.q) < 1e-12

    def test_order_invariance(self):
        rng = np.random.default_rng(15)
        poses = [random_pose(rng) for _ in range(6)]
        fwd = average_poses(direct_set(*poses))
        rev = average_poses(direct_set(*reversed(poses)))
        assert rotation_geodesic_angle(fwd.q, rev.q) < 1e-9
        np.testing.assert_allclose(fwd.t, rev.t, atol=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EmptySet):
            average_poses(direct_set())
