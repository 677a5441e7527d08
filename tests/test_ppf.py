import time

import numpy as np
import pytest

from pairpose.errors import SizeMismatch
from pairpose.geom import (PAIR_BLOCK_ENTRIES, OrientedPointCloud, Pose,
                           pose_apply, pose_compose, pose_invert, random_pose,
                           row_blocks)
from pairpose.ppf import (
    COINCIDENT_TOL,
    PpfGammas,
    _acos,
    attention_target,
    ppf_cross_angle,
    ppf_distance,
    ppf_normal_angle,
    ppf_weight,
)
from tests.test_geom import make_cloud


class TestScalarFeatures:
    def test_distance_zero_and_345(self):
        assert ppf_distance([1, 2, 3], [1, 2, 3]) == 0.0
        assert ppf_distance([0, 0, 0], [3, 4, 0]) == pytest.approx(5.0)

    def test_distance_matches_component_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = rng.standard_normal(3), rng.standard_normal(3)
            oracle = np.sqrt(sum((ai - bi) ** 2 for ai, bi in zip(a, b)))
            assert abs(ppf_distance(a, b) - oracle) < 1e-12

    def test_normal_angle_cases(self):
        assert ppf_normal_angle([0, 0, 1], [0, 0, 1]) == 0.0
        assert ppf_normal_angle([0, 0, 1], [0, 0, -1]) == pytest.approx(np.pi)
        assert ppf_normal_angle([1, 0, 0], [0, 1, 0]) == pytest.approx(np.pi / 2)

    def test_cross_angle_all_aligned(self):
        d = np.array([0.0, 0.0, 2.0])
        assert ppf_cross_angle([0, 0, 1], [0, 0, 1], d) == pytest.approx(0.0)

    def test_cross_angle_antiparallel_pair(self):
        d = np.array([1.0, 0.0, 0.0])
        assert ppf_cross_angle([1, 0, 0], [-1, 0, 0], d) == pytest.approx(np.pi / 2)

    def test_cross_angle_coincident_is_zero(self):
        assert ppf_cross_angle([0, 0, 1], [1, 0, 0], [0.0, 0.0, 0.0]) == 0.0

    def test_weight_perfect_match(self):
        assert ppf_weight(0, 0, 0, PpfGammas()) == 1.0

    def test_weight_direct_substitution(self):
        g = PpfGammas(100.0, 50.0, 50.0)
        assert ppf_weight(0.01, 0, 0, g) == pytest.approx(0.5)
        assert ppf_weight(0, 0, np.pi, g) == pytest.approx(1.0 / (1.0 + 50 * np.pi))
        assert ppf_weight(0, 0, np.pi, g) == pytest.approx(0.006326, abs=1e-6)

    def test_weight_monotone_in_each_term(self):
        g = PpfGammas()
        assert ppf_weight(0.02, 0.1, 0.1, g) < ppf_weight(0.01, 0.1, 0.1, g)
        assert ppf_weight(0.01, 0.2, 0.1, g) < ppf_weight(0.01, 0.1, 0.1, g)
        assert ppf_weight(0.01, 0.1, 0.2, g) < ppf_weight(0.01, 0.1, 0.1, g)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            PpfGammas(-1.0, 0, 0)
        with pytest.raises(ValueError):
            PpfGammas(0.0, 0.0, 0.0)


def scalar_oracle_entry(sp, sn, mp, mn, gammas):
    """Entry (i, j) computed with the scalar ops only."""
    d = ppf_distance(sp, mp)
    theta = ppf_normal_angle(sn, mn)
    theta_d = ppf_cross_angle(sn, mn, np.asarray(sp) - np.asarray(mp))
    return ppf_weight(d, theta_d, theta, gammas)


class TestAttentionTarget:
    def test_size_mismatch(self):
        rng = np.random.default_rng(1)
        with pytest.raises(SizeMismatch):
            attention_target(make_cloud(rng, 5), make_cloud(rng, 6), Pose.identity())

    def test_noiseless_diagonal(self):
        rng = np.random.default_rng(2)
        model = make_cloud(rng, 40, frame="model")
        gt = random_pose(rng, trans_scale=0.2)
        scene = pose_apply(gt, model, frame="scene")
        w = attention_target(scene, model, gt).weights
        np.testing.assert_allclose(np.diag(w), 1.0, atol=1e-9)
        assert np.all(np.argmax(w, axis=1) == np.arange(len(model)))

    def test_perturbed_row_matches_scalar_ops(self):
        rng = np.random.default_rng(3)
        model = make_cloud(rng, 20, frame="model")
        pos = model.positions.copy()
        # push point 7 by 0.01 m along a direction orthogonal to its normal
        n = model.normals[7]
        tangent = np.cross(n, [0.0, 0.0, 1.0])
        if np.linalg.norm(tangent) < 1e-6:
            tangent = np.cross(n, [0.0, 1.0, 0.0])
        tangent /= np.linalg.norm(tangent)
        pos[7] = pos[7] + 0.01 * tangent
        scene = OrientedPointCloud(pos, model.normals, "scene")
        w = attention_target(scene, model, Pose.identity()).weights
        g = PpfGammas()
        expected = scalar_oracle_entry(pos[7], model.normals[7],
                                       model.positions[7], model.normals[7], g)
        assert w[7, 7] < 1.0
        assert w[7, 7] == pytest.approx(expected, abs=1e-12)
        # normals equal, offset orthogonal to them: theta = 0, theta_d = pi/2
        assert expected == pytest.approx(1.0 / (1.0 + 100 * 0.01 + 50 * np.pi / 2))

    def test_two_point_toy_against_scalar_ops(self):
        model = OrientedPointCloud([[0, 0, 0], [1, 0, 0.0]],
                                   [[0, 0, 1], [1, 0, 0.0]], "model")
        scene = OrientedPointCloud(model.positions, model.normals, "scene")
        g = PpfGammas(100.0, 50.0, 50.0)
        w = attention_target(scene, model, Pose.identity(), g).weights
        assert w[0, 0] == 1.0 and w[1, 1] == 1.0
        for i in range(2):
            for j in range(2):
                expected = scalar_oracle_entry(
                    model.positions[i], model.normals[i],
                    model.positions[j], model.normals[j], g)
                assert w[i, j] == pytest.approx(expected, abs=1e-12)

    def test_full_matrix_matches_scalar_ops(self):
        rng = np.random.default_rng(4)
        model = make_cloud(rng, 12, frame="model")
        gt = random_pose(rng, trans_scale=0.3)
        scene = pose_apply(gt, make_cloud(rng, 12), frame="scene")
        g = PpfGammas(80.0, 40.0, 20.0)
        w = attention_target(scene, model, gt, g).weights
        from pairpose.geom import pose_invert
        canon = pose_apply(pose_invert(gt), scene)
        for i in range(12):
            for j in range(12):
                expected = scalar_oracle_entry(
                    canon.positions[i], canon.normals[i],
                    model.positions[j], model.normals[j], g)
                assert w[i, j] == pytest.approx(expected, abs=1e-12)

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(5)
        w = attention_target(make_cloud(rng, 30), make_cloud(rng, 30),
                             random_pose(rng)).weights
        assert np.all(w > 0.0) and np.all(w <= 1.0)

    def test_pose_invariance(self):
        rng = np.random.default_rng(6)
        model = make_cloud(rng, 25, frame="model")
        gt = random_pose(rng, trans_scale=0.2)
        scene = pose_apply(gt, model, frame="scene")
        base = attention_target(scene, model, gt).weights
        for _ in range(50):
            g = random_pose(rng, trans_scale=0.2)
            moved = attention_target(pose_apply(g, scene), model,
                                     pose_compose(g, gt)).weights
            assert np.max(np.abs(moved - base)) < 1e-9

    def test_runtime_n1000(self):
        rng = np.random.default_rng(7)
        model = make_cloud(rng, 1000, frame="model")
        gt = random_pose(rng, trans_scale=0.2)
        scene = pose_apply(gt, model, frame="scene")
        start = time.perf_counter()
        attention_target(scene, model, gt)
        assert time.perf_counter() - start < 1.0


def whole_attention_target(scene, model, gt, gammas=PpfGammas()):
    """``attention_target``'s weights computed over whole (N, N, 3) arrays,
    as it did before it worked in row blocks: the bit-for-bit oracle of the
    blocked target."""
    canonical = pose_apply(pose_invert(gt), scene, frame="canonical")
    sp, sn = canonical.positions, canonical.normals
    mp, mn = model.positions, model.normals
    diff = sp[:, None, :] - mp[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    theta = _acos(sn @ mn.T)
    safe = np.maximum(dist, COINCIDENT_TOL)[:, :, None]
    dhat = diff / safe
    ang_s = _acos(np.einsum("ik,ijk->ij", sn, dhat))
    ang_m = _acos(np.einsum("jk,ijk->ij", mn, dhat))
    theta_d = np.where(dist < COINCIDENT_TOL, 0.0, 0.5 * (ang_s + ang_m))
    return 1.0 / (1.0 + gammas.gamma1 * dist + gammas.gamma2 * theta_d
                  + gammas.gamma3 * theta)


class TestAttentionTargetBlocks:
    """The row-blocked target against the whole-array computation, bit for
    bit, at sizes on and off the block grid of ``geom.row_blocks``."""

    # one point; one block below its row budget; exactly one full block
    # (128 rows of 128 columns); a full block plus 2 rows; a partial last
    # block; and the paper's N
    @pytest.mark.parametrize("n", [1, 2, 100, 128, 129, 200, 1000])
    def test_equals_the_whole_array_computation(self, n):
        rows = [r.stop - r.start for r in row_blocks(n, n)]
        assert sum(rows) == n and max(rows) <= max(1, PAIR_BLOCK_ENTRIES // n)
        rng = np.random.default_rng(n)
        model = make_cloud(rng, n, frame="model")
        gt = random_pose(rng, trans_scale=0.2)
        # the first half of the scene is the posed model: coincident pairs
        # with aligned normals, weight 1 up to rounding
        scene = pose_apply(gt, make_cloud(rng, n), frame="scene")
        posed = pose_apply(gt, model, frame="scene")
        half = (n + 1) // 2
        scene = OrientedPointCloud(
            np.vstack([posed.positions[:half], scene.positions[half:]]),
            np.vstack([posed.normals[:half], scene.normals[half:]]), "scene")
        g = PpfGammas(80.0, 40.0, 20.0)
        w = attention_target(scene, model, gt, g).weights
        expected = whole_attention_target(scene, model, gt, g)
        assert w.shape == (n, n) and w.tobytes() == expected.tobytes()

    def test_exact_coincidence_and_alignment(self):
        # identity pose: scene point i is model point i bit for bit, so the
        # coincident and aligned branches give exactly 1 on the diagonal
        rng = np.random.default_rng(8)
        model = make_cloud(rng, 150, frame="model")
        scene = OrientedPointCloud(model.positions, model.normals, "scene")
        w = attention_target(scene, model, Pose.identity()).weights
        expected = whole_attention_target(scene, model, Pose.identity())
        assert w.tobytes() == expected.tobytes()
        assert np.all(np.diag(w) == 1.0)

