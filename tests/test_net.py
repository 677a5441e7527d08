from dataclasses import replace

import numpy as np
import pytest

import pairpose.autodiff as ad
import pairpose.net as net
from pairpose.errors import NonFiniteLoss
from pairpose.geom import OrientedPointCloud, Pose, pose_apply, random_pose
from pairpose.metrics import model_diameter
from pairpose.ppf import PpfGammas, attention_target
from pairpose.solver import (
    CorrespondenceSet,
    PoseSet,
    average_poses,
    poses_from_matches,
)
from pairpose.synth import SceneSpec, ShapeSpec, make_dataset
from tests.test_geom import make_cloud

TINY = net.NetConfig(
    psn_trunk=(8, 12, 16), psn_exterior_width=4, psn_out_width=12,
    feat_widths=(8, 12), feat_global_width=8,
    decode_width=12, head_hidden=(16,),
    epochs=4, lr=3e-3, num_pairs=20,
)


def tiny_dataset(n_scenes=4, n=32, seed=0, kind="box_with_bump",
                 train_fraction=1.0, noise=0.001, occlusion=0.1):
    dims = {"box_with_bump": (0.08, 0.1, 0.12, 0.02), "sphere": (0.05,),
            "cylinder": (0.03, 0.1), "box": (0.1, 0.1, 0.1)}[kind]
    shape = ShapeSpec(kind, dims, n=n, seed=seed)
    # diagonal viewpoint keeps ~3 box faces visible at any limited rotation
    spec = SceneSpec(rotation="limited", max_angle=0.5, viewpoint=(1.0, 1.0, 1.0),
                     noise_sigma=noise, occlusion_fraction=occlusion,
                     translation=((-0.05, -0.05, -0.05), (0.05, 0.05, 0.05)))
    return make_dataset(shape, n_scenes, spec, seed=seed,
                        train_fraction=train_fraction)


def scene_tensors(cloud):
    return net.scene_inputs(cloud, cloud)


class TestPsn:
    def test_identical_clouds_give_identical_features(self):
        rng = np.random.default_rng(0)
        cloud = make_cloud(rng, 12)
        x = ad.Tensor(np.hstack([cloud.positions, cloud.normals]))
        params = net.init_params(TINY, np.random.default_rng(1))
        f_sa, f_ma = net.psn_forward(x, x, params, TINY)
        assert np.array_equal(f_sa.values, f_ma.values)

    def test_output_rows_unit_norm(self):
        rng = np.random.default_rng(2)
        a = ad.Tensor(np.hstack([make_cloud(rng, 10).positions,
                                 make_cloud(rng, 10).normals]))
        b = ad.Tensor(np.hstack([make_cloud(rng, 10).positions,
                                 make_cloud(rng, 10).normals]))
        params = net.init_params(TINY, np.random.default_rng(3))
        f_sa, f_ma = net.psn_forward(a, b, params, TINY)
        for f in (f_sa, f_ma):
            np.testing.assert_allclose(np.linalg.norm(f.values, axis=1), 1.0,
                                       atol=1e-9)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        cloud = make_cloud(rng, 10)
        model = make_cloud(rng, 10)
        xs = np.hstack([cloud.positions, cloud.normals])
        xm = np.hstack([model.positions, model.normals])
        params = net.init_params(TINY, np.random.default_rng(5))
        f_sa, _ = net.psn_forward(ad.Tensor(xs), ad.Tensor(xm), params, TINY)
        perm = rng.permutation(10)
        f_sa_p, _ = net.psn_forward(ad.Tensor(xs[perm]), ad.Tensor(xm), params,
                                    TINY)
        np.testing.assert_allclose(f_sa_p.values, f_sa.values[perm], atol=1e-12)

    def test_fused_width_default_config(self):
        cfg = net.NetConfig()
        assert cfg.psn_fused_width == 1048


class TestAttention:
    def test_self_similarity_diagonal_max(self):
        f = ad.Tensor(np.eye(5))  # orthonormal distinct rows
        m = net.attention_forward(f, f)
        assert np.all(np.argmax(m.values, axis=1) == np.arange(5))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        m = net.attention_forward(ad.Tensor(rng.standard_normal((7, 4))),
                                  ad.Tensor(rng.standard_normal((7, 4))))
        np.testing.assert_allclose(m.values.sum(axis=1), 1.0, atol=1e-9)

    def test_scaling_preserves_row_ranking(self):
        rng = np.random.default_rng(7)
        f_sa = rng.standard_normal((6, 5))
        f_ma = rng.standard_normal((6, 5))
        m1 = net.attention_forward(ad.Tensor(f_sa), ad.Tensor(f_ma)).values
        m2 = net.attention_forward(ad.Tensor(3.7 * f_sa), ad.Tensor(f_ma)).values
        for i in range(6):
            assert np.array_equal(np.argsort(m1[i]), np.argsort(m2[i]))

    def test_attention_loss_examples(self):
        rng = np.random.default_rng(8)
        w = ad.Tensor(rng.uniform(0.1, 1.0, size=(4, 4)))
        assert net.attention_loss(w, w).item() == 0.0
        assert net.attention_loss(ad.Tensor([[1.0]]),
                                  ad.Tensor([[0.5]])).item() == pytest.approx(0.25)

    def test_attention_loss_matches_double_loop(self):
        rng = np.random.default_rng(9)
        m = rng.uniform(0, 1, (5, 5))
        w = rng.uniform(0, 1, (5, 5))
        got = net.attention_loss(ad.Tensor(m), ad.Tensor(w)).item()
        oracle = sum((m[i, j] - w[i, j]) ** 2 for i in range(5)
                     for j in range(5)) / 25
        assert got == pytest.approx(oracle, abs=1e-12)


class TestFeatureForward:
    def test_deterministic_and_width(self):
        prep = scene_tensors(make_cloud(np.random.default_rng(10), 9))
        params = net.init_params(TINY, np.random.default_rng(11))
        f_s, f_m = net.feature_forward(prep.xs_feat, prep.xm, params, TINY)
        f_s2, _ = net.feature_forward(prep.xs_feat, prep.xm, params, TINY)
        assert np.array_equal(f_s.values, f_s2.values)
        assert f_s.shape == (9, TINY.feat_out_width)
        assert f_m.shape == (9, TINY.feat_out_width)

    def test_gradient_flows_through_feature_and_l1(self):
        rng = np.random.default_rng(12)
        prep = scene_tensors(make_cloud(rng, 6))
        params = net.init_params(TINY, np.random.default_rng(13))
        feat_params = {k: v for k, v in params.items() if k.startswith("feat_s")}
        target = ad.Tensor(rng.standard_normal((6, TINY.feat_out_width)))

        def f():
            out, _ = net.feature_forward(prep.xs_feat, prep.xm, params, TINY)
            return ad.l1(out, target)

        assert ad.grad_check(f, feat_params, h=1e-5, tol=1e-4)["passed"]


class TestHeads:
    def test_correspondence_output_shapes_and_unit_normals(self):
        rng = np.random.default_rng(14)
        prep = scene_tensors(make_cloud(rng, 8))
        params = net.init_params(TINY, np.random.default_rng(15))
        outputs = net.forward_all(prep, params, TINY)
        for key in ("scene_pos", "model_pos"):
            assert outputs[key].shape == (8, 3)
        for key in ("scene_nrm", "model_nrm"):
            assert outputs[key].shape == (8, 3)
            np.testing.assert_allclose(
                np.linalg.norm(outputs[key].values, axis=1), 1.0, atol=1e-9)

    def test_direct_head_unit_quats_and_count(self):
        rng = np.random.default_rng(16)
        prep = scene_tensors(make_cloud(rng, 8))
        params = net.init_params(TINY, np.random.default_rng(17))
        outputs = net.forward_all(prep, params, TINY)
        assert outputs["quats"].shape == (8, 4)
        assert outputs["trans"].shape == (8, 3)
        np.testing.assert_allclose(np.linalg.norm(outputs["quats"].values, axis=1),
                                   1.0, atol=1e-9)

    def test_scene_permutation_equivariance_end_to_end(self):
        rng = np.random.default_rng(18)
        ds = tiny_dataset(n_scenes=1, n=12, seed=19, occlusion=0.0)
        rec = ds.records[0]
        params = net.init_params(TINY, np.random.default_rng(20))
        prep = net.prepare_scene(rec.scene, ds.model, rec.gt, TINY)
        out = net.forward_all(prep, params, TINY)
        perm = rng.permutation(12)
        permuted_scene = OrientedPointCloud(rec.scene.positions[perm],
                                            rec.scene.normals[perm], "scene")
        prep_p = net.prepare_scene(permuted_scene, ds.model, rec.gt, TINY)
        out_p = net.forward_all(prep_p, params, TINY)
        np.testing.assert_allclose(out_p["attention"].values,
                                   out["attention"].values[perm], atol=1e-12)
        np.testing.assert_allclose(out_p["scene_pos"].values,
                                   out["scene_pos"].values[perm], atol=1e-12)
        np.testing.assert_allclose(out_p["quats"].values,
                                   out["quats"].values[perm], atol=1e-12)
        # the model head reads no scene-point order
        for key in ("model_pos", "model_nrm"):
            np.testing.assert_allclose(out_p[key].values, out[key].values,
                                       rtol=0, atol=1e-12)

    def test_head_pointers_are_attention_weighted_points(self):
        # a one-hot map: scene point i attends to model point perm[i] alone
        rng = np.random.default_rng(21)
        inputs = net.scene_inputs(make_cloud(rng, 9), make_cloud(rng, 9))
        perm = rng.permutation(9)
        a = np.zeros((9, 9))
        a[np.arange(9), perm] = 1.0
        scene_ptr, model_ptr = net.head_pointers(a, inputs)
        assert not scene_ptr.requires_grad and not model_ptr.requires_grad
        assert np.array_equal(scene_ptr.values, inputs.xm.values[perm])
        assert np.array_equal(model_ptr.values[perm], inputs.xs_psn.values)
        # a dense map: each model pointer is the column-weighted mean
        a = rng.uniform(0.1, 1.0, size=(9, 9))
        a /= a.sum(axis=1, keepdims=True)
        scene_ptr, model_ptr = net.head_pointers(a, inputs)
        for j in range(9):
            mean = sum(a[i, j] * inputs.xs_psn.values[i] for i in range(9))
            np.testing.assert_allclose(model_ptr.values[j],
                                       mean / a[:, j].sum(), atol=1e-15)
            np.testing.assert_allclose(
                scene_ptr.values[j],
                sum(a[j, k] * inputs.xm.values[k] for k in range(9)),
                atol=1e-15)

    def test_one_hot_attention_regressor_overfits(self):
        # with a one-hot map at the true matches, the scene head's pointer
        # is its target [P_m | N_m] row; the head learns to read it out of
        # features that carry nothing
        rng = np.random.default_rng(21)
        model = make_cloud(rng, 20, frame="model")
        diameter = model_diameter(model)
        gt = random_pose(rng, max_angle=0.5, trans_scale=0.1)
        perm = rng.permutation(20)
        posed = pose_apply(gt, model, frame="scene")
        scene = OrientedPointCloud(posed.positions[perm], posed.normals[perm],
                                   "scene")
        one_hot = np.zeros((20, 20))
        one_hot[np.arange(20), perm] = 1.0
        scene_ptr, model_ptr = net.head_pointers(
            one_hot, net.scene_inputs(scene, model))
        feat = ad.Tensor(np.zeros((20, 20)))
        target_pos = ad.Tensor(model.positions[perm])
        target_nrm = ad.Tensor(model.normals[perm])
        cfg = net.NetConfig(
            psn_trunk=(8, 12), psn_exterior_width=4, psn_out_width=8,
            feat_widths=(8, 12), feat_global_width=8,
            decode_width=12, head_hidden=(48,), epochs=1)
        assert cfg.feat_out_width == feat.shape[1]
        rng_p = np.random.default_rng(22)
        params = {}
        for name, shape in net.expected_param_shapes(cfg).items():
            if not name.startswith(("corr_s", "corr_m")):
                continue
            if name.endswith(".b"):
                v = np.zeros(shape)
            else:
                limit = np.sqrt(6.0 / sum(shape))
                v = rng_p.uniform(-limit, limit, size=shape)
            params[name] = ad.Tensor(v, requires_grad=True)
        state = ad.init_adam_state(params)
        for step in range(200):
            # decay the rate: the L1 sign gradients make Adam orbit at ~lr
            lr = 1e-2 if step < 100 else (2e-3 if step < 150 else 5e-4)
            ad.zero_grad(params)
            (pos, nrm), _ = net.bidirectional_forward(
                feat, feat, scene_ptr, model_ptr, params, cfg)
            loss = net.correspondence_loss(pos, nrm, target_pos, target_nrm)
            ad.backward(loss)
            ad.adam_step(params, {k: p.grad for k, p in params.items()
                                  if p.grad is not None}, state, lr=lr)
        (pos, _), _ = net.bidirectional_forward(feat, feat, scene_ptr,
                                                model_ptr, params, cfg)
        err = np.mean(np.linalg.norm(pos.values - target_pos.values, axis=1))
        assert err < 0.01 * diameter


class TestLosses:
    def test_correspondence_loss_examples(self):
        pos = ad.Tensor([[0.0, 0.0, 0.0]])
        nrm = ad.Tensor([[0.0, 0.0, 1.0]])
        assert net.correspondence_loss(pos, nrm, pos, nrm).item() == 0.0
        off = ad.Tensor([[0.1, 0.0, 0.0]])
        assert net.correspondence_loss(off, nrm, pos, nrm).item() == \
            pytest.approx(0.1, abs=1e-12)
        nrm2 = ad.Tensor([[1.0, 0.0, 0.0]])  # L1 gap |0-1| + |0-0| + |1-0| = 2
        got = net.correspondence_loss(pos, nrm2, pos, nrm).item()
        assert got == pytest.approx(0.2, abs=1e-12)

    def test_correspondence_loss_epsilon_scaling(self):
        pos = ad.Tensor([[0.0, 0.0, 0.0]])
        a = ad.Tensor([[0.0, 0.0, 1.0]])
        b = ad.Tensor([[0.0, 1.0, 1.0]])  # L1 normal gap exactly 1.0
        assert net.correspondence_loss(pos, b, pos, a).item() == \
            pytest.approx(0.1, abs=1e-12)

    def test_add_loss_zero_at_gt_and_translation_offset(self):
        rng = np.random.default_rng(23)
        cloud = make_cloud(rng, 10, frame="model")
        gt = random_pose(rng, trans_scale=0.2)
        targets = gt.apply_points(cloud.positions)
        q = ad.Tensor(np.tile(gt.q, (5, 1)))
        t = ad.Tensor(np.tile(gt.t, (5, 1)))
        assert net.add_loss(q, t, cloud.positions, targets).item() < 1e-12
        t_off = ad.Tensor(np.tile(gt.t + np.array([0.01, 0, 0]), (5, 1)))
        assert net.add_loss(q, t_off, cloud.positions, targets).item() == \
            pytest.approx(0.01, abs=1e-12)

    def test_adds_never_exceeds_add(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            cloud = make_cloud(rng, 8, frame="model")
            gt = random_pose(rng, trans_scale=0.2)
            other = random_pose(rng, trans_scale=0.2)
            targets = gt.apply_points(cloud.positions)
            q = ad.Tensor(other.q.reshape(1, 4))
            t = ad.Tensor(other.t.reshape(1, 3))
            add_v = net.add_loss(q, t, cloud.positions, targets).item()
            adds_v = net.adds_loss(q, t, cloud.positions, targets).item()
            assert adds_v <= add_v + 1e-12

    def test_total_loss_weighting(self):
        # scene_losses is the weighted sum of the separate loss functions,
        # in the order ((L_d + L_s) + L_m) + 0.01 L_attention
        for kind in ("box_with_bump", "box"):       # ADD, ADD-S
            ds = tiny_dataset(n_scenes=1, n=32, seed=39, kind=kind)
            rec = ds.records[0]
            for ppf_supervision in (True, False):
                cfg = net.NetConfig(**{**TINY.__dict__,
                                       "ppf_supervision": ppf_supervision})
                params = net.init_params(cfg, np.random.default_rng(40))
                prep = net.prepare_scene(rec.scene, ds.model, rec.gt, cfg)
                outputs = net.forward_all(prep, params, cfg)
                loss, terms = net.scene_losses(prep, outputs, cfg,
                                               ds.symmetric, ds.model.positions)

                l_s, l_m = net.branch_losses(outputs, prep.targets)
                pose_fn = net.adds_loss if ds.symmetric else net.add_loss
                l_d = pose_fn(outputs["quats"], outputs["trans"],
                              ds.model.positions, prep.targets.model_pos.values)
                expected = ad.add(ad.add(l_d, l_s), l_m)
                l_att = 0.0
                if ppf_supervision:
                    att = net.attention_loss(outputs["attention"],
                                             prep.w_target)
                    expected = ad.add(expected, ad.scalar_scale(att, 0.01))
                    l_att = att.item()
                assert loss.values.tobytes() == expected.values.tobytes()
                assert terms == {"L_d": l_d.item(), "L_s": l_s.item(),
                                 "L_m": l_m.item(), "L_attention": l_att}


class TestTraining:
    def test_zero_lr_keeps_params_and_loss_constant(self):
        ds = tiny_dataset(n_scenes=2, n=32, seed=25)
        cfg = net.NetConfig(**{**TINY.__dict__, "lr": 0.0, "epochs": 3})
        params, log = net.train(ds, cfg, seed=0)
        fresh = net.init_params(cfg, np.random.default_rng(0))
        for name, p in params.items():
            assert np.array_equal(p.values, fresh[name].values)
        totals = [row["total"] for row in log]
        assert totals[0] == pytest.approx(totals[-1], rel=1e-12)

    def test_toy_training_reduces_loss(self):
        ds = tiny_dataset(n_scenes=8, n=32, seed=26)
        params, log = net.train(ds, TINY, seed=0)
        assert log[-1]["total"] < log[0]["total"]

    def test_training_deterministic(self):
        ds = tiny_dataset(n_scenes=2, n=32, seed=27)
        cfg = net.NetConfig(**{**TINY.__dict__, "epochs": 2})
        p1, log1 = net.train(ds, cfg, seed=3)
        p2, log2 = net.train(ds, cfg, seed=3)
        assert log1 == log2
        for name in p1:
            assert np.array_equal(p1[name].values, p2[name].values)

    def test_baseline_config_has_no_attention_anywhere(self):
        cfg = net.NetConfig(**{**TINY.__dict__, "attention_for_match": False,
                               "attention_for_direct": False,
                               "ppf_supervision": False})
        assert not cfg.uses_attention_map and not cfg.uses_psn
        shapes = net.expected_param_shapes(cfg)
        assert not any(k.startswith("psn.") for k in shapes)
        ds = tiny_dataset(n_scenes=2, n=32, seed=28)
        params, log = net.train(ds, net.NetConfig(**{**cfg.__dict__, "epochs": 1}),
                                seed=0)
        assert all(row["L_attention"] == 0.0 for row in log)

    def test_direct_head_overfit_loss_decreases_monotonically(self):
        ds = tiny_dataset(n_scenes=1, n=32, seed=29, noise=0.0, occlusion=0.0)
        # supervision off freezes the attention source, so the head overfits
        # against a constant input instead of chasing a drifting map
        cfg = net.NetConfig(**{**TINY.__dict__, "epochs": 500, "lr": 2e-3,
                               "lr_decay": 0.99, "ppf_supervision": False})
        params, log = net.train(ds, cfg, seed=0)
        l_d = [row["L_d"] for row in log]
        # adam wiggles at the 1e-6 scale step to step; the descent must be
        # strictly monotone at 50-step granularity past the warmup
        checkpoints = [l_d[i] for i in range(50, 500, 50)] + [l_d[-1]]
        assert all(b < a for a, b in zip(checkpoints, checkpoints[1:]))
        assert l_d[-1] < 0.3 * l_d[50]


def reference_train(dataset, cfg, seed=0, steps=None):
    """``net.train`` as forward, ``backward``, collect the gradients, then
    ``adam_step``; stops after ``steps`` steps when given."""
    rng = np.random.default_rng(seed)
    params = net.init_params(cfg, rng)
    state = ad.init_adam_state(params)
    prepared = [net.prepare_scene(r.scene, dataset.model, r.gt, cfg)
                for r in dataset.train_records]
    log, step = [], 0
    for epoch in range(cfg.epochs):
        lr = cfg.lr * cfg.lr_decay ** epoch
        sums = dict.fromkeys(("L_d", "L_s", "L_m", "L_attention", "total"),
                             0.0)
        for idx in rng.permutation(len(prepared)):
            if step == steps:
                return params, log
            prep = prepared[idx]
            ad.zero_grad(params)
            outputs = net.forward_all(prep, params, cfg)
            loss, terms = net.scene_losses(prep, outputs, cfg,
                                           dataset.symmetric,
                                           dataset.model.positions)
            ad.backward(loss)
            grads = {k: p.grad for k, p in params.items()
                     if p.grad is not None}
            ad.adam_step(params, grads, state, lr=lr)
            for k, v in terms.items():
                sums[k] += v
            sums["total"] += loss.item()
            step += 1
        n = len(prepared)
        log.append({"epoch": epoch, **{k: v / n for k, v in sums.items()}})
    return params, log


def capture_params(monkeypatch):
    """A list that receives the parameter dict ``net.train`` initializes."""
    captured = []
    original = net.init_params

    def init_params(*args, **kwargs):
        params = original(*args, **kwargs)
        captured.append(params)
        return params

    monkeypatch.setattr(net, "init_params", init_params)
    return captured


def assert_same_params(got, want):
    assert got.keys() == want.keys()
    for name in got:
        assert got[name].values.tobytes() == want[name].values.tobytes(), name


class TestLeafByLeafAdam:
    """``train`` steps each parameter as ``backward`` finalizes its
    gradient; the results are those of a whole-step ``adam_step``."""

    @pytest.mark.parametrize("kind, changes", [
        ("box_with_bump", {}), ("box", {}),
        ("box_with_bump", {"attention_source": "branch"}),
        # the PSN only feeds the detached head input: no gradient reaches it
        ("box_with_bump", {"ppf_supervision": False})],
        ids=["add", "adds", "branch", "psn_without_gradient"])
    def test_bit_identical_to_a_whole_step_loop(self, kind, changes):
        ds = tiny_dataset(n_scenes=3, n=24, seed=51, kind=kind)
        cfg = replace(TINY, epochs=3, lr_decay=0.9, **changes)
        params, log = net.train(ds, cfg, seed=2)
        want_params, want_log = reference_train(ds, cfg, seed=2)
        assert log == want_log
        assert_same_params(params, want_params)
        assert all(p.grad is None for p in params.values())

    def test_live_gradients_stay_below_the_parameter_bytes(self, monkeypatch):
        # gradients only grow between callbacks and the last leaf is reported
        # after the last VJP, so the most held at once is seen on entry to a
        # callback
        ds = tiny_dataset(n_scenes=1, n=24, seed=52)
        captured = capture_params(monkeypatch)
        original = ad.backward
        seen, peak = [], [0]

        def backward(loss, on_leaf=None):
            def counting(leaf):
                live = sum(p.grad.nbytes for p in captured[0].values()
                           if p.grad is not None)
                peak[0] = max(peak[0], live)
                seen.append(leaf)
                on_leaf(leaf)
            original(loss, on_leaf=counting)

        monkeypatch.setattr(ad, "backward", backward)
        params, _ = net.train(ds, replace(TINY, epochs=1), seed=0)
        total = sum(p.values.nbytes for p in params.values())
        assert sorted(map(id, seen)) == sorted(map(id, params.values()))
        assert 0 < peak[0] < total, (peak[0], total)

    @pytest.mark.parametrize("where", ["loss", "input"])
    def test_non_finite_step_names_it_and_keeps_the_last_params(
            self, monkeypatch, where):
        ds = tiny_dataset(n_scenes=3, n=24, seed=53)
        cfg = replace(TINY, epochs=3)
        bad_step = 4
        captured = capture_params(monkeypatch)
        calls = [0]
        original_losses = net.scene_losses
        original_forward = net.forward_all

        def scene_losses(*args, **kwargs):
            loss, terms = original_losses(*args, **kwargs)
            if where == "loss" and calls[0] == bad_step:
                loss.values[0, 0] = np.nan
            calls[0] += 1
            return loss, terms

        def forward_all(prep, params, cfg):
            if where == "input" and calls[0] == bad_step:
                xs = ad.Tensor(prep.xs_feat.values.copy())
                xs.values[0, 0] = np.inf
                prep = replace(prep, xs_feat=xs)
            return original_forward(prep, params, cfg)

        monkeypatch.setattr(net, "scene_losses", scene_losses)
        monkeypatch.setattr(net, "forward_all", forward_all)
        with pytest.raises(NonFiniteLoss, match=f"at step {bad_step}"):
            net.train(ds, cfg, seed=1)
        monkeypatch.undo()
        want, _ = reference_train(ds, cfg, seed=1, steps=bad_step)
        assert_same_params(captured[0], want)
        fresh = net.init_params(cfg, np.random.default_rng(1))
        assert not np.array_equal(want["psn.t0.w"].values,
                                  fresh["psn.t0.w"].values)


class TestEndToEndGradient:
    def test_full_network_matches_finite_differences(self):
        ds = tiny_dataset(n_scenes=1, n=16, seed=30)
        rec = ds.records[0]
        params = net.init_params(TINY, np.random.default_rng(31))
        prep = net.prepare_scene(rec.scene, ds.model, rec.gt, TINY)
        # freeze the detached attention channel across FD evaluations
        frozen = net.forward_all(prep, params, TINY)["attention"].values.copy()

        def f():
            outputs = net.forward_all(prep, params, TINY,
                                      frozen_head_attention=frozen)
            return net.scene_losses(prep, outputs, TINY, False,
                                    ds.model.positions)[0]

        report = ad.grad_check(f, params, h=1e-5, tol=1e-3)
        assert report["passed"], report["max_rel_err"]


class TestOneObjective:
    """Training and the gradient oracle both build their loss with
    net.scene_losses."""

    def test_train_calls_scene_losses_once_per_step(self, monkeypatch):
        ds = tiny_dataset(n_scenes=3, n=24, seed=50)
        cfg = net.NetConfig(**{**TINY.__dict__, "epochs": 2})
        calls = Counting(monkeypatch, "scene_losses").calls
        net.train(ds, cfg, seed=0)
        assert calls["scene_losses"] == 2 * len(ds.train_records)

    def test_end_to_end_grad_check_checks_scene_losses(self, monkeypatch):
        from pairpose.checks import run_end_to_end_grad_check

        built, checked = [], []
        original = net.scene_losses

        def recording_scene_losses(*args, **kwargs):
            loss, terms = original(*args, **kwargs)
            built.append(loss)
            return loss, terms

        def one_evaluation(f, params, h, tol):
            checked.append(f())
            return {"max_rel_err": 0.0, "kinks": 0, "passed": True}

        monkeypatch.setattr(net, "scene_losses", recording_scene_losses)
        monkeypatch.setattr(ad, "grad_check", one_evaluation)
        assert run_end_to_end_grad_check()["passed"]
        assert len(built) == len(checked) == 1 and checked[0] is built[0]


class TestPredictEvaluate:
    def test_predict_returns_fused_pose_and_sets(self):
        ds = tiny_dataset(n_scenes=2, n=32, seed=32)
        cfg = net.NetConfig(**{**TINY.__dict__, "epochs": 1})
        params, _ = net.train(ds, cfg, seed=0)
        pred = net.predict(params, cfg, ds.records[0].scene, ds.model, seed=0)
        tags = set(pred.pose_set.provenance)
        assert tags == {"direct", "scene-branch", "model-branch"}
        assert pred.outputs["attention"] is not None
        assert len(pred.corr_scene) == 32

    def test_evaluate_dataset_produces_records(self):
        ds = tiny_dataset(n_scenes=4, n=32, seed=33, train_fraction=0.5)
        cfg = net.NetConfig(**{**TINY.__dict__, "epochs": 1})
        params, _ = net.train(ds, cfg, seed=0)
        records, diag = net.evaluate_dataset(params, cfg, ds, which="test", seed=0)
        assert len(records) == 2
        assert all(r.adds_error <= r.add_error + 1e-12 for r in records)
        assert diag["corr_l1"] > 0.0
        assert diag["corr_l1"] == pytest.approx(
            0.5 * (diag["corr_l1_scene"] + diag["corr_l1_model"]), rel=1e-12)

    def test_attention_match_rate_probe(self):
        ds = tiny_dataset(n_scenes=1, n=32, seed=34)
        params = net.init_params(TINY, np.random.default_rng(35))
        rng = np.random.default_rng(36)
        poses = [random_pose(rng, max_angle=0.5, trans_scale=0.1)
                 for _ in range(3)]
        rate = net.attention_match_rate(params, TINY, ds.model, poses)
        assert 0.0 <= rate <= 1.0


# ---------------------------------------------------------------------------
# the two-pass evaluation that evaluate_dataset replaced, kept as the oracle
# ---------------------------------------------------------------------------

def reference_predict(params, cfg, scene, model, seed=0):
    """predict as it was: prepare_scene with an identity placeholder pose
    (building a PPF target that nothing reads), then one forward pass."""
    frozen = net.detach_params(params)
    prep = net.prepare_scene(scene, model, Pose.identity(), cfg)
    outputs = net.forward_all(prep, frozen, cfg)
    corr_scene = CorrespondenceSet(scene.positions, scene.normals,
                                   outputs["scene_pos"].values,
                                   outputs["scene_nrm"].values,
                                   "scene_to_model")
    corr_model = CorrespondenceSet(model.positions, model.normals,
                                   outputs["model_pos"].values + prep.center,
                                   outputs["model_nrm"].values,
                                   "model_to_scene")
    seeds = np.random.SeedSequence((seed, 0)).generate_state(2)
    t_s = poses_from_matches(corr_scene, cfg.num_pairs, int(seeds[0]))
    t_m = poses_from_matches(corr_model, cfg.num_pairs, int(seeds[1]))
    direct = [Pose(q, t) for q, t in zip(outputs["quats"].values,
                                         outputs["trans"].values + prep.center)]
    t_d = PoseSet(np.array([p.q for p in direct]),
                  np.array([p.t for p in direct]), ("direct",) * len(direct))
    pose_set = PoseSet.union(t_d, t_s, t_m)
    attention = (outputs["attention"].values.copy()
                 if outputs["attention"] is not None else None)
    return (average_poses(pose_set), pose_set, corr_scene, corr_model,
            attention)


def reference_evaluate(params, cfg, dataset, which="test", seed=0):
    """evaluate_dataset as it was: predict, then a second prepare_scene and
    forward_all per scene for the correspondence L1.  Returns (records,
    diagnostics, the reference_predict tuple of each scene)."""
    from pairpose.metrics import EvalRecord, add_metric, adds_metric

    recs = {"train": dataset.train_records, "test": dataset.test_records,
            "all": list(dataset.records)}[which]
    diameter = model_diameter(dataset.model)
    frozen = net.detach_params(params)
    records, corr_l1s, preds = [], [], []
    for i, rec in enumerate(recs):
        pred = reference_predict(
            frozen, cfg, rec.scene, dataset.model,
            seed=int(np.random.SeedSequence((seed, i)).generate_state(1)[0]))
        preds.append(pred)
        records.append(EvalRecord(
            scene_id=f"{which}_{i}",
            add_error=add_metric(pred[0], rec.gt, dataset.model),
            adds_error=adds_metric(pred[0], rec.gt, dataset.model),
            diameter=diameter, symmetric=dataset.symmetric))
        prep = net.prepare_scene(rec.scene, dataset.model, rec.gt, cfg)
        outputs = net.forward_all(prep, frozen, cfg)
        _, terms = net.scene_losses(prep, outputs, cfg, dataset.symmetric,
                                    dataset.model.positions)
        corr_l1s.append(0.5 * (terms["L_s"] + terms["L_m"]))
    return records, {"corr_l1": float(np.mean(corr_l1s))}, preds


def same_pose(a, b):
    return np.array_equal(a.q, b.q) and np.array_equal(a.t, b.t)


def same_correspondences(a, b):
    return a.direction == b.direction and all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("source_positions", "source_normals", "target_positions",
                  "target_normals"))


class Counting:
    """Monkeypatches module.<name> (net by default) with a wrapper that
    counts its calls."""

    def __init__(self, monkeypatch, *names, module=net):
        self.calls = dict.fromkeys(names, 0)
        for name in names:
            monkeypatch.setattr(module, name,
                                self._wrap(name, getattr(module, name)))

    def _wrap(self, name, fn):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return counted


MECHANISMS = {
    "psn": {},
    "branch": {"attention_source": "branch"},
    "no_ppf_supervision": {"ppf_supervision": False},
    "no_attention_map": {"attention_for_match": False,
                         "attention_for_direct": False,
                         "ppf_supervision": False},
}


class TestSinglePassEvaluation:
    """evaluate_dataset runs one forward pass per scene and builds no PPF
    target, and reproduces the two-pass reference bit for bit."""

    @pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
    @pytest.mark.parametrize("kind", ["box_with_bump", "box"])
    def test_matches_two_pass_reference_exactly(self, monkeypatch, kind,
                                                mechanism):
        ds = tiny_dataset(n_scenes=5, n=24, seed=40, kind=kind,
                          train_fraction=0.4)
        assert ds.symmetric == (kind == "box")
        cfg = net.NetConfig(**{**TINY.__dict__, **MECHANISMS[mechanism]})
        params = net.init_params(cfg, np.random.default_rng(41))
        ref_records, ref_diag, ref_preds = reference_evaluate(
            params, cfg, ds, which="test", seed=5)

        preds = []
        original = net.predict

        def recording_predict(*args, **kwargs):
            pred = original(*args, **kwargs)
            preds.append(pred)
            return pred

        monkeypatch.setattr(net, "predict", recording_predict)
        records, diag = net.evaluate_dataset(params, cfg, ds, which="test",
                                             seed=5)
        assert records == ref_records
        assert diag["corr_l1"] == ref_diag["corr_l1"]
        assert len(preds) == len(ref_preds) == 3
        for pred, (final, pose_set, corr_s, corr_m, attention) in zip(
                preds, ref_preds):
            assert same_pose(pred.final_pose, final)
            assert pred.pose_set.provenance == pose_set.provenance
            assert np.array_equal(pred.pose_set.quats, pose_set.quats)
            assert np.array_equal(pred.pose_set.trans, pose_set.trans)
            assert same_correspondences(pred.corr_scene, corr_s)
            assert same_correspondences(pred.corr_model, corr_m)
            if mechanism == "no_attention_map":
                assert pred.outputs["attention"] is None and attention is None
            else:
                assert np.array_equal(pred.outputs["attention"].values,
                                      attention)

    def test_one_predict_and_one_forward_per_scene_no_ppf_target(
            self, monkeypatch):
        ds = tiny_dataset(n_scenes=5, n=24, seed=42, train_fraction=0.4)
        params = net.init_params(TINY, np.random.default_rng(43))
        calls = Counting(monkeypatch, "predict", "forward_all",
                         "attention_target").calls
        records, _ = net.evaluate_dataset(params, TINY, ds, which="test")
        assert len(records) == 3
        assert calls == {"predict": 3, "forward_all": 3,
                         "attention_target": 0}

    def test_predict_builds_one_pose_object(self, monkeypatch):
        # every candidate stays an array row; only the average is a Pose
        ds = tiny_dataset(n_scenes=1, n=24, seed=48)
        params = net.init_params(TINY, np.random.default_rng(49))
        built = []
        original = Pose.__post_init__

        def counting(pose):
            built.append(pose)
            original(pose)

        monkeypatch.setattr(Pose, "__post_init__", counting)
        pred = net.predict(params, TINY, ds.records[0].scene, ds.model)
        assert built == [pred.final_pose]
        assert len(pred.pose_set) == 24 + 2 * TINY.num_pairs

    def test_attention_match_rate_builds_no_ppf_target(self, monkeypatch):
        ds = tiny_dataset(n_scenes=1, n=24, seed=44)
        params = net.init_params(TINY, np.random.default_rng(45))
        poses = [random_pose(np.random.default_rng(46), max_angle=0.5,
                             trans_scale=0.1) for _ in range(2)]
        calls = Counting(monkeypatch, "forward_all", "attention_target").calls
        net.attention_match_rate(params, TINY, ds.model, poses)
        assert calls == {"forward_all": 2, "attention_target": 0}

    @pytest.mark.parametrize("ppf_supervision, targets", [(True, 3),
                                                          (False, 0)])
    def test_train_builds_a_ppf_target_per_scene_only_when_supervised(
            self, monkeypatch, ppf_supervision, targets):
        ds = tiny_dataset(n_scenes=3, n=24, seed=47)
        assert len(ds.train_records) == 3
        cfg = net.NetConfig(**{**TINY.__dict__, "epochs": 2,
                               "ppf_supervision": ppf_supervision})
        calls = Counting(monkeypatch, "attention_target").calls
        net.train(ds, cfg, seed=0)
        assert calls["attention_target"] == targets

    def test_copy_ops_per_forward_pass(self, monkeypatch):
        # the dense layers read their fused inputs as column blocks; only
        # the two extractors' [features | global row] are concatenated, and
        # the attention map is one op that keeps no transposed f_ma
        ds = tiny_dataset(n_scenes=1, n=24, seed=50)
        prep = net.scene_inputs(ds.records[0].scene, ds.model)
        params = net.init_params(TINY, np.random.default_rng(51))
        calls = Counting(monkeypatch, "concat_cols", "repeat_rows",
                         "transpose", "attention_map", module=ad).calls
        net.forward_all(prep, params, TINY)
        assert calls == {"concat_cols": 2, "repeat_rows": 2, "transpose": 0,
                         "attention_map": 1}

    def test_traced_names_are_net_attributes(self):
        # the benchmark's tracer looks these up on net with getattr
        for name in (*perfbench_tracing().NET_FUNCTIONS, "attention_loss",
                     "attention_target", "poses_from_matches",
                     "average_poses"):
            assert callable(getattr(net, name)), name

    def test_traced_op_names_are_autodiff_attributes(self):
        # and these on autodiff, whether or not net still calls them
        for name in perfbench_tracing().OPS:
            assert callable(getattr(ad, name)), name


def perfbench_tracing():
    """The benchmark's ``perfbench/tracing.py``, imported by path."""
    import importlib.util
    import pathlib
    path = (pathlib.Path(__file__).resolve().parent.parent / "perfbench"
            / "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing
