"""Acceptance suite: every criterion at its stated tolerance, one PASS/FAIL
line per criterion (visible with `pytest -s tests/test_acceptance.py`).

Criterion 6 trains the toy end-to-end model 3 configurations x 5 seeds and
dominates the runtime (about 8 minutes on one core).
"""

import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest

import pairpose.autodiff as ad
import pairpose.fileio as fileio
import pairpose.net as net
from pairpose.checks import run_end_to_end_grad_check, run_op_grad_suites
from pairpose.cli import main as cli_main
from pairpose.geom import (
    OrientedPointCloud,
    Pose,
    pose_apply,
    pose_compose,
    pose_invert,
    random_pose,
    rotation_geodesic_angle,
)
from pairpose.metrics import (
    accuracy,
    add_metric,
    adds_metric,
    auc,
    model_diameter,
    threshold_relative,
)
from pairpose.ppf import (
    PpfGammas,
    attention_target,
    ppf_cross_angle,
    ppf_distance,
    ppf_normal_angle,
    ppf_weight,
)
from pairpose.solver import (
    CorrespondenceSet,
    PoseSet,
    average_poses,
    kabsch_points,
    poses_from_matches,
)
from pairpose.synth import SceneSpec, ShapeSpec, make_dataset, render_scene
from tests.test_geom import make_cloud

# `pytest -m "not acceptance"` runs the unit tests alone
pytestmark = pytest.mark.acceptance


def report(criterion, ok, detail=""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# ---------------------------------------------------------------------------
# criterion 6 setup: toy end-to-end runs shared by its three sub-criteria
# ---------------------------------------------------------------------------

TOY_SHAPE = ShapeSpec("box_with_bump", (0.08, 0.1, 0.12, 0.02), n=128, seed=0)

TOY_SCENES = SceneSpec(rotation="limited", max_angle=0.4,
                       viewpoint=(1.0, 1.0, 1.0), noise_sigma=0.002,
                       occlusion_fraction=0.3,
                       translation=((-0.05,) * 3, (0.05,) * 3))

TOY_FULL = net.NetConfig(
    psn_trunk=(16, 32, 64), psn_exterior_width=8, psn_out_width=32,
    feat_widths=(32, 64), feat_global_width=64,
    decode_width=64, head_hidden=(96,),
    epochs=50, lr=2e-3, lr_decay=0.97, num_pairs=100,
)

TOY_NO_ATTENTION = replace(TOY_FULL, attention_for_match=False,
                           attention_for_direct=False, ppf_supervision=False)

TOY_NO_PPF = replace(TOY_FULL, ppf_supervision=False)

TOY_SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def toy_runs():
    """Train full / no-attention / unsupervised-attention models on 5 seeds;
    returns per-seed accuracy, correspondence L1 (and its scene and model
    branch means), match rates, and times."""
    probe_rng = np.random.default_rng(12345)
    probes = [random_pose(probe_rng, max_angle=0.4, trans_scale=0.05)
              for _ in range(8)]
    rows = []
    for seed in TOY_SEEDS:
        ds = make_dataset(TOY_SHAPE, 96, TOY_SCENES, seed=seed,
                          train_fraction=2 / 3)
        assert len(ds.train_indices) == 64 and len(ds.test_indices) == 32
        row = {"seed": seed}
        for name, cfg in (("full", TOY_FULL), ("no_attn", TOY_NO_ATTENTION),
                          ("no_ppf", TOY_NO_PPF)):
            t0 = time.perf_counter()
            params, _ = net.train(ds, cfg, seed=seed)
            records, diag = net.evaluate_dataset(params, cfg, ds,
                                                 which="test", seed=seed)
            entry = {
                "acc": accuracy(records, threshold_relative(0.1),
                                error_fn=lambda r: r.add_error),
                "corr_l1": diag["corr_l1"],
                "l_s_l_m": (diag["corr_l1_scene"], diag["corr_l1_model"]),
                "train_time": time.perf_counter() - t0,
            }
            if cfg.uses_attention_map:
                entry["match_rate"] = net.attention_match_rate(
                    params, cfg, ds.model, probes)
            row[name] = entry
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# 1. PPF correctness
# ---------------------------------------------------------------------------

class TestCriterion1PpfCorrectness:
    def test_scalar_ops_exact(self):
        g = PpfGammas(100.0, 50.0, 50.0)
        ok = (
            ppf_distance([0, 0, 0], [3, 4, 0]) == 5.0
            and ppf_normal_angle([0, 0, 1], [0, 0, -1]) == pytest.approx(np.pi)
            and ppf_normal_angle([1, 0, 0], [0, 1, 0]) == pytest.approx(np.pi / 2)
            and ppf_cross_angle([1, 0, 0], [-1, 0, 0], [1.0, 0, 0])
                == pytest.approx(np.pi / 2)
            and ppf_cross_angle([0, 0, 1], [1, 0, 0], [0.0, 0.0, 0.0]) == 0.0
            and ppf_weight(0, 0, 0, g) == 1.0
            and ppf_weight(0.01, 0, 0, g) == pytest.approx(0.5)
            and ppf_weight(0, 0, np.pi, g)
                == pytest.approx(1 / (1 + 50 * np.pi))
        )
        report("1a (scalar pair features)", ok)

    def test_noiseless_diagonal_and_argmax(self):
        rng = np.random.default_rng(100)
        model = make_cloud(rng, 64, frame="model")
        gt = random_pose(rng, trans_scale=0.2)
        scene = pose_apply(gt, model, frame="scene")
        w = attention_target(scene, model, gt).weights
        ok = (np.all(np.abs(np.diag(w) - 1.0) < 1e-12)
              and np.all(np.argmax(w, axis=1) == np.arange(64)))
        report("1b (noiseless diagonal/argmax)", ok)

    def test_pose_invariance_50_poses(self):
        rng = np.random.default_rng(101)
        model = make_cloud(rng, 40, frame="model")
        gt = random_pose(rng, trans_scale=0.2)
        scene = pose_apply(gt, model, frame="scene")
        base = attention_target(scene, model, gt).weights
        worst = 0.0
        for _ in range(50):
            g = random_pose(rng, trans_scale=0.2)
            moved = attention_target(pose_apply(g, scene), model,
                                     pose_compose(g, gt)).weights
            worst = max(worst, float(np.max(np.abs(moved - base))))
        report("1c (pose invariance, 50 poses)", worst < 1e-9,
               f"max deviation {worst:.2e}")

    def test_runtime_n1000(self):
        rng = np.random.default_rng(102)
        model = make_cloud(rng, 1000, frame="model")
        gt = random_pose(rng, trans_scale=0.2)
        scene = pose_apply(gt, model, frame="scene")
        start = time.perf_counter()
        attention_target(scene, model, gt)
        elapsed = time.perf_counter() - start
        report("1d (N=1000 target < 1 s)", elapsed < 1.0, f"{elapsed:.3f} s")


# ---------------------------------------------------------------------------
# 2. gradient integrity
# ---------------------------------------------------------------------------

class TestCriterion2Gradients:
    def test_per_op_and_end_to_end(self):
        start = time.perf_counter()
        suites = run_op_grad_suites(instances=100, h=1e-5, tol=1e-4, seed=0)
        e2e = run_end_to_end_grad_check(h=1e-5, tol=1e-3, seed=0)
        elapsed = time.perf_counter() - start
        ok = suites["passed"] and e2e["passed"] and elapsed < 60.0
        report("2 (gradient integrity)", ok,
               f"per-op worst {suites['max_rel_err']:.2e}, end-to-end "
               f"{e2e['max_rel_err']:.2e}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 3. solver oracle equivalence
# ---------------------------------------------------------------------------

class TestCriterion3SolverOracle:
    def test_pair_alignment_agrees_with_kabsch_on_100_scenes(self):
        shape = ShapeSpec("box_with_bump", (0.08, 0.1, 0.12, 0.02), n=96,
                          seed=7)
        from pairpose.synth import gen_shape
        model = gen_shape(shape)
        spec = SceneSpec(rotation="full", viewpoint=(1.0, 1.0, 1.0),
                         noise_sigma=0.0, occlusion_fraction=0.0,
                         translation=((-0.1,) * 3, (0.1,) * 3))
        worst_rot, worst_tr, worst_kabsch = 0.0, 0.0, 0.0
        for i in range(100):
            scene, gt = render_scene(model, replace(spec, seed=1000 + i))
            canon = pose_apply(pose_invert(gt), scene)
            d = np.linalg.norm(canon.positions[:, None, :]
                               - model.positions[None, :, :], axis=2)
            match = np.argmin(d, axis=1)
            assert d[np.arange(len(scene)), match].max() < 1e-9
            corr = CorrespondenceSet(scene.positions, scene.normals,
                                     model.positions[match],
                                     model.normals[match], "scene_to_model")
            avg = average_poses(poses_from_matches(corr, 60, seed=i))
            kb = kabsch_points(model.positions[match], scene.positions)
            worst_rot = max(worst_rot, rotation_geodesic_angle(avg.q, kb.q))
            worst_tr = max(worst_tr, float(np.linalg.norm(avg.t - kb.t)))
            worst_kabsch = max(
                worst_kabsch, rotation_geodesic_angle(kb.q, gt.q),
                float(np.linalg.norm(kb.t - gt.t)))
        ok = worst_rot < 1e-6 and worst_tr < 1e-8 and worst_kabsch < 1e-9
        report("3 (solver oracle equivalence)", ok,
               f"rot {worst_rot:.2e}, trans {worst_tr:.2e}, "
               f"kabsch-vs-gt {worst_kabsch:.2e}")


# ---------------------------------------------------------------------------
# 4. metric identities
# ---------------------------------------------------------------------------

class TestCriterion4Metrics:
    def test_metric_identities(self):
        rng = np.random.default_rng(103)
        ok_order = True
        for _ in range(1000):
            cloud = make_cloud(rng, 12)
            a, b = random_pose(rng), random_pose(rng)
            if adds_metric(a, b, cloud) > add_metric(a, b, cloud) + 1e-12:
                ok_order = False
                break

        cloud = make_cloud(rng, 25)
        gt = random_pose(rng)
        off = pose_compose(Pose(np.array([1.0, 0, 0, 0]),
                                np.array([0.01, 0.0, 0.0])), gt)
        ok_translation = abs(add_metric(off, gt, cloud) - 0.01) < 1e-12

        from pairpose.metrics import EvalRecord
        errors = sorted(rng.uniform(0.0, 0.15, size=40))
        records = [EvalRecord(str(i), e, e, 0.1) for i, e in enumerate(errors)]
        exact = auc(records, 0.10)
        # quadrature over [0, cap] with breakpoints at the in-range errors,
        # so the midpoint rule integrates the step curve exactly
        inside = [e for e in errors if 0.0 < e < 0.10]
        ts = np.unique(np.concatenate([np.linspace(0, 0.10, 10_001), inside]))
        numeric = sum(
            np.mean([e < 0.5 * (lo + hi) for e in errors]) * (hi - lo)
            for lo, hi in zip(ts[:-1], ts[1:])) / 0.10
        ok_auc = abs(exact - numeric) < 1e-6

        angles = np.random.default_rng(1).uniform(0, 2 * np.pi, 2000)
        zs = np.random.default_rng(2).uniform(-0.05, 0.05, 2000)
        cyl = OrientedPointCloud(
            np.column_stack([0.03 * np.cos(angles), 0.03 * np.sin(angles), zs]),
            np.column_stack([np.cos(angles), np.sin(angles), np.zeros(2000)]),
            "model")
        spun = Pose.from_axis_angle([0, 0, 1], np.deg2rad(75.0))
        ok_symmetry = (adds_metric(spun, Pose.identity(), cyl) < 0.005
                       and add_metric(spun, Pose.identity(), cyl) > 0.01)

        ok = ok_order and ok_translation and ok_auc and ok_symmetry
        report("4 (metric identities)", ok,
               f"order {ok_order}, translation {ok_translation}, "
               f"auc {ok_auc}, symmetry {ok_symmetry}")


# ---------------------------------------------------------------------------
# 5. pose averaging
# ---------------------------------------------------------------------------

class TestCriterion5PoseAveraging:
    def test_averaging_identities(self):
        rng = np.random.default_rng(104)
        p = random_pose(rng)
        same = average_poses(PoseSet(np.array([p.q] * 4), np.array([p.t] * 4),
                                     ("direct",) * 4))
        ok_idem = (rotation_geodesic_angle(same.q, p.q) < 1e-12
                   and np.allclose(same.t, p.t, atol=1e-15))

        flipped = Pose(-np.asarray(p.q), p.t)
        mixed = average_poses(PoseSet(np.array([p.q, flipped.q]),
                                      np.array([p.t, flipped.t]),
                                      ("direct",) * 2))
        ok_sign = rotation_geodesic_angle(mixed.q, p.q) < 1e-12

        a = Pose.identity()
        b = Pose.from_axis_angle([0, 0, 1], np.deg2rad(10.0))
        mid = average_poses(PoseSet(np.array([a.q, b.q]), np.array([a.t, b.t]),
                                    ("direct",) * 2))
        expected = Pose.from_axis_angle([0, 0, 1], np.deg2rad(5.0))
        ok_bisect = rotation_geodesic_angle(mid.q, expected.q) < 1e-6

        ok = ok_idem and ok_sign and ok_bisect
        report("5 (pose averaging)", ok,
               f"idempotent {ok_idem}, sign-flip {ok_sign}, bisect {ok_bisect}")


# ---------------------------------------------------------------------------
# 6. toy end-to-end
# ---------------------------------------------------------------------------

class TestCriterion6ToyEndToEnd:
    def test_a_full_model_accuracy(self, toy_runs):
        accs = [row["full"]["acc"] for row in toy_runs]
        mean_acc = float(np.mean(accs))
        times = [row["full"]["train_time"] for row in toy_runs]
        ok = mean_acc >= 0.90 and max(times) < 600.0
        report("6a (test ADD<0.1d accuracy >= 0.90)", ok,
               f"mean {mean_acc:.3f}, per-seed {[round(a, 3) for a in accs]}, "
               f"max train time {max(times):.0f} s")

    def test_b_attention_improves_correspondences(self, toy_runs):
        wins = sum(1 for row in toy_runs
                   if row["full"]["corr_l1"] <= row["no_attn"]["corr_l1"])
        pairs = [(round(r["full"]["corr_l1"], 4),
                  round(r["no_attn"]["corr_l1"], 4)) for r in toy_runs]
        branches = {name: [tuple(round(v, 4) for v in r[name]["l_s_l_m"])
                           for r in toy_runs]
                    for name in ("full", "no_attn")}
        report("6b (attention lowers corr L1 on >= 4/5 seeds)", wins >= 4,
               f"wins {wins}/5, (full, no-attn) {pairs}; per-branch "
               f"(L_s, L_m) full {branches['full']}, no-attn "
               f"{branches['no_attn']}")

    def test_c_ppf_supervision_improves_match_rate(self, toy_runs):
        wins = sum(1 for row in toy_runs
                   if row["full"]["match_rate"] > row["no_ppf"]["match_rate"])
        pairs = [(round(r["full"]["match_rate"], 3),
                  round(r["no_ppf"]["match_rate"], 3)) for r in toy_runs]
        report("6c (supervision raises match rate on >= 4/5 seeds)", wins >= 4,
               f"wins {wins}/5, (supervised, unsupervised) {pairs}")


# ---------------------------------------------------------------------------
# 7. CLI determinism
# ---------------------------------------------------------------------------

CLI_CONFIG = """
n=48
scenes=6
train_fraction=0.5
rotation=limited
max_angle=0.5
translation_low=-0.05,-0.05,-0.05
translation_high=0.05,0.05,0.05
viewpoint=1.0,1.0,1.0
noise_sigma=0.001
occlusion_fraction=0.1
psn_trunk=8,12,16
psn_exterior_width=4
psn_out_width=12
feat_widths=8,12
feat_global_width=8
decode_width=12
head_hidden=16
epochs=2
lr=0.003
num_pairs=16
"""


def _tree_bytes(root):
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for fn in sorted(filenames):
            p = os.path.join(dirpath, fn)
            out[os.path.relpath(p, root)] = open(p, "rb").read()
    return out


class TestCriterion7CliDeterminism:
    def test_every_command_is_reproducible(self, tmp_path):
        cfg_path = str(tmp_path / "cfg.txt")
        with open(cfg_path, "w") as fh:
            fh.write(CLI_CONFIG.strip() + "\n")

        outputs = {}
        for run in ("x", "y"):
            base = tmp_path / run
            os.makedirs(base)
            ds = str(base / "ds")
            assert cli_main(["synth", "--out", ds, "--config", cfg_path,
                             "--seed", "0"]) == 0
            run_dir = str(base / "run")
            assert cli_main(["train", "--dataset", ds, "--out", run_dir,
                             "--config", cfg_path, "--seed", "0"]) == 0
            assert cli_main(["eval", "--dataset", ds, "--checkpoint",
                             os.path.join(run_dir, "checkpoint.json"),
                             "--out", str(base / "metrics"),
                             "--config", cfg_path, "--seed", "0"]) == 0

            manifest = json.load(open(os.path.join(ds, "manifest.json")))
            pose_file = str(base / "gt.json")
            with open(pose_file, "w") as fh:
                json.dump(manifest["scenes"][0]["pose"], fh)
            assert cli_main(["ppf-target",
                             "--scene", os.path.join(
                                 ds, manifest["scenes"][0]["file"]),
                             "--model", os.path.join(ds, "model.ply"),
                             "--pose", pose_file,
                             "--out", str(base / "w.txt"),
                             "--config", cfg_path, "--seed", "0"]) == 0

            dataset = fileio.load_dataset(ds)
            rec = dataset.records[0]
            posed = pose_apply(rec.gt, dataset.model)
            corr = CorrespondenceSet(dataset.model.positions,
                                     dataset.model.normals, posed.positions,
                                     posed.normals, "model_to_scene")
            corr_file = str(base / "corr.json")
            fileio.write_correspondences(corr_file, corr)
            assert cli_main(["solve", "--corr", corr_file, "--solver", "pairs",
                             "--out", str(base / "pose.json"),
                             "--config", cfg_path, "--seed", "0"]) == 0

            assert cli_main(["gradcheck", "--instances", "2",
                             "--out", str(base / "grad.json"),
                             "--seed", "0"]) == 0
            assert cli_main(["ablate", "--dataset", ds, "--grid", "attention",
                             "--out", str(base / "ablate.csv"),
                             "--config", cfg_path, "--set", "epochs=1",
                             "--seed", "0"]) == 0
            outputs[run] = _tree_bytes(base)

        same_keys = outputs["x"].keys() == outputs["y"].keys()
        diffs = [k for k in outputs["x"] if outputs["x"][k] != outputs["y"][k]] \
            if same_keys else ["<key sets differ>"]
        report("7 (CLI determinism)", same_keys and not diffs,
               f"{len(outputs['x'])} files compared" + (
                   f", diffs: {diffs}" if diffs else ""))


# ---------------------------------------------------------------------------
# 8. format round trips
# ---------------------------------------------------------------------------

class TestCriterion8RoundTrips:
    def test_hundred_randomized_round_trips_each(self, tmp_path):
        rng = np.random.default_rng(105)
        ok_ply = ok_pose = ok_matrix = ok_ckpt = True

        for i in range(100):
            cloud = make_cloud(rng, int(rng.integers(1, 40)))
            path = tmp_path / f"c{i}.ply"
            fileio.write_ply(path, cloud)
            back = fileio.read_ply(path)
            ok_ply &= (np.array_equal(back.positions, cloud.positions)
                       and np.array_equal(back.normals, cloud.normals))

        for i in range(100):
            pose = random_pose(rng)
            path = tmp_path / f"p{i}.json"
            fileio.write_pose(path, pose)
            back = fileio.read_pose(path)
            ok_pose &= (np.array_equal(back.q, pose.q)
                        and np.array_equal(back.t, pose.t))

        for i in range(100):
            m = rng.standard_normal((int(rng.integers(1, 10)),
                                     int(rng.integers(1, 10))))
            path = tmp_path / f"m{i}.txt"
            fileio.write_matrix(path, m)
            ok_matrix &= np.array_equal(fileio.read_matrix(path), m)

        cfg = fileio.parse_config(
            "psn_trunk=4,6\npsn_exterior_width=2\npsn_out_width=4\n"
            "feat_widths=4,6\nfeat_global_width=4\ndecode_width=4\n"
            "head_hidden=6\n")
        for i in range(100):
            n = int(rng.integers(2, 10))
            params = net.init_params(cfg.net_config(), rng)
            path = tmp_path / f"k{i}.json"
            fileio.write_checkpoint(path, params, cfg, n)
            back, _, _ = fileio.read_checkpoint(path)
            ok_ckpt &= all(np.array_equal(back[k].values, params[k].values)
                           for k in params)

        ok = ok_ply and ok_pose and ok_matrix and ok_ckpt
        report("8 (format round trips x100)", ok,
               f"ply {ok_ply}, pose {ok_pose}, matrix {ok_matrix}, "
               f"checkpoint {ok_ckpt}")
