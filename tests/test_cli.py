import json
import os

import numpy as np
import pytest

import pairpose.fileio as fileio
from pairpose.cli import main
from pairpose.geom import pose_apply, rotation_geodesic_angle
from pairpose.solver import CorrespondenceSet
from tests.test_geom import make_cloud

TOY_CONFIG = """
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


@pytest.fixture()
def toy_config(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text(TOY_CONFIG.strip() + "\n")
    return str(path)


def read_tree(root):
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for fn in sorted(filenames):
            p = os.path.join(dirpath, fn)
            out[os.path.relpath(p, root)] = open(p, "rb").read()
    return out


class TestSynthCommand:
    def test_deterministic_directories(self, tmp_path, toy_config):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["synth", "--out", a, "--config", toy_config,
                     "--seed", "0"]) == 0
        assert main(["synth", "--out", b, "--config", toy_config,
                     "--seed", "0"]) == 0
        ta, tb = read_tree(a), read_tree(b)
        assert ta.keys() == tb.keys()
        assert all(ta[k] == tb[k] for k in ta)

    def test_different_seed_changes_scenes(self, tmp_path, toy_config):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["synth", "--out", a, "--config", toy_config, "--seed", "0"])
        main(["synth", "--out", b, "--config", toy_config, "--seed", "1"])
        pa = open(os.path.join(a, "scenes/scene_0000.ply"), "rb").read()
        pb = open(os.path.join(b, "scenes/scene_0000.ply"), "rb").read()
        assert pa != pb


class TestPpfTargetCommand:
    def test_writes_weight_matrix(self, tmp_path, toy_config):
        ds_dir = str(tmp_path / "ds")
        main(["synth", "--out", ds_dir, "--config", toy_config, "--seed", "0"])
        manifest = json.load(open(os.path.join(ds_dir, "manifest.json")))
        scene_file = os.path.join(ds_dir, manifest["scenes"][0]["file"])
        pose_file = str(tmp_path / "gt.json")
        with open(pose_file, "w") as fh:
            json.dump(manifest["scenes"][0]["pose"], fh)
        out = str(tmp_path / "w.txt")
        assert main(["ppf-target", "--scene", scene_file,
                     "--model", os.path.join(ds_dir, "model.ply"),
                     "--pose", pose_file, "--out", out,
                     "--config", toy_config]) == 0
        w = fileio.read_matrix(out)
        assert w.shape == (48, 48)
        assert np.all(w > 0) and np.all(w <= 1)


class TestSolveCommand:
    def test_kabsch_recovers_manifest_gt(self, tmp_path, toy_config):
        ds_dir = str(tmp_path / "ds")
        main(["synth", "--out", ds_dir, "--config", toy_config, "--set",
              "noise_sigma=0.0", "--set", "occlusion_fraction=0.0",
              "--seed", "0"])
        ds = fileio.load_dataset(ds_dir)
        rec = ds.records[0]
        # noiseless correspondences by construction
        posed = pose_apply(rec.gt, ds.model)
        corr = CorrespondenceSet(ds.model.positions, ds.model.normals,
                                 posed.positions, posed.normals,
                                 "model_to_scene")
        corr_file = str(tmp_path / "corr.json")
        fileio.write_correspondences(corr_file, corr)
        out = str(tmp_path / "pose.json")
        assert main(["solve", "--corr", corr_file, "--solver", "kabsch",
                     "--out", out]) == 0
        pose = fileio.read_pose(out)
        assert rotation_geodesic_angle(pose.q, rec.gt.q) < 1e-9
        assert np.linalg.norm(pose.t - rec.gt.t) < 1e-9

    def test_pairs_solver_close_to_gt(self, tmp_path, toy_config):
        rng = np.random.default_rng(0)
        cloud = make_cloud(rng, 30, frame="model")
        from pairpose.geom import random_pose
        g = random_pose(rng, trans_scale=0.3)
        posed_p = g.apply_points(cloud.positions)
        posed_n = g.apply_directions(cloud.normals)
        posed_n /= np.linalg.norm(posed_n, axis=1, keepdims=True)
        corr = CorrespondenceSet(cloud.positions, cloud.normals,
                                 posed_p, posed_n, "model_to_scene")
        corr_file = str(tmp_path / "corr.json")
        fileio.write_correspondences(corr_file, corr)
        out = str(tmp_path / "pose.json")
        assert main(["solve", "--corr", corr_file, "--solver", "pairs",
                     "--out", out, "--seed", "0"]) == 0
        pose = fileio.read_pose(out)
        assert rotation_geodesic_angle(pose.q, g.q) < 1e-6

    def test_error_json_on_missing_file(self, tmp_path, capsys):
        rc = main(["solve", "--corr", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o.json")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and "message" in err


class TestTrainEvalCommands:
    def test_train_eval_round_trip_and_determinism(self, tmp_path, toy_config):
        ds_dir = str(tmp_path / "ds")
        main(["synth", "--out", ds_dir, "--config", toy_config, "--seed", "0"])
        run_a = str(tmp_path / "runa")
        run_b = str(tmp_path / "runb")
        assert main(["train", "--dataset", ds_dir, "--out", run_a,
                     "--config", toy_config, "--seed", "0"]) == 0
        assert main(["train", "--dataset", ds_dir, "--out", run_b,
                     "--config", toy_config, "--seed", "0"]) == 0
        ta, tb = read_tree(run_a), read_tree(run_b)
        assert ta.keys() == tb.keys() == {"checkpoint.json", "loss.csv"}
        assert all(ta[k] == tb[k] for k in ta)

        out_a = str(tmp_path / "eval_a")
        out_b = str(tmp_path / "eval_b")
        assert main(["eval", "--dataset", ds_dir,
                     "--checkpoint", os.path.join(run_a, "checkpoint.json"),
                     "--out", out_a, "--config", toy_config, "--seed", "0"]) == 0
        assert main(["eval", "--dataset", ds_dir,
                     "--checkpoint", os.path.join(run_a, "checkpoint.json"),
                     "--out", out_b, "--config", toy_config, "--seed", "0"]) == 0
        assert open(out_a + ".csv", "rb").read() == open(out_b + ".csv", "rb").read()
        assert open(out_a + ".json", "rb").read() == open(out_b + ".json", "rb").read()
        report = json.load(open(out_a + ".json"))
        assert report["format"] == "metrics.v1"
        assert 0.0 <= report["auc"] <= 1.0
        csv_lines = open(out_a + ".csv").read().splitlines()
        assert csv_lines[0] == "object,add_auc,adds_auc,acc_0p1d,acc_2cm,n"
        assert len(csv_lines) == 2

    def test_eval_rejects_wrong_point_count(self, tmp_path, toy_config, capsys):
        ds_dir = str(tmp_path / "ds")
        main(["synth", "--out", ds_dir, "--config", toy_config, "--seed", "0"])
        run = str(tmp_path / "run")
        main(["train", "--dataset", ds_dir, "--out", run,
              "--config", toy_config, "--seed", "0"])
        other_ds = str(tmp_path / "ds2")
        main(["synth", "--out", other_ds, "--config", toy_config,
              "--set", "n=32", "--seed", "0"])
        rc = main(["eval", "--dataset", other_ds,
                   "--checkpoint", os.path.join(run, "checkpoint.json"),
                   "--out", str(tmp_path / "x"), "--config", toy_config])
        assert rc == 1
        assert "error" in json.loads(capsys.readouterr().err)


    def test_eval_rejects_checkpoint_entry_without_values(self, tmp_path,
                                                          toy_config, capsys):
        from pairpose.net import init_params
        cfg = fileio.load_config(toy_config)
        ckpt = tmp_path / "checkpoint.json"
        fileio.write_checkpoint(ckpt, init_params(cfg.net_config(), cfg.n,
                                                  np.random.default_rng(0)),
                                cfg, cfg.n)
        obj = json.loads(ckpt.read_text())
        del obj["tensors"][0]["values"]
        ckpt.write_text(json.dumps(obj))
        rc = main(["eval", "--dataset", str(tmp_path / "ds"),
                   "--checkpoint", str(ckpt), "--out", str(tmp_path / "x"),
                   "--config", toy_config])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "SchemaViolation"

    def test_eval_rejects_checkpoint_value_that_is_not_a_number(
            self, tmp_path, toy_config, capsys):
        from pairpose.net import init_params
        cfg = fileio.load_config(toy_config)
        ckpt = tmp_path / "checkpoint.json"
        fileio.write_checkpoint(ckpt, init_params(cfg.net_config(), cfg.n,
                                                  np.random.default_rng(0)),
                                cfg, cfg.n)
        obj = json.loads(ckpt.read_text())
        obj["tensors"][0]["values"][0] = {}
        ckpt.write_text(json.dumps(obj))
        rc = main(["eval", "--dataset", str(tmp_path / "ds"),
                   "--checkpoint", str(ckpt), "--out", str(tmp_path / "x"),
                   "--config", toy_config])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "SchemaViolation"

    @pytest.mark.parametrize("corrupt", [
        lambda obj: [obj],
        lambda obj: {**obj, "config": []},
        lambda obj: {**obj, "config": {**obj["config"], "psn_trunk": 5}},
        lambda obj: {**obj, "config": {**obj["config"],
                                       "attention_source": "bogus"}},
    ], ids=["top_level_array", "config_array", "scalar_trunk",
            "bad_attention_source"])
    def test_eval_rejects_malformed_checkpoint_config(
            self, tmp_path, toy_config, capsys, corrupt):
        from pairpose.net import init_params
        cfg = fileio.load_config(toy_config)
        ckpt = tmp_path / "checkpoint.json"
        fileio.write_checkpoint(ckpt, init_params(cfg.net_config(), cfg.n,
                                                  np.random.default_rng(0)),
                                cfg, cfg.n)
        ckpt.write_text(json.dumps(corrupt(json.loads(ckpt.read_text()))))
        rc = main(["eval", "--dataset", str(tmp_path / "ds"),
                   "--checkpoint", str(ckpt), "--out", str(tmp_path / "x"),
                   "--config", toy_config])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        error = json.loads(err[0])
        assert error["error"] == "SchemaViolation"
        assert str(ckpt) in error["message"]

    def test_train_rejects_invalid_network_override(self, tmp_path,
                                                    toy_config, capsys):
        rc = main(["train", "--dataset", str(tmp_path / "ds"),
                   "--out", str(tmp_path / "run"), "--config", toy_config,
                   "--set", "attention_source=bogus"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "SchemaViolation"


class TestGradcheckCommand:
    def test_report_and_exit_code(self, tmp_path):
        out = str(tmp_path / "report.json")
        assert main(["gradcheck", "--instances", "3", "--out", out,
                     "--seed", "0"]) == 0
        report = json.load(open(out))
        assert report["passed"] is True
        assert report["end_to_end"]["passed"] is True


class TestAblateCommand:
    def test_attention_grid_rows(self, tmp_path, toy_config):
        ds_dir = str(tmp_path / "ds")
        main(["synth", "--out", ds_dir, "--config", toy_config, "--seed", "0"])
        out = str(tmp_path / "ablation.csv")
        assert main(["ablate", "--dataset", ds_dir, "--grid", "attention",
                     "--out", out, "--config", toy_config, "--set",
                     "epochs=1", "--seed", "0"]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == ("attn_direct,attn_match,add_auc,adds_auc,"
                            "acc_0p1d,acc_2cm,corr_l1,n")
        assert len(lines) == 5
        flags = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert flags == [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
