import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

import pairpose.fileio as fileio
from pairpose.cli import _load_config, build_parser, main
from pairpose.geom import Pose, pose_apply, rotation_geodesic_angle
from pairpose.net import init_params
from pairpose.solver import CorrespondenceSet
from tests.test_fileio import edit_config, write_back, write_old_checkpoint
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
            out[os.path.relpath(p, root)] = Path(p).read_bytes()
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
        pa = Path(a, "scenes/scene_0000.ply").read_bytes()
        pb = Path(b, "scenes/scene_0000.ply").read_bytes()
        assert pa != pb


class TestPpfTargetCommand:
    def test_writes_weight_matrix(self, tmp_path, toy_config):
        ds_dir = str(tmp_path / "ds")
        main(["synth", "--out", ds_dir, "--config", toy_config, "--seed", "0"])
        manifest = json.loads(Path(ds_dir, "manifest.json").read_text())
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


def assert_one_error_line(capsys, rc, error, path):
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    obj = json.loads(err[0])
    assert obj["error"] == error
    assert str(path) in obj["message"]


class TestMalformedInputFiles:
    @pytest.mark.parametrize("text", [
        "[]",
        '{"format": "corr.v1", ',
        '{"format": "corr.v1", "direction": "model_to_scene", '
        '"source": [[{}, 0, 0, 0, 0, 1]], "target": [[0, 0, 0, 0, 0, 1]]}',
    ], ids=["top_level_array", "not_json", "non_number_value"])
    def test_solve_rejects_malformed_correspondences(self, tmp_path, capsys,
                                                     text):
        corr = tmp_path / "corr.json"
        corr.write_text(text)
        rc = main(["solve", "--corr", str(corr),
                   "--out", str(tmp_path / "o.json")])
        assert_one_error_line(capsys, rc, "SchemaViolation", corr)

    def ppf_target(self, tmp_path, scene=None, pose=None):
        cloud = tmp_path / "cloud.ply"
        fileio.write_ply(cloud, make_cloud(np.random.default_rng(0), 12))
        if pose is None:
            pose = tmp_path / "pose.json"
            fileio.write_pose(pose, Pose.identity())
        return main(["ppf-target", "--scene", str(scene or cloud),
                     "--model", str(cloud), "--pose", str(pose),
                     "--out", str(tmp_path / "w.txt")])

    @pytest.mark.parametrize("q,t", [
        ([{}, 0, 0, 0], [0, 0, 0]),
        ([1, 0, 0, 0], [0, "0", 0]),
        ([1, 0, 0, 0], [0, True, 0]),
        ([10 ** 400, 0, 0, 0], [0, 0, 0]),
        ([float("nan"), 0, 0, 0], [0, 0, 0]),
        ([0, 0, 0, 0], [0, 0, 0]),
        ([1e200, 0, 0, 0], [0, 0, 0]),
    ], ids=["object_in_q", "string_in_t", "bool_in_t", "int_beyond_float",
            "nan_in_q", "zero_q", "q_norm_overflows"])
    def test_ppf_target_rejects_pose_that_is_not_a_rigid_transform(
            self, tmp_path, capsys, q, t):
        pose = tmp_path / "bad_pose.json"
        pose.write_text(json.dumps({"format": "pose.v1", "q": q, "t": t}))
        rc = self.ppf_target(tmp_path, pose=pose)
        assert_one_error_line(capsys, rc, "SchemaViolation", pose)

    def test_ppf_target_rejects_ply_format_line_without_value(self, tmp_path,
                                                              capsys):
        scene = tmp_path / "scene.ply"
        scene.write_text("ply\nformat\n")
        rc = self.ppf_target(tmp_path, scene=scene)
        assert_one_error_line(capsys, rc, "MalformedHeader", scene)


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
        for ext in (".csv", ".json"):
            assert Path(out_a + ext).read_bytes() == Path(out_b + ext).read_bytes()
        report = json.loads(Path(out_a + ".json").read_text())
        assert report["format"] == "metrics.v1"
        assert 0.0 <= report["auc"] <= 1.0
        csv_lines = Path(out_a + ".csv").read_text().splitlines()
        assert csv_lines[0] == "object,add_auc,adds_auc,acc_0p1d,acc_2cm,n"
        assert len(csv_lines) == 2

    def test_eval_set_accepts_only_seed(self, tmp_path, toy_config, capsys):
        # rejected before the checkpoint or the dataset is read
        rc = main(["eval", "--dataset", str(tmp_path / "no_ds"),
                   "--checkpoint", str(tmp_path / "no_ckpt.json"),
                   "--out", str(tmp_path / "x"), "--config", toy_config,
                   "--set", "num_pairs=1"])
        assert_one_error_line(capsys, rc, "SchemaViolation", "num_pairs")
        assert not (tmp_path / "x.json").exists()

        ds_dir, run = str(tmp_path / "ds"), str(tmp_path / "run")
        main(["synth", "--out", ds_dir, "--config", toy_config, "--seed", "0"])
        main(["train", "--dataset", ds_dir, "--out", run,
              "--config", toy_config, "--seed", "0"])
        outs = []
        for flags in (["--set", "seed=3"], ["--seed", "3"]):
            outs.append(str(tmp_path / flags[0].strip("-")))
            assert main(["eval", "--dataset", ds_dir, "--checkpoint",
                         os.path.join(run, "checkpoint.json"),
                         "--out", outs[-1], "--config", toy_config,
                         *flags]) == 0
        for ext in (".csv", ".json"):
            assert (Path(outs[0] + ext).read_bytes()
                    == Path(outs[1] + ext).read_bytes())

    def test_seed_flag_wins_over_set_seed(self, tmp_path, toy_config):
        args = build_parser().parse_args(
            ["synth", "--out", str(tmp_path), "--config", toy_config,
             "--set", "seed=3", "--seed", "5"])
        assert _load_config(args).seed == 5

    def test_set_key_given_twice_is_one_error_line(self, tmp_path, toy_config,
                                                    capsys):
        rc = main(["synth", "--out", str(tmp_path / "ds"), "--config",
                   toy_config, "--set", "seed=3", "--set", "seed=4"])
        assert_one_error_line(capsys, rc, "SchemaViolation",
                              "--set, lines 1 and 2 both set seed")
        assert not (tmp_path / "ds").exists()

    def test_eval_accepts_a_dataset_of_another_point_count(self, tmp_path,
                                                           toy_config, capsys):
        # no parameter shape depends on N: a checkpoint trained at N = 48
        # evaluates clouds of 64 points
        ds_dir = str(tmp_path / "ds")
        main(["synth", "--out", ds_dir, "--config", toy_config, "--seed", "0"])
        run = str(tmp_path / "run")
        main(["train", "--dataset", ds_dir, "--out", run,
              "--config", toy_config, "--seed", "0"])
        other_ds = str(tmp_path / "ds2")
        main(["synth", "--out", other_ds, "--config", toy_config,
              "--set", "n=64", "--seed", "0"])
        capsys.readouterr()
        rc = main(["eval", "--dataset", other_ds,
                   "--checkpoint", os.path.join(run, "checkpoint.json"),
                   "--out", str(tmp_path / "x"), "--config", toy_config])
        assert rc == 0 and capsys.readouterr().err == ""
        report = json.loads((tmp_path / "x.json").read_text())
        assert report["count"] == 3 and 0.0 <= report["auc"] <= 1.0


    @staticmethod
    def eval_checkpoint(tmp_path, toy_config, edit):
        """``pairpose eval`` on the toy config's checkpoint after ``edit``
        rewrote it from its path, parsed header line and payload bytes; the
        exit code and the checkpoint's path."""
        cfg = fileio.load_config(toy_config)
        ckpt = tmp_path / "checkpoint.json"
        params = init_params(cfg.net_config(), np.random.default_rng(0))
        fileio.write_checkpoint(ckpt, params, cfg, cfg.n)
        line, payload = ckpt.read_bytes().split(b"\n", 1)
        edit(ckpt, json.loads(line), payload)
        return main(["eval", "--dataset", str(tmp_path / "ds"),
                     "--checkpoint", str(ckpt), "--out", str(tmp_path / "x"),
                     "--config", toy_config]), ckpt

    def test_eval_rejects_checkpoint_entry_without_values(self, tmp_path,
                                                          toy_config, capsys):
        rc, ckpt = self.eval_checkpoint(
            tmp_path, toy_config,
            lambda path, header, payload: write_back(path, header,
                                                     payload[:-8]))
        assert_one_error_line(capsys, rc, "SchemaViolation", ckpt)

    def test_eval_rejects_checkpoint_value_that_is_not_a_number(
            self, tmp_path, toy_config, capsys):
        rc, ckpt = self.eval_checkpoint(
            tmp_path, toy_config,
            lambda path, header, payload: write_back(
                path, header, struct.pack("<d", np.nan) + payload[8:]))
        assert_one_error_line(capsys, rc, "SchemaViolation", ckpt)

    def test_eval_rejects_v4_checkpoint(self, tmp_path, toy_config, capsys):
        for fmt in ("checkpoint.v4", "checkpoint.v5", "checkpoint.v6"):
            rc, ckpt = self.eval_checkpoint(
                tmp_path, toy_config,
                lambda path, header, payload: write_old_checkpoint(
                    path, header, payload, fmt))
            assert_one_error_line(capsys, rc, "SchemaViolation", ckpt)

    @pytest.mark.parametrize("corrupt", [
        lambda obj: [obj],
        lambda obj: {**obj, "config": obj["config"].splitlines()},
        lambda obj: edit_config(obj, "psn_trunk=5"),
        lambda obj: edit_config(obj, "attention_source=bogus"),
        lambda obj: {**obj, "tensors": 5},
    ], ids=["top_level_array", "config_array", "scalar_trunk",
            "bad_attention_source", "tensors_not_a_list"])
    def test_eval_rejects_malformed_checkpoint_config(
            self, tmp_path, toy_config, capsys, corrupt):
        rc, ckpt = self.eval_checkpoint(
            tmp_path, toy_config,
            lambda path, header, payload: write_back(path, corrupt(header),
                                                     payload))
        assert_one_error_line(capsys, rc, "SchemaViolation", ckpt)

    def test_train_rejects_invalid_network_override(self, tmp_path,
                                                    toy_config, capsys):
        rc = main(["train", "--dataset", str(tmp_path / "ds"),
                   "--out", str(tmp_path / "run"), "--config", toy_config,
                   "--set", "attention_source=bogus"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "SchemaViolation"


    def test_train_rejects_manifest_that_is_not_an_object(self, tmp_path,
                                                          toy_config, capsys):
        manifest = tmp_path / "ds" / "manifest.json"
        manifest.parent.mkdir()
        manifest.write_text("[]\n")
        rc = main(["train", "--dataset", str(tmp_path / "ds"),
                   "--out", str(tmp_path / "run"), "--config", toy_config])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        error = json.loads(err[0])
        assert error["error"] == "SchemaViolation"
        assert str(manifest) in error["message"]

    @pytest.mark.parametrize("override", ["noise_sigma=nan", "viewpoint=1,2"])
    def test_synth_rejects_non_finite_or_misshapen_data_value(
            self, tmp_path, toy_config, capsys, override):
        rc = main(["synth", "--out", str(tmp_path / "ds"), "--config",
                   toy_config, "--set", override])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        error = json.loads(err[0])
        assert error["error"] == "SchemaViolation"
        assert error["message"].startswith("--set: invalid configuration")
        assert not os.path.exists(tmp_path / "ds")

    def test_train_rejects_negative_epochs(self, tmp_path, toy_config,
                                           capsys):
        rc = main(["train", "--dataset", str(tmp_path / "ds"),
                   "--out", str(tmp_path / "run"), "--config", toy_config,
                   "--set", "epochs=-1"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "SchemaViolation"
        assert not os.path.exists(tmp_path / "run")

    def test_train_zero_epochs_writes_initial_weights(self, tmp_path,
                                                      toy_config, capsys):
        ds_dir = str(tmp_path / "ds")
        main(["synth", "--out", ds_dir, "--config", toy_config, "--seed", "0"])
        run = tmp_path / "run"
        capsys.readouterr()
        assert main(["train", "--dataset", ds_dir, "--out", str(run),
                     "--config", toy_config, "--set", "epochs=0"]) == 0
        assert capsys.readouterr().out == f"trained 0 epochs; wrote {run}\n"
        assert (run / "loss.csv").read_text() == fileio.LOSS_CSV_HEADER + "\n"
        params, cfg, n_points = fileio.read_checkpoint(run / "checkpoint.json")
        assert n_points == cfg.n
        initial = init_params(cfg.net_config(),
                              np.random.default_rng(cfg.seed))
        assert params.keys() == initial.keys()
        assert all(np.array_equal(params[k].values, initial[k].values)
                   for k in params)


class TestGradcheckCommand:
    def test_report_and_exit_code(self, tmp_path):
        out = str(tmp_path / "report.json")
        assert main(["gradcheck", "--instances", "3", "--out", out,
                     "--seed", "0"]) == 0
        report = json.loads(Path(out).read_text())
        assert report["passed"] is True
        assert report["end_to_end"]["passed"] is True

    def test_bad_config_fails_before_any_suite(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["gradcheck", "--instances", "1", "--out", str(out),
                     "--set", "bogus_key=1"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "SchemaViolation"
        assert "--set" in err["message"] and "bogus_key" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("instances", ["0", "-2"])
    def test_no_instances_is_one_error(self, tmp_path, capsys, instances):
        out = tmp_path / "report.json"
        assert main(["gradcheck", "--instances", instances,
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "pass" not in captured.out
        lines = captured.err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert "instances" in err["message"]
        assert not out.exists()


class TestAblateCommand:
    def test_attention_grid_rows(self, tmp_path, toy_config):
        ds_dir = str(tmp_path / "ds")
        main(["synth", "--out", ds_dir, "--config", toy_config, "--seed", "0"])
        out = str(tmp_path / "ablation.csv")
        assert main(["ablate", "--dataset", ds_dir, "--grid", "attention",
                     "--out", out, "--config", toy_config, "--set",
                     "epochs=1", "--seed", "0"]) == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == ("attn_direct,attn_match,add_auc,adds_auc,"
                            "acc_0p1d,acc_2cm,corr_l1,n")
        assert len(lines) == 5
        flags = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert flags == [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
