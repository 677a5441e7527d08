from dataclasses import fields

import numpy as np
import pytest

import pairpose.fileio as fileio
from pairpose.errors import (
    MalformedHeader,
    MissingNormals,
    NonFiniteInput,
    SchemaViolation,
)
from pairpose.geom import Pose, random_pose
from pairpose.net import NetConfig, init_params
from pairpose.solver import CorrespondenceSet, PoseSet
from pairpose.synth import SceneSpec, ShapeSpec, make_dataset
from tests.test_geom import make_cloud


class TestPly:
    def test_round_trip_small(self, tmp_path):
        rng = np.random.default_rng(0)
        cloud = make_cloud(rng, 3, frame="model")
        path = tmp_path / "c.ply"
        fileio.write_ply(path, cloud)
        back = fileio.read_ply(path)
        assert np.array_equal(back.positions, cloud.positions)
        assert np.array_equal(back.normals, cloud.normals)
        assert back.frame == "model"

    def test_round_trip_randomized(self, tmp_path):
        rng = np.random.default_rng(1)
        for i in range(100):
            cloud = make_cloud(rng, int(rng.integers(1, 30)))
            path = tmp_path / f"c{i}.ply"
            fileio.write_ply(path, cloud)
            back = fileio.read_ply(path)
            assert np.array_equal(back.positions, cloud.positions)
            assert np.array_equal(back.normals, cloud.normals)

    def test_missing_normals(self, tmp_path):
        path = tmp_path / "nonormals.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 1\n"
                        "property double x\nproperty double y\n"
                        "property double z\nend_header\n0.0 0.0 0.0\n")
        with pytest.raises(MissingNormals):
            fileio.read_ply(path)

    def test_missing_normals_estimated_with_viewpoint(self, tmp_path):
        rng = np.random.default_rng(2)
        pos = np.column_stack([rng.uniform(-1, 1, 50), rng.uniform(-1, 1, 50),
                               np.zeros(50)])
        lines = ["ply", "format ascii 1.0", "element vertex 50",
                 "property double x", "property double y", "property double z",
                 "end_header"]
        lines += [" ".join(repr(float(v)) for v in p) for p in pos]
        path = tmp_path / "plane.ply"
        path.write_text("\n".join(lines) + "\n")
        cloud = fileio.read_ply(path, viewpoint=(0.0, 0.0, 5.0))
        assert np.all(cloud.normals[:, 2] > 0.99)

    def test_rejects_binary(self, tmp_path):
        path = tmp_path / "bin.ply"
        path.write_text("ply\nformat binary_little_endian 1.0\n"
                        "element vertex 0\nend_header\n")
        with pytest.raises(MalformedHeader):
            fileio.read_ply(path)

    def test_rejects_nan(self, tmp_path):
        path = tmp_path / "nan.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 1\n"
                        "property double x\nproperty double y\n"
                        "property double z\nproperty double nx\n"
                        "property double ny\nproperty double nz\n"
                        "end_header\nnan 0.0 0.0 0.0 0.0 1.0\n")
        with pytest.raises(NonFiniteInput):
            fileio.read_ply(path)

    def test_rejects_non_ply(self, tmp_path):
        path = tmp_path / "x.ply"
        path.write_text("hello\n")
        with pytest.raises(MalformedHeader):
            fileio.read_ply(path)


class TestPoseJson:
    def test_identity_round_trip(self, tmp_path):
        path = tmp_path / "p.json"
        fileio.write_pose(path, Pose.identity())
        back = fileio.read_pose(path)
        assert np.array_equal(back.q, [1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(back.t, [0.0, 0.0, 0.0])

    def test_random_round_trips_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        for i in range(100):
            pose = random_pose(rng)
            path = tmp_path / f"p{i}.json"
            fileio.write_pose(path, pose)
            back = fileio.read_pose(path)
            assert np.array_equal(back.q, pose.q)
            assert np.array_equal(back.t, pose.t)

    def test_pose_set_round_trip_with_provenance(self, tmp_path):
        rng = np.random.default_rng(4)
        ps = PoseSet(tuple(random_pose(rng) for _ in range(5)),
                     ("direct", "direct", "scene-branch", "model-branch",
                      "direct"))
        path = tmp_path / "set.json"
        fileio.write_pose_set(path, ps)
        back = fileio.read_pose_set(path)
        assert back.provenance == ps.provenance
        for a, b in zip(back.poses, ps.poses):
            assert np.array_equal(a.q, b.q) and np.array_equal(a.t, b.t)

    def test_schema_violation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "pose.v2", "q": [1,0,0,0], "t": [0,0,0]}\n')
        with pytest.raises(SchemaViolation):
            fileio.read_pose(path)


class TestMatrix:
    def test_round_trip_2x2(self, tmp_path):
        m = np.array([[1.5, -2.25], [1e-17, 3.7182818]])
        path = tmp_path / "m.txt"
        fileio.write_matrix(path, m)
        assert np.array_equal(fileio.read_matrix(path), m)

    def test_round_trip_randomized(self, tmp_path):
        rng = np.random.default_rng(5)
        for i in range(100):
            m = rng.standard_normal((int(rng.integers(1, 8)),
                                     int(rng.integers(1, 8))))
            path = tmp_path / f"m{i}.txt"
            fileio.write_matrix(path, m)
            assert np.array_equal(fileio.read_matrix(path), m)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1.0 2.0 3.0\n")
        with pytest.raises(SchemaViolation):
            fileio.read_matrix(path)


class TestCorrespondences:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        cloud = make_cloud(rng, 12)
        other = make_cloud(rng, 12)
        c = CorrespondenceSet(cloud.positions, cloud.normals,
                              other.positions, other.normals, "scene_to_model")
        path = tmp_path / "c.json"
        fileio.write_correspondences(path, c)
        back = fileio.read_correspondences(path)
        assert back.direction == "scene_to_model"
        assert np.array_equal(back.source_positions, c.source_positions)
        assert np.array_equal(back.target_normals, c.target_normals)


class TestConfig:
    def test_defaults_match_published_hyperparameters(self):
        cfg = fileio.Config()
        assert cfg.n == 1000
        assert (cfg.gamma1, cfg.gamma2, cfg.gamma3) == (100.0, 50.0, 50.0)
        assert (cfg.phi1, cfg.phi2, cfg.phi3, cfg.phi4) == (1.0, 1.0, 1.0, 0.01)
        assert cfg.epochs == 50

    def test_parse_and_overrides(self):
        cfg = fileio.parse_config("n=128\nlr=0.002\n# comment\n\n"
                                  "psn_trunk=8,16\nattention_for_match=false\n")
        assert cfg.n == 128 and cfg.lr == 0.002
        assert cfg.psn_trunk == (8, 16)
        assert cfg.attention_for_match is False

    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaViolation):
            fileio.parse_config("bogus_key=1\n")

    def test_invalid_value_rejected(self):
        with pytest.raises(SchemaViolation):
            fileio.parse_config("epochs=abc\n")

    def test_validation_of_derived_specs(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("occlusion_fraction=1.5\n")
        with pytest.raises(SchemaViolation):
            fileio.load_config(path)

    def test_file_round_trip(self, tmp_path):
        cfg = fileio.parse_config("n=64\nnoise_sigma=0.0015\n"
                                  "head_hidden=32,16\nppf_supervision=false\n")
        path = tmp_path / "cfg.txt"
        fileio.write_config(path, cfg)
        back = fileio.load_config(path)
        assert back == cfg

    @pytest.mark.parametrize("override", ["attention_source=bogus",
                                          "phi1=-1", "feat_widths="])
    def test_invalid_network_value_rejected(self, override):
        with pytest.raises(SchemaViolation, match="invalid configuration"):
            fileio.load_config(overrides=[override])

    def test_keys_and_their_order(self):
        # the order of a checkpoint's config keys and of write_config's lines
        assert [f.name for f in fields(fileio.Config)] == [
            "n", "shape_kind", "shape_dims", "shape_seed", "scenes",
            "train_fraction", "rotation", "max_angle", "translation_low",
            "translation_high", "noise_sigma", "occlusion_fraction",
            "viewpoint", "gamma1", "gamma2", "gamma3", "phi1", "phi2", "phi3",
            "phi4", "epsilon", "psn_trunk", "psn_exterior_width",
            "psn_out_width", "feat_widths", "feat_global_width",
            "scene_scalar_channel", "decode_width", "head_hidden",
            "attention_source", "attention_for_match", "attention_for_direct",
            "ppf_supervision", "attention_input_gain", "epochs", "lr",
            "lr_decay", "beta1", "beta2", "adam_eps", "num_pairs",
            "auc_max_threshold", "seed"]

    def test_default_net_config_is_default_netconfig(self):
        assert fileio.Config().net_config() == NetConfig()


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = fileio.parse_config("psn_trunk=8,12\npsn_exterior_width=4\n"
                                  "psn_out_width=8\nfeat_widths=8,12\n"
                                  "feat_global_width=8\ndecode_width=8\n"
                                  "head_hidden=12\nn=10\n")
        params = init_params(cfg.net_config(), 10, np.random.default_rng(7))
        path = tmp_path / "ckpt.json"
        fileio.write_checkpoint(path, params, cfg, 10)
        back, cfg2, n = fileio.read_checkpoint(path)
        assert n == 10 and cfg2 == cfg
        assert set(back) == set(params)
        for name in params:
            assert np.array_equal(back[name].values, params[name].values)

    def test_shape_mismatch_rejected(self, tmp_path):
        import json
        cfg = fileio.parse_config("psn_trunk=8,12\npsn_exterior_width=4\n"
                                  "psn_out_width=8\nfeat_widths=8,12\n"
                                  "feat_global_width=8\ndecode_width=8\n"
                                  "head_hidden=12\nn=10\n")
        params = init_params(cfg.net_config(), 10, np.random.default_rng(8))
        path = tmp_path / "ckpt.json"
        fileio.write_checkpoint(path, params, cfg, 10)
        obj = json.loads(path.read_text())
        obj["tensors"][0]["shape"] = [1, 1]
        obj["tensors"][0]["values"] = [0.0]
        path.write_text(json.dumps(obj))
        with pytest.raises(SchemaViolation):
            fileio.read_checkpoint(path)

    @pytest.mark.parametrize("corrupt", [
        lambda tensors: tensors[0].pop("values"),
        lambda tensors: tensors[0]["values"].pop(),
        lambda tensors: tensors.__setitem__(0, ["not", "an", "object"]),
    ], ids=["missing_values", "short_values", "non_dict_entry"])
    def test_malformed_tensor_entry_rejected(self, tmp_path, corrupt):
        import json
        cfg = fileio.parse_config("psn_trunk=4,6\npsn_exterior_width=2\n"
                                  "psn_out_width=4\nfeat_widths=4,6\n"
                                  "feat_global_width=4\ndecode_width=4\n"
                                  "head_hidden=6\n")
        params = init_params(cfg.net_config(), 5, np.random.default_rng(10))
        path = tmp_path / "ckpt.json"
        fileio.write_checkpoint(path, params, cfg, 5)
        obj = json.loads(path.read_text())
        corrupt(obj["tensors"])
        path.write_text(json.dumps(obj))
        with pytest.raises(SchemaViolation):
            fileio.read_checkpoint(path)

    @pytest.mark.parametrize("corrupt", [
        lambda obj: [obj],
        lambda obj: {**obj, "config": []},
        lambda obj: {**obj, "config": {**obj["config"], "psn_trunk": 5}},
        lambda obj: {**obj, "config": {**obj["config"],
                                       "attention_source": "bogus"}},
        lambda obj: {**obj, "config": {**obj["config"], "num_pairs": "x"}},
        lambda obj: {**obj, "config": {**obj["config"],
                                       "attention_for_match": "yes"}},
        lambda obj: {**obj, "config": {**obj["config"], "feat_widths": []}},
    ], ids=["top_level_array", "config_array", "scalar_trunk",
            "bad_attention_source", "string_num_pairs", "string_flag",
            "no_feat_widths"])
    def test_malformed_config_rejected(self, tmp_path, corrupt):
        import json
        cfg = fileio.parse_config("psn_trunk=4,6\npsn_exterior_width=2\n"
                                  "psn_out_width=4\nfeat_widths=4,6\n"
                                  "feat_global_width=4\ndecode_width=4\n"
                                  "head_hidden=6\n")
        params = init_params(cfg.net_config(), 5, np.random.default_rng(12))
        path = tmp_path / "ckpt.json"
        fileio.write_checkpoint(path, params, cfg, 5)
        path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
        with pytest.raises(SchemaViolation, match="ckpt.json"):
            fileio.read_checkpoint(path)

    @pytest.mark.parametrize("element", [{}, "x", [1.0], None],
                             ids=["object", "string", "list", "null"])
    def test_non_number_value_rejected(self, tmp_path, element):
        import json
        cfg = fileio.parse_config("psn_trunk=4,6\npsn_exterior_width=2\n"
                                  "psn_out_width=4\nfeat_widths=4,6\n"
                                  "feat_global_width=4\ndecode_width=4\n"
                                  "head_hidden=6\n")
        params = init_params(cfg.net_config(), 5, np.random.default_rng(11))
        path = tmp_path / "ckpt.json"
        fileio.write_checkpoint(path, params, cfg, 5)
        obj = json.loads(path.read_text())
        obj["tensors"][1]["values"][0] = element
        path.write_text(json.dumps(obj))
        name = obj["tensors"][1]["name"]
        with pytest.raises(SchemaViolation, match=repr(name)):
            fileio.read_checkpoint(path)

    @pytest.mark.parametrize("n", [3, 17])
    def test_bytes_equal_json_dump_of_whole_object(self, tmp_path, n):
        import json
        cfg = fileio.parse_config("psn_trunk=4,6\npsn_exterior_width=2\n"
                                  "psn_out_width=4\nfeat_widths=4,6\n"
                                  "feat_global_width=4\ndecode_width=4\n"
                                  "head_hidden=6\n")
        params = init_params(cfg.net_config(), n, np.random.default_rng(n))
        path = tmp_path / "ckpt.json"
        fileio.write_checkpoint(path, params, cfg, n)
        # the writer's original form: one json.dump of the whole object
        obj = {
            "format": "checkpoint.v1",
            "n_points": n,
            "config": {f: list(v) if isinstance(v, tuple) else v
                       for f, v in vars(cfg).items()},
            "tensors": [
                {"name": name, "shape": list(p.values.shape),
                 "values": p.values.reshape(-1).tolist()}
                for name, p in sorted(params.items())
            ],
        }
        reference = tmp_path / "reference.json"
        with open(reference, "w") as fh:
            json.dump(obj, fh)
            fh.write("\n")
        assert path.read_bytes() == reference.read_bytes()

    def test_random_round_trips(self, tmp_path):
        rng = np.random.default_rng(9)
        cfg = fileio.parse_config("psn_trunk=4,6\npsn_exterior_width=2\n"
                                  "psn_out_width=4\nfeat_widths=4,6\n"
                                  "feat_global_width=4\ndecode_width=4\n"
                                  "head_hidden=6\n")
        for i in range(100):
            n = int(rng.integers(2, 12))
            params = init_params(cfg.net_config(), n, rng)
            path = tmp_path / f"c{i}.json"
            fileio.write_checkpoint(path, params, cfg, n)
            back, _, _ = fileio.read_checkpoint(path)
            for name in params:
                assert np.array_equal(back[name].values, params[name].values)


class TestDatasetDir:
    def test_save_load_round_trip(self, tmp_path):
        ds = make_dataset(
            ShapeSpec("box_with_bump", (0.08, 0.1, 0.12, 0.02), n=48, seed=10),
            5,
            SceneSpec(rotation="limited", max_angle=0.5,
                      viewpoint=(1.0, 1.0, 1.0), noise_sigma=0.001,
                      occlusion_fraction=0.1,
                      translation=((-0.05,) * 3, (0.05,) * 3)),
            seed=11, train_fraction=0.8)
        out = tmp_path / "ds"
        fileio.save_dataset(out, ds, seed=11)
        back = fileio.load_dataset(out)
        assert np.array_equal(back.model.positions, ds.model.positions)
        assert back.train_indices == ds.train_indices
        assert back.test_indices == ds.test_indices
        assert back.symmetric == ds.symmetric
        for a, b in zip(back.records, ds.records):
            assert np.array_equal(a.scene.positions, b.scene.positions)
            assert np.array_equal(a.gt.q, b.gt.q)
            assert np.array_equal(a.gt.t, b.gt.t)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(SchemaViolation):
            fileio.load_dataset(tmp_path)
