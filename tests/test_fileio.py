import base64
import json
import math
import re
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pairpose.fileio as fileio
from pairpose.errors import (
    MalformedHeader,
    MissingNormals,
    NonFiniteInput,
    PairposeError,
    SchemaViolation,
)
from pairpose.geom import Pose, random_pose
from pairpose.metrics import DEFAULT_AUC_MAX_THRESHOLD
from pairpose.net import EPSILON, PHI, NetConfig, init_params
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


def five_pose_set():
    rng = np.random.default_rng(4)
    poses = [random_pose(rng) for _ in range(5)]
    return PoseSet(np.array([p.q for p in poses]),
                   np.array([p.t for p in poses]),
                   ("direct", "direct", "scene-branch", "model-branch",
                    "direct"))


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
        ps = five_pose_set()
        path = tmp_path / "set.json"
        fileio.write_pose_set(path, ps)
        back = fileio.read_pose_set(path)
        assert back.provenance == ps.provenance
        assert np.array_equal(back.quats, ps.quats)
        assert np.array_equal(back.trans, ps.trans)

    def test_pose_set_bytes_equal_per_pose_objects(self, tmp_path):
        # the writer's original form: one pose.v1 object per Pose
        ps = five_pose_set()
        path = tmp_path / "set.json"
        fileio.write_pose_set(path, ps)
        poses = [Pose(q, t) for q, t in zip(ps.quats, ps.trans)]
        objs = [{"format": "pose.v1", "q": [float(v) for v in p.q],
                 "t": [float(v) for v in p.t], "provenance": tag}
                for p, tag in zip(poses, ps.provenance)]
        assert path.read_text() == json.dumps(objs, indent=2) + "\n"

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
        assert PHI == (1.0, 1.0, 1.0, 0.01) and EPSILON == 0.1
        assert DEFAULT_AUC_MAX_THRESHOLD == 0.1
        assert cfg.shape_spec().seed == 0
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

    def test_file_errors_name_the_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("n=64\nphi1=2\n")
        with pytest.raises(SchemaViolation,
                           match=re.escape(f"{path}, line 2: unknown config "
                                           f"key 'phi1'")):
            fileio.load_config(path)

    def test_override_errors_name_set(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("n=64\n")
        with pytest.raises(SchemaViolation,
                           match="--set, line 2: bad value for epochs"):
            fileio.load_config(path, overrides=["n=32", "epochs=abc"])
        with pytest.raises(SchemaViolation,
                           match="--set, line 1: bad value for "
                                 "attention_for_match: expected a boolean"):
            fileio.load_config(path, overrides=["attention_for_match=maybe"])

    def test_key_set_twice_in_a_file_names_both_lines(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("n=64\nlr=0.002\n# n=32 in a comment is no line\n"
                        "n=128\n")
        with pytest.raises(SchemaViolation,
                           match=re.escape(f"{path}, lines 1 and 4 both "
                                           f"set n")):
            fileio.load_config(path)

    def test_key_set_twice_by_set_names_both_lines(self):
        with pytest.raises(SchemaViolation,
                           match="^--set, lines 1 and 3 both set epochs$"):
            fileio.load_config(overrides=["epochs=2", "n=64", "epochs=3"])

    def test_set_overrides_a_key_of_the_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("n=64\nepochs=2\n")
        cfg = fileio.load_config(path, overrides=["n=128"])
        assert (cfg.n, cfg.epochs) == (128, 2)

    def test_validation_of_derived_specs(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("occlusion_fraction=1.5\n")
        with pytest.raises(SchemaViolation,
                           match=re.escape(f"{path}: invalid configuration: "
                                           f"occlusion_fraction")):
            fileio.load_config(path)

    def test_file_round_trip(self, tmp_path):
        cfg = fileio.parse_config("n=64\nnoise_sigma=0.0015\n"
                                  "head_hidden=32,16\nppf_supervision=false\n")
        path = tmp_path / "cfg.txt"
        fileio.write_config(path, cfg)
        back = fileio.load_config(path)
        assert back == cfg

    @pytest.mark.parametrize("override", [
        "attention_source=bogus", "feat_widths=", "gamma1=-1",
        "psn_trunk=-1,4", "psn_trunk=8,0", "feat_widths=8,-2", "head_hidden=0",
        "decode_width=0", "feat_global_width=-1", "psn_out_width=0",
        pytest.param("gamma1=0\ngamma2=0\ngamma3=0", id="all_gammas_zero"),
        pytest.param("ppf_supervision=false\ngamma2=-1",
                     id="negative_gamma_unsupervised"),
        "num_pairs=0", "epochs=-1"])
    def test_invalid_network_value_rejected(self, override):
        with pytest.raises(SchemaViolation,
                           match="^--set: invalid configuration"):
            fileio.load_config(overrides=[override])

    @pytest.mark.parametrize("override", [
        "noise_sigma=nan", "lr=inf", "translation_low=-inf,0,0",
        "viewpoint=1,2", "viewpoint="])
    def test_non_finite_or_misshapen_data_value_rejected(self, override):
        with pytest.raises(SchemaViolation,
                           match="^--set: invalid configuration"):
            fileio.load_config(overrides=[override])

    def test_zero_gammas_accepted_without_ppf_supervision(self):
        cfg = fileio.load_config(overrides=[
            "ppf_supervision=false", "gamma1=0", "gamma2=0", "gamma3=0"])
        assert cfg.gammas == (0.0, 0.0, 0.0)

    def test_keys_and_their_order(self):
        # the order of config_text's lines, in config files and checkpoints
        assert [f.name for f in fields(fileio.Config)] == [
            "n", "shape_kind", "shape_dims", "scenes", "train_fraction",
            "rotation", "max_angle", "translation_low", "translation_high",
            "noise_sigma", "occlusion_fraction", "viewpoint", "gamma1",
            "gamma2", "gamma3", "psn_trunk", "psn_exterior_width",
            "psn_out_width", "feat_widths", "feat_global_width",
            "decode_width", "head_hidden", "attention_source",
            "attention_for_match", "attention_for_direct", "ppf_supervision",
            "epochs", "lr", "lr_decay", "num_pairs", "seed"]

    def test_default_net_config_is_default_netconfig(self):
        assert fileio.Config().net_config() == NetConfig()


TINY_NET = ("psn_trunk=4,6\npsn_exterior_width=2\npsn_out_width=4\n"
            "feat_widths=4,6\nfeat_global_width=4\ndecode_width=4\n"
            "head_hidden=6\n")


def tiny_checkpoint(tmp_path, seed, n=5):
    """A valid checkpoint.v6 file of the tiny network, its parsed header and
    its payload bytes."""
    cfg = fileio.parse_config(TINY_NET)
    params = init_params(cfg.net_config(), n, np.random.default_rng(seed))
    path = tmp_path / "ckpt.json"
    fileio.write_checkpoint(path, params, cfg, n)
    line, payload = path.read_bytes().split(b"\n", 1)
    return path, json.loads(line), payload


def write_back(path, header, payload):
    """Write a checkpoint of the given header (any JSON value) and payload."""
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


def edit_config(header, line):
    """The header with the config line of ``line``'s key replaced by
    ``line``."""
    key = line.split("=", 1)[0]
    lines = [line if old.split("=", 1)[0] == key else old
             for old in header["config"].splitlines()]
    return {**header, "config": "\n".join(lines) + "\n"}


def write_old_checkpoint(path, header, payload, fmt, **config):
    """Write the checkpoint in the layout of ``fmt``, v1 to v5, whose config
    is a JSON object of typed values (plus ``config``).  v5 is v6 with that
    config; v1 to v4 are one JSON object, whose tensor entries hold their
    decimal values in v1 and the base64 of their bytes after that."""
    typed = {k: list(v) if isinstance(v, tuple) else v
             for k, v in vars(fileio.parse_config(header["config"])).items()}
    old = {"format": fmt, "n_points": header["n_points"],
           "config": typed | config}
    if fmt == "checkpoint.v5":
        write_back(path, old | {"tensors": header["tensors"]}, payload)
        return
    values = np.frombuffer(payload, "<f8")
    tensors, at = [], 0
    for name, shape in header["tensors"]:
        chunk = values[at:at + math.prod(shape)]
        at += chunk.size
        tensors.append({"name": name, "shape": shape} | (
            {"values": chunk.tolist()} if fmt == "checkpoint.v1"
            else {"data": base64.b64encode(chunk.tobytes()).decode()}))
    path.write_text(json.dumps(old | {"tensors": tensors}) + "\n")


SMALL_NET = ("psn_trunk=8,12\npsn_exterior_width=4\npsn_out_width=8\n"
             "feat_widths=8,12\nfeat_global_width=8\ndecode_width=8\n"
             "head_hidden=12\nn=10\n")


class TestCheckpoint:
    @pytest.mark.parametrize("text", [
        SMALL_NET,
        SMALL_NET + "shape_kind=cylinder\nshape_dims=0.03,0.1\n"
        "rotation=limited\nmax_angle=0.7\ntranslation_low=-0.2,-0.1,0.25\n"
        "viewpoint=0.5,0.0,-1.0\nnoise_sigma=0.0015\n"
        "attention_source=branch\nattention_for_match=false\n"
        "ppf_supervision=false\nlr=0.0013\nnum_pairs=7\nseed=44\n",
    ], ids=["small_net", "non_default_values"])
    def test_round_trip(self, tmp_path, text):
        cfg = fileio.parse_config(text)
        params = init_params(cfg.net_config(), 10, np.random.default_rng(7))
        path = tmp_path / "ckpt.json"
        fileio.write_checkpoint(path, params, cfg, 10)
        back, cfg2, n = fileio.read_checkpoint(path)
        assert n == 10 and cfg2 == cfg
        assert set(back) == set(params)
        for name in params:
            assert np.array_equal(back[name].values, params[name].values)
            # Adam updates parameters in place
            assert back[name].values.flags.writeable
            assert back[name].values.flags.owndata

    def test_shape_mismatch_rejected(self, tmp_path):
        path, header, payload = tiny_checkpoint(tmp_path, 8)
        name = header["tensors"][0][0]
        header["tensors"][0][1] = [1, 1]
        write_back(path, header, payload)
        with pytest.raises(SchemaViolation, match=re.escape(repr(name))):
            fileio.read_checkpoint(path)

    @pytest.mark.parametrize("edit_tensors, edit_payload, message", [
        (None, lambda payload: b"", "tensor {first} has 0 bytes"),
        (None, lambda payload: payload[:-8], "tensor {last} has"),
        (None, lambda payload: payload + bytes(8), "bytes after the last tensor"),
        (None, lambda payload: payload + b"\0", "bytes after the last tensor"),
        (lambda tensors: tensors[0].__setitem__(1, "4x1"), None,
         "tensor {first} has shape '4x1'"),
        (lambda tensors: tensors.__setitem__(0, ["not", "an", "object"]), None,
         "tensor entry 0 is not a [name, shape] pair"),
    ], ids=["missing_values", "short_values", "long_values", "trailing_byte",
            "string_shape", "non_dict_entry"])
    def test_malformed_tensor_entry_rejected(self, tmp_path, edit_tensors,
                                             edit_payload, message):
        path, header, payload = tiny_checkpoint(tmp_path, 10)
        names = [name for name, _ in header["tensors"]]
        if edit_tensors is not None:
            edit_tensors(header["tensors"])
        if edit_payload is not None:
            payload = edit_payload(payload)
        write_back(path, header, payload)
        message = message.format(first=repr(names[0]), last=repr(names[-1]))
        with pytest.raises(SchemaViolation,
                           match=f"ckpt.json: {re.escape(message)}"):
            fileio.read_checkpoint(path)

    @pytest.mark.parametrize("corrupt", [
        lambda obj: [obj],
        lambda obj: {**obj, "config": obj["config"].splitlines()},
        lambda obj: {**obj, "config": {"n": 5}},
        lambda obj: edit_config(obj, "psn_trunk=5"),
        lambda obj: edit_config(obj, "attention_source=bogus"),
        lambda obj: edit_config(obj, "num_pairs=x"),
        lambda obj: edit_config(obj, "attention_for_match=maybe"),
        lambda obj: edit_config(obj, "feat_widths="),
        lambda obj: edit_config(obj, "shape_kind=bogus"),
        lambda obj: edit_config(obj, "rotation=sideways"),
        lambda obj: edit_config(obj, "occlusion_fraction=2.0"),
        lambda obj: {**obj, "config": obj["config"] + "phi1=2\n"},
    ], ids=["top_level_array", "config_array", "config_object", "scalar_trunk",
            "bad_attention_source", "string_num_pairs", "string_flag",
            "no_feat_widths", "bad_shape_kind", "bad_rotation",
            "occlusion_fraction_above_one", "unknown_key"])
    def test_malformed_config_rejected(self, tmp_path, corrupt):
        path, header, payload = tiny_checkpoint(tmp_path, 12)
        write_back(path, corrupt(header), payload)
        with pytest.raises(SchemaViolation, match="ckpt.json"):
            fileio.read_checkpoint(path)

    def test_config_key_set_twice_rejected(self, tmp_path):
        path, header, payload = tiny_checkpoint(tmp_path, 12)
        lines = header["config"].splitlines()
        keys = [line.split("=", 1)[0] for line in lines]
        first = 1 + keys.index("num_pairs")
        text = header["config"] + "num_pairs=7\n"
        write_back(path, {**header, "config": text}, payload)
        with pytest.raises(SchemaViolation, match=re.escape(
                f"{path}: config, lines {first} and {len(lines) + 1} both "
                f"set num_pairs")):
            fileio.read_checkpoint(path)

    @pytest.mark.parametrize("element", [
        float("nan"), float("inf"), -float("inf"),
    ], ids=["nan", "inf", "-inf"])
    def test_non_number_value_rejected(self, tmp_path, element):
        path, header, payload = tiny_checkpoint(tmp_path, 11)
        (_, first_shape), (name, _) = header["tensors"][:2]
        at = 8 * math.prod(first_shape)   # the second tensor's first value
        payload = payload[:at] + struct.pack("<d", element) + payload[at + 8:]
        write_back(path, header, payload)
        with pytest.raises(SchemaViolation,
                           match=re.escape(f"{name!r} has a non-finite")):
            fileio.read_checkpoint(path)

    @pytest.mark.parametrize("corrupt", [
        lambda obj: obj.update(tensors=5),
        lambda obj: obj.update(tensors=None),
        lambda obj: obj.pop("tensors"),
        lambda obj: obj["tensors"].append(list(obj["tensors"][-1])),
        lambda obj: obj.update(n_points=True),
        lambda obj: obj["tensors"][0].__setitem__(0, ["corr_m.dec.b"]),
    ], ids=["tensors_int", "tensors_null", "no_tensors", "duplicate_tensor",
            "bool_n_points", "list_name"])
    def test_malformed_tensor_list_rejected(self, tmp_path, corrupt):
        path, header, payload = tiny_checkpoint(tmp_path, 13)
        corrupt(header)
        write_back(path, header, payload)
        with pytest.raises(SchemaViolation, match="ckpt.json"):
            fileio.read_checkpoint(path)

    @pytest.mark.parametrize("content", [b"", b'{"format": "checkpoint.v2"',
                                         b'{"format": "\xff\xfe"}',
                                         b"[" * 100_000],
                             ids=["empty", "truncated", "not_utf8",
                                  "deeply_nested"])
    def test_unreadable_json_rejected(self, tmp_path, content):
        path = tmp_path / "ckpt.json"
        path.write_bytes(content)
        with pytest.raises(SchemaViolation, match="ckpt.json"):
            fileio.read_checkpoint(path)

    def test_v1_checkpoint_rejected(self, tmp_path):
        path, header, payload = tiny_checkpoint(tmp_path, 14)
        write_old_checkpoint(path, header, payload, "checkpoint.v1")
        with pytest.raises(SchemaViolation, match="checkpoint.v1.*retrain"):
            fileio.read_checkpoint(path)

    def test_v2_checkpoint_rejected(self, tmp_path):
        path, header, payload = tiny_checkpoint(tmp_path, 14)
        write_old_checkpoint(path, header, payload, "checkpoint.v2",
                             scene_scalar_channel="support",
                             attention_input_gain=0.0)
        with pytest.raises(SchemaViolation, match="checkpoint.v2.*retrain"):
            fileio.read_checkpoint(path)

    def test_v3_checkpoint_rejected(self, tmp_path):
        path, header, payload = tiny_checkpoint(tmp_path, 14)
        write_old_checkpoint(path, header, payload, "checkpoint.v3",
                             phi1=1.0, phi2=1.0, phi3=1.0, phi4=0.01,
                             epsilon=0.1, beta1=0.9, beta2=0.999,
                             adam_eps=1e-8, shape_seed=0,
                             auc_max_threshold=0.1)
        with pytest.raises(SchemaViolation, match="checkpoint.v3.*retrain"):
            fileio.read_checkpoint(path)

    def test_v5_checkpoint_rejected(self, tmp_path):
        path, header, payload = tiny_checkpoint(tmp_path, 14)
        write_old_checkpoint(path, header, payload, "checkpoint.v5")
        with pytest.raises(SchemaViolation, match="checkpoint.v5.*retrain"):
            fileio.read_checkpoint(path)

    def test_v4_checkpoint_rejected(self, tmp_path):
        path, header, payload = tiny_checkpoint(tmp_path, 14)
        write_old_checkpoint(path, header, payload, "checkpoint.v4")
        with pytest.raises(SchemaViolation, match="checkpoint.v4.*retrain"):
            fileio.read_checkpoint(path)
        # a paper-scale v4 file is one line longer than a header may be
        path.write_bytes(b'{"format": "checkpoint.v4", "n_points": 1000, '
                         + b"x" * fileio._HEADER_LIMIT)
        with pytest.raises(SchemaViolation, match="checkpoint.v4.*retrain"):
            fileio.read_checkpoint(path)

    @pytest.mark.parametrize("n", [3, 17])
    def test_bytes_equal_header_line_and_tensor_bytes(self, tmp_path, n):
        cfg = fileio.parse_config(TINY_NET)
        params = init_params(cfg.net_config(), n, np.random.default_rng(n))
        path = tmp_path / "ckpt.json"
        fileio.write_checkpoint(path, params, cfg, n)
        fileio.write_config(tmp_path / "cfg.txt", cfg)
        tensors = sorted(params.items())
        header = {
            "format": "checkpoint.v6",
            "n_points": n,
            "config": (tmp_path / "cfg.txt").read_text(),
            "tensors": [[name, list(p.values.shape)] for name, p in tensors],
        }
        expected = (json.dumps(header) + "\n").encode() + b"".join(
            p.values.astype("<f8").tobytes() for _, p in tensors)
        assert path.read_bytes() == expected

    def test_random_round_trips(self, tmp_path):
        rng = np.random.default_rng(9)
        cfg = fileio.parse_config(TINY_NET)
        for i in range(100):
            n = int(rng.integers(2, 12))
            params = init_params(cfg.net_config(), n, rng)
            path = tmp_path / f"c{i}.json"
            fileio.write_checkpoint(path, params, cfg, n)
            back, _, _ = fileio.read_checkpoint(path)
            for name in params:
                assert np.array_equal(back[name].values, params[name].values)


def _header_fields(header, config_lines):
    """(container, key) of the fields of a checkpoint header, in four
    groups: the top-level keys, the lines of the config text, the tensor
    list items and the items of the [name, shape] pairs."""
    tensors = header["tensors"]
    return [[(header, k) for k in header],
            [(config_lines, i) for i in range(len(config_lines))],
            [(tensors, i) for i in range(len(tensors))],
            [(pair, i) for pair in tensors for i in range(len(pair))]]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)

FUZZ = settings(derandomize=True, deadline=None, max_examples=150,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestCheckpointReaderFuzz:
    """``read_checkpoint`` on a damaged small file returns or raises a
    PairposeError; nothing else escapes."""

    @staticmethod
    def read(path):
        try:
            fileio.read_checkpoint(path)
        except PairposeError:
            pass

    @FUZZ
    @given(data=st.data())
    def test_truncations_and_byte_substitutions(self, tmp_path, data):
        path, _, _ = tiny_checkpoint(tmp_path, 15, n=3)
        path.write_bytes(damaged(data, path.read_bytes()))
        self.read(path)

    @FUZZ
    @given(data=st.data())
    def test_field_deletions_and_type_changes(self, tmp_path, data):
        path, header, payload = tiny_checkpoint(tmp_path, 16, n=3)
        lines = header["config"].splitlines()
        group = data.draw(st.sampled_from(_header_fields(header, lines)))
        container, key = data.draw(st.sampled_from(group))
        if data.draw(st.booleans()):
            del container[key]
        else:
            container[key] = data.draw(
                CONFIG_LINES if container is lines else JSON_VALUES)
        if container is lines:
            header["config"] = "\n".join(lines)
        write_back(path, header, payload)
        self.read(path)


def damaged(data, content: bytes) -> bytes:
    """Up to four byte substitutions of content, then maybe a truncation."""
    content = bytearray(content)
    cut = data.draw(st.integers(0, len(content)))
    edits = data.draw(st.lists(st.tuples(st.integers(0, len(content) - 1),
                                         st.integers(0, 255)), max_size=4))
    for index, byte in edits:
        content[index] = byte
    return bytes(content[:cut] if data.draw(st.booleans()) else content)


def small_cloud(seed=0):
    return make_cloud(np.random.default_rng(seed), 3)


def write_small_corr(path):
    a, b = small_cloud(1), small_cloud(2)
    fileio.write_correspondences(path, CorrespondenceSet(
        a.positions, a.normals, b.positions, b.normals, "model_to_scene"))


# reader -> a writer of a valid small file for it
TEXT_READERS = {
    fileio.read_ply: lambda path: fileio.write_ply(path, small_cloud()),
    fileio.read_pose: lambda path: fileio.write_pose(
        path, random_pose(np.random.default_rng(3))),
    fileio.read_pose_set: lambda path: fileio.write_pose_set(
        path, five_pose_set()),
    fileio.read_matrix: lambda path: fileio.write_matrix(
        path, np.random.default_rng(4).standard_normal((2, 3))),
    fileio.read_correspondences: write_small_corr,
}

PLY_HEADER = ("ply\nformat ascii 1.0\nelement vertex 1\nproperty double x\n"
              "property double y\nproperty double z\nproperty double nx\n"
              "property double ny\nproperty double nz\nend_header\n")


class TestTextReadersNameTheFile:
    """Malformed input to each text reader raises a PairposeError whose
    message names the file."""

    @pytest.mark.parametrize("reader, text", [
        (fileio.read_pose, '{"format": '),
        (fileio.read_pose_set, "[{"),
        (fileio.read_correspondences, "corr.v1"),
        (fileio.read_correspondences, json.dumps({
            "format": "corr.v1", "direction": "model_to_scene",
            "source": [[True, 0, 0, 0, 0, 1]],
            "target": [[0, 0, 0, 0, 0, 1]]})),
        (fileio.read_pose_set, json.dumps([{"format": "pose.v1",
                                            "q": [1, 0, 0, 0], "t": [0, 0, 0],
                                            "provenance": "bogus"}])),
        (fileio.read_pose, json.dumps({"format": "pose.v1",
                                       "q": [1e200, 0, 0, 0], "t": [0, 0, 0]})),
        (fileio.read_correspondences, json.dumps({
            "format": "corr.v1", "direction": "model_to_scene",
            "source": [[10 ** 400, 0, 0, 0, 0, 1]],
            "target": [[0, 0, 0, 0, 0, 1]]})),
        (fileio.read_matrix, "1 2\n1.0 abc\n"),
        (fileio.read_matrix, "-1 -2\n1.0 2.0\n"),
        (fileio.read_ply, PLY_HEADER.replace("vertex 1", "vertex x")
         + "0 0 0 0 0 1\n"),
        (fileio.read_ply, PLY_HEADER + "0 0 abc 0 0 1\n"),
        (fileio.read_ply, PLY_HEADER + "0 0 0 0 0 2\n"),
        (fileio.read_ply, PLY_HEADER.replace("vertex 1", "vertex 0")),
        (fileio.read_ply, PLY_HEADER + "0 0 0\xe9 0 0 1\n"),
        (fileio.read_pose, "[" * 100_000),
        (fileio.read_pose, '{"format": "pose.v1\xe9"}'),
    ], ids=["pose_not_json", "pose_set_not_json", "corr_not_json",
            "corr_boolean_coordinate",
            "pose_set_unknown_tag", "pose_norm_overflows", "corr_int_overflow",
            "matrix_non_numeric", "matrix_negative_header",
            "ply_vertex_count_not_a_number", "ply_non_numeric_row",
            "ply_normal_not_unit", "ply_no_vertices", "ply_not_utf8",
            "pose_deeply_nested", "pose_not_utf8"])
    def test_malformed(self, tmp_path, reader, text):
        path = tmp_path / "bad_input"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(PairposeError, match="bad_input"):
            reader(path)


class TestTextReaderFuzz:
    """Each text reader on a damaged small valid file returns or raises a
    PairposeError; nothing else escapes."""

    @pytest.mark.parametrize("reader", list(TEXT_READERS),
                             ids=lambda reader: reader.__name__)
    @FUZZ
    @given(data=st.data())
    def test_truncations_and_byte_substitutions(self, tmp_path, reader, data):
        path = tmp_path / "input"
        TEXT_READERS[reader](path)
        path.write_bytes(damaged(data, path.read_bytes()))
        try:
            reader(path)
        except PairposeError:
            pass


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

    @pytest.mark.parametrize("content", [b"[]", b"null", b'"dataset.v1"',
                                         b'{"format": "\xff"}'],
                             ids=["array", "null", "string", "not_utf8"])
    def test_manifest_that_is_not_a_json_object_rejected(self, tmp_path,
                                                         content):
        (tmp_path / "manifest.json").write_bytes(content)
        with pytest.raises(SchemaViolation, match="manifest.json"):
            fileio.load_dataset(tmp_path)


    @pytest.mark.parametrize("section, edit", [
        ("shape", lambda o: o.pop("seed")),
        ("shape", lambda o: o.update(radius=0.1)),
        ("scene", lambda o: o.pop("noise_sigma")),
        ("scene", lambda o: o.update(seed=0)),
    ], ids=["shape_missing", "shape_extra", "scene_missing", "scene_extra"])
    def test_manifest_spec_keys_must_be_the_spec_fields(self, tmp_path,
                                                        section, edit):
        obj = json.loads(small_dataset_dir(tmp_path))
        edit(obj[section])
        (tmp_path / "manifest.json").write_text(json.dumps(obj))
        with pytest.raises(SchemaViolation, match="manifest.json.*needs the keys"):
            fileio.load_dataset(tmp_path)

    def test_manifest_specs_are_the_dataset_specs(self, tmp_path):
        obj = json.loads(small_dataset_dir(tmp_path))
        back = fileio.load_dataset(tmp_path)
        assert obj["shape"] == {"kind": "box_with_bump",
                                "dims": [0.08, 0.1, 0.12, 0.02], "n": 16,
                                "seed": 5}
        assert back.shape_spec == ShapeSpec("box_with_bump", n=16, seed=5)
        assert back.scene_spec == SceneSpec(
            rotation="limited", max_angle=0.5, viewpoint=(1.0, 1.0, 1.0),
            translation=((-0.05,) * 3, (0.05,) * 3))

    @pytest.mark.parametrize("edit, message", [
        (lambda o: o["shape"].update(n=99),
         "shape.n is 99 but model.ply has 16 points"),
        (lambda o: o.update(symmetric=True),
         "symmetric must be false for shape kind 'box_with_bump'"),
        (lambda o: o.update(symmetric=0),
         "symmetric must be false"),
    ], ids=["n_not_the_model_size", "symmetric_contradicts_kind",
            "symmetric_not_a_bool"])
    def test_manifest_must_agree_with_the_model_and_the_shape_kind(
            self, tmp_path, edit, message):
        obj = json.loads(small_dataset_dir(tmp_path))
        edit(obj)
        (tmp_path / "manifest.json").write_text(json.dumps(obj))
        with pytest.raises(SchemaViolation, match=f"manifest.json: {message}"):
            fileio.load_dataset(tmp_path)

    @pytest.mark.parametrize("key, value, message", [
        ("viewpoint", "abc", "viewpoint must be 3 finite numbers, got 'abc'"),
        ("max_angle", "x", "max_angle must be a finite number, got 'x'"),
        ("noise_sigma", math.nan, "noise_sigma must be a finite number"),
        ("occlusion_fraction", True, "occlusion_fraction must be a finite"),
    ])
    def test_manifest_scene_values_must_be_numbers(self, tmp_path, key, value,
                                                   message):
        obj = json.loads(small_dataset_dir(tmp_path))
        obj["scene"][key] = value
        (tmp_path / "manifest.json").write_text(json.dumps(obj))
        with pytest.raises(SchemaViolation, match=f"manifest.json: {message}"):
            fileio.load_dataset(tmp_path)


def small_dataset_dir(path):
    """A valid two-scene dataset directory of 16-point clouds and its
    manifest bytes."""
    ds = make_dataset(ShapeSpec("box_with_bump", n=16, seed=5), 2,
                      SceneSpec(rotation="limited", max_angle=0.5,
                                viewpoint=(1.0, 1.0, 1.0),
                                translation=((-0.05,) * 3, (0.05,) * 3)),
                      seed=6, train_fraction=0.5)
    fileio.save_dataset(path, ds, seed=6)
    return (path / "manifest.json").read_bytes()


def _nested_fields(obj):
    """(container, key) of every field of a parsed JSON value, at any depth."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    found = []
    for key, value in items:
        found.append((obj, key))
        if isinstance(value, (dict, list)):
            found.extend(_nested_fields(value))
    return found


FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf])


def _config_text(default):
    """Text for a config value: mostly of the default's type, with the
    non-finite floats drawn often, sometimes arbitrary."""
    if isinstance(default, bool):
        typed = st.sampled_from(["true", "false"])
    elif isinstance(default, int):
        typed = st.integers(-2, 300).map(str)
    elif isinstance(default, float):
        typed = FLOATS.map(repr)
    elif isinstance(default, tuple):
        element = (st.integers(-1, 64) if isinstance(default[0], int)
                   else st.floats(-1, 1) | FLOATS)
        typed = st.lists(element, max_size=5).map(
            lambda v: ",".join(map(repr, v)))
    else:
        typed = st.sampled_from([default, "psn", "branch", "full", "limited",
                                 "box", "sphere", "cylinder", ""])
    return typed | st.text(max_size=8)


# key=value lines of known keys; unknown keys and lines without '=' come from
# the byte damage of the config-file test
CONFIG_LINES = st.sampled_from(fields(fileio.Config)).flatmap(
    lambda f: _config_text(f.default).map(lambda v: f"{f.name}={v}"))


class TestConfigAndManifestFuzz:
    """``load_config`` on fuzzed key=value text and --set overrides, and
    ``load_dataset`` on a damaged manifest or scene PLY, return or raise a
    PairposeError; nothing else escapes."""

    @FUZZ
    @given(data=st.data())
    def test_config_file(self, tmp_path, data):
        path = tmp_path / "cfg.txt"
        text = "\n".join(data.draw(st.lists(CONFIG_LINES, min_size=1,
                                             max_size=6)))
        path.write_bytes(damaged(data, text.encode()))
        try:
            fileio.load_config(path)
        except PairposeError:
            pass

    @FUZZ
    @given(overrides=st.lists(CONFIG_LINES, max_size=4))
    def test_set_overrides(self, tmp_path, overrides):
        # a config that loads also survives write_config and a reload
        try:
            cfg = fileio.load_config(overrides=overrides)
        except PairposeError:
            return
        fileio.write_config(tmp_path / "cfg.txt", cfg)
        assert fileio.load_config(tmp_path / "cfg.txt") == cfg

    @FUZZ
    @given(data=st.data())
    def test_manifest_truncations_and_byte_substitutions(self, tmp_path, data):
        manifest = small_dataset_dir(tmp_path)
        (tmp_path / "manifest.json").write_bytes(damaged(data, manifest))
        try:
            fileio.load_dataset(tmp_path)
        except PairposeError:
            pass

    @FUZZ
    @given(data=st.data())
    def test_manifest_field_deletions_and_type_changes(self, tmp_path, data):
        obj = json.loads(small_dataset_dir(tmp_path))
        container, key = data.draw(st.sampled_from(_nested_fields(obj)))
        if data.draw(st.booleans()):
            del container[key]
        else:
            container[key] = data.draw(JSON_VALUES)
        (tmp_path / "manifest.json").write_text(json.dumps(obj))
        try:
            fileio.load_dataset(tmp_path)
        except PairposeError:
            pass

    @FUZZ
    @given(data=st.data())
    def test_scene_ply_truncations_and_byte_substitutions(self, tmp_path,
                                                          data):
        manifest = json.loads(small_dataset_dir(tmp_path))
        name = data.draw(st.sampled_from([entry["file"]
                                          for entry in manifest["scenes"]]))
        path = tmp_path / name
        path.write_bytes(damaged(data, path.read_bytes()))
        try:
            fileio.load_dataset(tmp_path)
        except PairposeError as exc:
            assert name in str(exc), str(exc)
