"""File formats and configuration.

Everything is ASCII and written through ``repr`` for floats, so a write/read
round trip is bit-exact and output files diff cleanly across runs.  Formats:

* PLY (ascii 1.0, double x y z nx ny nz) for oriented clouds;
* pose.v1 JSON {"format", "q": [w,x,y,z], "t": [x,y,z]}, pose sets as JSON
  arrays of the same plus "provenance";
* matrix.v1: "rows cols" header line, then one whitespace row per line;
* checkpoint.v1 JSON: flat config + named tensors, shapes validated on load;
* corr.v1 JSON: correspondence sets (source/target positions + normals);
* dataset.v1: a directory of scene PLYs plus a manifest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from .errors import (
    MalformedHeader,
    MissingNormals,
    NonFiniteInput,
    SchemaViolation,
)
from .geom import OrientedPointCloud, Pose, estimate_normals
from .net import NetConfig, expected_param_shapes
from .solver import CorrespondenceSet, PoseSet
from .synth import Dataset, SceneRecord, SceneSpec, ShapeSpec


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# PLY
# ---------------------------------------------------------------------------

def write_ply(path, cloud: OrientedPointCloud):
    lines = [
        "ply",
        "format ascii 1.0",
        f"comment frame {cloud.frame}",
        f"element vertex {len(cloud)}",
        "property double x",
        "property double y",
        "property double z",
        "property double nx",
        "property double ny",
        "property double nz",
        "end_header",
    ]
    for p, n in zip(cloud.positions, cloud.normals):
        lines.append(" ".join(_fmt(v) for v in (*p, *n)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_ply(path, viewpoint=None, k_neighbors: int = 12) -> OrientedPointCloud:
    """Read an ASCII PLY with x y z nx ny nz.

    Files without normal properties raise MissingNormals unless a viewpoint
    is given, in which case normals are estimated from k-NN covariances.
    """
    with open(path) as fh:
        first = fh.readline().strip()
        if first != "ply":
            raise MalformedHeader(f"{path}: not a PLY file")
        n_vertex = None
        props = []
        frame = "scene"
        saw_format = False
        for line in fh:
            line = line.strip()
            if line.startswith("format"):
                if line.split()[1] != "ascii":
                    raise MalformedHeader(f"{path}: only ASCII PLY is supported")
                saw_format = True
            elif line.startswith("comment frame "):
                frame = line.split()[-1]
            elif line.startswith("element vertex"):
                n_vertex = int(line.split()[-1])
            elif line.startswith("element"):
                raise MalformedHeader(f"{path}: unsupported element {line!r}")
            elif line.startswith("property"):
                parts = line.split()
                if len(parts) != 3 or parts[1] not in ("float", "double",
                                                       "float32", "float64"):
                    raise MalformedHeader(f"{path}: bad property line {line!r}")
                props.append(parts[2])
            elif line == "end_header":
                break
        else:
            raise MalformedHeader(f"{path}: missing end_header")
        if not saw_format or n_vertex is None:
            raise MalformedHeader(f"{path}: incomplete header")
        if props[:3] != ["x", "y", "z"]:
            raise MalformedHeader(f"{path}: first properties must be x y z")
        rows = []
        for _ in range(n_vertex):
            line = fh.readline()
            if not line:
                raise MalformedHeader(f"{path}: fewer rows than declared")
            rows.append([float(v) for v in line.split()])
    data = np.asarray(rows, dtype=np.float64)
    if data.shape != (n_vertex, len(props)):
        raise MalformedHeader(f"{path}: row width does not match properties")
    if not np.all(np.isfinite(data)):
        raise NonFiniteInput(f"{path}: non-finite coordinate")
    positions = data[:, :3]
    if {"nx", "ny", "nz"}.issubset(props):
        idx = [props.index(a) for a in ("nx", "ny", "nz")]
        normals = data[:, idx]
        if frame not in ("model", "scene", "canonical"):
            frame = "scene"
        return OrientedPointCloud(positions, normals, frame)
    if viewpoint is None:
        raise MissingNormals(f"{path}: no nx/ny/nz properties "
                             "(pass a viewpoint to estimate normals)")
    return estimate_normals(positions, k_neighbors, viewpoint)


# ---------------------------------------------------------------------------
# pose JSON
# ---------------------------------------------------------------------------

def pose_to_obj(pose: Pose, provenance: str | None = None) -> dict:
    obj = {"format": "pose.v1", "q": [float(v) for v in pose.q],
           "t": [float(v) for v in pose.t]}
    if provenance is not None:
        obj["provenance"] = provenance
    return obj


def pose_from_obj(obj) -> Pose:
    if not isinstance(obj, dict) or obj.get("format") != "pose.v1":
        raise SchemaViolation(f"expected pose.v1 object, got {obj!r:.80}")
    q, t = obj.get("q"), obj.get("t")
    if not (isinstance(q, list) and len(q) == 4 and isinstance(t, list)
            and len(t) == 3):
        raise SchemaViolation("pose.v1 needs q[4] and t[3]")
    return Pose(np.array(q, dtype=np.float64), np.array(t, dtype=np.float64))


def write_pose(path, pose: Pose):
    with open(path, "w") as fh:
        json.dump(pose_to_obj(pose), fh, indent=2)
        fh.write("\n")


def read_pose(path) -> Pose:
    with open(path) as fh:
        return pose_from_obj(json.load(fh))


def write_pose_set(path, pose_set: PoseSet):
    arr = [pose_to_obj(p, prov)
           for p, prov in zip(pose_set.poses, pose_set.provenance)]
    with open(path, "w") as fh:
        json.dump(arr, fh, indent=2)
        fh.write("\n")


def read_pose_set(path) -> PoseSet:
    with open(path) as fh:
        arr = json.load(fh)
    if not isinstance(arr, list):
        raise SchemaViolation("pose set file must be a JSON array")
    poses = tuple(pose_from_obj(o) for o in arr)
    prov = tuple(o.get("provenance", "direct") for o in arr)
    return PoseSet(poses, prov)


# ---------------------------------------------------------------------------
# dense matrices
# ---------------------------------------------------------------------------

def write_matrix(path, matrix: np.ndarray):
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise SchemaViolation(f"matrix must be 2-D, got shape {m.shape}")
    with open(path, "w") as fh:
        fh.write(f"{m.shape[0]} {m.shape[1]}\n")
        for row in m:
            fh.write(" ".join(_fmt(v) for v in row) + "\n")


def read_matrix(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise SchemaViolation(f"{path}: matrix header must be 'rows cols'")
        try:
            rows, cols = int(header[0]), int(header[1])
        except ValueError:
            raise SchemaViolation(f"{path}: non-integer matrix header")
        values = fh.read().split()
    if len(values) != rows * cols:
        raise SchemaViolation(f"{path}: expected {rows * cols} values, "
                              f"got {len(values)}")
    return np.array(values, dtype=np.float64).reshape(rows, cols)


# ---------------------------------------------------------------------------
# correspondence sets
# ---------------------------------------------------------------------------

def write_correspondences(path, c: CorrespondenceSet):
    obj = {
        "format": "corr.v1",
        "direction": c.direction,
        "source": np.hstack([c.source_positions, c.source_normals]).tolist(),
        "target": np.hstack([c.target_positions, c.target_normals]).tolist(),
    }
    with open(path, "w") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def read_correspondences(path) -> CorrespondenceSet:
    with open(path) as fh:
        obj = json.load(fh)
    if obj.get("format") != "corr.v1":
        raise SchemaViolation(f"{path}: expected corr.v1")
    try:
        src = np.asarray(obj["source"], dtype=np.float64)
        tgt = np.asarray(obj["target"], dtype=np.float64)
        if src.ndim != 2 or src.shape[1] != 6 or src.shape != tgt.shape:
            raise SchemaViolation(f"{path}: source/target must be (N, 6)")
        return CorrespondenceSet(src[:, :3], src[:, 3:], tgt[:, :3], tgt[:, 3:],
                                 obj["direction"])
    except (KeyError, ValueError) as exc:
        raise SchemaViolation(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _DataConfig:
    """The synthetic-dataset keys of ``Config``.  ``shape_spec()`` and
    ``scene_spec()`` map them by hand: their flat names (``shape_kind``,
    ``translation_low``, ...) differ from the ShapeSpec/SceneSpec fields."""

    n: int = 1000
    shape_kind: str = "box_with_bump"
    shape_dims: tuple = (0.08, 0.1, 0.12, 0.02)
    shape_seed: int = 0
    scenes: int = 96
    train_fraction: float = 0.8
    rotation: str = "full"
    max_angle: float = 3.141592653589793
    translation_low: tuple = (-0.1, -0.1, 0.3)
    translation_high: tuple = (0.1, 0.1, 0.7)
    noise_sigma: float = 0.002
    occlusion_fraction: float = 0.0
    viewpoint: tuple = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Config(NetConfig, _DataConfig):
    """Every tunable, flat; defaults are the published hyperparameters
    (N = 1000, gammas 100/50/50, phi 1:1:1:0.01, 50 epochs).

    The keys are the data keys, then every ``NetConfig`` field, then the two
    below: ``_DataConfig`` comes after ``NetConfig`` in the bases because
    dataclasses collect fields from the last base first.  This order is the
    order of the keys in a checkpoint's config and in ``write_config``.
    Constructing a Config validates it (``NetConfig.__post_init__``)."""

    auc_max_threshold: float = 0.1
    seed: int = 0

    def net_config(self) -> NetConfig:
        return NetConfig(**{f.name: getattr(self, f.name)
                            for f in fields(NetConfig)})

    def shape_spec(self) -> ShapeSpec:
        return ShapeSpec(self.shape_kind, tuple(self.shape_dims), self.n,
                         self.shape_seed)

    def scene_spec(self) -> SceneSpec:
        return SceneSpec(
            rotation=self.rotation, max_angle=self.max_angle,
            translation=(tuple(self.translation_low),
                         tuple(self.translation_high)),
            noise_sigma=self.noise_sigma,
            occlusion_fraction=self.occlusion_fraction,
            viewpoint=tuple(self.viewpoint), seed=self.seed)


def _parse_value(raw: str, default):
    raw = raw.strip()
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise SchemaViolation(f"expected a boolean, got {raw!r}")
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    if isinstance(default, tuple):
        if not raw:
            return ()
        element = default[0] if default else 0.0
        return tuple(int(v) if isinstance(element, int) else float(v)
                     for v in raw.split(","))
    return raw


def parse_config(text: str, base: Config | None = None) -> Config:
    """Parse flat key=value lines; '#' starts a comment, unknown keys fail."""
    cfg = base if base is not None else Config()
    known = {f.name: getattr(cfg, f.name) for f in fields(Config)}
    updates = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SchemaViolation(f"line {lineno}: expected key=value, "
                                  f"got {line!r}")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in known:
            raise SchemaViolation(f"line {lineno}: unknown config key {key!r}")
        try:
            updates[key] = _parse_value(raw, known[key])
        except ValueError as exc:
            raise SchemaViolation(f"line {lineno}: bad value for {key}: {exc}")
    try:
        return replace(cfg, **updates)
    except ValueError as exc:
        raise SchemaViolation(f"invalid configuration: {exc}")


def load_config(path=None, overrides=()) -> Config:
    """Config from an optional file plus 'key=value' override strings; the
    result is validated by constructing it and its data specs."""
    cfg = Config()
    if path is not None:
        with open(path) as fh:
            cfg = parse_config(fh.read(), cfg)
    if overrides:
        cfg = parse_config("\n".join(overrides), cfg)
    try:
        cfg.shape_spec()
        cfg.scene_spec()
    except ValueError as exc:
        raise SchemaViolation(f"invalid configuration: {exc}")
    return cfg


def write_config(path, cfg: Config):
    lines = []
    for f in fields(Config):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            s = ",".join(_fmt(x) if isinstance(x, float) else str(x) for x in v)
        elif isinstance(v, bool):
            s = "true" if v else "false"
        elif isinstance(v, float):
            s = _fmt(v)
        else:
            s = str(v)
        lines.append(f"{f.name}={s}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _config_to_obj(cfg: Config) -> dict:
    obj = {}
    for f in fields(Config):
        v = getattr(cfg, f.name)
        obj[f.name] = list(v) if isinstance(v, tuple) else v
    return obj


def _has_default_type(v, default) -> bool:
    """Whether a stored config value has the type of its key's default (an
    int also passes for a float; a bool passes only for a bool)."""
    if isinstance(default, tuple):
        return isinstance(v, tuple) and all(_has_default_type(x, default[0])
                                            for x in v)
    if isinstance(default, float) and not isinstance(v, bool):
        return isinstance(v, (int, float))
    return type(v) is type(default)


def _config_from_obj(obj, path) -> Config:
    if not isinstance(obj, dict):
        raise SchemaViolation(f"{path}: config must be a JSON object")
    defaults = {f.name: f.default for f in fields(Config)}
    kwargs = {}
    for key, v in obj.items():
        if key not in defaults:
            raise SchemaViolation(f"{path}: unknown config key {key!r}")
        v = tuple(v) if isinstance(v, list) else v
        if not _has_default_type(v, defaults[key]):
            raise SchemaViolation(f"{path}: config key {key!r} has the wrong "
                                  f"type: {v!r:.40}")
        kwargs[key] = v
    try:
        return Config(**kwargs)
    except ValueError as exc:
        raise SchemaViolation(f"{path}: invalid configuration: {exc}")


def write_checkpoint(path, params: dict, cfg: Config, n_points: int):
    """Write checkpoint.v1, byte for byte what ``json.dump`` of the whole
    object would write.  The header and then each tensor entry go through
    ``json.dumps`` (the C encoder; ``json.dump`` runs the pure-Python one),
    one tensor at a time so only one tensor's values list exists at once."""
    header = json.dumps({
        "format": "checkpoint.v1",
        "n_points": n_points,
        "config": _config_to_obj(cfg),
    })
    with open(path, "w") as fh:
        fh.write(header[:-1] + ', "tensors": [')
        for i, (name, p) in enumerate(sorted(params.items())):
            if i:
                fh.write(", ")
            fh.write(json.dumps({"name": name, "shape": list(p.values.shape),
                                 "values": p.values.reshape(-1).tolist()}))
        fh.write("]}\n")


def _tensor_values_hook(obj):
    """``object_hook`` for checkpoint JSON: a ``values`` list that holds only
    numbers becomes a 1-D float64 array as soon as its object is parsed, so
    the float objects of the whole file never exist at once.  Any other
    ``values`` stays a list, for ``read_checkpoint`` to reject."""
    values = obj.get("values")
    if isinstance(values, list):
        try:
            array = np.array(values)
        except ValueError:      # nested lists of differing lengths
            return obj
        if array.ndim == 1 and array.dtype.kind in "fi":
            obj["values"] = array.astype(np.float64, copy=False)
    return obj


def _read_text(path) -> str:
    """The whole file, read in 1 MB pieces: the pieces fit into heap memory
    freed earlier, where one whole-file read needs two fresh blocks of the
    file's size at once (its bytes and their decoded string)."""
    with open(path) as fh:
        return "".join(iter(lambda: fh.read(1 << 20), ""))


def read_checkpoint(path):
    """Load (params, config, n_points); tensor names and shapes must match
    what the stored config implies, and every value must be a number."""
    obj = json.loads(_read_text(path), object_hook=_tensor_values_hook)
    if not isinstance(obj, dict) or obj.get("format") != "checkpoint.v1":
        raise SchemaViolation(f"{path}: expected checkpoint.v1")
    cfg = _config_from_obj(obj.get("config", {}), path)
    n_points = obj.get("n_points")
    if not isinstance(n_points, int) or n_points < 1:
        raise SchemaViolation(f"{path}: bad n_points")
    expected = expected_param_shapes(cfg.net_config(), n_points)
    params = {}
    for i, entry in enumerate(obj.get("tensors", [])):
        if not isinstance(entry, dict):
            raise SchemaViolation(f"{path}: tensor entry {i} is not an object")
        name = entry.get("name")
        if name not in expected:
            raise SchemaViolation(f"{path}: unexpected tensor {name!r}")
        shape = entry.get("shape")
        if not isinstance(shape, list) or tuple(shape) != expected[name]:
            raise SchemaViolation(
                f"{path}: tensor {name!r} has shape {shape}, config implies "
                f"{expected[name]}")
        size = int(np.prod(expected[name]))
        values = entry.get("values")
        if isinstance(values, list):
            raise SchemaViolation(
                f"{path}: tensor {name!r} values must all be numbers")
        if not isinstance(values, np.ndarray) or values.size != size:
            raise SchemaViolation(
                f"{path}: tensor {name!r} needs a list of {size} values")
        params[name] = ad.Tensor(values.reshape(expected[name]),
                                 requires_grad=True)
    missing = set(expected) - set(params)
    if missing:
        raise SchemaViolation(f"{path}: missing tensors {sorted(missing)}")
    return params, cfg, n_points


# ---------------------------------------------------------------------------
# CSV reports
# ---------------------------------------------------------------------------

LOSS_CSV_HEADER = "epoch,L_d,L_s,L_m,L_attention,total"

METRICS_CSV_HEADER = "object,add_auc,adds_auc,acc_0p1d,acc_2cm,n"


def write_loss_csv(path, log):
    lines = [LOSS_CSV_HEADER]
    for row in log:
        lines.append(",".join([str(row["epoch"])] + [
            _fmt(row[k]) for k in ("L_d", "L_s", "L_m", "L_attention", "total")]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def metrics_csv_row(object_name, records, auc_max_threshold=0.1) -> str:
    from .metrics import accuracy, auc, threshold_absolute, threshold_relative

    add_auc = auc(records, auc_max_threshold, error_fn=lambda r: r.add_error)
    adds_auc = auc(records, auc_max_threshold, error_fn=lambda r: r.adds_error)
    acc_rel = accuracy(records, threshold_relative(0.1))
    acc_2cm = accuracy(records, threshold_absolute(0.02))
    return ",".join([object_name, _fmt(add_auc), _fmt(adds_auc),
                     _fmt(acc_rel), _fmt(acc_2cm), str(len(records))])


def write_metrics_csv(path, rows):
    with open(path, "w") as fh:
        fh.write("\n".join([METRICS_CSV_HEADER] + list(rows)) + "\n")


# ---------------------------------------------------------------------------
# dataset directories
# ---------------------------------------------------------------------------

def save_dataset(out_dir, dataset: Dataset, seed: int):
    """Write model.ply, scenes/*.ply, and manifest.json under out_dir."""
    import os

    os.makedirs(os.path.join(out_dir, "scenes"), exist_ok=True)
    write_ply(os.path.join(out_dir, "model.ply"), dataset.model)
    entries = []
    for i, rec in enumerate(dataset.records):
        rel = f"scenes/scene_{i:04d}.ply"
        write_ply(os.path.join(out_dir, rel), rec.scene)
        entries.append({
            "file": rel,
            "pose": pose_to_obj(rec.gt),
            "scene_seed": rec.seed,
            "split": "train" if i in dataset.train_indices else "test",
        })
    manifest = {
        "format": "dataset.v1",
        "name": dataset.shape_spec.kind,
        "symmetric": dataset.symmetric,
        "seed": seed,
        "shape": {"kind": dataset.shape_spec.kind,
                  "dims": list(dataset.shape_spec.dims),
                  "n": dataset.shape_spec.n,
                  "seed": dataset.shape_spec.seed},
        "scene": {"rotation": dataset.scene_spec.rotation,
                  "max_angle": dataset.scene_spec.max_angle,
                  "translation": [list(dataset.scene_spec.translation[0]),
                                  list(dataset.scene_spec.translation[1])],
                  "noise_sigma": dataset.scene_spec.noise_sigma,
                  "occlusion_fraction": dataset.scene_spec.occlusion_fraction,
                  "viewpoint": list(dataset.scene_spec.viewpoint)},
        "scenes": entries,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def load_dataset(in_dir) -> Dataset:
    import os

    path = os.path.join(in_dir, "manifest.json")
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaViolation(f"{path}: {exc}")
    if manifest.get("format") != "dataset.v1":
        raise SchemaViolation(f"{path}: expected dataset.v1")
    try:
        shape = ShapeSpec(manifest["shape"]["kind"],
                          tuple(manifest["shape"]["dims"]),
                          manifest["shape"]["n"], manifest["shape"]["seed"])
        sc = manifest["scene"]
        scene_spec = SceneSpec(
            rotation=sc["rotation"], max_angle=sc["max_angle"],
            translation=(tuple(sc["translation"][0]),
                         tuple(sc["translation"][1])),
            noise_sigma=sc["noise_sigma"],
            occlusion_fraction=sc["occlusion_fraction"],
            viewpoint=tuple(sc["viewpoint"]))
        model = read_ply(os.path.join(in_dir, "model.ply"))
        records, train_idx, test_idx = [], [], []
        for i, entry in enumerate(manifest["scenes"]):
            scene = read_ply(os.path.join(in_dir, entry["file"]))
            records.append(SceneRecord(scene, pose_from_obj(entry["pose"]),
                                       entry["scene_seed"]))
            (train_idx if entry["split"] == "train" else test_idx).append(i)
        return Dataset(model=model.with_frame("model"), records=tuple(records),
                       train_indices=tuple(train_idx),
                       test_indices=tuple(test_idx),
                       symmetric=bool(manifest["symmetric"]),
                       shape_spec=shape, scene_spec=scene_spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaViolation(f"{path}: {exc}")
