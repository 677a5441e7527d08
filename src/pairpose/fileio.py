"""File formats and configuration.

Text formats are ASCII and write floats through ``repr``, so a write/read
round trip is bit-exact and output files diff cleanly across runs.  The
checkpoint is the one binary format: its tensors are raw float64 bytes,
which is also bit-exact.  Formats:

* PLY (ascii 1.0, double x y z nx ny nz) for oriented clouds;
* pose.v1 JSON {"format", "q": [w,x,y,z], "t": [x,y,z]}, pose sets as JSON
  arrays of the same plus "provenance";
* matrix.v1: "rows cols" header line, then one whitespace row per line;
* checkpoint.v6: one JSON header line (format, point count, the config's
  key=value text and each tensor's [name, shape]), then each tensor's
  C-order little-endian float64 bytes; shapes are validated on load, and
  checkpoints v1 to v5 are rejected;
* corr.v1 JSON: correspondence sets (source/target positions + normals);
* dataset.v1: a directory of scene PLYs plus a manifest.

A ``Config`` (flat key=value lines) validates itself when it is constructed,
so a config file, ``--set``, ``replace`` and a checkpoint's config are all
checked the same way.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from .errors import (
    MalformedHeader,
    MissingNormals,
    NonFiniteInput,
    SchemaViolation,
)
from .geom import FRAMES, OrientedPointCloud, Pose, estimate_normals
from .net import NetConfig, expected_param_shapes
from .solver import CorrespondenceSet, PoseSet
from .synth import Dataset, SceneRecord, SceneSpec, ShapeSpec


def _fmt(x: float) -> str:
    return repr(float(x))


def _text_file(path) -> io.StringIO:
    """The file's text as a file object; bytes that are not UTF-8 are a
    SchemaViolation naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return io.StringIO(fh.read())
    except UnicodeDecodeError as exc:
        raise SchemaViolation(f"{path}: not a UTF-8 text file: {exc}")


def _load_json(path):
    """The parsed JSON file; unparseable input is a SchemaViolation naming
    the file."""
    try:
        return json.load(_text_file(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaViolation(f"{path}: not a JSON file: {exc}")


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
    with _text_file(path) as fh:
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
                if line.split()[1:2] != ["ascii"]:
                    raise MalformedHeader(f"{path}: only ASCII PLY is supported")
                saw_format = True
            elif line.startswith("comment frame "):
                frame = line.split()[-1]
            elif line.startswith("element vertex"):
                try:
                    n_vertex = int(line.split()[-1])
                except ValueError:
                    n_vertex = -1
                if n_vertex < 0:
                    raise MalformedHeader(f"{path}: bad vertex count in {line!r}")
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
        for i in range(n_vertex):
            line = fh.readline()
            if not line:
                raise MalformedHeader(f"{path}: fewer rows than declared")
            try:
                rows.append([float(v) for v in line.split()])
            except ValueError:
                raise MalformedHeader(f"{path}: non-numeric value in row {i}")
            if len(rows[-1]) != len(props):
                raise MalformedHeader(f"{path}: row width does not match "
                                      f"properties")
    data = np.array(rows, dtype=np.float64).reshape(n_vertex, len(props))
    if not np.all(np.isfinite(data)):
        raise NonFiniteInput(f"{path}: non-finite coordinate")
    positions = data[:, :3]
    try:
        if {"nx", "ny", "nz"}.issubset(props):
            idx = [props.index(a) for a in ("nx", "ny", "nz")]
            normals = data[:, idx]
            if frame not in FRAMES:
                frame = "scene"
            return OrientedPointCloud(positions, normals, frame)
        if viewpoint is None:
            raise MissingNormals(f"{path}: no nx/ny/nz properties "
                                 "(pass a viewpoint to estimate normals)")
        return estimate_normals(positions, k_neighbors, viewpoint)
    except ValueError as exc:   # no points, or normals that are not unit
        raise SchemaViolation(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# pose JSON
# ---------------------------------------------------------------------------

def pose_to_obj(q, t, provenance: str | None = None) -> dict:
    """The pose.v1 object of rotation q (4,) and translation t (3,)."""
    obj = {"format": "pose.v1", "q": [float(v) for v in q],
           "t": [float(v) for v in t]}
    if provenance is not None:
        obj["provenance"] = provenance
    return obj


def pose_from_obj(obj, where) -> Pose:
    """A pose.v1 object as a Pose; ``where`` names it in error messages."""
    if not isinstance(obj, dict) or obj.get("format") != "pose.v1":
        raise SchemaViolation(f"{where}: expected pose.v1 object, "
                              f"got {obj!r:.80}")
    q, t = obj.get("q"), obj.get("t")
    if not (isinstance(q, list) and len(q) == 4 and isinstance(t, list)
            and len(t) == 3 and all(type(v) in (int, float) for v in q + t)):
        raise SchemaViolation(f"{where}: pose.v1 needs q[4] and t[3] numbers")
    try:
        return Pose(np.array(q, dtype=np.float64), np.array(t, dtype=np.float64))
    except (NonFiniteInput, OverflowError, ValueError) as exc:
        raise SchemaViolation(f"{where}: pose.v1 {exc}")


def write_pose(path, pose: Pose):
    with open(path, "w") as fh:
        json.dump(pose_to_obj(pose.q, pose.t), fh, indent=2)
        fh.write("\n")


def read_pose(path) -> Pose:
    return pose_from_obj(_load_json(path), path)


def write_pose_set(path, pose_set: PoseSet):
    arr = [pose_to_obj(q, t, prov) for q, t, prov in
           zip(pose_set.quats, pose_set.trans, pose_set.provenance)]
    with open(path, "w") as fh:
        json.dump(arr, fh, indent=2)
        fh.write("\n")


def read_pose_set(path) -> PoseSet:
    arr = _load_json(path)
    if not isinstance(arr, list):
        raise SchemaViolation(f"{path}: pose set file must be a JSON array")
    poses = [pose_from_obj(o, f"{path}: pose {i}") for i, o in enumerate(arr)]
    try:
        return PoseSet(np.array([p.q for p in poses]).reshape(-1, 4),
                       np.array([p.t for p in poses]).reshape(-1, 3),
                       [o.get("provenance", "direct") for o in arr])
    except ValueError as exc:
        raise SchemaViolation(f"{path}: {exc}")


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
    with _text_file(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise SchemaViolation(f"{path}: matrix header must be 'rows cols'")
        try:
            rows, cols = int(header[0]), int(header[1])
        except ValueError:
            raise SchemaViolation(f"{path}: non-integer matrix header")
        values = fh.read().split()
    if rows < 0 or cols < 0:
        raise SchemaViolation(f"{path}: negative matrix size {rows} x {cols}")
    if len(values) != rows * cols:
        raise SchemaViolation(f"{path}: expected {rows * cols} values, "
                              f"got {len(values)}")
    try:
        return np.array(values, dtype=np.float64).reshape(rows, cols)
    except ValueError as exc:
        raise SchemaViolation(f"{path}: non-numeric matrix value: {exc}")


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
    obj = _load_json(path)
    if not isinstance(obj, dict) or obj.get("format") != "corr.v1":
        raise SchemaViolation(f"{path}: expected corr.v1")
    for side in ("source", "target"):
        rows = obj.get(side)
        if not (isinstance(rows, list) and all(
                isinstance(row, list) and all(type(v) in (int, float) for v in row)
                for row in rows)):
            raise SchemaViolation(f"{path}: {side} must be rows of numbers")
    try:
        src = np.asarray(obj["source"], dtype=np.float64)
        tgt = np.asarray(obj["target"], dtype=np.float64)
        if src.ndim != 2 or src.shape[1] != 6 or src.shape != tgt.shape:
            raise SchemaViolation(f"{path}: source/target must be (N, 6)")
        return CorrespondenceSet(src[:, :3], src[:, 3:], tgt[:, :3], tgt[:, 3:],
                                 obj["direction"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
    (N = 1000, gammas 100/50/50, 50 epochs).

    The keys are the data keys, then every ``NetConfig`` field, then
    ``seed``: ``_DataConfig`` comes after ``NetConfig`` in the bases because
    dataclasses collect fields from the last base first.  This order is the
    order of the lines of ``config_text``, in a config file and in a
    checkpoint.
    Constructing a Config validates it: ``NetConfig.__post_init__``, every
    float finite, then the ShapeSpec and SceneSpec it describes."""

    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        for f in fields(self):
            v = getattr(self, f.name)
            if any(isinstance(x, float) and not math.isfinite(x)
                   for x in (v if isinstance(v, tuple) else (v,))):
                raise ValueError(f"{f.name} must be finite, got {v!r}")
        self.shape_spec()
        self.scene_spec()

    def net_config(self) -> NetConfig:
        return NetConfig(**{f.name: getattr(self, f.name)
                            for f in fields(NetConfig)})

    def shape_spec(self) -> ShapeSpec:
        return ShapeSpec(self.shape_kind, tuple(self.shape_dims), self.n)

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
        raise ValueError(f"expected a boolean, got {raw!r}")
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


def parse_config(text: str, base: Config | None = None,
                 source: str = "config") -> Config:
    """Parse flat key=value lines; '#' starts a comment, and an unknown key
    or a key set twice fails.  ``source`` names the text (a file path, or
    ``--set``) in error messages; a later source may override ``base``."""
    cfg = base if base is not None else Config()
    known = {f.name: getattr(cfg, f.name) for f in fields(Config)}
    updates, set_on = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        where = f"{source}, line {lineno}"
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SchemaViolation(f"{where}: expected key=value, got {line!r}")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in known:
            raise SchemaViolation(f"{where}: unknown config key {key!r}")
        if key in set_on:
            raise SchemaViolation(f"{source}, lines {set_on[key]} and "
                                  f"{lineno} both set {key}")
        set_on[key] = lineno
        try:
            updates[key] = _parse_value(raw, known[key])
        except ValueError as exc:
            raise SchemaViolation(f"{where}: bad value for {key}: {exc}")
    try:
        return replace(cfg, **updates)
    except ValueError as exc:
        raise SchemaViolation(f"{source}: invalid configuration: {exc}")


def load_config(path=None, overrides=()) -> Config:
    """Config from an optional file plus 'key=value' override strings, one
    per ``--set``."""
    cfg = Config()
    if path is not None:
        with _text_file(path) as fh:
            cfg = parse_config(fh.read(), cfg, source=str(path))
    if overrides:
        cfg = parse_config("\n".join(overrides), cfg, source="--set")
    return cfg


def config_text(cfg: Config) -> str:
    """The config as key=value lines, one per key in field order, that
    ``parse_config`` reads back to an equal Config."""
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
    return "\n".join(lines) + "\n"


def write_config(path, cfg: Config):
    with open(path, "w") as fh:
        fh.write(config_text(cfg))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

# each starts '{"format": "checkpoint.vN"': v1 to v4 are one JSON object,
# v5 is a header line whose config is a JSON object of typed values
_OLD_CHECKPOINTS = ("checkpoint.v1", "checkpoint.v2", "checkpoint.v3",
                    "checkpoint.v4", "checkpoint.v5")
# bytes a header line may take: a paper-scale header takes 2.3 KB, and a
# v4 file is one line of the whole file's size
_HEADER_LIMIT = 1 << 20


def write_checkpoint(path, params: dict, cfg: Config, n_points: int):
    """Write checkpoint.v6: one line of ``json.dumps`` holding the format,
    ``n_points``, the config as the string ``config_text`` makes and the
    ``[name, shape]`` of each tensor in sorted-name order, then each
    tensor's C-order little-endian float64 bytes in the same order."""
    tensors = sorted(params.items())
    header = json.dumps({
        "format": "checkpoint.v6",
        "n_points": n_points,
        "config": config_text(cfg),
        "tensors": [[name, list(p.values.shape)] for name, p in tensors],
    })
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        for _, p in tensors:
            fh.write(np.ascontiguousarray(p.values, dtype="<f8"))


def _read_header(fh, path) -> dict:
    """The parsed header line of checkpoint.v6; the older formats are
    recognized from their first bytes and rejected."""
    line = fh.readline(_HEADER_LIMIT)
    for fmt in _OLD_CHECKPOINTS:
        if line.startswith(f'{{"format": "{fmt}"'.encode()):
            raise SchemaViolation(f"{path}: {fmt} is no longer read; "
                                  f"retrain the model to write checkpoint.v6")
    if not line.endswith(b"\n"):
        raise SchemaViolation(f"{path}: expected checkpoint.v6, which starts "
                              f"with a JSON header line")
    try:
        header = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:   # bad JSON or UTF-8
        raise SchemaViolation(f"{path}: not a checkpoint header: {exc}")
    if not isinstance(header, dict) or header.get("format") != "checkpoint.v6":
        raise SchemaViolation(f"{path}: expected checkpoint.v6")
    return header


def read_checkpoint(path):
    """Load (params, config, n_points) from checkpoint.v6; the config text
    is read as a config file is, tensor names and shapes must match what it
    implies, and the tensors' bytes must fill the rest of the file
    exactly."""
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        text = header.get("config")
        if not isinstance(text, str):
            raise SchemaViolation(f"{path}: config must be a string of "
                                  f"key=value lines")
        cfg = parse_config(text, source=f"{path}: config")
        n_points = header.get("n_points")
        if type(n_points) is not int or n_points < 1:
            raise SchemaViolation(f"{path}: bad n_points")
        expected = expected_param_shapes(cfg.net_config(), n_points)
        tensors = header.get("tensors")
        if not isinstance(tensors, list):
            raise SchemaViolation(f"{path}: tensors must be a JSON array")
        names = []
        for i, entry in enumerate(tensors):
            if not (isinstance(entry, list) and len(entry) == 2):
                raise SchemaViolation(f"{path}: tensor entry {i} is not a "
                                      f"[name, shape] pair")
            name, shape = entry
            if not isinstance(name, str) or name not in expected:
                raise SchemaViolation(f"{path}: unexpected tensor {name!r:.60}")
            if name in names:
                raise SchemaViolation(f"{path}: duplicate tensor {name!r}")
            if not (isinstance(shape, list) and all(type(d) is int for d in shape)
                    and tuple(shape) == expected[name]):
                raise SchemaViolation(
                    f"{path}: tensor {name!r} has shape {shape!r:.60}, config "
                    f"implies {expected[name]}")
            names.append(name)
        missing = set(expected) - set(names)
        if missing:
            raise SchemaViolation(f"{path}: missing tensors {sorted(missing)}")
        params = {}
        for name in names:
            values = np.empty(expected[name], dtype="<f8")
            got = fh.readinto(values)
            if got != values.nbytes:
                raise SchemaViolation(f"{path}: tensor {name!r} has {got} bytes "
                                      f"of data, its shape needs "
                                      f"{values.nbytes}")
            if not np.all(np.isfinite(values)):
                raise SchemaViolation(f"{path}: tensor {name!r} has a "
                                      f"non-finite value")
            # native byte order; no copy on a little-endian machine
            params[name] = ad.Tensor(values.astype(np.float64, copy=False),
                                     requires_grad=True)
        if fh.read(1):
            raise SchemaViolation(f"{path}: bytes after the last tensor")
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


def metric_columns(report) -> list:
    """The add_auc, adds_auc, acc_0p1d and acc_2cm columns of a metrics row,
    formatted from a ``metrics.MetricsReport``."""
    return [_fmt(v) for v in (report.add_auc, report.adds_auc,
                              report.accuracy_at_0p1d, report.accuracy_at_2cm)]


def metrics_csv_row(object_name, report) -> str:
    return ",".join([object_name, *metric_columns(report), str(report.count)])


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
            "pose": pose_to_obj(rec.gt.q, rec.gt.t),
            "scene_seed": rec.seed,
            "split": "train" if i in dataset.train_indices else "test",
        })
    manifest = {
        "format": "dataset.v1",
        "name": dataset.shape_spec.kind,
        "symmetric": dataset.symmetric,
        "seed": seed,
        "shape": asdict(dataset.shape_spec),
        "scene": {k: v for k, v in asdict(dataset.scene_spec).items()
                  if k != "seed"},
        "scenes": entries,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _tuples(v):
    # JSON lists as (nested) tuples, the form the spec dataclasses hold
    return tuple(_tuples(x) for x in v) if isinstance(v, list) else v


def _spec_from_obj(cls, obj, path, skip=None):
    """A ShapeSpec or SceneSpec from its manifest object, which must hold
    exactly the spec's fields other than ``skip``."""
    names = [f.name for f in fields(cls) if f.name != skip]
    if not isinstance(obj, dict) or set(obj) != set(names):
        raise SchemaViolation(f"{path}: {cls.__name__} needs the keys "
                              f"{names}, got {obj!r:.80}")
    return cls(**{k: _tuples(v) for k, v in obj.items()})


def load_dataset(in_dir) -> Dataset:
    import os

    path = os.path.join(in_dir, "manifest.json")
    try:
        manifest = _load_json(path)
    except OSError as exc:
        raise SchemaViolation(f"{path}: {exc}")
    if not isinstance(manifest, dict) or manifest.get("format") != "dataset.v1":
        raise SchemaViolation(f"{path}: expected a dataset.v1 JSON object")
    try:
        shape = _spec_from_obj(ShapeSpec, manifest["shape"], path)
        scene_spec = _spec_from_obj(SceneSpec, manifest["scene"], path,
                                    skip="seed")
        model = read_ply(os.path.join(in_dir, "model.ply"))
        if len(model) != shape.n:
            raise SchemaViolation(f"{path}: shape.n is {shape.n} but model.ply "
                                  f"has {len(model)} points")
        # the flag picks the ADD or ADD-S loss and metric
        if manifest["symmetric"] is not shape.symmetric:
            raise SchemaViolation(f"{path}: symmetric must be "
                                  f"{str(shape.symmetric).lower()} for shape "
                                  f"kind {shape.kind!r}, got "
                                  f"{manifest['symmetric']!r:.40}")
        records, train_idx, test_idx = [], [], []
        for i, entry in enumerate(manifest["scenes"]):
            scene = read_ply(os.path.join(in_dir, entry["file"]))
            records.append(SceneRecord(
                scene, pose_from_obj(entry["pose"], f"{path}: scene {i}"),
                entry["scene_seed"]))
            (train_idx if entry["split"] == "train" else test_idx).append(i)
        return Dataset(model=model.with_frame("model"), records=tuple(records),
                       train_indices=tuple(train_idx),
                       test_indices=tuple(test_idx),
                       shape_spec=shape, scene_spec=scene_spec)
    except (LookupError, TypeError, ValueError, OSError) as exc:
        raise SchemaViolation(f"{path}: {exc}")
