"""Deterministic synthetic data: parametric shapes, posed scenes, datasets.

Scenes are produced from a model cloud by sampling a ground-truth pose,
back-face culling against a viewpoint, removing one contiguous occluded
region, adding Gaussian position noise, and resampling back to the model's
point count (farthest-point sampling when too many survive, duplication
with jitter when too few).  Everything is seeded and reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import EverythingOccluded
from .geom import (
    OrientedPointCloud,
    Pose,
    pose_apply,
    random_rotation,
)

SHAPE_KINDS = ("box", "cylinder", "sphere", "box_with_bump")

# 180-degree flips (box) and revolution symmetry (sphere, cylinder) get the
# symmetric flag and are scored with ADD-S; the bump breaks every symmetry.
SYMMETRIC_KINDS = frozenset({"box", "cylinder", "sphere"})

DUPLICATE_JITTER_FRACTION = 0.1  # of the noise sigma


@dataclass(frozen=True)
class ShapeSpec:
    """Parametric model shape.

    dims: box (sx, sy, sz); cylinder (radius, height); sphere (radius,);
    box_with_bump (sx, sy, sz, bump_radius).
    """

    kind: str = "box_with_bump"
    dims: tuple = (0.08, 0.1, 0.12, 0.02)
    n: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SHAPE_KINDS:
            raise ValueError(f"unknown shape kind {self.kind!r}")
        if any(d <= 0 for d in self.dims):
            raise ValueError("shape dimensions must be positive")
        expected = {"box": 3, "cylinder": 2, "sphere": 1, "box_with_bump": 4}
        if len(self.dims) != expected[self.kind]:
            raise ValueError(f"{self.kind} needs {expected[self.kind]} dims, "
                             f"got {len(self.dims)}")
        if (self.kind == "box_with_bump"
                and self.dims[3] >= min(self.dims[1:3]) / 4):
            raise ValueError("bump radius too large for the +x face")
        if self.n < 4:
            raise ValueError("need at least 4 sample points")

    @property
    def symmetric(self) -> bool:
        return self.kind in SYMMETRIC_KINDS


@dataclass(frozen=True)
class SceneSpec:
    """Pose ranges, sensor noise, and occlusion for rendered scenes."""

    rotation: str = "full"          # "full" SO(3) or "limited"
    max_angle: float = np.pi        # cap for "limited" rotations (rad)
    translation: tuple = ((-0.1, -0.1, 0.3), (0.1, 0.1, 0.7))  # (low, high)
    noise_sigma: float = 0.0
    occlusion_fraction: float = 0.0
    viewpoint: tuple = (0.0, 0.0, 0.0)
    seed: int = 0

    def __post_init__(self):
        if self.rotation not in ("full", "limited"):
            raise ValueError(f"rotation must be 'full' or 'limited', "
                             f"got {self.rotation!r}")
        for name in ("max_angle", "noise_sigma", "occlusion_fraction"):
            if not _is_number(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got "
                                 f"{getattr(self, name)!r:.40}")
        if not 0.0 <= self.occlusion_fraction < 1.0:
            raise ValueError("occlusion_fraction must be in [0, 1)")
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be >= 0")
        if not (isinstance(self.translation, tuple)
                and len(self.translation) == 2
                and all(map(_is_3_vector, self.translation))
                and not any(h < l for l, h in zip(*self.translation))):
            raise ValueError("translation must be (low, high) 3-vectors")
        if not _is_3_vector(self.viewpoint):
            raise ValueError(f"viewpoint must be 3 finite numbers, got "
                             f"{self.viewpoint!r:.40}")


def _is_number(v) -> bool:
    """Whether v is a finite int or float (a bool is not a number here)."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def _is_3_vector(v) -> bool:
    """Whether v is a tuple of 3 finite numbers."""
    return isinstance(v, tuple) and len(v) == 3 and all(map(_is_number, v))


def _sample_box_surface(rng, sx, sy, sz, n):
    half = np.array([sx, sy, sz]) / 2.0
    areas = np.array([sy * sz, sy * sz, sx * sz, sx * sz, sx * sy, sx * sy])
    face_normals = np.array([
        [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1],
    ], dtype=np.float64)
    faces = rng.choice(6, size=n, p=areas / areas.sum())
    u = rng.uniform(-1.0, 1.0, size=(n, 3))
    pos = u * half
    for axis in range(3):
        plus = faces == 2 * axis
        minus = faces == 2 * axis + 1
        pos[plus, axis] = half[axis]
        pos[minus, axis] = -half[axis]
    return pos, face_normals[faces]


def gen_shape(spec: ShapeSpec) -> OrientedPointCloud:
    """Surface-sample a parametric shape with analytic normals (model frame)."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    if spec.kind == "sphere":
        (r,) = spec.dims
        d = rng.standard_normal((n, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        return OrientedPointCloud(r * d, d, "model")

    if spec.kind == "cylinder":
        r, h = spec.dims
        side_area = 2 * np.pi * r * h
        cap_area = np.pi * r * r
        total = side_area + 2 * cap_area
        part = rng.choice(3, size=n, p=[side_area / total, cap_area / total,
                                        cap_area / total])
        ang = rng.uniform(0.0, 2 * np.pi, n)
        pos = np.empty((n, 3))
        nrm = np.empty((n, 3))
        side = part == 0
        pos[side] = np.column_stack([r * np.cos(ang[side]), r * np.sin(ang[side]),
                                     rng.uniform(-h / 2, h / 2, side.sum())])
        nrm[side] = np.column_stack([np.cos(ang[side]), np.sin(ang[side]),
                                     np.zeros(side.sum())])
        for which, z, nz in ((part == 1, h / 2, 1.0), (part == 2, -h / 2, -1.0)):
            m = which.sum()
            rad = r * np.sqrt(rng.uniform(0.0, 1.0, m))
            pos[which] = np.column_stack([rad * np.cos(ang[which]),
                                          rad * np.sin(ang[which]),
                                          np.full(m, z)])
            nrm[which] = np.tile([0.0, 0.0, nz], (m, 1))
        return OrientedPointCloud(pos, nrm, "model")

    if spec.kind == "box":
        pos, nrm = _sample_box_surface(rng, *spec.dims, n)
        return OrientedPointCloud(pos, nrm, "model")

    # box_with_bump: hemisphere on the +x face, offset off every mirror
    # plane, so the shape has no symmetry at all.
    sx, sy, sz, rb = spec.dims
    center = np.array([sx / 2, sy / 4, sz / 8])
    box_area = 2 * (sy * sz + sx * sz + sx * sy) - np.pi * rb * rb
    bump_area = 2 * np.pi * rb * rb
    n_bump = max(1, round(n * bump_area / (box_area + bump_area)))
    n_box = n - n_bump

    pos_parts, nrm_parts = [], []
    needed = n_box
    while needed > 0:
        cand_p, cand_n = _sample_box_surface(rng, sx, sy, sz, max(needed * 2, 16))
        in_footprint = ((cand_p[:, 0] == sx / 2)
                        & ((cand_p[:, 1] - center[1]) ** 2
                           + (cand_p[:, 2] - center[2]) ** 2 < rb * rb))
        cand_p, cand_n = cand_p[~in_footprint], cand_n[~in_footprint]
        take = min(needed, cand_p.shape[0])
        pos_parts.append(cand_p[:take])
        nrm_parts.append(cand_n[:take])
        needed -= take
    d = rng.standard_normal((n_bump, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    d[:, 0] = np.abs(d[:, 0])  # outward half
    pos_parts.append(center + rb * d)
    nrm_parts.append(d)
    return OrientedPointCloud(np.vstack(pos_parts), np.vstack(nrm_parts), "model")


def farthest_point_indices(positions: np.ndarray, count: int,
                           start: int = 0) -> np.ndarray:
    """Indices of a farthest-point subsample of the requested size."""
    n = positions.shape[0]
    if count >= n:
        return np.arange(n)
    chosen = np.empty(count, dtype=np.intp)
    chosen[0] = start
    dist = np.linalg.norm(positions - positions[start], axis=1)
    for i in range(1, count):
        nxt = int(np.argmax(dist))
        chosen[i] = nxt
        dist = np.minimum(dist, np.linalg.norm(positions - positions[nxt], axis=1))
    return chosen


def render_scene(model: OrientedPointCloud, spec: SceneSpec):
    """Render one observed scene; returns (scene cloud, ground-truth pose).

    The pose maps model coordinates into the scene frame.
    """
    rng = np.random.default_rng(spec.seed)
    max_angle = None if spec.rotation == "full" else spec.max_angle
    q = random_rotation(rng, max_angle)   # drawn before the translation
    lo, hi = spec.translation
    gt = Pose(q, rng.uniform(np.asarray(lo, float), np.asarray(hi, float)))
    posed = pose_apply(gt, model, frame="scene")
    vp = np.asarray(spec.viewpoint, dtype=np.float64)

    facing = np.einsum("ij,ij->i", posed.normals, vp - posed.positions) > 0.0
    pos = posed.positions[facing]
    nrm = posed.normals[facing]

    if spec.occlusion_fraction > 0.0 and pos.shape[0] > 0:
        n_vis = pos.shape[0]
        n_remove = int(round(spec.occlusion_fraction * n_vis))
        if n_remove > 0:
            center = pos[rng.integers(n_vis)]
            order = np.argsort(np.linalg.norm(pos - center, axis=1))
            keep = np.ones(n_vis, dtype=bool)
            keep[order[:n_remove]] = False
            pos, nrm = pos[keep], nrm[keep]

    if pos.shape[0] < 4:
        raise EverythingOccluded(
            f"only {pos.shape[0]} points survive culling and occlusion")

    if spec.noise_sigma > 0.0:
        pos = pos + rng.normal(0.0, spec.noise_sigma, size=pos.shape)

    n_target = len(model)
    if pos.shape[0] > n_target:
        idx = farthest_point_indices(pos, n_target,
                                     start=int(rng.integers(pos.shape[0])))
        pos, nrm = pos[idx], nrm[idx]
    elif pos.shape[0] < n_target:
        extra = rng.integers(0, pos.shape[0], size=n_target - pos.shape[0])
        jitter = DUPLICATE_JITTER_FRACTION * spec.noise_sigma
        dup = pos[extra]
        if jitter > 0.0:
            dup = dup + rng.normal(0.0, jitter, size=dup.shape)
        pos = np.vstack([pos, dup])
        nrm = np.vstack([nrm, nrm[extra]])

    return OrientedPointCloud(pos, nrm, "scene"), gt


@dataclass(frozen=True, eq=False)
class SceneRecord:
    scene: OrientedPointCloud
    gt: Pose
    seed: int


@dataclass(frozen=True, eq=False)
class Dataset:
    """A model shape plus rendered scenes with a train/test index split."""

    model: OrientedPointCloud
    records: tuple
    train_indices: tuple
    test_indices: tuple
    shape_spec: ShapeSpec
    scene_spec: SceneSpec

    @property
    def symmetric(self) -> bool:
        return self.shape_spec.symmetric

    @property
    def train_records(self):
        return [self.records[i] for i in self.train_indices]

    @property
    def test_records(self):
        return [self.records[i] for i in self.test_indices]


def derive_scene_seed(base_seed: int, index: int) -> int:
    """Stable per-scene seed mixing (SeedSequence hash of (base, index))."""
    return int(np.random.SeedSequence((base_seed, index)).generate_state(1)[0])


def make_dataset(shape: ShapeSpec, scenes: int, scene_spec: SceneSpec,
                 seed: int = 0, train_fraction: float = 0.8) -> Dataset:
    if scenes < 1:
        raise ValueError("need at least one scene")
    if not 0.0 <= train_fraction <= 1.0:
        raise ValueError("train_fraction must be in [0, 1]")
    model = gen_shape(shape)
    records = []
    for i in range(scenes):
        s = derive_scene_seed(seed, i)
        scene, gt = render_scene(model, replace(scene_spec, seed=s))
        records.append(SceneRecord(scene, gt, s))
    n_train = int(round(train_fraction * scenes))
    return Dataset(
        model=model,
        records=tuple(records),
        train_indices=tuple(range(n_train)),
        test_indices=tuple(range(n_train, scenes)),
        shape_spec=shape,
        scene_spec=scene_spec,
    )
