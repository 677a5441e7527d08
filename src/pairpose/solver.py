"""Pose recovery from correspondences and pose-set fusion.

Two solvers are provided: a weighted least-squares (Kabsch/SVD) alignment,
and the local-frame pair alignment that recovers a rigid transform from each
oriented point-pair correspondence by moving both reference points into a
canonical frame (origin, normal on the x-axis) and resolving the leftover
in-plane angle, in closed form over all sampled pairs at once.  The second
is the production path; the first is its independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllPairsDegenerate,
    DegenerateConfiguration,
    EmptySet,
    NonFiniteInput,
)
from .geom import (
    UNIT_TOL,
    Pose,
    quat_conjugate,
    quat_from_axis_angle,
    quat_from_matrix,
    quat_multiply,
    quat_normalize,
    quat_to_matrix,
)

IN_PLANE_RADIUS_TOL = 1e-9

_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])
_HALF_TURN_Z = quat_from_axis_angle([0.0, 0.0, 1.0], np.pi)

DIRECTIONS = ("scene_to_model", "model_to_scene")

PROVENANCES = ("direct", "scene-branch", "model-branch")


@dataclass(frozen=True, eq=False)
class CorrespondenceSet:
    """Per-point predicted matches: source points paired with targets in the
    opposite frame.  direction says which frame the targets live in."""

    source_positions: np.ndarray
    source_normals: np.ndarray
    target_positions: np.ndarray
    target_normals: np.ndarray
    direction: str

    def __post_init__(self):
        arrays = {}
        for name in ("source_positions", "source_normals",
                     "target_positions", "target_normals"):
            a = np.ascontiguousarray(np.asarray(getattr(self, name), np.float64))
            if a.ndim != 2 or a.shape[1] != 3:
                raise ValueError(f"{name} must be (N, 3), got {a.shape}")
            if not np.all(np.isfinite(a)):
                raise NonFiniteInput(f"{name} contains non-finite values")
            arrays[name] = a
        n = arrays["source_positions"].shape[0]
        if n < 1:
            raise ValueError("correspondence set needs at least one pair")
        if any(a.shape[0] != n for a in arrays.values()):
            raise ValueError("correspondence arrays disagree in length")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {self.direction!r}")
        for name, a in arrays.items():
            object.__setattr__(self, name, a)
            a.flags.writeable = False

    def __len__(self):
        return self.source_positions.shape[0]

    def model_scene_sides(self):
        """Return ((model_pos, model_nrm), (scene_pos, scene_nrm))."""
        if self.direction == "scene_to_model":
            return ((self.target_positions, self.target_normals),
                    (self.source_positions, self.source_normals))
        return ((self.source_positions, self.source_normals),
                (self.target_positions, self.target_normals))


@dataclass(frozen=True, eq=False)
class PoseSet:
    """K candidate poses as rows: unit quaternions ``quats`` (K, 4), wxyz with
    w >= 0, translations ``trans`` (K, 3) and a provenance tag per row
    (direct / scene-branch / model-branch); validated once, then frozen."""

    quats: np.ndarray
    trans: np.ndarray
    provenance: tuple

    def __post_init__(self):
        q = quat_normalize(np.asarray(self.quats, dtype=np.float64, order="C"))
        t = np.array(self.trans, dtype=np.float64, order="C")
        prov = tuple(self.provenance)
        if q.ndim != 2 or t.shape != (len(q), 3) or len(prov) != len(q):
            raise ValueError(f"lengths differ: quats {q.shape}, trans "
                             f"{t.shape}, {len(prov)} provenance tags")
        if any(p not in PROVENANCES for p in prov):
            raise ValueError(f"unknown provenance tag in {prov}")
        if not np.isfinite(t).all():
            raise NonFiniteInput("pose set translations are not finite")
        q.flags.writeable = t.flags.writeable = False
        for name, value in (("quats", q), ("trans", t), ("provenance", prov)):
            object.__setattr__(self, name, value)

    def __len__(self):
        return len(self.provenance)

    @staticmethod
    def union(*sets: "PoseSet") -> "PoseSet":
        return PoseSet(np.concatenate([s.quats for s in sets]),
                       np.concatenate([s.trans for s in sets]),
                       sum((s.provenance for s in sets), ()))


def kabsch_points(src: np.ndarray, tgt: np.ndarray,
                  weights: np.ndarray | None = None) -> Pose:
    """Least-squares rigid transform: argmin_T sum w |T(src) - tgt|^2.

    Needs >= 3 pairs whose centered sources span rank >= 2; the reflection
    case is resolved by a determinant sign correction so the rotation is
    always proper.
    """
    src = np.asarray(src, dtype=np.float64)
    tgt = np.asarray(tgt, dtype=np.float64)
    if src.shape != tgt.shape or src.ndim != 2 or src.shape[1] != 3:
        raise ValueError(f"src/tgt must be matching (N, 3), got {src.shape}, {tgt.shape}")
    n = src.shape[0]
    if n < 3:
        raise DegenerateConfiguration(f"need >= 3 pairs, got {n}")
    if weights is None:
        w = np.full(n, 1.0 / n)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (n,) or np.any(w < 0) or w.sum() <= 0:
            raise ValueError("weights must be non-negative with positive sum")
        w = w / w.sum()

    cs = w @ src
    ct = w @ tgt
    src_c = src - cs
    tgt_c = tgt - ct
    sv = np.linalg.svd(src_c * np.sqrt(w)[:, None], compute_uv=False)
    if sv[1] <= 1e-9 * max(sv[0], 1e-30):
        raise DegenerateConfiguration("centered source points span rank < 2")

    H = (src_c * w[:, None]).T @ tgt_c
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    R = Vt.T @ np.diag([1.0, 1.0, d]) @ U.T
    t = ct - R @ cs
    return Pose(quat_from_matrix(R), t)


def frame_quats(normals: np.ndarray) -> np.ndarray:
    """(K, 4) rotations taking each unit normal of a (K, 3) array onto +x.

    Each rotates about n x (+x) by the angle between them; a normal already
    on +x gets the identity and the antipodal normal (-x) a half turn about
    +z.  The local frame of a reference point p maps x to R (x - p).
    """
    axis = np.stack([np.zeros(len(normals)), normals[:, 2], -normals[:, 1]],
                    axis=1)
    s = np.linalg.norm(axis, axis=1)
    on_axis = s < 1e-12
    half = 0.5 * np.arctan2(s, normals[:, 0])
    q = np.concatenate([np.cos(half)[:, None], np.sin(half)[:, None] * axis
                        / np.where(on_axis, 1.0, s)[:, None]], axis=1)
    q[on_axis] = np.where(normals[on_axis, :1] > 0.0, _IDENTITY, _HALF_TURN_Z)
    return q


def align_pairs(model_pos, model_nrm, scene_pos, scene_nrm):
    """Poses (model -> scene) of K oriented point-pair correspondences.

    Each argument is (K, 2, 3): row k holds pair k's reference point and
    second point.  Both reference points are moved into their local frame
    (origin, normal on +x), the second points' in-plane angles about +x give
    the remaining rotation q_x(alpha), and the pose is
    R = conj(q_s) q_x(alpha) q_m with t = s_ref - R m_ref.

    Returns (quats (K, 4), translations (K, 3), valid (K,)).  A pair is not
    valid when a second point lies within IN_PLANE_RADIUS_TOL of its
    reference normal axis, where alpha is undefined.
    """
    q_m = frame_quats(model_nrm[:, 0])
    q_s = frame_quats(scene_nrm[:, 0])
    m2 = np.einsum("kij,kj->ki", quat_to_matrix(q_m),
                   model_pos[:, 1] - model_pos[:, 0])
    s2 = np.einsum("kij,kj->ki", quat_to_matrix(q_s),
                   scene_pos[:, 1] - scene_pos[:, 0])
    valid = ((np.hypot(m2[:, 1], m2[:, 2]) >= IN_PLANE_RADIUS_TOL)
             & (np.hypot(s2[:, 1], s2[:, 2]) >= IN_PLANE_RADIUS_TOL))
    half = 0.5 * (np.arctan2(s2[:, 2], s2[:, 1])
                  - np.arctan2(m2[:, 2], m2[:, 1]))
    zero = np.zeros_like(half)
    q_alpha = np.stack([np.cos(half), np.sin(half), zero, zero], axis=1)
    q = quat_multiply(quat_conjugate(q_s), quat_multiply(q_alpha, q_m))
    t = scene_pos[:, 0] - np.einsum("kij,kj->ki", quat_to_matrix(q),
                                    model_pos[:, 0])
    return q, t, valid


def poses_from_matches(c: CorrespondenceSet, num_pairs: int, seed: int) -> PoseSet:
    """Sample point pairs from a correspondence set and solve them all by
    local-frame alignment; degenerate pairs are dropped."""
    if len(c) < 2:
        raise ValueError("need at least 2 correspondences to form a pair")
    if num_pairs < 1:
        raise ValueError("num_pairs must be >= 1")
    (mp, mn), (sp, sn) = c.model_scene_sides()
    tag = "scene-branch" if c.direction == "scene_to_model" else "model-branch"
    # uniform ordered pairs of distinct indices: the second is the first
    # moved by a nonzero offset, modulo the set's size
    rng = np.random.default_rng(seed)
    first = rng.integers(len(c), size=num_pairs)
    second = (first + rng.integers(1, len(c), size=num_pairs)) % len(c)
    pairs = np.stack([first, second], axis=1)
    lengths = np.linalg.norm(np.stack([mn[pairs], sn[pairs]]), axis=-1)
    if np.any(np.abs(lengths - 1.0) > UNIT_TOL):
        raise ValueError("normals of sampled pairs must be unit length")
    q, t, valid = align_pairs(mp[pairs], mn[pairs], sp[pairs], sn[pairs])
    if not valid.any():
        raise AllPairsDegenerate(f"all {num_pairs} sampled pairs were degenerate")
    return PoseSet(q[valid], t[valid], (tag,) * int(valid.sum()))


def average_poses(s: PoseSet) -> Pose:
    """Fuse a pose set: mean translation + eigen (chordal L2) quaternion mean.

    The rotation mean maximizes sum (q . q_i)^2, i.e. the top eigenvector of
    Q^T Q = sum q_i q_i^T over the stacked quaternions Q, which is invariant
    to per-quaternion sign flips.
    """
    if len(s) == 0:
        raise EmptySet("cannot average an empty pose set")
    evals, evecs = np.linalg.eigh(s.quats.T @ s.quats)
    return Pose(evecs[:, np.argmax(evals)], np.mean(s.trans, axis=0))
