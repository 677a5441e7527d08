"""Point-pair features and the attention supervision target.

A point pair (a, n_a), (b, n_b) is scored by three pose-invariant terms:
the Euclidean distance d = |a - b|, the angle between the two normals,
and the mean of the two angles each normal makes with the offset vector
d_ab = a - b.  The aggregated weight 1 / (1 + g1*d + g2*theta_d + g3*theta)
peaks at 1 exactly when the pair coincides with aligned normals, which is
what makes the full N x N weight matrix usable as an attention target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeMismatch
from .geom import (OrientedPointCloud, Pose, pose_apply, pose_invert,
                   row_blocks)

COINCIDENT_TOL = 1e-12

# Dot products this close to +1 are treated as exactly aligned.  arccos
# turns ~1e-16 of float drift into ~1e-8 of angle, which would otherwise
# leak into the perfect-match weight of noiselessly posed clouds.
ALIGNED_DOT_TOL = 1e-14


def _acos(dot):
    c = np.clip(dot, -1.0, 1.0)
    return np.where(c >= 1.0 - ALIGNED_DOT_TOL, 0.0, np.arccos(c))


@dataclass(frozen=True)
class PpfGammas:
    """Aggregation weights: gamma1 (1/m), gamma2 and gamma3 (1/rad)."""

    gamma1: float = 100.0
    gamma2: float = 50.0
    gamma3: float = 50.0

    def __post_init__(self):
        g = (self.gamma1, self.gamma2, self.gamma3)
        if any(x < 0 for x in g):
            raise ValueError(f"gammas must be non-negative, got {g}")
        if all(x == 0 for x in g):
            raise ValueError("at least one gamma must be positive")


@dataclass(frozen=True, eq=False)
class PpfWeightMatrix:
    """N x N weights; rows = canonical-frame scene points, cols = model points."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {w.shape}")
        if np.any(w <= 0.0) or np.any(w > 1.0):
            raise ValueError("weights must lie in (0, 1]")
        object.__setattr__(self, "weights", w)
        w.flags.writeable = False

    @property
    def shape(self):
        return self.weights.shape


def ppf_distance(a, b) -> float:
    """Euclidean distance |a - b|."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.linalg.norm(a - b))


def ppf_normal_angle(na, nb) -> float:
    """Angle in [0, pi] between two unit normals."""
    return float(_acos(float(np.dot(na, nb))))


def ppf_cross_angle(na, nb, d) -> float:
    """Mean of the two angles each normal makes with the offset vector d.

    Returns 0 for coincident points (|d| below COINCIDENT_TOL) so a perfect
    match keeps weight 1.
    """
    d = np.asarray(d, dtype=np.float64)
    n = np.linalg.norm(d)
    if n < COINCIDENT_TOL:
        return 0.0
    dn = d / n
    a1 = _acos(float(np.dot(na, dn)))
    a2 = _acos(float(np.dot(nb, dn)))
    return float(0.5 * (a1 + a2))


def ppf_weight(d: float, theta_d: float, theta: float, gammas: PpfGammas) -> float:
    """Aggregate the three feature terms into a weight in (0, 1]."""
    return 1.0 / (1.0 + gammas.gamma1 * d + gammas.gamma2 * theta_d
                  + gammas.gamma3 * theta)


def attention_target(scene: OrientedPointCloud, model: OrientedPointCloud,
                     gt: Pose, gammas: PpfGammas = PpfGammas()) -> PpfWeightMatrix:
    """Ground-truth N x N attention weights for a posed scene.

    Scene points are first brought into the canonical (model) frame with
    the inverse of ``gt`` (which maps model -> scene); entry (i, j) is then
    the aggregated pair weight between canonical scene point i and model
    point j, with the offset vector taken as scene_i - model_j.

    Working memory is the N x N output plus O(``geom.PAIR_BLOCK_ENTRIES``).
    The normal dot products sn @ mn^T are one GEMM into the output buffer
    (a GEMM per block could round differently); each row block of scene
    points then turns its rows into weights in place, so the (N, N, 3)
    offsets and the other N x N terms exist one block at a time.
    """
    if len(scene) != len(model):
        raise SizeMismatch(f"scene has {len(scene)} points, model {len(model)}")
    canonical = pose_apply(pose_invert(gt), scene, frame="canonical")
    sp, sn = canonical.positions, canonical.normals
    mp, mn = model.positions, model.normals

    w = sn @ mn.T                          # the normal dots, then the weights
    for rows in row_blocks(len(sp), len(mp)):
        diff = sp[rows, None, :] - mp[None, :, :]   # (B, N, 3), scene - model
        dist = np.linalg.norm(diff, axis=2)
        theta = _acos(w[rows])

        safe = np.maximum(dist, COINCIDENT_TOL)[:, :, None]
        dhat = diff / safe
        ang_s = _acos(np.einsum("ik,ijk->ij", sn[rows], dhat))
        ang_m = _acos(np.einsum("jk,ijk->ij", mn, dhat))
        theta_d = np.where(dist < COINCIDENT_TOL, 0.0, 0.5 * (ang_s + ang_m))

        w[rows] = 1.0 / (1.0 + gammas.gamma1 * dist + gammas.gamma2 * theta_d
                         + gammas.gamma3 * theta)
    return PpfWeightMatrix(w)
