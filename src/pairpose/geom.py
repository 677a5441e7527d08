"""SE(3) primitives: unit quaternions, rigid poses, oriented point clouds.

Conventions used everywhere in this package:

* quaternions are stored as (w, x, y, z) with canonical sign w >= 0;
* a ``Pose`` maps model-frame coordinates into the scene frame,
  ``p_scene = R p_model + t``;
* normals transform with the rotation only;
* quaternion helpers take one quaternion (4,) or a batch (..., 4) of rows,
  and ``quat_normalize`` gives a row the same bits either way, so pose sets
  keep their candidates as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateNeighborhood, NonFiniteInput

UNIT_TOL = 1e-9

FRAMES = ("model", "scene", "canonical")


def _vec3(v) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64).reshape(3)
    if not np.all(np.isfinite(a)):
        raise NonFiniteInput(f"vector has non-finite components: {a}")
    return a


def normalize(v) -> np.ndarray:
    """Return v / |v|; raises on zero vectors."""
    a = _vec3(v)
    n = np.linalg.norm(a)
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return a / n


# ---------------------------------------------------------------------------
# quaternions (w, x, y, z)
# ---------------------------------------------------------------------------

def quat_normalize(q) -> np.ndarray:
    """Unit length and canonical sign (w >= 0) per row: (..., 4) -> same.

    When w is zero the first non-zero component is made positive.  Rows
    unit to 1e-12 are left untouched (idempotent round trips).  Each norm is
    one dot product, rounded like the 1-D ``np.linalg.norm``, so a row gets
    the same bits alone or in a batch."""
    a = np.asarray(q, dtype=np.float64)
    if a.shape[-1:] != (4,):
        raise ValueError(f"quaternions must be (..., 4), got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFiniteInput(f"quaternion has non-finite components: {a}")
    with np.errstate(over="ignore"):   # an overflow is rejected below
        n = np.sqrt(a[..., None, :] @ a[..., :, None])[..., 0]
    if not ((n > 0.0) & (n < np.inf)).all():
        raise ValueError("cannot normalize a quaternion of norm 0 or inf")
    a = a / np.where(np.abs(n - 1.0) > 1e-12, n, 1.0)
    # sign(a) . (8, 4, 2, 1) has the sign of the first non-zero component
    lead = np.sign(a) @ np.array([8.0, 4.0, 2.0, 1.0])
    return np.where((lead < 0.0)[..., None], -a, a)


def quat_multiply(a, b) -> np.ndarray:
    """Hamilton product a * b (composition: rotate by b, then by a) of two
    quaternions, or row by row of (K, 4) arrays: (4,) | (K, 4) -> same."""
    aw, ax, ay, az = np.asarray(a, dtype=np.float64).T
    bw, bx, by, bz = np.asarray(b, dtype=np.float64).T
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def quat_conjugate(q) -> np.ndarray:
    """Conjugate of a quaternion or of each row of a (K, 4) array."""
    return np.asarray(q, dtype=np.float64) * np.array([1.0, -1.0, -1.0, -1.0])


def quat_to_matrix(q) -> np.ndarray:
    """Rotation matrices of unit quaternions: (..., 4) -> (..., 3, 3)."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=np.float64), -1, 0)
    m = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
    return np.moveaxis(m, (0, 1), (-2, -1))


def quat_from_axis_angle(axis, angle: float) -> np.ndarray:
    ax = normalize(axis)
    half = 0.5 * float(angle)
    return quat_normalize(np.concatenate(([np.cos(half)], np.sin(half) * ax)))


def quat_from_matrix(R) -> np.ndarray:
    """Unit quaternion of a proper rotation matrix (Shepperd's method)."""
    R = np.asarray(R, dtype=np.float64)
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    if tr > 0.0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = [0.25 * s,
             (R[2, 1] - R[1, 2]) / s,
             (R[0, 2] - R[2, 0]) / s,
             (R[1, 0] - R[0, 1]) / s]
    elif R[0, 0] >= R[1, 1] and R[0, 0] >= R[2, 2]:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = [(R[2, 1] - R[1, 2]) / s, 0.25 * s,
             (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s]
    elif R[1, 1] >= R[2, 2]:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = [(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s,
             0.25 * s, (R[1, 2] + R[2, 1]) / s]
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = [(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s,
             (R[1, 2] + R[2, 1]) / s, 0.25 * s]
    return quat_normalize(q)


def random_quaternion(rng: np.random.Generator) -> np.ndarray:
    """Uniformly random rotation (normalized 4D gaussian)."""
    q = rng.standard_normal(4)
    while np.linalg.norm(q) < 1e-6:
        q = rng.standard_normal(4)
    return quat_normalize(q)


def rotation_geodesic_angle(a, b) -> float:
    """Geodesic angle in [0, pi] between two unit quaternions.

    Sign-invariant: q and -q denote the same rotation and give 0.  Computed
    from the relative quaternion with atan2 so tiny angles are not lost to
    arccos rounding near 1.
    """
    a = quat_normalize(a)
    b = quat_normalize(b)
    r = quat_multiply(a, quat_conjugate(b))
    return 2.0 * float(np.arctan2(np.linalg.norm(r[1:]), abs(r[0])))


# ---------------------------------------------------------------------------
# pairwise blocks and nearest points
# ---------------------------------------------------------------------------

# Pair entries (rows x columns) per block of the kernels that work over all
# pairs in row blocks (the pose-distance loss, the PPF target), so a block's
# (rows, cols, 3) temporaries take 0.4 MB: 16 rows at 1000 columns, and one
# block up to 128 x 128.
PAIR_BLOCK_ENTRIES = 1 << 14


def row_blocks(rows: int, cols: int) -> list:
    """Slices covering range(rows), each of about ``PAIR_BLOCK_ENTRIES``
    pair entries of a (rows, cols) array (at least one row)."""
    step = max(1, PAIR_BLOCK_ENTRIES // max(cols, 1))
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


# Query rows per GEMM chunk, so the 128 x K score block stays in cache.  With
# 10^6 queries against K = 1000 points on one BLAS thread of a Xeon VM, 512
# rows per chunk ran 1.5x and 8192 rows 3x slower than 128.
NEAREST_CHUNK_ROWS = 128


def nearest_point_indices(queries, points) -> np.ndarray:
    """Index of the point nearest to each query: (..., 3), (K, 3) -> (...).

    Minimizes |p_j|^2 - 2 q . p_j, which differs from |q - p_j|^2 by the
    constant |q|^2, as one augmented GEMM [q | 1] @ [-2 P^T ; |p|^2] per
    chunk of query rows.  Ties go to the lowest index, as with ``argmin``.
    Working memory is O(NEAREST_CHUNK_ROWS * K) beyond the output.
    """
    pts = np.asarray(points, dtype=np.float64)
    q = np.asarray(queries, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
        raise ValueError(f"points must be (K, 3) with K >= 1, got {pts.shape}")
    if q.shape[-1:] != (3,):
        raise ValueError(f"queries must be (..., 3), got {q.shape}")
    flat = q.reshape(-1, 3)
    weights = np.vstack([-2.0 * pts.T, np.einsum("ij,ij->i", pts, pts)])
    block = np.ones((min(NEAREST_CHUNK_ROWS, flat.shape[0]), 4))
    out = np.empty(flat.shape[0], dtype=np.intp)
    for lo in range(0, flat.shape[0], NEAREST_CHUNK_ROWS):
        rows = flat[lo:lo + NEAREST_CHUNK_ROWS]
        block[:len(rows), :3] = rows
        np.argmin(block[:len(rows)] @ weights, axis=1,
                  out=out[lo:lo + len(rows)])
    return out.reshape(q.shape[:-1])


# ---------------------------------------------------------------------------
# poses
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Pose:
    """Rigid transform: rotation (unit quaternion, wxyz) + translation (m)."""

    q: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", quat_normalize(np.reshape(self.q, 4)))
        object.__setattr__(self, "t", _vec3(self.t))
        self.q.flags.writeable = False
        self.t.flags.writeable = False

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))

    @staticmethod
    def from_axis_angle(axis, angle: float, t=(0.0, 0.0, 0.0)) -> "Pose":
        return Pose(quat_from_axis_angle(axis, angle), t)

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(self.q)

    def apply_points(self, points: np.ndarray) -> np.ndarray:
        """Map an (n, 3) array of positions: p -> R p + t."""
        return points @ self.rotation_matrix().T + self.t

    def apply_directions(self, dirs: np.ndarray) -> np.ndarray:
        """Map an (n, 3) array of directions: d -> R d (no translation)."""
        return dirs @ self.rotation_matrix().T

    def apply_point(self, p) -> np.ndarray:
        return self.rotation_matrix() @ _vec3(p) + self.t


def random_rotation(rng: np.random.Generator,
                    max_angle: float | None = None) -> np.ndarray:
    """Random unit quaternion: uniform over SO(3) when max_angle is None,
    else a uniform angle in [0, max_angle] about a random axis."""
    if max_angle is None:
        return random_quaternion(rng)
    axis = rng.standard_normal(3)
    while np.linalg.norm(axis) < 1e-6:
        axis = rng.standard_normal(3)
    return quat_from_axis_angle(axis, rng.uniform(0.0, max_angle))


def random_pose(rng: np.random.Generator, max_angle: float | None = None,
                trans_scale: float = 1.0) -> Pose:
    """Random pose; full SO(3) when max_angle is None, else angle <= max_angle."""
    q = random_rotation(rng, max_angle)
    t = rng.uniform(-trans_scale, trans_scale, size=3)
    return Pose(q, t)


def pose_compose(a: Pose, b: Pose) -> Pose:
    """a after b: (a∘b) p = a(b(p))."""
    q = quat_multiply(a.q, b.q)
    t = a.rotation_matrix() @ b.t + a.t
    return Pose(q, t)


def pose_invert(p: Pose) -> Pose:
    qi = quat_conjugate(p.q)
    Ri = quat_to_matrix(quat_normalize(qi))
    return Pose(qi, -(Ri @ p.t))


# ---------------------------------------------------------------------------
# oriented point clouds
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OrientedPointCloud:
    """N points with unit normals plus a frame tag.

    positions, normals : (N, 3) float arrays; normals unit length.
    frame : one of "model", "scene", "canonical".
    """

    positions: np.ndarray
    normals: np.ndarray
    frame: str = "scene"

    def __post_init__(self):
        pos = np.ascontiguousarray(np.asarray(self.positions, dtype=np.float64))
        nrm = np.ascontiguousarray(np.asarray(self.normals, dtype=np.float64))
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] == 0:
            raise ValueError(f"positions must be (N, 3) with N >= 1, got {pos.shape}")
        if nrm.shape != pos.shape:
            raise ValueError(f"normals shape {nrm.shape} != positions shape {pos.shape}")
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(nrm))):
            raise NonFiniteInput("cloud contains non-finite coordinates")
        lens = np.linalg.norm(nrm, axis=1)
        if np.any(np.abs(lens - 1.0) > UNIT_TOL):
            raise ValueError("cloud normals must be unit length")
        if self.frame not in FRAMES:
            raise ValueError(f"unknown frame tag {self.frame!r}")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "normals", nrm)
        pos.flags.writeable = False
        nrm.flags.writeable = False

    def __len__(self) -> int:
        return self.positions.shape[0]

    def with_frame(self, frame: str) -> "OrientedPointCloud":
        return replace(self, frame=frame)


def pose_apply(pose: Pose, cloud: OrientedPointCloud,
               frame: str | None = None) -> OrientedPointCloud:
    """Rigidly transform a cloud: positions get R p + t, normals get R n.

    Normals are re-unitized afterwards to absorb float drift.  ``frame``
    overrides the output frame tag; by default the input tag is kept.
    """
    pos = pose.apply_points(cloud.positions)
    nrm = pose.apply_directions(cloud.normals)
    nrm = nrm / np.linalg.norm(nrm, axis=1, keepdims=True)
    return OrientedPointCloud(pos, nrm, frame if frame is not None else cloud.frame)


def estimate_normals(positions, k: int, viewpoint) -> OrientedPointCloud:
    """Estimate normals from k-NN covariances, oriented toward a viewpoint.

    Each point's normal is the eigenvector of its neighborhood covariance
    with the smallest eigenvalue, flipped so n . (viewpoint - p) >= 0.
    k is capped at N-1 when the cloud is small.

    Raises DegenerateNeighborhood when a neighborhood is (near) collinear.
    """
    pos = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    if not np.all(np.isfinite(pos)):
        raise NonFiniteInput("positions contain non-finite values")
    if k < 3:
        raise ValueError("k must be >= 3")
    n = pos.shape[0]
    if n < 3:
        raise ValueError("need at least 3 points to estimate normals")
    vp = _vec3(viewpoint)
    k_eff = min(k, n - 1)

    d2 = np.sum((pos[:, None, :] - pos[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d2, np.inf)
    normals = np.empty_like(pos)
    for i in range(n):
        nn = np.argpartition(d2[i], k_eff - 1)[:k_eff]
        nbhd = np.vstack([pos[nn], pos[i]])
        centered = nbhd - nbhd.mean(axis=0)
        cov = centered.T @ centered
        evals, evecs = np.linalg.eigh(cov)  # ascending
        if evals[2] <= 0.0 or evals[1] <= 1e-9 * evals[2]:
            raise DegenerateNeighborhood(
                f"neighborhood of point {i} has covariance rank < 2")
        nrm = evecs[:, 0]
        if np.dot(nrm, vp - pos[i]) < 0.0:
            nrm = -nrm
        normals[i] = nrm / np.linalg.norm(nrm)
    return OrientedPointCloud(pos, normals, "scene")
