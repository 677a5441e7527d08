"""Pose-error metrics: ADD, ADD-S, threshold accuracy, and AUC.

ADD is the mean displacement of model points between the predicted and
ground-truth poses; ADD-S replaces each displacement with the distance to
the nearest transformed model point, which forgives symmetry.  Accuracy
counts errors strictly below a threshold; AUC integrates the accuracy-vs-
threshold step curve exactly on [0, cap] and normalizes to [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import EmptyRecords, TooFewPoints
from .geom import OrientedPointCloud, Pose, nearest_point_indices

DEFAULT_AUC_MAX_THRESHOLD = 0.10  # meters
# candidate margin of ``model_diameter``, in units of eps * max |c|^2
DIAMETER_MARGIN = 256.0


@dataclass(frozen=True)
class EvalRecord:
    """Per-scene evaluation result."""

    scene_id: str
    add_error: float
    adds_error: float
    diameter: float
    symmetric: bool = False

    def __post_init__(self):
        if self.add_error < 0 or self.adds_error < 0:
            raise ValueError("errors must be non-negative")
        if self.diameter <= 0:
            raise ValueError("diameter must be positive")

    @property
    def error(self) -> float:
        """ADD-S for symmetric objects, ADD otherwise."""
        return self.adds_error if self.symmetric else self.add_error


@dataclass(frozen=True)
class MetricsReport:
    """The evaluation summary of a set of records (see ``summarize``); the
    metrics JSON, the metrics CSV and the ablation rows all read it."""

    add_auc: float
    adds_auc: float
    auc: float
    accuracy_at_0p1d: float
    accuracy_at_2cm: float
    count: int

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name != "count" and not 0.0 <= v <= 1.0:
                raise ValueError(f"{f.name} must be in [0, 1], got {v}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")


def model_diameter(model: OrientedPointCloud) -> float:
    """Maximum pairwise distance, exactly the largest
    ``sqrt(np.sum((p_i - p_j) ** 2))`` over all pairs.

    The Gram form |c_i|^2 + |c_j|^2 - 2 c_i.c_j on the centred cloud c
    screens the pairs in one (N, N) array.  It differs from the squared
    distance computed directly by at most about 24 eps max|c|^2 (rounding
    of the centring, the products and the sums), so the pairs within
    ``DIAMETER_MARGIN`` eps max|c|^2 of its maximum include the farthest
    pair; only those are measured directly on the original points.
    """
    if len(model) < 2:
        raise TooFewPoints("diameter needs at least 2 points")
    p = model.positions
    c = p - p.mean(axis=0)
    sq = np.sum(c * c, axis=1)
    gram = c @ c.T
    gram *= -2.0
    gram += sq[:, None]
    gram += sq[None, :]
    margin = DIAMETER_MARGIN * np.finfo(np.float64).eps * sq.max()
    i, j = np.nonzero(gram >= gram.max() - margin)
    return float(np.sqrt(np.sum((p[i] - p[j]) ** 2, axis=1).max()))


def add_metric(pred: Pose, gt: Pose, model: OrientedPointCloud) -> float:
    a = pred.apply_points(model.positions)
    b = gt.apply_points(model.positions)
    return float(np.mean(np.linalg.norm(a - b, axis=1)))


def adds_metric(pred: Pose, gt: Pose, model: OrientedPointCloud) -> float:
    a = pred.apply_points(model.positions)
    b = gt.apply_points(model.positions)
    idx = nearest_point_indices(b, a)
    return float(np.mean(np.linalg.norm(a[idx] - b, axis=1)))


def threshold_relative(fraction: float = 0.1):
    """Threshold function: fraction of the object diameter."""
    return lambda rec: fraction * rec.diameter


def threshold_absolute(meters: float = 0.02):
    return lambda rec: meters


def accuracy(records, threshold_fn, error_fn=None) -> float:
    """Fraction of records with error strictly below their threshold.

    ``error_fn`` defaults to the symmetry-aware error (ADD-S for symmetric
    objects, ADD otherwise).
    """
    records = list(records)
    if not records:
        raise EmptyRecords("accuracy over zero records")
    if error_fn is None:
        error_fn = lambda rec: rec.error
    hits = sum(1 for rec in records if error_fn(rec) < threshold_fn(rec))
    return hits / len(records)


def auc(records, max_threshold: float = DEFAULT_AUC_MAX_THRESHOLD,
        error_fn=None) -> float:
    """Exact area under the accuracy-vs-threshold curve on [0, max_threshold].

    accuracy(t) = #{e_i < t} / n is a step function, so the normalized
    integral is mean_i max(cap - e_i, 0) / cap; errors above the cap
    contribute zero.
    """
    records = list(records)
    if not records:
        raise EmptyRecords("auc over zero records")
    if max_threshold <= 0:
        raise ValueError("max_threshold must be positive")
    if error_fn is None:
        error_fn = lambda rec: rec.error
    errors = np.array([error_fn(rec) for rec in records])
    value = np.mean(np.maximum(max_threshold - errors, 0.0)) / max_threshold
    return float(np.clip(value, 0.0, 1.0))  # absorb division rounding


def summarize(records) -> MetricsReport:
    """Every reported number of a set of records: the AUC of ADD, ADD-S and
    the symmetry-aware error, and the accuracy at 0.1 diameter and 2 cm."""
    records = list(records)
    if not records:
        raise EmptyRecords("summary over zero records")
    return MetricsReport(
        add_auc=auc(records, error_fn=lambda rec: rec.add_error),
        adds_auc=auc(records, error_fn=lambda rec: rec.adds_error),
        auc=auc(records),
        accuracy_at_0p1d=accuracy(records, threshold_relative(0.1)),
        accuracy_at_2cm=accuracy(records, threshold_absolute(0.02)),
        count=len(records),
    )
