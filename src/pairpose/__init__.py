"""Attention-supervised bidirectional correspondence prediction and 6D pose
estimation on oriented point clouds, with a self-contained autodiff engine,
synthetic data generation, pose solvers, and ADD/ADD-S evaluation."""

__version__ = "0.1.0"

from .geom import (
    OrientedPointCloud,
    Pose,
    pose_apply,
    pose_compose,
    pose_invert,
    rotation_geodesic_angle,
)

__all__ = [
    "OrientedPointCloud",
    "Pose",
    "pose_apply",
    "pose_compose",
    "pose_invert",
    "rotation_geodesic_angle",
    "__version__",
]
