"""Deterministic geometric tool runtime, trajectory scoring, and dataset generation."""

__version__ = "0.1.0"

from .geometry import (
    Box2,
    CameraIntrinsics,
    OrientedBox3,
    Pose,
    fit_obb,
    obb_distance,
    project,
    relative_camera_motion,
    unproject,
)
from .scene import ObjectNode, Scene
from .trajectory import Trajectory, parse_trajectory, render_trajectory, validate_format
from .runtime import ExecutionContext, execute_tool, run_trajectory
from .rewards import RewardConfig, score_trajectory
from .generator import SceneParams, Template, generate_dataset, generate_scene, instantiate

__all__ = [
    "Box2",
    "CameraIntrinsics",
    "ExecutionContext",
    "ObjectNode",
    "OrientedBox3",
    "Pose",
    "RewardConfig",
    "Scene",
    "SceneParams",
    "Template",
    "Trajectory",
    "execute_tool",
    "fit_obb",
    "generate_dataset",
    "generate_scene",
    "instantiate",
    "obb_distance",
    "parse_trajectory",
    "project",
    "relative_camera_motion",
    "render_trajectory",
    "run_trajectory",
    "score_trajectory",
    "unproject",
    "validate_format",
]
