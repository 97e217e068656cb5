"""Calibrated multi-view scenes backed by ground-truth oriented boxes.

A scene is the unit of ground truth for tool simulation: shared pinhole
intrinsics, one camera-from-world pose per view (view 0 defines the world
frame and must be the identity), labeled oriented boxes, and a floor plane.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .geometry import Box2, CameraIntrinsics, OrientedBox3, Pose, corner_pixel_bounds


class UnknownView(ValueError):
    pass


class SceneError(ValueError):
    pass


@dataclass(frozen=True)
class ObjectNode:
    """A labeled object with its world-frame oriented box."""

    id: int
    label: str
    box3: OrientedBox3


class Scene:
    """Immutable ground-truth world shared by all tool executions."""

    __slots__ = ("intrinsics", "views", "objects", "floor_z", "_pixel_bounds")

    def __init__(self, intrinsics, views, objects, floor_z=0.0):
        views = tuple(views)
        objects = tuple(objects)
        if not views:
            raise SceneError("scene needs at least one view")
        if not views[0].is_identity():
            raise SceneError("view 0 pose must be the identity")
        ids = [o.id for o in objects]
        if len(set(ids)) != len(ids):
            raise SceneError("object ids must be unique")
        for o in objects:
            if o.box3.zmin < floor_z - 1e-9:
                raise SceneError(f"object {o.id} extends below the floor")
        object.__setattr__(self, "intrinsics", intrinsics)
        object.__setattr__(self, "views", views)
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "floor_z", float(floor_z))
        object.__setattr__(self, "_pixel_bounds", {})

    def __setattr__(self, name, value):
        raise AttributeError("Scene is immutable")

    def pose(self, view: int) -> Pose:
        if not isinstance(view, int) or not (0 <= view < len(self.views)):
            raise UnknownView(f"view {view} does not exist")
        return self.views[view]

    def objects_by_label(self, label: str):
        return [o for o in self.objects if o.label == label]

    def pixel_bounds(self, view: int) -> tuple:
        """Each object's corner_pixel_bounds in a view, computed on the view's first use."""
        pose = self.pose(view)
        bounds = self._pixel_bounds.get(view)
        if bounds is None:
            bounds = tuple(corner_pixel_bounds(o.box3, self.intrinsics, pose) for o in self.objects)
            self._pixel_bounds[view] = bounds
        return bounds

    def project_box(self, obj: ObjectNode, view: int):
        """Image-plane bounding box of one of the scene's objects, or None.

        Returns None when any corner is behind the camera or the projection
        misses the image entirely; the result is clipped to image bounds.
        """
        k = self.intrinsics
        bounds = self.pixel_bounds(view)[self.objects.index(obj)]
        if bounds is None:
            return None
        umin, umax, vmin, vmax = bounds
        box = (max(umin, 0.0), max(vmin, 0.0), min(umax, float(k.width)), min(vmax, float(k.height)))
        if box[0] >= box[2] or box[1] >= box[3]:
            return None
        return Box2(*box)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "intrinsics": {
                "fx": self.intrinsics.fx,
                "fy": self.intrinsics.fy,
                "cx": self.intrinsics.cx,
                "cy": self.intrinsics.cy,
                "width": self.intrinsics.width,
                "height": self.intrinsics.height,
            },
            "views": [{"pose": v.matrix4().tolist()} for v in self.views],
            "floor_z": self.floor_z,
            "objects": [
                {
                    "id": o.id,
                    "label": o.label,
                    "center": list(o.box3.center),
                    "half_extents": list(o.box3.half_extents),
                    "yaw": o.box3.yaw,
                }
                for o in self.objects
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Scene":
        try:
            k = doc["intrinsics"]
            intr = CameraIntrinsics(
                fx=float(k["fx"]),
                fy=float(k["fy"]),
                cx=float(k["cx"]),
                cy=float(k["cy"]),
                width=int(k["width"]),
                height=int(k["height"]),
            )
            views = [Pose.from_matrix4(v["pose"]) for v in doc["views"]]
            objects = [
                ObjectNode(
                    id=int(o["id"]),
                    label=str(o["label"]),
                    box3=OrientedBox3(
                        tuple(o["center"]), tuple(o["half_extents"]), float(o["yaw"])
                    ),
                )
                for o in doc["objects"]
            ]
            floor_z = float(doc.get("floor_z", 0.0))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SceneError(f"malformed scene document: {exc}") from exc
        return cls(intr, views, objects, floor_z=floor_z)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def load(cls, path) -> "Scene":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_dict(json.load(f))
