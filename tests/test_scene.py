import json
import math

import pytest

from tiger.geometry import CameraIntrinsics, OrientedBox3, Pose
from tiger.scene import ObjectNode, Scene, SceneError, UnknownView

from conftest import look_at

K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)


def _box(center, half=(0.2, 0.2, 0.2), yaw=0.0):
    return OrientedBox3(tuple(center), tuple(half), yaw)


def _scene(objects, views=None, floor_z=-10.0):
    views = views or [Pose.identity()]
    return Scene(K, views, objects, floor_z=floor_z)


class TestSceneType:
    def test_view0_must_be_identity(self):
        side = look_at([1.0, 0.0, 1.0], [0.0, 0.0, 1.0])
        with pytest.raises(SceneError):
            Scene(K, [side], [ObjectNode(0, "box", _box((0, 0, 1)))])

    def test_boxes_above_floor(self):
        with pytest.raises(SceneError):
            Scene(K, [Pose.identity()], [ObjectNode(0, "box", _box((0, 0, 0)))], floor_z=0.0)

    def test_unique_ids(self):
        nodes = [ObjectNode(0, "a", _box((0, 0, 1))), ObjectNode(0, "b", _box((1, 0, 1)))]
        with pytest.raises(SceneError):
            Scene(K, [Pose.identity()], nodes, floor_z=0.0)

    def test_json_round_trip(self):
        scene = _scene(
            [
                ObjectNode(0, "mug", _box((0.1, -0.2, 1.5), yaw=0.4)),
                ObjectNode(1, "book", _box((0.4, 0.3, 2.0))),
            ],
            views=[Pose.identity(), look_at([2.0, 0.4, 1.2], [0.0, 0.0, 1.5])],
        )
        again = Scene.from_dict(json.loads(json.dumps(scene.to_dict())))
        assert json.dumps(again.to_dict()) == json.dumps(scene.to_dict())
        assert again.objects == scene.objects

    def test_unknown_view(self):
        scene = _scene([ObjectNode(0, "mug", _box((0, 0, 2)))])
        with pytest.raises(UnknownView):
            scene.pose(3)

    @pytest.mark.parametrize("field", ["fx", "fy"])
    def test_infinite_focal_length(self, field):
        doc = _scene([ObjectNode(0, "mug", _box((0, 0, 2)))]).to_dict()
        doc["intrinsics"][field] = math.inf
        text = json.dumps(doc)  # Python's json writes and reads Infinity
        assert f'"{field}": Infinity' in text
        with pytest.raises(SceneError):
            Scene.from_dict(json.loads(text))
