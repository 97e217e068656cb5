import json

import numpy as np
import pytest

from tiger.geometry import CameraIntrinsics, OrientedBox3, Pose
from tiger.scene import ObjectNode, Scene, SceneError, UnknownView
from tiger.scenegraph import Relation, region_contains, spatial_relation

from conftest import look_at, random_box

K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)

_DUALS = {
    Relation.LEFT_OF: Relation.RIGHT_OF,
    Relation.RIGHT_OF: Relation.LEFT_OF,
    Relation.IN_FRONT_OF: Relation.BEHIND,
    Relation.BEHIND: Relation.IN_FRONT_OF,
    Relation.ABOVE: Relation.BELOW,
    Relation.BELOW: Relation.ABOVE,
}


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
        again = Scene.from_dict(json.loads(scene.to_json()))
        assert again.to_json() == scene.to_json()
        assert again.objects == scene.objects

    def test_unknown_view(self):
        scene = _scene([ObjectNode(0, "mug", _box((0, 0, 2)))])
        with pytest.raises(UnknownView):
            scene.pose(3)


class TestSpatialRelations:
    def test_directly_above(self):
        below = _box((0.0, 0.0, 1.0))
        above = _box((0.0, 0.0, 1.6))  # bottom 1.4 >= top 1.2
        pose = Pose.identity()
        assert spatial_relation(above, below, pose, Relation.ABOVE)
        assert spatial_relation(below, above, pose, Relation.BELOW)
        assert not spatial_relation(above, below, pose, Relation.LEFT_OF)

    def test_touching_counts_as_above(self):
        below = _box((0.0, 0.0, 1.0))
        stacked = _box((0.0, 0.0, 1.4))
        assert spatial_relation(stacked, below, Pose.identity(), Relation.ABOVE)

    def test_irreflexive(self):
        box = _box((0.3, 0.1, 1.1), yaw=0.3)
        pose = Pose.identity()
        for relation in Relation:
            assert not spatial_relation(box, box, pose, relation)

    def test_left_right_in_camera_frame(self):
        # camera at origin looking +Z; smaller camera x is left
        left = _box((-0.6, 0.0, 2.0))
        right = _box((0.6, 0.0, 2.0))
        pose = Pose.identity()
        assert spatial_relation(left, right, pose, Relation.LEFT_OF)
        assert spatial_relation(right, left, pose, Relation.RIGHT_OF)
        assert not spatial_relation(left, right, pose, Relation.RIGHT_OF)

    def test_margin_suppresses_near_ties(self):
        a = _box((0.0, 0.0, 2.0))
        pose = Pose.identity()
        # within the projected half sum (0.4): neither relation holds
        b = _box((0.39, 0.0, 2.0))
        assert not spatial_relation(a, b, pose, Relation.LEFT_OF)
        assert not spatial_relation(b, a, pose, Relation.RIGHT_OF)
        c = _box((0.45, 0.0, 2.0))
        assert spatial_relation(a, c, pose, Relation.LEFT_OF)
        # the 2 cm hysteresis floor applies to thin boxes
        thin_a = _box((0.0, 0.0, 2.0), half=(0.001, 0.001, 0.001))
        thin_b = _box((0.015, 0.0, 2.0), half=(0.001, 0.001, 0.001))
        assert not spatial_relation(thin_a, thin_b, pose, Relation.LEFT_OF)

    def test_duality_randomized(self):
        rng = np.random.default_rng(61)
        from conftest import random_pose

        for _ in range(100):
            a = random_box(rng, center_span=1.5)
            b = random_box(rng, center_span=1.5)
            pose = random_pose(rng)
            for relation, dual in _DUALS.items():
                assert spatial_relation(a, b, pose, relation) == spatial_relation(
                    b, a, pose, dual
                )


class TestRegionContains:
    def test_floor_clearance_and_relation(self):
        anchor = _box((0.0, 0.0, 1.0), half=(0.3, 0.3, 0.2))  # bottom at 0.8
        pose = Pose.identity()
        assert region_contains((0.0, 0.0, 0.5), anchor, Relation.BELOW, pose, 0.05, 0.3)
        # on the floor
        assert not region_contains((0.0, 0.0, 0.3), anchor, Relation.BELOW, pose, 0.05, 0.3)
        # nearer the anchor than the clearance
        assert not region_contains((0.0, 0.0, 0.77), anchor, Relation.BELOW, pose, 0.05)
        # clear of the anchor, but in another region
        assert not region_contains((0.0, 0.0, 1.5), anchor, Relation.BELOW, pose, 0.05)
        assert region_contains((0.0, 0.0, 1.5), anchor, Relation.ABOVE, pose, 0.05)
        assert region_contains((-1.0, 0.0, 1.0), anchor, Relation.LEFT_OF, pose, 0.05)
