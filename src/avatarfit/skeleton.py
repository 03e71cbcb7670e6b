"""Humanoid joint hierarchy: bind pose, forward kinematics, uniform scaling.

Skeletons are loaded from a small JSON document (see `load_skeleton`) and are
immutable after load. Local transforms are parent-relative; poses carry one
local rotation per joint so bone lengths never change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .math3d import FormatError, Transform, floats_from_json, floats_to_json, quat_from_json, \
    quat_to_json, read_json_file, write_json_file

REQUIRED_ROLES = frozenset({
    "root", "spine", "head",
    "shoulder_l", "shoulder_r", "elbow_l", "elbow_r", "wrist_l", "wrist_r",
    "hip_l", "hip_r", "knee_l", "knee_r", "ankle_l", "ankle_r",
})
OPTIONAL_ROLES = frozenset({"neck", "toe_l", "toe_r", "finger", "other"})
VALID_ROLES = REQUIRED_ROLES | OPTIONAL_ROLES

# Feet soles must rest on the floor (y = 0) in the bind pose within this.
FLOOR_TOLERANCE = 1e-3


class SkeletonError(FormatError):
    """Raised for malformed or invariant-violating skeleton documents."""


@dataclass(frozen=True)
class Joint:
    name: str
    parent: int | None
    bind_local: Transform
    role: str


@dataclass
class SkeletonModel:
    joints: list[Joint]
    eye_height_bind: float
    _name_index: dict = field(init=False, repr=False, default_factory=dict)
    _role_index: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        for i, j in enumerate(self.joints):
            self._name_index[j.name] = i
            # Repeatable roles ("other", "finger") keep the first occurrence;
            # required roles are unique by validation.
            self._role_index.setdefault(j.role, i)

    def __len__(self) -> int:
        return len(self.joints)

    def index_of(self, name: str) -> int:
        return self._name_index[name]

    def role_index(self, role: str) -> int:
        if role not in self._role_index:
            raise SkeletonError(f"skeleton has no joint with role {role!r}")
        return self._role_index[role]

    def bone_length(self, index: int) -> float:
        return float(np.linalg.norm(self.joints[index].bind_local.translation))

    def bind_world(self) -> list[Transform]:
        return forward_kinematics(self, bind_pose(self))


@dataclass
class PoseState:
    """Per-joint local rotations plus the root joint's full world transform.

    The root entry of `local_rotations` is carried for shape consistency but
    ignored by FK; the root's placement comes from `root_world`.
    """

    local_rotations: np.ndarray  # (J, 4) quaternions
    root_world: Transform


def bind_pose(skeleton: SkeletonModel) -> PoseState:
    rots = np.stack([j.bind_local.rotation for j in skeleton.joints])
    root = skeleton.joints[skeleton.role_index("root")]
    return PoseState(rots, root.bind_local)


def forward_kinematics(skeleton: SkeletonModel, pose: PoseState) -> list[Transform]:
    """World transforms for every joint, parents accumulated before children."""
    if len(pose.local_rotations) != len(skeleton.joints):
        raise SkeletonError(
            f"pose has {len(pose.local_rotations)} rotations for "
            f"{len(skeleton.joints)} joints"
        )
    world: list[Transform] = [None] * len(skeleton.joints)  # type: ignore[list-item]
    for i, joint in enumerate(skeleton.joints):
        if joint.parent is None:
            world[i] = pose.root_world
        else:
            local = Transform(pose.local_rotations[i], joint.bind_local.translation)
            world[i] = world[joint.parent] @ local
    return world


def scale_uniform(skeleton: SkeletonModel, s: float) -> SkeletonModel:
    """Scale all bone offsets and the eye height by s (rotations unchanged).

    The pivot is the floor projection of the root joint, so the root keeps
    its horizontal position and the feet stay on the floor.
    """
    if not 0.0 < s < math.inf:
        raise ValueError(f"scale factor must be positive and finite, got {s}")
    joints = []
    for j in skeleton.joints:
        t = j.bind_local.translation
        if j.parent is None:
            t = np.array([t[0], s * t[1], t[2]])
        else:
            t = s * t
        joints.append(Joint(j.name, j.parent, Transform(j.bind_local.rotation, t), j.role))
    return SkeletonModel(joints, s * skeleton.eye_height_bind)


# ---------------------------------------------------------------------------
# JSON document format
# ---------------------------------------------------------------------------
# { "eye_height": meters,
#   "joints": [ { "name": str, "parent": str|null, "role": str,
#                 "translation": [x,y,z], "rotation": [w,x,y,z] } ] }
# "rotation" may be omitted (identity). Units are meters; the coordinate
# convention is the package-wide one (+Y up, +Z forward). Values follow the
# input rule of `math3d.FormatError`.

def load_skeleton(document: dict) -> SkeletonModel:
    if not isinstance(document, dict):
        raise SkeletonError("skeleton document must be a JSON object")
    eye_height = float(floats_from_json(document.get("eye_height"), (), "eye_height"))
    if not eye_height > 0:
        raise SkeletonError("eye_height must be a positive number")
    raw = document.get("joints")
    if not isinstance(raw, list) or not raw:
        raise SkeletonError("joints must be a non-empty list")

    names = []
    for entry in raw:
        name = entry.get("name") if isinstance(entry, dict) else None
        if not (isinstance(name, str) and name
                and isinstance(entry.get("parent"), (str, type(None)))):
            raise SkeletonError("every joint must be an object with a name and a parent or null")
        if name in names:
            raise SkeletonError(f"duplicate joint name {name!r}")
        names.append(name)

    roots = [e for e in raw if e.get("parent") is None]
    if len(roots) != 1:
        raise SkeletonError(f"skeleton must have exactly one root joint, found {len(roots)}")

    role_counts: dict[str, int] = {}
    for entry in raw:
        role = entry.get("role")
        if not isinstance(role, str) or role not in VALID_ROLES:
            raise SkeletonError(f"joint {entry.get('name')!r} has unknown role {role!r}")
        role_counts[role] = role_counts.get(role, 0) + 1
    for role in REQUIRED_ROLES:
        if role_counts.get(role, 0) != 1:
            raise SkeletonError(
                f"role {role!r} must be assigned to exactly one joint, "
                f"found {role_counts.get(role, 0)}"
            )

    # Topological order (parents before children), stable in document order.
    by_name = {e["name"]: e for e in raw}
    order: list[str] = []
    placed: set[str] = set()
    pending = list(raw)
    while pending:
        progressed = False
        remaining = []
        for entry in pending:
            parent = entry.get("parent")
            if parent is None or parent in placed:
                order.append(entry["name"])
                placed.add(entry["name"])
                progressed = True
            else:
                if parent not in by_name:
                    raise SkeletonError(
                        f"joint {entry['name']!r} references unknown parent {parent!r}"
                    )
                remaining.append(entry)
        if not progressed:
            cyclic = ", ".join(e["name"] for e in remaining)
            raise SkeletonError(f"cyclic joint hierarchy involving: {cyclic}")
        pending = remaining

    index_of = {name: i for i, name in enumerate(order)}
    joints: list[Joint] = []
    for name in order:
        entry = by_name[name]
        t = floats_from_json(entry.get("translation"), (3,), f"joint {name!r} translation")
        q = quat_from_json(entry.get("rotation", [1.0, 0.0, 0.0, 0.0]), f"joint {name!r} rotation")
        parent = entry.get("parent")
        parent_idx = None if parent is None else index_of[parent]
        if parent_idx is not None and float(np.linalg.norm(t)) <= 1e-9:
            raise SkeletonError(f"joint {name!r}: bone length must be strictly positive")
        joints.append(Joint(name, parent_idx, Transform(q, t), entry["role"]))

    skeleton = SkeletonModel(joints, eye_height)
    lowest = min(w.translation[1] for w in skeleton.bind_world())
    if abs(lowest) > FLOOR_TOLERANCE:
        raise SkeletonError(
            f"bind-pose feet must rest on the floor: lowest joint at y={lowest:.4f}"
        )
    return skeleton


def skeleton_to_document(skeleton: SkeletonModel) -> dict:
    joints = []
    for j in skeleton.joints:
        joints.append({
            "name": j.name,
            "parent": None if j.parent is None else skeleton.joints[j.parent].name,
            "role": j.role,
            "translation": floats_to_json(j.bind_local.translation),
            "rotation": quat_to_json(j.bind_local.rotation),
        })
    return {"eye_height": skeleton.eye_height_bind, "joints": joints}


def load_skeleton_file(path) -> SkeletonModel:
    return read_json_file(path, load_skeleton)


def save_skeleton_file(skeleton: SkeletonModel, path) -> None:
    write_json_file(path, skeleton_to_document(skeleton))
