"""Humanoid joint hierarchy: bind pose, forward kinematics, uniform scaling.

Skeletons are loaded from a small JSON document (see `load_skeleton`) and are
immutable after load. Local transforms are parent-relative; poses carry one
local rotation per joint so bone lengths never change.

Forward kinematics runs on plain floats: a pose is one local rotation per
joint as a (w, x, y, z) tuple plus the root's pose state, and FK returns one
pose state (w, x, y, z, px, py, pz) per joint (see `math3d.compose_state`).
The joints' bind transforms are read once, as their `Transform.state`;
`SkeletonModel.bind_states` is the one copy of the bind pose in the world.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .math3d import FormatError, Transform, compose_state, float_from_json, floats_from_json, \
    floats_to_json, norm, qconj, quat_from_json, quat_to_json, read_json_file, write_json_file

REQUIRED_ROLES = frozenset({
    "root", "spine", "head",
    "shoulder_l", "shoulder_r", "elbow_l", "elbow_r", "wrist_l", "wrist_r",
    "hip_l", "hip_r", "knee_l", "knee_r", "ankle_l", "ankle_r",
})
OPTIONAL_ROLES = frozenset({"neck", "toe_l", "toe_r", "finger", "other"})
VALID_ROLES = REQUIRED_ROLES | OPTIONAL_ROLES

# The limbs the body solve turns, as (upper, mid, end) roles: legs, then arms.
LIMB_ROLES = (("hip_l", "knee_l", "ankle_l"), ("hip_r", "knee_r", "ankle_r"),
              ("shoulder_l", "elbow_l", "wrist_l"), ("shoulder_r", "elbow_r", "wrist_r"))

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
    """Joints in topological order (parents first) and the bind eye height.

    Construction precomputes the tables FK and the body solve read, one
    entry per joint: `parents` (index, None for the root),
    `bind_translations` and `bind_rotations` (the bind local transform as
    three and four floats), `bind_states` (the world pose states of the
    bind pose, its one copy) and the bone lengths behind `bone_length`.
    `solve_plan` is (root, (spine, its parent's conjugated bind world
    rotation), head, limbs, pass 1, pass 2) for the body solve: joint indices,
    limbs an (upper, mid, end, upper's parent, mid and end bone lengths) tuple
    per `LIMB_ROLES` entry. Pass 2 lists the head, the limb joints and their
    descendants, and pass 1 the other joints plus the ancestors-or-self of
    what the solve reads between the passes: the head's parent, each upper
    joint and its parent.
    """

    joints: list[Joint]
    eye_height_bind: float
    _name_index: dict = field(init=False, repr=False, default_factory=dict)
    _role_index: dict = field(init=False, repr=False, default_factory=dict)
    parents: tuple = field(init=False, repr=False, compare=False, default=())
    bind_translations: tuple = field(init=False, repr=False, compare=False, default=())
    _bone_lengths: tuple = field(init=False, repr=False, compare=False, default=())
    bind_rotations: tuple = field(init=False, repr=False, compare=False, default=())
    bind_states: tuple = field(init=False, repr=False, compare=False, default=())
    solve_plan: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        for i, j in enumerate(self.joints):
            self._name_index[j.name] = i
            # Repeatable roles ("other", "finger") keep the first occurrence;
            # required roles are unique by validation.
            self._role_index.setdefault(j.role, i)
        self.parents = tuple(j.parent for j in self.joints)
        self.bind_translations = tuple(j.bind_local.state[4:] for j in self.joints)
        self._bone_lengths = tuple(float(np.linalg.norm(v)) for v in self.bind_translations)
        self.bind_rotations = tuple(j.bind_local.state[:4] for j in self.joints)
        root, spine, head = map(self.role_index, ("root", "spine", "head"))
        self.bind_states = tuple(forward_kinematics(self, self.bind_rotations,
                                                    self.joints[root].bind_local.state))
        limbs = tuple(tuple(map(self.role_index, roles)) for roles in LIMB_ROLES)
        moved = {head, *(j for limb in limbs for j in limb)}
        for i, p in enumerate(self.parents):  # parents come first
            if p in moved:
                moved.add(i)
        placed = set(range(len(self.joints))) - moved
        for i in (self.parents[head], *(j for u, _, _ in limbs for j in (u, self.parents[u]))):
            while i is not None and i not in placed:
                placed.add(i)
                i = self.parents[i]
        lengths = self._bone_lengths
        self.solve_plan = (root, (spine, qconj(self.bind_states[self.parents[spine]])), head,
                           tuple((u, m, e, self.parents[u], lengths[m], lengths[e])
                                 for u, m, e in limbs), sorted(placed), sorted(moved))

    def index_of(self, name: str) -> int:
        return self._name_index[name]

    def role_index(self, role: str) -> int:
        if role not in self._role_index:
            raise SkeletonError(f"skeleton has no joint with role {role!r}")
        return self._role_index[role]

    def bone_length(self, index: int) -> float:
        return self._bone_lengths[index]


def forward_kinematics(skeleton: SkeletonModel, rotations, root: tuple,
                       joints=None, states: list | None = None) -> list:
    """Pose state of every joint, parents placed before children.

    `rotations` holds one local rotation (w, x, y, z) per joint; the root's
    entry is ignored, since the root is placed at the pose state `root`.
    Joint i's state is its parent's composed with (rotations[i],
    bind_translations[i]) by `compose_state`, which `Transform.__matmul__`
    also runs; each state equals the bytes of FK by composition on float64
    arrays (`tests/oracles.py::reference_forward_kinematics`).

    Given `joints`, a list of joint indices in topological order, only those
    are placed, into `states` (one entry per joint; a new list of None by
    default), which is returned. Each listed joint's parent must be listed
    before it or already be placed in `states`.
    """
    parents, bones = skeleton.parents, skeleton.bind_translations
    if len(rotations) != len(parents):
        raise SkeletonError(f"pose has {len(rotations)} rotations for {len(parents)} joints")
    states = [None] * len(parents) if states is None else states
    for i in range(len(parents)) if joints is None else joints:
        p = parents[i]
        states[i] = root if p is None else compose_state(states[p], rotations[i], bones[i])
    return states


def scale_uniform(skeleton: SkeletonModel, s: float) -> SkeletonModel:
    """Scale all bone offsets and the eye height by s (rotations unchanged).

    The pivot is the floor projection of the root joint, so the root keeps
    its horizontal position and the feet stay on the floor.
    """
    if not 0.0 < s < math.inf:
        raise ValueError(f"scale factor must be positive and finite, got {s}")
    joints = []
    for j in skeleton.joints:
        w, x, y, z, px, py, pz = j.bind_local.state
        scaled = (px, s * py, pz) if j.parent is None else (s * px, s * py, s * pz)
        joints.append(Joint(j.name, j.parent, Transform((w, x, y, z, *scaled)), j.role))
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
    eye_height = float_from_json(document.get("eye_height"), "eye_height")
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
        t = floats_from_json(entry.get("translation"), 3, f"joint {name!r} translation")
        q = quat_from_json(entry.get("rotation", [1.0, 0.0, 0.0, 0.0]), f"joint {name!r} rotation")
        parent = entry.get("parent")
        parent_idx = None if parent is None else index_of[parent]
        if parent_idx is not None and norm(t) <= 1e-9:
            raise SkeletonError(f"joint {name!r}: bone length must be strictly positive")
        joints.append(Joint(name, parent_idx, Transform(q + t), entry["role"]))

    skeleton = SkeletonModel(joints, eye_height)
    lowest = min(state[5] for state in skeleton.bind_states)
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
            "translation": floats_to_json(j.bind_local.state[4:]),
            "rotation": quat_to_json(j.bind_local.state[:4]),
        })
    return {"eye_height": skeleton.eye_height_bind, "joints": joints}


def load_skeleton_file(path) -> SkeletonModel:
    return read_json_file(path, load_skeleton)


def save_skeleton_file(skeleton: SkeletonModel, path) -> None:
    write_json_file(path, skeleton_to_document(skeleton))
