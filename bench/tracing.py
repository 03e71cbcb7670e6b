"""In-memory span tracer that wraps avatarfit's public functions from outside.

Each wrapped call pushes an entry on a stack; on return its duration is
added to the caller's child time, so self time is the span minus the part
its children cover. Boundary functions also keep a span (name, start, end,
parent) in memory; hot leaf functions (quaternion math) keep only counters,
so a long run does not hold millions of spans.

Modules bind helpers with `from .math3d import quat_rotate`, so a wrapper
is installed under every name in every avatarfit module that refers to the
original object, not only in the defining module.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass
from time import perf_counter

# (module, attribute, metric name, keep spans, count frames)
# An attribute "Class.method" wraps a method on the class itself. Counting
# frames adds the frame count of the session the call read, wrote or solved.
TARGETS = (
    ("math3d", "quat_rotate", "math3d.quat_rotate", False, False),
    ("math3d", "quat_mul", "math3d.quat_mul", False, False),
    ("math3d", "Transform.__matmul__", "math3d.Transform.compose", False, False),
    ("skeleton", "forward_kinematics", "skeleton.forward_kinematics", True, False),
    ("skeleton", "SkeletonModel.bind_world", "skeleton.bind_world", True, False),
    ("retarget", "effector_position", "retarget.effector", False, False),
    ("retarget", "effector_rotation", "retarget.effector", False, False),
    ("retarget", "two_bone_ik", "retarget.two_bone_ik", True, False),
    ("retarget", "solve_frame", "retarget.solve_frame", True, False),
    ("retarget", "solve_session", "retarget.solve_session", True, True),
    ("retarget", "write_pose_trace", "retarget.write_pose_trace", True, True),
    ("fingers", "pose_hand_on_controller", "fingers.pose_hand_on_controller", True, False),
    ("fingers", "descend", "fingers.descend", True, False),
    ("session", "identify_roles", "session.identify_roles", True, False),
    ("session", "generate_synthetic_session", "session.generate_synthetic_session", True, True),
    ("session", "read_session", "session.read_session", True, True),
    ("session", "write_session", "session.write_session", True, True),
    ("session", "read_ground_truth", "session.read_ground_truth", True, True),
    ("calibration", "calibrate_session", "calibration.calibrate_session", True, False),
    ("calibration", "capture_profile", "calibration.capture_profile", True, False),
    ("calibration", "load_profile_file", "calibration.load_profile_file", True, False),
    ("motion", "builtin_script", "motion.builtin_script", True, False),
)


def frames_handled(args, kwargs, result) -> int:
    """Frames of the first session or ground truth in the result or arguments."""
    parts = result if isinstance(result, tuple) else (result,)
    for value in (*parts, *args, *kwargs.values()):
        frames = getattr(value, "frames", None)
        if isinstance(frames, list):
            return len(frames)
    return 0


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    frames: int = 0          # session frames handled, for targets that count them
    scoped_calls: int = 0    # calls made while the tracer is in scope
    scoped_s: float = 0.0

    def ms_per_call(self) -> float:
        return 1e3 * self.total_s / self.calls if self.calls else 0.0

    def per_s(self, amount: float) -> float:
        return amount / self.total_s if self.total_s > 0.0 else 0.0


class Tracer:
    """Spans and per-name counters; inactive until `active` is set."""

    def __init__(self):
        self.spans: list[tuple] = []   # (name, start, end, parent span index or -1)
        self.stats: dict[str, Stat] = {}
        self.active = False
        self.in_scope = False
        self._stack: list[list] = []   # [span index or -1, child seconds]
        self._restore: list[tuple] = []

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def _enter(self, keep_span: bool) -> list:
        entry = [-1, 0.0]
        if keep_span:
            entry[0] = len(self.spans)
            self.spans.append(None)
        self._stack.append(entry)
        return entry

    def _exit(self, name, entry, start, end, frames=0):
        self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dur
        s = self.stat(name)
        s.calls += 1
        s.total_s += dur
        s.self_s += dur - entry[1]
        s.frames += frames
        if self.in_scope:
            s.scoped_calls += 1
            s.scoped_s += dur
        if entry[0] >= 0:
            self.spans[entry[0]] = (name, start, end, -1 if parent is None else parent[0])

    def span(self, name: str):
        """Context manager recording a harness-level span (frame, setup, command)."""
        return _Span(self, name)

    def _wrap(self, name, fn, keep_span, count_frames):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            entry = tracer._enter(keep_span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(name, entry, start, perf_counter())
                raise
            end = perf_counter()
            frames = frames_handled(args, kwargs, result) if count_frames else 0
            tracer._exit(name, entry, start, end, frames)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded avatarfit module that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "avatarfit" or n.startswith("avatarfit."))]
        for module_name, attr, name, keep_span, count_frames in TARGETS:
            home = sys.modules.get(f"avatarfit.{module_name}")
            if home is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                original = None if cls is None else cls.__dict__.get(meth)
                if original is None:
                    continue
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, keep_span, count_frames))
                continue
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, keep_span, count_frames)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()
        self.active = False

    def span_durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s is not None and s[0] == name]

    def write(self, path, header: dict) -> None:
        """Header line, then one JSON array per span: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(header) + "\n")
            for s in self.spans:
                if s is not None:
                    f.write(json.dumps(s) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "entry", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.entry = self.tracer._enter(True) if self.tracer.active else None
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        if self.entry is not None:
            self.tracer._exit(self.name, self.entry, self.start, perf_counter())
        return False
