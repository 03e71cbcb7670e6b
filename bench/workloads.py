"""The three benchmark workloads, their output checks and their metrics.

Every workload is a closed loop: a single caller submits the next frame or
command only when the previous one has returned. A workload is a list of
items; an item is one episode (set up, then stream its frames) or, for
`cli_batch`, one gen -> calibrate -> solve -> compare pipeline. Each item
has its own seeded tracker noise, so a run averages several calibrations
and the quality metrics do not hang on one noisy calibration frame.

The user is the `humanoid` rig and the avatar is `humanoid_long_legs`.
Inputs come only from the seed. The quality figures (ankle error, grip
objective, descent counts) are taken on the first pass over the items, so
they are deterministic for a seed however long the run is.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

# Module attributes, not bound names, so that the tracer's wrappers are seen.
from avatarfit import calibration, cli, fingers, motion, retarget, rigs, session, skeleton

FPS = 90.0
# Assumed tracker noise, not taken from a measurement: no tracker-accuracy
# figure is cited in this repository yet. The ankle error scales with it.
POSITION_NOISE = 0.002   # m
ROTATION_NOISE = 0.01    # rad
# Exact mode tracks the ankles to within the tracker noise (about 5 mm at the
# noise above); an error this large means the solve is wrong.
ANKLE_ERROR_LIMIT_MM = 25.0

# (items, frames per item) per workload. A script spans its whole motion
# whatever its length, and neither solve_frame nor the grip keeps state
# between frames, so short items visit the same poses at the same per-frame
# cost as a long session. Many items give many calibrations, which the
# ankle error needs; the CLI's per-command fixed costs weigh more in a
# 31-frame session than in one of minutes.
FULL_SIZES = {"stream_body": (16, 46), "grip_stream": (20, 5), "cli_batch": (16, 31)}
TINY_SIZES = {"stream_body": (2, 4), "grip_stream": (2, 2), "cli_batch": (2, 4)}

CLI_OUTPUTS = ("session.jsonl", "gt.jsonl", "profile.json", "trace.jsonl",
               "metrics.json", "compare.json")

# Normalized times are wall times scaled by REFERENCE_PROBE_S / (probe time
# taken right after them). 0.6 ms is about the probe's time on the reference
# VM when nothing else runs, so there they read close to uncontended wall time.
REFERENCE_PROBE_S = 6e-4
_PROBE_A = np.array([0.1, 0.2, 0.3])
_PROBE_B = np.array([0.3, -0.2, 0.5])


def probe_s() -> float:
    """Wall time of fixed work: small NumPy operations, then a scalar loop.

    The host's speed swings by up to 2x in phases that last seconds to
    minutes. The body solve is mostly small-array NumPy calls and the grip
    mostly scalar Python, and the two slow down by different amounts, so the
    probe does some of each. Scaling a time by a probe taken right after it
    cancels most of the swing; the program never sees the probe.
    """
    start = perf_counter()
    for _ in range(15):
        c = np.cross(_PROBE_A, _PROBE_B)
        np.linalg.norm(c)
        np.array([c[0], c[1], 1.0])
    total = 0
    for i in range(3000):
        total += i * i
    return perf_counter() - start


def percentile(values, q: int) -> float:
    if not values:
        return math.nan
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Workload:
    """Shared bookkeeping: timings, failures, checks and first-pass figures."""

    name = ""

    def __init__(self, seed: int, sizes: tuple[int, int], tracer, root: Path):
        self.items, self.frames_per_item = sizes
        rng = random.Random(seed)
        self.seeds = [rng.randrange(2 ** 31) for _ in range(self.items)]
        self.tracer = tracer
        self.root = root
        self.frame_ms: list[float] = []       # wall time
        self.frame_norm_ms: list[float] = []  # normalized, see REFERENCE_PROBE_S
        self.setup_s: list[float] = []
        self.setup_norm_s: list[float] = []
        self.probes: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.checks: dict[str, bool] = {}
        self.ankle_errors: list[float] = []   # metres, first pass
        self.detached: list[float] = []       # per frame: share of arms detached
        self.traced_frames = 0
        self.traced_frame_s = 0.0
        self.pass_s = {False: [], True: []}   # item wall times, untraced / traced
        # grip figures (first pass) and hand timings (traced passes)
        self.hand_objectives: list[float] = []
        self.finger_iterations = 0
        self.fingers = 0
        self.fingers_converged = 0
        self.first_hand_s: list[float] = []   # grip on each item's first frame
        # cli figures (traced passes)
        self.command_s = {c: 0.0 for c in ("gen", "calibrate", "solve", "compare")}
        self.command_frames = {c: 0 for c in self.command_s}
        self.trace_bytes = 0

    def normalized(self, elapsed: float) -> float:
        """`elapsed` scaled to the reference probe time by a probe taken now."""
        probe = probe_s()
        self.probes.append(probe)
        return elapsed * REFERENCE_PROBE_S / probe

    def record_setup(self, elapsed: float) -> None:
        self.setup_s.append(elapsed)
        self.setup_norm_s.append(self.normalized(elapsed))

    def record_frame(self, elapsed: float, normalized: float) -> None:
        self.frame_ms.append(elapsed * 1e3)
        self.frame_norm_ms.append(normalized * 1e3)

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def fail(self, what: str, error: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{what}: {type(error).__name__}: {error}")

    def item(self, k: int, first_pass: bool) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def ankle_mm(self) -> float:
        return 1e3 * statistics.fmean(self.ankle_errors) if self.ankle_errors else math.nan

    def finish(self) -> None:
        """Checks on the whole run, made once the loop has ended."""
        self.check("ankle_error_below_limit", self.ankle_mm() < ANKLE_ERROR_LIMIT_MM)

    def end_to_end(self, peak_rss_mb: float) -> dict:
        return {
            "frame_ms_p50": percentile(self.frame_norm_ms, 50),
            "setup_s": percentile(self.setup_norm_s, 50),
            "peak_rss_mb": peak_rss_mb,
            "ankle_err_mm": self.ankle_mm(),
        }


class StreamBody(Workload):
    """`free` script frames fed one at a time to `retarget.solve_frame`."""

    name = "stream_body"
    script = "free"

    def __init__(self, seed, sizes, tracer, root):
        super().__init__(seed, sizes, tracer, root)
        user = rigs.humanoid()
        duration = (self.frames_per_item - 1) / FPS
        self.inputs = []
        for s in self.seeds:
            script = motion.builtin_script(self.script, user, duration, FPS, s)
            self.inputs.append(session.generate_synthetic_session(
                user, script, noise=session.NoiseModel(POSITION_NOISE, ROTATION_NOISE, s)))

    def setup(self, recording):
        avatar = rigs.humanoid_long_legs()
        profile, scaled, _ = calibration.calibrate_session(recording, avatar)
        return profile, scaled

    def frame(self, frame, state, first):
        profile, scaled = state[:2]
        return retarget.solve_frame(frame, profile, scaled), None

    def item(self, k, first_pass):
        recording, truth = self.inputs[k]
        tracer = self.tracer
        start = perf_counter()
        with tracer.span("setup"):
            state = self.setup(recording)
        self.record_setup(perf_counter() - start)
        scaled = state[1]
        for i, frame in enumerate(recording.frames):
            self.attempted += 1
            tracer.in_scope = tracer.active
            start = perf_counter()
            try:
                with tracer.span("frame"):
                    solved, hands = self.frame(frame, state, i == 0)
            except Exception as e:  # a failed frame is counted, the stream goes on
                tracer.in_scope = False
                self.fail(f"item {k} frame {i}", e)
                continue
            elapsed = perf_counter() - start
            tracer.in_scope = False
            self.record_frame(elapsed, self.normalized(elapsed))
            if tracer.active:
                self.traced_frames += 1
                self.traced_frame_s += elapsed
            if solved is None:
                self.fail(f"item {k} frame {i}", ValueError("solve returned None"))
                continue
            if first_pass:
                self.check_body(solved, truth, i, scaled)
                if hands is not None:
                    self.check_hands(hands, i == 0, state, solved)

    def check_body(self, solved, truth, i, scaled):
        points = np.array([w.translation for w in solved.world])
        self.check("body_pose_finite", np.all(np.isfinite(points)))
        for role in ("ankle_l", "ankle_r"):
            got = solved.world[scaled.role_index(role)].translation
            self.ankle_errors.append(float(np.linalg.norm(got - truth.by_role(i, role).translation)))
        d = solved.diagnostics
        self.detached.append(0.5 * (d.controller_detached_left + d.controller_detached_right))


WRISTS = (("left", "wrist_l"), ("right", "wrist_r"))


class GripStream(StreamBody):
    """`arms` script; both hands grip their own capsule on every frame."""

    name = "grip_stream"
    script = "arms"

    def setup(self, recording):
        profile, scaled = super().setup(recording)
        hands = {side: fingers.default_hand_model(side) for side, _ in WRISTS}
        capsules = {side: fingers.default_grip_capsule(hand) for side, hand in hands.items()}
        return profile, scaled, hands, capsules, fingers.DescentConfig()

    def frame(self, frame, state, first):
        profile, scaled, hands, capsules, config = state
        solved = retarget.solve_frame(frame, profile, scaled)
        results = {}
        for side, wrist_role in WRISTS:
            wrist = solved.world[scaled.role_index(wrist_role)]
            start = perf_counter()
            results[side] = fingers.pose_hand_on_controller(
                hands[side], wrist, fingers.transform_capsule(capsules[side], wrist), config)
            if self.tracer.active and first:
                self.first_hand_s.append(perf_counter() - start)
        return solved, results

    def check_hands(self, hands, first_frame, state, solved):
        _, scaled, models, capsules, config = state
        for side, wrist_role in WRISTS:
            result = hands[side]
            distances = [d for finger in result.joint_distances for d in finger]
            self.check("grip_distances_finite", all(math.isfinite(d) for d in distances))
            objective = sum(r.objective for r in result.reports)
            self.check("grip_objective_finite", math.isfinite(objective))
            self.hand_objectives.append(objective)
            self.fingers += len(result.reports)
            self.finger_iterations += sum(r.iterations for r in result.reports)
            self.fingers_converged += sum(1 for r in result.reports if r.converged)
            if first_frame:
                wrist = solved.world[scaled.role_index(wrist_role)]
                shape = fingers.transform_capsule(capsules[side], wrist)
                hand = models[side]
                open_params = fingers.FingerParams.open_hand(hand)
                open_objective = sum(
                    fingers.finger_objective(hand, i, open_params, shape, config.penalty, wrist)
                    for i in range(len(hand.fingers)))
                self.check("grip_closes_from_open_hand", objective < open_objective)


class CliBatch(Workload):
    """`avatarfit` CLI: gen (squat) -> calibrate -> solve -> compare, on files.

    The pipelines run in-process. Set-up is gen and calibrate, the commands
    before the first solved frame; a frame is solve plus compare, per frame.
    After the loop, the first seed's pipeline runs once more in separate
    `python -m avatarfit` processes with another hash seed, and its outputs
    must match the in-process ones byte for byte.
    """

    name = "cli_batch"

    def __init__(self, seed, sizes, tracer, root):
        super().__init__(seed, sizes, tracer, root)
        self.work = root / ".bench_work" / f"cli_batch-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.user, self.avatar = str(self.work / "user.json"), str(self.work / "avatar.json")
        skeleton.save_skeleton_file(rigs.humanoid(), self.user)
        skeleton.save_skeleton_file(rigs.humanoid_long_legs(), self.avatar)
        self.digests: dict[int, dict[str, str]] = {}
        self.duration = repr((self.frames_per_item - 1) / FPS)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def commands(self, k, d):
        """Output paths and (name, argv) commands of seed k's pipeline in directory d."""
        p = {name: str(d / name) for name in CLI_OUTPUTS}
        common = ["--skeleton", self.avatar, "--session", p["session.jsonl"],
                  "--profile", p["profile.json"], "--ground-truth", p["gt.jsonl"]]
        return p, (
            ("gen", ["gen", "--skeleton", self.user, "--script", "squat",
                     "--duration", self.duration, "--fps", repr(FPS),
                     "--noise", repr(POSITION_NOISE), "--rot-noise", repr(ROTATION_NOISE),
                     "--seed", str(self.seeds[k]), "--out", p["session.jsonl"],
                     "--ground-truth", p["gt.jsonl"]]),
            ("calibrate", ["calibrate", "--skeleton", self.avatar,
                           "--session", p["session.jsonl"], "--out", p["profile.json"]]),
            ("solve", ["solve", *common, "--out", p["trace.jsonl"],
                       "--metrics", p["metrics.json"]]),
            ("compare", ["compare", *common, "--out", p["compare.json"]]),
        )

    def run_command(self, name, argv) -> tuple[bool, float]:
        self.attempted += 1
        sink = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
                    self.tracer.span(f"cli.{name}"):
                code = cli.main(argv)
        except Exception as e:  # a traceback is a failed command, not a crash
            self.fail(f"{name} {argv}", e)
            return False, perf_counter() - start
        elapsed = perf_counter() - start
        if code != 0:
            self.fail(f"{name} {argv}", RuntimeError(f"exit {code}: {sink.getvalue()[-300:]}"))
        return code == 0, elapsed

    def item(self, k, first_pass):
        d = self.work / f"item{k}"
        d.mkdir(exist_ok=True)
        p, commands = self.commands(k, d)
        tracer = self.tracer
        traced = tracer.active
        wall = {"setup": 0.0, "frames": 0.0}
        norm = {"setup": 0.0, "frames": 0.0}
        for name, argv in commands:
            tracer.in_scope = traced
            ok, elapsed = self.run_command(name, argv)
            tracer.in_scope = False
            part = "setup" if name in ("gen", "calibrate") else "frames"
            wall[part] += elapsed
            norm[part] += self.normalized(elapsed)
            if traced:
                self.command_s[name] += elapsed
                self.command_frames[name] += self.frames_per_item
            if not ok:
                self.check("cli_exit_codes_zero", False)
                return
        self.check("cli_exit_codes_zero", True)
        self.setup_s.append(wall["setup"])
        self.setup_norm_s.append(norm["setup"])
        self.record_frame(wall["frames"] / self.frames_per_item,
                          norm["frames"] / self.frames_per_item)
        if traced:
            self.traced_frames += self.frames_per_item
            self.traced_frame_s += wall["setup"] + wall["frames"]
            self.trace_bytes += os.path.getsize(p["trace.jsonl"])
        self.check_outputs(k, p)

    def check_outputs(self, k, p):
        digests = _digests(p)
        if k in self.digests:
            self.check("cli_outputs_byte_identical", digests == self.digests[k])
            return
        self.digests[k] = digests
        metrics = _load_json(p["metrics.json"])
        compare = _load_json(p["compare.json"])
        self.check("solve_frames_without_errors", not metrics["frame_errors"])
        exact, fixed = compare["exact"], compare["fixed"]
        for key in ("mean_ankle_error", "mean_knee_flexion_straight"):
            self.check(f"exact_beats_fixed_{key}",
                       exact[key] is not None and fixed[key] is not None
                       and exact[key] < fixed[key])
        self.ankle_errors.append(metrics["mean_ankle_error"])
        frames = metrics["frames"]
        self.detached.append(
            (metrics["detached_frames_left"] + metrics["detached_frames_right"]) / (2 * frames))

    def repeat_in_processes(self) -> bool:
        """Seed 0's pipeline as `python -m avatarfit` processes; True if it matches."""
        if 0 not in self.digests:
            return False
        d = self.work / "repeat"
        d.mkdir()
        p, commands = self.commands(0, d)
        # Another hash seed than this process's, so output that depends on
        # set or dict-of-str ordering shows as a difference.
        hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"), PYTHONHASHSEED=hash_seed)
        for name, argv in commands:
            self.attempted += 1
            proc = subprocess.run([sys.executable, "-m", "avatarfit", *argv], env=env,
                                  cwd=self.root, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True, timeout=120)
            if proc.returncode != 0:
                self.fail(f"{name} (own process)",
                          RuntimeError(f"exit {proc.returncode}: {proc.stdout[-300:]}"))
                self.check("cli_exit_codes_zero", False)
                return False
        return _digests(p) == self.digests[0]

    def finish(self):
        super().finish()
        self.check("cli_outputs_byte_identical", self.repeat_in_processes())


def _digests(paths: dict) -> dict:
    digests = {}
    for name, path in paths.items():
        with open(path, "rb") as f:
            digests[name] = hashlib.sha256(f.read()).hexdigest()
    return digests


def _load_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


WORKLOADS = {w.name: w for w in (StreamBody, GripStream, CliBatch)}


def run(workload: Workload, seconds: float, traced: bool) -> None:
    """Closed loop over the workload's items until `seconds` have passed.

    Untraced: stop after any item once the first pass is done. Traced: the
    first pass runs with tracing off as the overhead baseline, then whole
    traced passes run, so per-frame counts cover the same frames in every
    run.
    """
    tracer = workload.tracer
    start = perf_counter()
    done = 0
    passes = 0
    while True:
        for k in range(workload.items):
            tracer.active = traced and passes > 0
            item_start = perf_counter()
            workload.item(k, first_pass=passes == 0)
            workload.pass_s[tracer.active].append(perf_counter() - item_start)
            tracer.active = False
            done += 1
            if (not traced and done >= workload.items
                    and perf_counter() - start >= seconds):
                return
        passes += 1
        if traced and passes >= 2 and perf_counter() - start >= seconds:
            return
