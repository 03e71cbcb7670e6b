"""Command-line front end: gen / calibrate / solve / compare over files.

Every command is a pure function of its input files and flags, so repeated
runs write byte-identical outputs. Exit codes: 0 success, 2 usage errors,
3 any malformed input file (invalid JSON, a missing field, or a value that
breaks the input rule of `math3d.FormatError`), 4 calibration failures (role
ambiguity, posture, walk-in misalignment).

No solved frame (say, the profile names devices the session lacks) is no
error: `solve` prints `solved 0/N frames`, both it and `compare` exit 0, and
every mean over solved frames is null in their JSON (`n/a` in the table).

`solve` checks every input file and grips the hands before it opens the
trace, then writes each frame's line as the frame is solved: an input error
leaves no trace, but a bug raised mid-solve may leave part of one.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from .calibration import (
    PART_ROLES,
    MisalignmentError,
    calibrate_session,
    load_profile_file,
    save_profile_file,
)
from .fingers import (
    DescentConfig,
    load_controller_file,
    load_hand_file,
    mirror_capsule,
    mirror_hand,
    mirror_x,
    pose_hand_on_controller,
    transform_capsule,
)
from .math3d import IDENTITY, INPUT_BOUND, DegenerateGeometryError, FormatError, apply_state, \
    invert_state, norm, write_json_file
from .motion import SCRIPT_NAMES, ScriptError, builtin_script, read_script_file
from .retarget import OffsetMode, mode_offsets, solve_session
from .session import (
    ROLE_TO_JOINT,
    NoiseModel,
    PostureError,
    RoleAmbiguityError,
    generate_synthetic_session,
    read_ground_truth,
    read_session,
    write_ground_truth,
    write_session,
)
from .skeleton import load_skeleton_file, scale_uniform

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_CALIBRATION = 4


def _positive(kind, zero_ok: bool = False, below: float = math.inf):
    """argparse type: a finite `kind` number above 0 (at least 0 if `zero_ok`) and below
    `below`, so a bad flag is a usage error rather than a silent no-op or a traceback."""
    def parse(text: str):
        value = kind(text)
        if not (0 <= value if zero_ok else 0 < value) or value >= below:
            wording = "non-negative" if zero_ok else "positive"
            limit = "" if below == math.inf else f" below {below:g}"
            raise argparse.ArgumentTypeError(f"must be {wording} and finite{limit}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in its own errors
    return parse


def _derived_path(base, tag: str) -> Path:
    p = Path(base)
    suffix = p.suffix or ".jsonl"
    return p.with_name(p.stem + tag + suffix)


def cmd_gen(args) -> int:
    # Each flag is finite, but their product, the frame count, may not be.
    if not math.isfinite(args.duration * args.fps):
        print("error: --duration times --fps must be a finite frame count", file=sys.stderr)
        return EXIT_USAGE
    skeleton = load_skeleton_file(args.skeleton)
    if args.script_file:
        script = read_script_file(args.script_file)
    else:
        script = builtin_script(args.script, skeleton, args.duration, args.fps, args.seed)
    noise = NoiseModel(args.noise, args.rot_noise, args.seed)
    session, truth = generate_synthetic_session(skeleton, script, noise=noise)
    write_session(session, args.out)
    gt_path = args.ground_truth or _derived_path(args.out, ".gt")
    write_ground_truth(truth, session, gt_path)
    print(f"wrote {len(session.frames)} frames to {args.out} (ground truth: {gt_path})")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    skeleton = load_skeleton_file(args.skeleton)
    session = read_session(args.session)
    profile, _, warnings = calibrate_session(session, skeleton)
    save_profile_file(profile, args.out)
    roles = {did: role.value for did, role in sorted(profile.role_map.items())}
    print(f"roles: {roles}")
    print(f"scale: {profile.scale:.6f}")
    for part, offset in profile.offsets.items():
        print(f"offset {part}: {norm(offset[4:]):.4f} m")
    for w in warnings:
        print(f"warning: {w}")
    print(f"wrote profile to {args.out}")
    return EXIT_OK


def _load_hands(args) -> dict:
    """Hand model, controller capsule and button of each side: {side: (hand,
    capsule, button)}, read from --hand-model and --controller.

    The controller file describes the grip of the hand file's side; the
    other side gets the mirror image of both, x -> -x in the controller frame.
    """
    hand = load_hand_file(args.hand_model)
    capsule, button = load_controller_file(args.controller)
    other = "right" if hand.side == "left" else "left"
    return {hand.side: (hand, capsule, button),
            other: (mirror_hand(hand), mirror_capsule(capsule),
                    None if button is None else mirror_x(button))}


def _solve_hands(args, offsets, scaled):
    """Grip each hand of `_load_hands` once, in its wrist frame; returns the
    (wrist joint index, name, wrist-frame pose) triple of every finger joint,
    which the trace places on each solved wrist, and each side's grip
    objective.

    The controller rides on the wrist at wrist @ offset^-1, by the offset the
    body is solved with, so in the wrist frame the capsule, the button and
    the grip are the same on every frame.
    """
    sides = _load_hands(args)
    config = DescentConfig(penalty=args.penalty, max_iters=args.max_iters)
    attached, objectives = [], {}
    for side in ("left", "right"):
        hand, capsule, button = sides[side]
        wrist_role = ROLE_TO_JOINT[PART_ROLES[f"hand_{side}"]]
        to_wrist = invert_state(offsets[f"hand_{side}"])
        button = None if button is None else apply_state(to_wrist, button)
        result = pose_hand_on_controller(hand, IDENTITY,
                                         transform_capsule(capsule, to_wrist), config, button)
        objectives[f"hand_mean_objective_{side[0]}"] = sum(r.objective for r in result.reports)
        attached.extend((scaled.role_index(wrist_role), f"{wrist_role}/{finger.name}_{ji}", pose)
                        for finger, poses in zip(hand.fingers, result.poses)
                        for ji, pose in enumerate(poses, start=1))
    return attached, objectives


def _solve_inputs(args):
    """Session, profile, scaled avatar and optional ground truth of solve/compare."""
    skeleton = load_skeleton_file(args.skeleton)
    session = read_session(args.session)
    profile = load_profile_file(args.profile)
    scaled = scale_uniform(skeleton, profile.scale)
    truth = read_ground_truth(args.ground_truth) if args.ground_truth else None
    return session, profile, scaled, truth


def cmd_solve(args) -> int:
    # Usage and every input file are checked before the body solve.
    if bool(args.hand_model) != bool(args.controller):
        given, needed = (("--hand-model", "--controller") if args.hand_model
                         else ("--controller", "--hand-model"))
        print(f"error: {given} requires {needed}", file=sys.stderr)
        return EXIT_USAGE
    session, profile, scaled, truth = _solve_inputs(args)
    mode = OffsetMode(args.mode)
    attached, objectives = (), {}
    if args.hand_model:
        attached, objectives = _solve_hands(args, mode_offsets(profile, mode), scaled)
    metrics = solve_session(session, profile, scaled, mode, truth, args.out, attached)

    document = metrics.to_document()
    # A grip objective is a mean over solved frames: null when none solved.
    document.update({key: value if metrics.solved_frames else None
                     for key, value in objectives.items()})
    metrics_path = args.metrics or _derived_path(args.out, ".metrics").with_suffix(".json")
    write_json_file(metrics_path, document)
    err = ("n/a" if metrics.mean_ankle_error is None
           else f"{metrics.mean_ankle_error:.6f} m")
    print(f"solved {metrics.solved_frames}/{metrics.frames} frames in {mode.value} mode; "
          f"mean ankle error {err}; metrics: {metrics_path}")
    return EXIT_OK


_TABLE_FIELDS = (
    ("mean_ankle_error", "ankle err mean"),
    ("max_ankle_error", "ankle err max"),
    ("mean_wrist_error", "wrist err mean"),
    ("mean_knee_flexion", "knee flex mean"),
    ("mean_knee_flexion_straight", "knee flex straight"),
    ("alpha_mean", "spine angle mean"),
    ("detached_frames_left", "detached L"),
    ("detached_frames_right", "detached R"),
)


def cmd_compare(args) -> int:
    session, profile, scaled, truth = _solve_inputs(args)
    rows = {}
    for mode in (OffsetMode.EXACT, OffsetMode.FIXED):
        metrics = solve_session(session, profile, scaled, mode, truth)
        rows[mode.value] = metrics.to_document()

    write_json_file(args.out, rows)

    def fmt(v):
        if v is None:
            return "n/a"
        if isinstance(v, float):
            return f"{v:.6f}"
        return str(v)

    print(f"{'metric':<22}{'exact':>16}{'fixed':>16}")
    for key, label in _TABLE_FIELDS:
        print(f"{label:<22}{fmt(rows['exact'][key]):>16}{fmt(rows['fixed'][key]):>16}")
    print(f"wrote comparison to {args.out}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `parse_args` leaves it as it
    is and returns a new namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="avatarfit",
        description="Six-device self-avatar calibration and retargeting pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic session + ground truth")
    gen.add_argument("--skeleton", required=True, help="skeleton JSON (the synthetic user)")
    gen.add_argument("--script", choices=SCRIPT_NAMES, default="tpose")
    gen.add_argument("--script-file", help="JSONL joint-pose script (overrides --script)")
    gen.add_argument("--noise", type=_positive(float, zero_ok=True), default=0.0,
                     help="position noise sigma (m)")
    gen.add_argument("--rot-noise", type=_positive(float, zero_ok=True), default=0.0,
                     help="rotation noise sigma (rad)")
    gen.add_argument("--seed", type=_positive(int, zero_ok=True), default=0)
    gen.add_argument("--duration", type=_positive(float), default=4.0, help="seconds")
    gen.add_argument("--fps", type=_positive(float), default=30.0)
    gen.add_argument("--out", required=True, help="session JSONL path")
    gen.add_argument("--ground-truth", help="ground-truth JSONL path (default: derived)")
    gen.set_defaults(func=cmd_gen)

    cal = sub.add_parser("calibrate", help="identify roles, scale the avatar, capture offsets")
    cal.add_argument("--skeleton", required=True, help="avatar skeleton JSON")
    cal.add_argument("--session", required=True)
    cal.add_argument("--out", required=True, help="profile JSON path")
    cal.set_defaults(func=cmd_calibrate)

    slv = sub.add_parser("solve", help="solve a session into a pose trace + metrics")
    slv.add_argument("--skeleton", required=True)
    slv.add_argument("--session", required=True)
    slv.add_argument("--profile", required=True)
    slv.add_argument("--mode", choices=[m.value for m in OffsetMode], default="exact")
    slv.add_argument("--out", required=True, help="pose trace JSONL path")
    slv.add_argument("--metrics", help="metrics JSON path (default: derived)")
    slv.add_argument("--ground-truth", help="ground truth for error metrics")
    slv.add_argument("--hand-model", help="hand model JSON; grips each hand once per run")
    slv.add_argument("--controller", help="controller capsule JSON in the controller device's "
                                          "frame (with --hand-model)")
    slv.add_argument("--penalty", type=_positive(float, below=INPUT_BOUND),
                     default=DescentConfig().penalty,
                     help="grip: multiplier on the distances of finger points inside the "
                          "controller")
    slv.add_argument("--max-iters", type=_positive(int), default=DescentConfig().max_iters,
                     help="grip: maximum number of poll rounds per finger")
    slv.set_defaults(func=cmd_solve)

    cmp_ = sub.add_parser("compare", help="exact vs fixed offsets, side by side")
    cmp_.add_argument("--skeleton", required=True)
    cmp_.add_argument("--session", required=True)
    cmp_.add_argument("--profile", required=True)
    cmp_.add_argument("--out", required=True, help="comparison JSON path")
    cmp_.add_argument("--ground-truth")
    cmp_.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RoleAmbiguityError, PostureError, MisalignmentError) as e:
        print(f"calibration error: {e}", file=sys.stderr)
        return EXIT_CALIBRATION
    # Only the package's own errors are expected here; any other exception is a
    # bug and keeps its traceback.
    except (FormatError, ScriptError, DegenerateGeometryError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
