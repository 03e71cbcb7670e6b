"""Command-line front end: gen / calibrate / solve / compare over files.

Every command is a pure function of its input files and flags, so repeated
runs write byte-identical outputs. Exit codes: 0 success, 2 usage errors,
3 any malformed input file (invalid JSON, a missing field, or a value that
breaks the input rule of `math3d.FormatError`), 4 calibration failures (role
ambiguity, posture, walk-in misalignment).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .calibration import (
    MisalignmentError,
    calibrate_session,
    load_profile_file,
    save_profile_file,
)
from .fingers import (
    DescentConfig,
    finger_points,
    load_controller_file,
    load_hand_file,
    mirror_capsule,
    mirror_hand,
    mirror_x,
    pose_hand_on_controller,
    transform_capsule,
)
from .math3d import DegenerateGeometryError, FormatError, Transform, pose_to_obj, write_json_file
from .motion import SCRIPT_NAMES, ScriptError, builtin_script, read_script_file
from .retarget import OffsetMode, solve_session, write_pose_trace
from .session import (
    DeviceRole,
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


def _derived_path(base, tag: str) -> Path:
    p = Path(base)
    suffix = p.suffix or ".jsonl"
    return p.with_name(p.stem + tag + suffix)


def cmd_gen(args) -> int:
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
    for part, off in profile.parts.items():
        norm = sum(float(v) ** 2 for v in off.v0) ** 0.5
        print(f"offset {part}: |v0| = {norm:.4f} m")
    for w in warnings:
        print(f"warning: {w}")
    print(f"wrote profile to {args.out}")
    return EXIT_OK


def _solve_hands(args, session, solved, profile, scaled):
    """Optional grip solve per frame; returns extra trace joints per frame."""
    hand = load_hand_file(args.hand_model)
    capsule, button = load_controller_file(args.controller)
    # The controller file describes the grip of the hand file's side; the
    # other side gets the mirror image of both, x -> -x in the controller frame.
    other = "right" if hand.side == "left" else "left"
    hands = {hand.side: hand, other: mirror_hand(hand)}
    capsules = {hand.side: capsule, other: mirror_capsule(capsule)}
    buttons = {hand.side: button, other: None if button is None else mirror_x(button)}
    config = DescentConfig(eta=args.eta, penalty=args.penalty, max_iters=args.max_iters)
    controllers = {
        "left": (DeviceRole.CONTROLLER_LEFT, profile.wrist_palm_offset_left, "wrist_l"),
        "right": (DeviceRole.CONTROLLER_RIGHT, profile.wrist_palm_offset_right, "wrist_r"),
    }
    extras = []
    objectives = {"left": [], "right": []}
    for frame, sp in zip(session.frames, solved):
        if sp is None:
            extras.append([])
            continue
        entries = []
        for side, (dev_role, wrist_offset, wrist_role) in controllers.items():
            detached = (sp.diagnostics.controller_detached_left if side == "left"
                        else sp.diagnostics.controller_detached_right)
            wrist_world = sp.world[scaled.role_index(wrist_role)]
            if detached:
                # Virtual controller rides on the hand when out of reach.
                controller_world = wrist_world @ wrist_offset.inverse()
            else:
                did = profile.device_id(dev_role)
                controller_world = frame.pose_of(did)
            shape = transform_capsule(capsules[side], controller_world)
            button = None if buttons[side] is None else controller_world.apply(buttons[side])
            result = pose_hand_on_controller(hands[side], wrist_world, shape, config, button)
            objectives[side].append(sum(r.objective for r in result.reports))
            for fi, finger in enumerate(hands[side].fingers):
                pts = finger_points(finger, result.params.values[fi], wrist_world)
                for ji, (p, q) in enumerate(zip(pts, result.local_rotations[fi]), start=1):
                    entries.append({"name": f"{wrist_role}/{finger.name}_{ji}",
                                    **pose_to_obj(Transform(q, p))})
        extras.append(entries)
    summary = {f"hand_mean_objective_{side[0]}":
               (sum(v) / len(v) if v else None) for side, v in objectives.items()}
    return extras, summary


def _solve_inputs(args):
    """Session, profile, scaled avatar and optional ground truth of solve/compare."""
    skeleton = load_skeleton_file(args.skeleton)
    session = read_session(args.session)
    profile = load_profile_file(args.profile)
    scaled = scale_uniform(skeleton, profile.scale)
    truth = read_ground_truth(args.ground_truth) if args.ground_truth else None
    return session, profile, scaled, truth


def cmd_solve(args) -> int:
    session, profile, scaled, truth = _solve_inputs(args)
    mode = OffsetMode(args.mode)
    solved, metrics = solve_session(session, profile, scaled, mode, truth)

    document = metrics.to_document()
    extras = None
    if args.hand_model:
        if not args.controller:
            print("error: --hand-model requires --controller", file=sys.stderr)
            return EXIT_USAGE
        extras, hand_summary = _solve_hands(args, session, solved, profile, scaled)
        document.update(hand_summary)

    write_pose_trace(args.out, session, solved, scaled, extras)
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
        _, metrics = solve_session(session, profile, scaled, mode, truth)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avatarfit",
        description="Six-device self-avatar calibration and retargeting pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic session + ground truth")
    gen.add_argument("--skeleton", required=True, help="skeleton JSON (the synthetic user)")
    gen.add_argument("--script", choices=SCRIPT_NAMES, default="tpose")
    gen.add_argument("--script-file", help="JSONL joint-pose script (overrides --script)")
    gen.add_argument("--noise", type=float, default=0.0, help="position noise sigma (m)")
    gen.add_argument("--rot-noise", type=float, default=0.0, help="rotation noise sigma (rad)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--duration", type=float, default=4.0, help="seconds")
    gen.add_argument("--fps", type=float, default=30.0)
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
    slv.add_argument("--hand-model", help="hand model JSON; poses fingers per frame")
    slv.add_argument("--controller", help="controller capsule JSON (with --hand-model)")
    slv.add_argument("--eta", type=float, default=DescentConfig().eta)
    slv.add_argument("--penalty", type=float, default=DescentConfig().penalty)
    slv.add_argument("--max-iters", type=int, default=DescentConfig().max_iters)
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
    except (FormatError, ScriptError, DegenerateGeometryError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
