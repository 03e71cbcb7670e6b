import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avatarfit
from avatarfit import cli, fingers, retarget
from avatarfit.calibration import profile_from_document
from avatarfit.fingers import DescentConfig, controller_from_document, default_grip_capsule, \
    default_hand_model, hand_from_document, mirror_capsule, mirror_x, save_controller_file, \
    save_hand_file, transform_capsule
from avatarfit.math3d import IDENTITY, FormatError, apply_state, invert_state, pose_from_obj
from avatarfit.rigs import humanoid_document, humanoid_long_legs_document
from avatarfit.session import DeviceFrame, Session, read_ground_truth, read_session, \
    write_session
from avatarfit.skeleton import load_skeleton, save_skeleton_file, scale_uniform

from conftest import compose, transform
from oracles import reference_slerp

NAN = float("nan")
IDENT = np.array([1.0, 0.0, 0.0, 0.0])
# A button on the grip capsule's surface, relative to the palm anchor (wrist frame).
BUTTON_FROM_PALM = np.array([0.0, -0.026, -0.03])


@pytest.fixture(scope="module")
def rig_files(tmp_path_factory):
    """User and avatar skeletons, a left hand model and its grip capsule (controller frame)."""
    root = tmp_path_factory.mktemp("rigs")
    files = {"user": root / "user.json", "avatar": root / "avatar.json",
             "hand": root / "hand.json", "controller": root / "controller.json",
             "button_controller": root / "button_controller.json"}
    files["user"].write_text(json.dumps(humanoid_document()))
    files["avatar"].write_text(json.dumps(humanoid_long_legs_document()))
    hand = default_hand_model("left")
    save_hand_file(hand, files["hand"])
    # Every noiseless squat calibrates on the same frame, so this profile's
    # hand offset is the one of every squat the tests solve.
    gen_and_calibrate(files, root, duration="0.1")
    save_grip_controller(hand, root / "profile.json", files["controller"])
    save_grip_controller(hand, root / "profile.json", files["button_controller"], button=True)
    return files


def save_grip_controller(hand, profile_path, path, button=False):
    """`default_grip_capsule` (wrist frame) carried into the controller device's
    frame by the profile's hand offset, as the controller file is read; with
    `button`, a button on the capsule (`BUTTON_FROM_PALM`) carried alike."""
    profile = profile_from_document(json.loads(profile_path.read_text()))
    offset = profile.offsets[f"hand_{hand.side}"]
    point = (apply_state(offset, np.array(hand.palm_anchor[4:]) + BUTTON_FROM_PALM)
             if button else None)
    save_controller_file(transform_capsule(default_grip_capsule(hand), offset), path, point)


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


def gen_and_calibrate(rigs, out, duration="0.5"):
    """Noiseless squat session at 30 fps (16 frames by default) and its profile."""
    assert run("gen", "--skeleton", rigs["user"], "--script", "squat", "--duration", duration,
               "--fps", "30", "--out", out / "session.jsonl") == cli.EXIT_OK
    assert run("calibrate", "--skeleton", rigs["avatar"], "--session", out / "session.jsonl",
               "--out", out / "profile.json") == cli.EXIT_OK


def assert_entry_is(entry, pose):
    """A trace joint entry is `pose` within 1e-12 (its quaternion up to sign)."""
    np.testing.assert_allclose(entry["p"], np.array(pose[4:]), atol=1e-12)
    q = np.array(entry["q"])
    np.testing.assert_allclose(q * np.sign(q @ pose[:4]), pose[:4], atol=1e-12)


def pipeline(rigs, out) -> dict[str, bytes]:
    """gen -> calibrate -> solve --ground-truth (body only, and with a grip on a
    controller with a button) -> compare; returns every output file."""
    out.mkdir()
    gen_and_calibrate(rigs, out)
    common = ("--skeleton", rigs["avatar"], "--session", out / "session.jsonl",
              "--profile", out / "profile.json", "--ground-truth", out / "session.gt.jsonl")
    assert run("solve", *common, "--out", out / "trace.jsonl") == cli.EXIT_OK
    assert run("solve", *common, "--hand-model", rigs["hand"], "--controller",
               rigs["button_controller"], "--out", out / "grip.jsonl") == cli.EXIT_OK
    assert run("compare", *common, "--out", out / "compare.json") == cli.EXIT_OK
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestPipeline:
    def test_rerun_is_byte_identical(self, tmp_path, rig_files):
        first = pipeline(rig_files, tmp_path / "a")
        second = pipeline(rig_files, tmp_path / "b")
        assert sorted(first) == ["compare.json", "grip.jsonl", "grip.metrics.json",
                                 "profile.json", "session.gt.jsonl", "session.jsonl",
                                 "trace.jsonl", "trace.metrics.json"]
        assert first == second

    def test_format_1_profile_rejected(self, tmp_path, rig_files, capsys):
        # Formats 1 and 2 held world-frame offsets; recalibrate for format 3.
        pipeline(rig_files, tmp_path / "a")
        profile = tmp_path / "a" / "profile.json"
        document = json.loads(profile.read_text())
        for old_format in (1, 2):
            document["format"] = old_format
            profile.write_text(json.dumps(document))
            code = run("solve", "--skeleton", rig_files["avatar"],
                       "--session", tmp_path / "a" / "session.jsonl", "--profile", profile,
                       "--out", tmp_path / "trace.jsonl")
            assert code == cli.EXIT_PARSE
            assert f"unsupported profile format {old_format}" in capsys.readouterr().err


class TestCalibrationFrameHeader:
    @pytest.mark.parametrize("value", [999, "x", -1, True])
    def test_invalid_index_is_a_parse_error(self, tmp_path, rig_files, capsys, value):
        session = tmp_path / "session.jsonl"
        assert run("gen", "--skeleton", rig_files["user"], "--duration", "0.2",
                   "--out", session) == cli.EXIT_OK
        lines = session.read_text().splitlines()
        header = json.loads(lines[0])
        header["calibration_frame"] = value
        session.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        code = run("calibrate", "--skeleton", rig_files["avatar"], "--session", session,
                   "--out", tmp_path / "profile.json")
        assert code == cli.EXIT_PARSE
        assert "calibration_frame" in capsys.readouterr().err


class TestCalibrationErrors:
    def test_implausible_height_warns_and_exits_0(self, tmp_path, rig_files, capsys):
        # A user 1.7 times the humanoid: the headset at 2.76 m is calibrated,
        # with a warning, not refused.
        save_skeleton_file(scale_uniform(load_skeleton(humanoid_document()), 1.7),
                           tmp_path / "tall.json")
        assert run("gen", "--skeleton", tmp_path / "tall.json", "--script", "tpose",
                   "--duration", "0.2", "--out", tmp_path / "session.jsonl") == cli.EXIT_OK
        capsys.readouterr()
        code = run("calibrate", "--skeleton", rig_files["avatar"], "--session",
                   tmp_path / "session.jsonl", "--out", tmp_path / "profile.json")
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert ("warning: headset height 2.76 m is implausible; check the calibration frame\n"
                in out)
        assert (tmp_path / "profile.json").exists()

    def test_coplanar_layout_exits_4(self, tmp_path, rig_files, capsys):
        # A T-pose layout with all six devices on the plane z = 0: the feet
        # are not in front of the back tracker, so it has no facing.
        spots = {"a": (0.0, 1.6, 0.0), "b": (-0.7, 1.4, 0.0), "c": (0.7, 1.4, 0.0),
                 "d": (0.0, 1.0, 0.0), "e": (-0.15, 0.1, 0.0), "f": (0.15, 0.1, 0.0)}
        frame = DeviceFrame(0.0, {d: transform(IDENT, np.array(p)) for d, p in spots.items()})
        write_session(Session([frame], calibration_frame_index=0), tmp_path / "session.jsonl")
        code = run("calibrate", "--skeleton", rig_files["avatar"], "--session",
                   tmp_path / "session.jsonl", "--out", tmp_path / "profile.json")
        assert code == cli.EXIT_CALIBRATION
        assert "facing is ambiguous" in capsys.readouterr().err
        assert not (tmp_path / "profile.json").exists()

    @pytest.mark.parametrize("layout, code, message", [
        ("vertical_line", cli.EXIT_PARSE, "cannot normalize near-zero vector"),
        ("one_height", cli.EXIT_CALIBRATION, "headset height is ambiguous"),
    ])
    def test_layout_with_no_body_plane(self, tmp_path, rig_files, capsys, layout, code,
                                       message):
        # Six devices on one vertical line span no plane. Six on one
        # horizontal line stop at the headset's height tie before any plane
        # is built.
        heights = (1.6, 1.4, 1.2, 1.0, 0.12, 0.05)
        spots = [(0.3, y, -0.2) if layout == "vertical_line" else (0.1 * k, 1.2, -0.2)
                 for k, y in enumerate(heights)]
        frame = DeviceFrame(0.0, {f"d{k}": transform(IDENT, p) for k, p in enumerate(spots)})
        write_session(Session([frame], calibration_frame_index=0), tmp_path / "session.jsonl")
        assert run("calibrate", "--skeleton", rig_files["avatar"], "--session",
                   tmp_path / "session.jsonl", "--out", tmp_path / "profile.json") == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "profile.json").exists()


class TestHandModel:
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_both_hands_grip_alike(self, tmp_path, rig_files, side):
        # Rigs and squat are left/right symmetric, so the hand on the other
        # side of the hand file, posed on the mirrored capsule, must reach the
        # same objective as the hand the files describe.
        hand, controller = rig_files["hand"], rig_files["controller"]
        gen_and_calibrate(rig_files, tmp_path, duration="0.1")
        if side == "right":
            model = default_hand_model("right")
            hand, controller = tmp_path / "hand.json", tmp_path / "controller.json"
            save_hand_file(model, hand)
            save_grip_controller(model, tmp_path / "profile.json", controller)
        assert run("solve", "--skeleton", rig_files["avatar"],
                   "--session", tmp_path / "session.jsonl",
                   "--profile", tmp_path / "profile.json", "--hand-model", hand,
                   "--controller", controller, "--out", tmp_path / "trace.jsonl",
                   "--metrics", tmp_path / "metrics.json") == cli.EXIT_OK
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        # 0.013 here; 0.084 with the wrist-frame capsule read as a controller file.
        assert metrics["hand_mean_objective_l"] < 0.02
        assert metrics["hand_mean_objective_r"] == pytest.approx(
            metrics["hand_mean_objective_l"], abs=1e-9)

    @pytest.mark.parametrize("mode", ["exact", "fixed"])
    def test_controller_rides_the_wrist_by_the_solved_offset(self, tmp_path, rig_files,
                                                             monkeypatch, mode):
        # The controller rides on the solved wrist at wrist @ offset^-1, with
        # the offset the body was solved with: the calibrated one in exact
        # mode, none in fixed mode (where the wrist is put on the controller).
        # So each hand is gripped once per run, on an identity wrist, around
        # the file's capsule (mirrored for the other hand) moved by offset^-1.
        calls = []

        def recording(hand, wrist_world, shape, *args):
            calls.append((hand.side, wrist_world, shape))
            return fingers.pose_hand_on_controller(hand, wrist_world, shape, *args)

        monkeypatch.setattr(cli, "pose_hand_on_controller", recording)
        gen_and_calibrate(rig_files, tmp_path, duration="0.1")
        assert run("solve", "--skeleton", rig_files["avatar"],
                   "--session", tmp_path / "session.jsonl",
                   "--profile", tmp_path / "profile.json", "--mode", mode,
                   "--hand-model", rig_files["hand"], "--controller", rig_files["controller"],
                   "--out", tmp_path / "trace.jsonl") == cli.EXIT_OK
        profile = profile_from_document(json.loads((tmp_path / "profile.json").read_text()))
        capsule = controller_from_document(json.loads(rig_files["controller"].read_text()))[0]
        assert [side for side, _, _ in calls] == ["left", "right"]
        for (side, wrist, shape), side_capsule in zip(calls, (capsule, mirror_capsule(capsule))):
            offset = profile.offsets[f"hand_{side}"] if mode == "exact" else IDENTITY
            np.testing.assert_array_equal(wrist[:4], IDENT)
            np.testing.assert_array_equal(np.array(wrist[4:]), np.zeros(3))
            want = transform_capsule(side_capsule, invert_state(offset))
            np.testing.assert_array_equal(shape.start, want.start)
            np.testing.assert_array_equal(shape.end, want.end)
            assert shape.radius == want.radius

    def test_finger_entries_are_world_transforms(self, tmp_path, rig_files, monkeypatch):
        # Entry j of a finger is the world pose of phalanx j's end, built here
        # independently from the run's one grip on each frame's solved wrist:
        # wrist @ base @ prod(joint i's rotation @ its offset).
        calls = []

        def recording(hand, *args):
            result = fingers.pose_hand_on_controller(hand, *args)
            calls.append((hand, result.params))
            return result

        monkeypatch.setattr(cli, "pose_hand_on_controller", recording)
        gen_and_calibrate(rig_files, tmp_path, duration="0.1")
        assert run("solve", "--skeleton", rig_files["avatar"],
                   "--session", tmp_path / "session.jsonl",
                   "--profile", tmp_path / "profile.json", "--hand-model", rig_files["hand"],
                   "--controller", rig_files["controller"],
                   "--out", tmp_path / "trace.jsonl") == cli.EXIT_OK
        lines = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
        assert len(calls) == 2 and len(lines) > 1
        for line in lines:
            entries = {entry["name"]: entry for entry in line["joints"]}
            for (hand, params), wrist_role in zip(calls, ("wrist_l", "wrist_r")):
                wrist = pose_from_obj(entries[wrist_role], wrist_role)
                for finger, t in zip(hand.fingers, params.values):
                    pose = compose(wrist, finger.base_local)
                    for j, (spec, tj) in enumerate(zip(finger.joints, t), start=1):
                        q = reference_slerp(spec.open_rotation, spec.closed_rotation, tj)
                        pose = compose(compose(pose, transform(np.array(q), np.zeros(3))),
                                       transform(IDENT, spec.offset))
                        assert_entry_is(entries[f"{wrist_role}/{finger.name}_{j}"], pose)

    @pytest.mark.parametrize("with_button", [False, True], ids=["no_button", "button"])
    @pytest.mark.parametrize("mode", ["exact", "fixed"])
    @pytest.mark.parametrize("script", ["arms", "squat"])
    def test_one_grip_is_the_per_frame_grip(self, tmp_path, rig_files, monkeypatch, script,
                                            mode, with_button):
        # Oracle: a grip searched on every frame around the world controller
        # at wrist @ offset^-1. On noisy sessions, every frame's search
        # returns the one wrist-frame grip's factors to the byte, and the
        # finger entries differ from the oracle's poses by rounding only.
        grips, solves = [], []

        def recording_grip(hand, *args):
            grips.append((hand, fingers.pose_hand_on_controller(hand, *args)))
            return grips[-1][1]

        def recording_solve(*args):
            solves.append(args)
            return retarget.solve_session(*args)

        monkeypatch.setattr(cli, "pose_hand_on_controller", recording_grip)
        monkeypatch.setattr(cli, "solve_session", recording_solve)
        session, profile_path = tmp_path / "session.jsonl", tmp_path / "profile.json"
        assert run("gen", "--skeleton", rig_files["user"], "--script", script,
                   "--duration", "0.3", "--noise", "0.002", "--rot-noise", "0.01",
                   "--seed", "1", "--out", session) == cli.EXIT_OK
        assert run("calibrate", "--skeleton", rig_files["avatar"], "--session", session,
                   "--out", profile_path) == cli.EXIT_OK
        hand = hand_from_document(json.loads(rig_files["hand"].read_text()))
        save_grip_controller(hand, profile_path, tmp_path / "controller.json", with_button)
        assert run("solve", "--skeleton", rig_files["avatar"], "--session", session,
                   "--profile", profile_path, "--mode", mode, "--hand-model", rig_files["hand"],
                   "--controller", tmp_path / "controller.json",
                   "--out", tmp_path / "trace.jsonl") == cli.EXIT_OK

        capsule, button = controller_from_document(
            json.loads((tmp_path / "controller.json").read_text()))
        controllers = {"left": (capsule, button),
                       "right": (mirror_capsule(capsule),
                                 None if button is None else mirror_x(button))}
        [(solved_session, profile, scaled, *_)] = solves
        offsets = retarget.mode_offsets(profile, retarget.OffsetMode(mode))
        lines = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
        # The poses of the solve's own per-frame calls; every frame solves.
        solved = [retarget.solve_frame(frame, profile, scaled, retarget.OffsetMode(mode))
                  for frame in solved_session.frames]
        assert len(grips) == 2 and len(lines) == len(solved) > 1
        for sp, line in zip(solved, lines):
            entries = {entry["name"]: entry for entry in line["joints"]}
            for grip_hand, grip in grips:
                side, (c, b) = grip_hand.side, controllers[grip_hand.side]
                wrist_role = f"wrist_{side[0]}"
                wrist = sp.world[scaled.role_index(wrist_role)]
                controller_world = compose(wrist, invert_state(offsets[f"hand_{side}"]))
                oracle = fingers.pose_hand_on_controller(
                    grip_hand, wrist, transform_capsule(c, controller_world), DescentConfig(),
                    None if b is None else apply_state(controller_world, b))
                assert [np.array(v).tobytes() for v in oracle.params.values] == \
                    [np.array(v).tobytes() for v in grip.params.values]
                for finger, poses in zip(grip_hand.fingers, oracle.poses):
                    for j, pose in enumerate(poses, start=1):
                        assert_entry_is(entries[f"{wrist_role}/{finger.name}_{j}"], pose)


class TestDescentFlags:
    @pytest.mark.parametrize("flag", [("--penalty", "-1"), ("--penalty", "inf"),
                                      ("--penalty", "1e307"),
                                      ("--max-iters", "0"), ("--max-iters", "-3")])
    def test_bad_value_is_a_usage_error(self, tmp_path, rig_files, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            run("solve", "--skeleton", rig_files["avatar"], "--session", tmp_path / "s.jsonl",
                "--profile", tmp_path / "p.json", "--hand-model", rig_files["hand"],
                "--controller", rig_files["controller"], "--out", tmp_path / "trace.jsonl",
                *flag)
        assert exit_info.value.code == cli.EXIT_USAGE
        assert f"argument {flag[0]}: must be positive and finite" in capsys.readouterr().err

    def test_largest_penalty_writes_finite_metrics(self, tmp_path, tiny_files):
        # The largest penalty below the input rule's 1e150, on a capsule of
        # radius 10 around the palm that holds every finger point deep inside:
        # every objective stays finite, so the metrics file is plain JSON.
        controller = tmp_path / "controller.json"
        controller.write_text(json.dumps(
            {**json.loads(tiny_files["controller"].read_text()), "r": 10.0}))
        assert run("solve", "--skeleton", tiny_files["skeleton"],
                   "--session", tiny_files["session"], "--profile", tiny_files["profile"],
                   "--hand-model", tiny_files["hand"], "--controller", controller,
                   "--penalty", repr(math.nextafter(1e150, 0.0)),
                   "--out", tmp_path / "trace.jsonl",
                   "--metrics", tmp_path / "metrics.json") == cli.EXIT_OK

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")
        metrics = json.loads((tmp_path / "metrics.json").read_text(), parse_constant=reject)
        assert 1e150 < metrics["hand_mean_objective_l"] < math.inf

    def test_eta_is_an_unrecognized_argument(self, tmp_path, rig_files, capsys):
        # The grip search has no learning rate.
        with pytest.raises(SystemExit) as exit_info:
            run("solve", "--skeleton", rig_files["avatar"], "--session", tmp_path / "s.jsonl",
                "--profile", tmp_path / "p.json", "--out", tmp_path / "trace.jsonl",
                "--eta", "0.1")
        assert exit_info.value.code == cli.EXIT_USAGE
        assert "unrecognized arguments: --eta 0.1" in capsys.readouterr().err


class TestNoNumpyOutsideTheGenerator:
    def test_calibrate_solve_and_compare_never_import_numpy(self, rig_files, tmp_path):
        # A fresh interpreter: the package's own arithmetic finds the roles
        # and runs the solve, the grip and the scores, so NumPy's import stays
        # off their start-up. Only `gen`'s random draws need it.
        root = rig_files["user"].parent
        session = ["--skeleton", rig_files["avatar"], "--session", root / "session.jsonl"]
        common = [*session, "--profile", root / "profile.json",
                  "--ground-truth", root / "session.gt.jsonl"]
        commands = [["calibrate", *session, "--out", tmp_path / "profile.json"],
                    ["solve", *common, "--out", tmp_path / "trace.jsonl"],
                    ["solve", *common, "--hand-model", rig_files["hand"], "--controller",
                     rig_files["controller"], "--out", tmp_path / "grip.jsonl"],
                    ["compare", *common, "--out", tmp_path / "compare.json"]]
        script = ("import json, sys\nimport avatarfit.cli\n"
                  "for argv in json.loads(sys.argv[1]):\n"
                  "    assert avatarfit.cli.main(argv) == 0\n"
                  "print('numpy' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(avatarfit.__file__).resolve().parents[1])}
        argv = json.dumps([[str(a) for a in command] for command in commands])
        result = subprocess.run([sys.executable, "-c", script, argv], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "False"


class TestOneParserPerProcess:
    def test_no_flag_or_default_leaks_between_calls(self, tmp_path, tiny_files, capsys):
        # `main` parses with one cached parser. After a solve with every grip
        # flag and another mode, and a usage error, a solve with the defaults
        # writes the bytes of a fresh `python -m avatarfit` process.
        assert cli.build_parser() is cli.build_parser()
        common = ("--skeleton", tiny_files["skeleton"], "--session", tiny_files["session"],
                  "--profile", tiny_files["profile"], "--ground-truth", tiny_files["ground_truth"],
                  "--hand-model", tiny_files["hand"], "--controller", tiny_files["controller"])
        assert run("solve", *common, "--penalty", "5", "--max-iters", "3", "--mode", "fixed",
                   "--out", tmp_path / "flags.jsonl",
                   "--metrics", tmp_path / "flags.json") == cli.EXIT_OK
        with pytest.raises(SystemExit) as exit_info:
            run("solve", *common, "--max-iters", "0", "--out", tmp_path / "bad.jsonl")
        assert exit_info.value.code == cli.EXIT_USAGE
        (tmp_path / "here").mkdir()
        (tmp_path / "fresh").mkdir()
        assert run("solve", *common, "--out", tmp_path / "here" / "trace.jsonl") == cli.EXIT_OK
        env = {**os.environ, "PYTHONPATH": str(Path(avatarfit.__file__).resolve().parents[1])}
        result = subprocess.run([sys.executable, "-m", "avatarfit", "solve",
                                 *map(str, common), "--out", tmp_path / "fresh" / "trace.jsonl"],
                                env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        for name in ("trace.jsonl", "trace.metrics.json"):
            assert (tmp_path / "here" / name).read_bytes() == \
                (tmp_path / "fresh" / name).read_bytes()
        assert (tmp_path / "flags.jsonl").read_bytes() != \
            (tmp_path / "fresh" / "trace.jsonl").read_bytes()


class TestSolveChecksFirst:
    """A usage error or a malformed grip file ends `solve` before the body solve."""

    @pytest.fixture
    def solve_calls(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return retarget.solve_session(*args)

        monkeypatch.setattr(cli, "solve_session", counting)
        return calls

    def solve(self, tiny_files, tmp_path, *grip):
        return run("solve", "--skeleton", tiny_files["skeleton"],
                   "--session", tiny_files["session"], "--profile", tiny_files["profile"],
                   "--out", tmp_path / "trace.jsonl", *grip)

    def test_hand_model_without_controller_exits_2(self, tmp_path, tiny_files, solve_calls,
                                                   capsys):
        assert self.solve(tiny_files, tmp_path, "--hand-model", tiny_files["hand"]) \
            == cli.EXIT_USAGE
        assert "--hand-model requires --controller" in capsys.readouterr().err
        assert solve_calls == []

    def test_controller_without_hand_model_exits_2(self, tmp_path, tiny_files, solve_calls,
                                                   capsys):
        # A malformed controller file: reading it would exit 3.
        bad = tmp_path / "controller.json"
        bad.write_text("{bad")
        assert self.solve(tiny_files, tmp_path, "--controller", bad) == cli.EXIT_USAGE
        assert "--controller requires --hand-model" in capsys.readouterr().err
        assert solve_calls == []
        assert not (tmp_path / "trace.jsonl").exists()

    @pytest.mark.parametrize("kind", ["hand", "controller"])
    def test_malformed_grip_file_exits_3(self, tmp_path, tiny_files, solve_calls, kind):
        files = dict(tiny_files)
        files[kind] = tmp_path / f"{kind}.json"
        files[kind].write_text(json.dumps({"side": "left"}))
        assert self.solve(tiny_files, tmp_path, "--hand-model", files["hand"],
                          "--controller", files["controller"]) == cli.EXIT_PARSE
        assert solve_calls == []


class TestNoSolvedFrame:
    def test_renamed_devices_solve_no_frame(self, tmp_path, tiny_files, capsys):
        # Every device id of the session renamed, header too: the profile's
        # ids match none, so no frame solves. Both commands still exit 0, and
        # every mean over solved frames is null in the JSON and n/a in the
        # table.
        session = read_session(tiny_files["session"])
        renamed = Session([DeviceFrame(f.timestamp, {f"x{d}": p for d, p in f.devices.items()})
                           for f in session.frames],
                          {f"x{d}": role for d, role in session.role_map.items()},
                          session.calibration_frame_index)
        write_session(renamed, tmp_path / "renamed.jsonl")
        common = ("--skeleton", tiny_files["skeleton"], "--session", tmp_path / "renamed.jsonl",
                  "--profile", tiny_files["profile"],
                  "--ground-truth", tiny_files["ground_truth"])
        assert run("solve", *common, "--out", tmp_path / "trace.jsonl",
                   "--metrics", tmp_path / "metrics.json") == cli.EXIT_OK
        assert f"solved 0/{len(session.frames)} frames" in capsys.readouterr().out
        assert run("compare", *common, "--out", tmp_path / "compare.json") == cli.EXIT_OK
        table = capsys.readouterr().out.splitlines()
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        report = json.loads((tmp_path / "compare.json").read_text())
        for document in (metrics, report["exact"], report["fixed"]):
            assert document["solved_frames"] == 0
            assert len(document["frame_errors"]) == len(session.frames)
            for key in ("mean_knee_flexion", "alpha_mean", "alpha_max"):
                assert document[key] is None, key
        for label in ("knee flex mean", "spine angle mean"):
            row = next(line for line in table if line.startswith(label))
            assert row.split()[-2:] == ["n/a", "n/a"]


class TestDegenerateTruthLeg:
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_exits_3_naming_frame_and_side(self, tmp_path, tiny_files, capsys, side):
        # A truth knee on its hip gives no knee angle: an input error, found
        # before `solve` opens the trace, on either leg of any frame.
        lines = [json.loads(line) for line in tiny_files["ground_truth"].read_text().splitlines()]
        column = lines[0]["roles"].index
        p = lines[1 + 3]["p"]
        p[column(f"knee_{side[0]}")] = p[column(f"hip_{side[0]}")]
        truth = tmp_path / "gt.jsonl"
        truth.write_text("".join(json.dumps(line) + "\n" for line in lines))
        common = ("--skeleton", tiny_files["skeleton"], "--session", tiny_files["session"],
                  "--profile", tiny_files["profile"], "--ground-truth", truth)
        message = (f"error: ground truth frame 3, {side} leg: "
                   "flexion requires a nonzero segment on each side\n")
        assert run("solve", *common, "--out", tmp_path / "trace.jsonl") == cli.EXIT_PARSE
        assert capsys.readouterr().err == message
        assert not (tmp_path / "trace.jsonl").exists()
        assert run("compare", *common, "--out", tmp_path / "compare.json") == cli.EXIT_PARSE
        assert capsys.readouterr().err == message


class TestGenFlags:
    @pytest.mark.parametrize("flag", [
        ("--noise", "-1", "non-negative"), ("--noise", "nan", "non-negative"),
        ("--rot-noise", "-0.1", "non-negative"), ("--seed", "-1", "non-negative"),
        ("--duration", "0", "positive"), ("--duration", "-1", "positive"),
        ("--duration", "inf", "positive"), ("--fps", "nan", "positive")],
        ids=lambda flag: f"{flag[0]} {flag[1]}")
    def test_bad_value_is_a_usage_error(self, tmp_path, rig_files, capsys, flag):
        name, value, wording = flag
        with pytest.raises(SystemExit) as exit_info:
            run("gen", "--skeleton", rig_files["user"], "--out", tmp_path / "s.jsonl",
                name, value)
        assert exit_info.value.code == cli.EXIT_USAGE
        assert f"argument {name}: must be {wording} and finite" in capsys.readouterr().err
        assert not (tmp_path / "s.jsonl").exists()

    def test_infinite_frame_count_is_a_usage_error(self, tmp_path, capsys):
        # 1e300 * 1e300 overflows; no file is read, so the missing skeleton is no error.
        assert run("gen", "--skeleton", tmp_path / "missing.json", "--duration", "1e300",
                   "--fps", "1e300", "--out", tmp_path / "s.jsonl") == cli.EXIT_USAGE
        assert "--duration times --fps must be a finite frame count" in capsys.readouterr().err
        assert not (tmp_path / "s.jsonl").exists()


def put(*keys_and_value):
    """Corruption that sets the value at a key path of a document."""
    *keys, value = keys_and_value

    def corrupt(document):
        target = document
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        return document
    return corrupt


def drop(*keys):
    """Corruption that deletes the entry at a key path of a document."""
    def corrupt(document):
        target = document
        for key in keys[:-1]:
            target = target[key]
        del target[keys[-1]]
        return document
    return corrupt


# (file, corruption); JSONL files are corrupted as the list of their line objects.
# A profile offset's translation is the paper's v0 and its rotation R0(J), both
# in the device's frame; the profile rows keep those names.
MALFORMED = {
    "skeleton joint not an object": ("skeleton", put("joints", 3, 5)),
    "skeleton NaN rotation": ("skeleton", put("joints", 1, "rotation", [NAN, 0, 0, 0])),
    "skeleton joints empty": ("skeleton", put("joints", [])),
    "skeleton joints not a list": ("skeleton", put("joints", {"name": "root"})),
    "skeleton duplicate joint name": ("skeleton", lambda document: put(
        "joints", 2, "name", document["joints"][1]["name"])(document)),
    "skeleton zero-length bone": ("skeleton", put("joints", 1, "translation", [0.0, 0.0, 0.0])),
    "skeleton eye_height 0": ("skeleton", put("eye_height", 0.0)),
    "skeleton eye_height 1e-320": ("skeleton", put("eye_height", 1e-320)),
    # The left arm's limb roles are then no parent-child chain.
    "skeleton wrist_l a child of shoulder_l": ("skeleton", lambda document: put(
        "joints", [j["name"] for j in document["joints"]].index("wrist_l"), "parent",
        "shoulder_l")(document)),
    "session line 5": ("session", lambda lines: lines[:2] + [5] + lines[2:]),
    "session role_map of seven devices": ("session", put(0, "role_map", "dev9", "hmd")),
    "session duplicate device id": ("session", lambda lines: put(
        2, "devices", 1, "id", lines[2]["devices"][0]["id"])(lines)),
    "session no frames": ("session", lambda lines: lines[:1]),
    "session frame without devices": ("session", drop(2, "devices")),
    # calibrate needs the header's calibration frame.
    "session no calibration marker": ("session", drop(0, "calibration_frame")),
    "profile top level list": ("profile", lambda document: [1, 2]),
    "profile NaN v0": ("profile", put("offsets", "root", "translation", [NAN, 0.0, 0.0])),
    "profile NaN scale": ("profile", put("scale", NAN)),
    "profile v0 of length 2": ("profile", put("offsets", "root", "translation", [0.0, 0.1])),
    "profile missing part": ("profile", drop("offsets", "foot_left")),
    "profile non-unit r0_joint": ("profile", put("offsets", "root", "rotation", [2, 0, 0, 0])),
    "profile negative scale": ("profile", put("scale", -1.0)),
    "profile scale 1e-200": ("profile", put("scale", 1e-200)),
    "profile role_map of five devices": ("profile", lambda document: drop(
        "role_map", sorted(document["role_map"])[0])(document)),
    "profile role_map with an unknown role": ("profile", lambda document: put(
        "role_map", sorted(document["role_map"])[0], "tracker_knee")(document)),
    "profile missing w0": ("profile", drop("w0")),
    "profile not JSON": ("profile", lambda document: "{bad"),
    "profile v0 past walk-in": ("profile", put("offsets", "root", "translation",
                                               [0.0, 0.8, 0.0])),
    "profile hand offset past walk-in": ("profile", put("offsets", "hand_left", "translation",
                                                        [0.0, -0.8, 0.0])),
    "ground truth NaN quaternion": ("ground_truth", put(1, "q", 0, [NAN, 0, 0, 0])),
    "ground truth non-unit quaternion": ("ground_truth", put(1, "q", 0, [3, 0, 0, 0])),
    "ground truth fewer joints": ("ground_truth", lambda lines: lines[:1] + [
        {**line, "p": line["p"][:-1], "q": line["q"][:-1]} for line in lines[1:]]),
    "ground truth fewer frames": ("ground_truth", lambda lines: lines[:3]),
    "ground truth fewer roles than joints": ("ground_truth", lambda lines: put(
        0, "roles", lines[0]["roles"][:-1])(lines)),
    "ground truth unknown format": ("ground_truth", put(0, "format", 2)),
    "ground truth format true": ("ground_truth", put(0, "format", True)),
    "ground truth lacks a role": ("ground_truth", lambda lines: put(0, "roles", [
        "other" if role == "knee_r" else role for role in lines[0]["roles"]])(lines)),
    "hand NaN open": ("hand", put("fingers", 0, "joints", 0, "open", [NAN, 0, 0, 0])),
    "hand offset of length 2": ("hand", put("fingers", 0, "joints", 0, "offset", [0.01, 0.0])),
    "hand side middle": ("hand", put("side", "middle")),
    "hand finger with 5 joints": ("hand", lambda document: put(
        "fingers", 0, "joints", document["fingers"][0]["joints"] + document["fingers"][0]["joints"][:2])(document)),
    "hand finger without joints": ("hand", put("fingers", 1, "joints", [])),
    # A finger name labels trace joints, and "thumb" takes the button term.
    "hand finger name not a string": ("hand", put("fingers", 0, "name", 5)),
    "hand two thumbs": ("hand", put("fingers", 1, "name", "thumb")),
    "hand without fingers": ("hand", put("fingers", [])),
    "controller NaN r": ("controller", put("r", NAN)),
    "controller button of length 2": ("controller", put("button", [0.0, 0.0])),
    "controller endpoints one ulp apart": ("controller", lambda document: put(
        "e", [*document["s"][:2], math.nextafter(document["s"][2], 1.0)])(document)),
    "script root without p": ("script", put(1, "root", {"q": [1, 0, 0, 0]})),
    "script unknown joint": ("script", put(1, "rotations", {"tail": [1, 0, 0, 0]})),
    "script no t": ("script", drop(1, "t")),
    "script non-unit quaternion": ("script", put(1, "rotations", {"knee_l": [2, 0, 0, 0]})),
    "script NaN quaternion": ("script", put(1, "rotations", {"knee_l": [NAN, 0, 0, 0]})),
    "script decreasing t": ("script", put(2, "t", 0.05)),
    "script rotations not an object": ("script", put(1, "rotations", [[1, 0, 0, 0]])),
    "script empty": ("script", lambda lines: []),
    "script root not an object": ("script", put(1, "root", [0.0, 0.95, 0.0])),
    # JSON true is not the number 1, wherever a number is read.
    "session p with true": ("session", put(2, "devices", 0, "p", 0, True)),
    "session q with true": ("session", put(2, "devices", 0, "q", [True, 0.0, 0.0, 0.0])),
    "ground truth p with true": ("ground_truth", put(1, "p", 0, 0, True)),
    "ground truth q with true": ("ground_truth", put(1, "q", 0, [True, 0.0, 0.0, 0.0])),
    "skeleton translation with true": ("skeleton", put("joints", 1, "translation", 0, True)),
    "profile v0 with true": ("profile", put("offsets", "root", "translation", 0, True)),
    "hand offset with true": ("hand", put("fingers", 0, "joints", 0, "offset", 2, True)),
    "controller s with true": ("controller", put("s", 0, True)),
    "script quaternion with true": ("script", put(1, "rotations", {"knee_l": [True, 0, 0, 0]})),
}


@pytest.fixture(scope="module")
def tiny_files(rig_files, tmp_path_factory):
    """Valid inputs of every format: a 4-frame squat, its profile and a 4-line script."""
    root = tmp_path_factory.mktemp("tiny")
    gen_and_calibrate(rig_files, root, duration="0.1")
    script = [{"t": 0.1 * i, "rotations": {"knee_l": [1.0, 0.0, 0.0, 0.0]},
               "root": {"p": [0.0, 0.95, 0.0], "q": [1.0, 0.0, 0.0, 0.0]}} for i in range(4)]
    del script[0]["root"]
    (root / "script.jsonl").write_text("".join(json.dumps(line) + "\n" for line in script))
    return {"skeleton": rig_files["avatar"], "session": root / "session.jsonl",
            "ground_truth": root / "session.gt.jsonl", "profile": root / "profile.json",
            "hand": rig_files["hand"], "controller": rig_files["controller"],
            "script": root / "script.jsonl"}


@pytest.fixture(scope="module")
def documents(tiny_files):
    return {kind: json.loads(tiny_files[kind].read_text())
            for kind in ("skeleton", "profile", "hand", "controller")}


def leaf_paths(value, path=()):
    """Key paths of every value in a JSON document that is not an object or list."""
    if isinstance(value, dict):
        return [p for key, v in value.items() for p in leaf_paths(v, (*path, key))]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in leaf_paths(v, (*path, i))]
    return [path]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=4),
    max_leaves=8)

JSONL_READERS = {"session": read_session, "ground_truth": read_ground_truth}
LOADERS = {"skeleton": load_skeleton, "profile": profile_from_document,
           "hand": hand_from_document, "controller": controller_from_document}


class TestMalformedInputs:
    """Every malformed input file exits 3 through `cli.main`, without a traceback."""

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_exits_3(self, tmp_path, tiny_files, case):
        kind, corrupt = MALFORMED[case]
        files = dict(tiny_files)
        path = files[kind] = tmp_path / files[kind].name
        if path.suffix == ".jsonl":
            lines = [json.loads(line) for line in tiny_files[kind].read_text().splitlines()]
            path.write_text("".join(json.dumps(line) + "\n" for line in corrupt(lines)))
        else:  # a corruption that returns text writes that text
            document = corrupt(json.loads(tiny_files[kind].read_text()))
            path.write_text(document if isinstance(document, str) else json.dumps(document))
        session = ("--skeleton", files["skeleton"], "--session", files["session"])
        solve = ("solve", *session, "--profile", files["profile"],
                 "--out", tmp_path / "trace.jsonl")
        argv = {
            "skeleton": ("calibrate", *session, "--out", tmp_path / "profile.json"),
            "session": ("calibrate", *session, "--out", tmp_path / "profile.json"),
            "profile": solve,
            "ground_truth": (*solve, "--ground-truth", files["ground_truth"]),
            "hand": (*solve, "--hand-model", files["hand"], "--controller", files["controller"],
                     "--max-iters", "1"),
            "script": ("gen", "--skeleton", files["skeleton"], "--script-file", files["script"],
                       "--out", tmp_path / "session.jsonl"),
        }
        argv["controller"] = argv["hand"]
        assert run(*argv[kind]) == cli.EXIT_PARSE
        # `solve` checks every input before it opens the trace.
        assert not (tmp_path / "trace.jsonl").exists()

    def test_internal_value_error_is_not_an_input_error(self, tmp_path, tiny_files,
                                                        monkeypatch):
        # A plain ValueError is a bug in the package, not a malformed file:
        # `main` must not report it as exit 3.
        def broken(*args, **kwargs):
            raise ValueError("internal")
        monkeypatch.setattr(cli, "solve_session", broken)
        with pytest.raises(ValueError, match="internal"):
            run("solve", "--skeleton", tiny_files["skeleton"], "--session", tiny_files["session"],
                "--profile", tiny_files["profile"], "--out", tmp_path / "trace.jsonl")

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_random_leaf_is_loaded_or_rejected(self, documents, data):
        kind = data.draw(st.sampled_from(sorted(LOADERS)))
        document = json.loads(json.dumps(documents[kind]))
        path = data.draw(st.sampled_from(leaf_paths(document)))
        put(*path, data.draw(json_values))(document)
        try:
            LOADERS[kind](document)
        except ValueError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_random_leaf_of_a_frame_is_loaded_or_rejected(self, tiny_files, tmp_path_factory,
                                                          data):
        # The per-frame readers: a one-frame session or ground truth with one
        # leaf replaced loads, or fails with a FormatError and nothing else.
        kind = data.draw(st.sampled_from(sorted(JSONL_READERS)))
        lines = [json.loads(line) for line in tiny_files[kind].read_text().splitlines()[:2]]
        path = data.draw(st.sampled_from(leaf_paths(lines)))
        put(*path, data.draw(json_values))(lines)
        file = tmp_path_factory.getbasetemp() / f"random_leaf.{kind}.jsonl"
        file.write_text("".join(json.dumps(line) + "\n" for line in lines))
        try:
            JSONL_READERS[kind](file)
        except FormatError:
            pass
