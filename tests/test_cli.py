import json

import pytest

from avatarfit import cli
from avatarfit.fingers import default_grip_capsule, default_hand_model, save_controller_file, \
    save_hand_file
from avatarfit.rigs import humanoid_document, humanoid_long_legs_document


@pytest.fixture(scope="module")
def rig_files(tmp_path_factory):
    """User and avatar skeletons, a left hand model and its grip capsule."""
    root = tmp_path_factory.mktemp("rigs")
    files = {"user": root / "user.json", "avatar": root / "avatar.json",
             "hand": root / "hand.json", "controller": root / "controller.json"}
    files["user"].write_text(json.dumps(humanoid_document()))
    files["avatar"].write_text(json.dumps(humanoid_long_legs_document()))
    hand = default_hand_model("left")
    save_hand_file(hand, files["hand"])
    save_controller_file(default_grip_capsule(hand), files["controller"])
    return files


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


def gen_and_calibrate(rigs, out, duration="0.5"):
    """Noiseless squat session at 30 fps (16 frames by default) and its profile."""
    assert run("gen", "--skeleton", rigs["user"], "--script", "squat", "--duration", duration,
               "--fps", "30", "--out", out / "session.jsonl") == cli.EXIT_OK
    assert run("calibrate", "--skeleton", rigs["avatar"], "--session", out / "session.jsonl",
               "--out", out / "profile.json") == cli.EXIT_OK


def pipeline(rigs, out) -> dict[str, bytes]:
    """gen -> calibrate -> solve --ground-truth -> compare; returns every output file."""
    out.mkdir()
    gen_and_calibrate(rigs, out)
    common = ("--skeleton", rigs["avatar"], "--session", out / "session.jsonl",
              "--profile", out / "profile.json", "--ground-truth", out / "session.gt.jsonl")
    assert run("solve", *common, "--out", out / "trace.jsonl") == cli.EXIT_OK
    assert run("compare", *common, "--out", out / "compare.json") == cli.EXIT_OK
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestPipeline:
    def test_rerun_is_byte_identical(self, tmp_path, rig_files):
        first = pipeline(rig_files, tmp_path / "a")
        second = pipeline(rig_files, tmp_path / "b")
        assert sorted(first) == ["compare.json", "profile.json", "session.gt.jsonl",
                                 "session.jsonl", "trace.jsonl", "trace.metrics.json"]
        assert first == second

    def test_format_1_profile_rejected(self, tmp_path, rig_files, capsys):
        pipeline(rig_files, tmp_path / "a")
        profile = tmp_path / "a" / "profile.json"
        document = json.loads(profile.read_text())
        document["format"] = 1
        profile.write_text(json.dumps(document))
        code = run("solve", "--skeleton", rig_files["avatar"],
                   "--session", tmp_path / "a" / "session.jsonl", "--profile", profile,
                   "--out", tmp_path / "trace.jsonl")
        assert code == cli.EXIT_PARSE
        assert "unsupported profile format 1" in capsys.readouterr().err


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


class TestHandModel:
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_both_hands_grip_alike(self, tmp_path, rig_files, side):
        # Rigs and squat are left/right symmetric, so the hand on the other
        # side of the hand file, posed on the mirrored capsule, must reach the
        # same objective as the hand the files describe.
        hand, controller = rig_files["hand"], rig_files["controller"]
        if side == "right":
            model = default_hand_model("right")
            hand, controller = tmp_path / "hand.json", tmp_path / "controller.json"
            save_hand_file(model, hand)
            save_controller_file(default_grip_capsule(model), controller)
        gen_and_calibrate(rig_files, tmp_path, duration="0.1")
        assert run("solve", "--skeleton", rig_files["avatar"],
                   "--session", tmp_path / "session.jsonl",
                   "--profile", tmp_path / "profile.json", "--hand-model", hand,
                   "--controller", controller, "--out", tmp_path / "trace.jsonl",
                   "--metrics", tmp_path / "metrics.json") == cli.EXIT_OK
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["hand_mean_objective_l"] < 0.5
        assert metrics["hand_mean_objective_r"] == pytest.approx(
            metrics["hand_mean_objective_l"], abs=1e-9)
