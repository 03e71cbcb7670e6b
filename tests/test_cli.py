import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avatarfit import cli
from avatarfit.calibration import profile_from_document
from avatarfit.fingers import controller_from_document, default_grip_capsule, \
    default_hand_model, hand_from_document, save_controller_file, save_hand_file
from avatarfit.rigs import humanoid_document, humanoid_long_legs_document
from avatarfit.skeleton import load_skeleton

NAN = float("nan")


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
MALFORMED = {
    "skeleton joint not an object": ("skeleton", put("joints", 3, 5)),
    "skeleton NaN rotation": ("skeleton", put("joints", 1, "rotation", [NAN, 0, 0, 0])),
    "session line 5": ("session", lambda lines: lines[:2] + [5] + lines[2:]),
    "profile top level list": ("profile", lambda document: [1, 2]),
    "profile NaN v0": ("profile", put("parts", "root", "v0", [NAN, 0.0, 0.0])),
    "profile NaN scale": ("profile", put("scale", NAN)),
    "profile v0 of length 2": ("profile", put("parts", "root", "v0", [0.0, 0.1])),
    "profile missing part": ("profile", drop("parts", "foot_left")),
    "profile non-unit r0_joint": ("profile", put("parts", "root", "r0_joint", [2, 0, 0, 0])),
    "profile negative scale": ("profile", put("scale", -1.0)),
    "profile v0 past walk-in": ("profile", put("parts", "root", "v0", [0.0, 0.8, 0.0])),
    "ground truth NaN quaternion": ("ground_truth", put(1, "q", 0, [NAN, 0, 0, 0])),
    "ground truth non-unit quaternion": ("ground_truth", put(1, "q", 0, [3, 0, 0, 0])),
    "ground truth fewer joints": ("ground_truth", lambda lines: lines[:1] + [
        {**line, "p": line["p"][:-1], "q": line["q"][:-1]} for line in lines[1:]]),
    "ground truth fewer frames": ("ground_truth", lambda lines: lines[:3]),
    "ground truth unknown format": ("ground_truth", put(0, "format", 2)),
    "ground truth lacks a role": ("ground_truth", lambda lines: put(0, "roles", [
        "other" if role == "knee_r" else role for role in lines[0]["roles"]])(lines)),
    "hand NaN open": ("hand", put("fingers", 0, "joints", 0, "open", [NAN, 0, 0, 0])),
    "hand offset of length 2": ("hand", put("fingers", 0, "joints", 0, "offset", [0.01, 0.0])),
    "hand side middle": ("hand", put("side", "middle")),
    "controller NaN r": ("controller", put("r", NAN)),
    "controller button of length 2": ("controller", put("button", [0.0, 0.0])),
    "script root without p": ("script", put(1, "root", {"q": [1, 0, 0, 0]})),
    "script unknown joint": ("script", put(1, "rotations", {"tail": [1, 0, 0, 0]})),
    "script no t": ("script", drop(1, "t")),
    "script non-unit quaternion": ("script", put(1, "rotations", {"knee_l": [2, 0, 0, 0]})),
    "script NaN quaternion": ("script", put(1, "rotations", {"knee_l": [NAN, 0, 0, 0]})),
    "script decreasing t": ("script", put(2, "t", 0.05)),
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
        else:
            path.write_text(json.dumps(corrupt(json.loads(tiny_files[kind].read_text()))))
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
