"""Every pose state the package builds holds Python floats, and is a plain tuple.

Inside the package a pose is an exact tuple of seven floats; a `Transform`
wraps one only where the solve and the ground truth hand it out
(`SolvedPose.world`, `GroundTruth.frames`). A tuple holds the number objects
it is given. A NumPy scalar that gets into a state stays there, and every
later solve on it runs on `np.float64`: the outputs keep their bytes and
only the frame time shows it. These tests check the type of every number,
`type(v) is float`, and of every pose, from the generator to the grip, as
built and as read back from the files.
"""

import json

import pytest

from avatarfit.calibration import calibrate_session, load_profile_file, save_profile_file
from avatarfit.fingers import DescentConfig, default_grip_capsule, default_hand_model, \
    load_hand_file, pose_hand_on_controller, save_hand_file, transform_capsule
from avatarfit.math3d import Transform, apply_state
from avatarfit.motion import SCRIPT_NAMES, builtin_script, read_script_file
from avatarfit.retarget import OffsetMode, solve_frame
from avatarfit.rigs import humanoid, humanoid_long_legs
from avatarfit.session import NoiseModel, default_mount_offsets, generate_synthetic_session, \
    read_ground_truth, read_session, write_ground_truth, write_session
from avatarfit.skeleton import forward_kinematics, load_skeleton_file, save_skeleton_file


def assert_floats(values, what: str) -> None:
    types = [type(v).__name__ for v in values]
    assert types == ["float"] * len(types), f"{what}: {types}"


def assert_states(poses, what: str, kind: type = tuple) -> None:
    """Each pose is exactly a `kind` of seven floats."""
    for t in poses:
        assert type(t) is kind, f"{what}: {type(t).__name__}"
        assert len(t) == 7, what
        assert_floats(t, what)


@pytest.fixture(scope="module", params=SCRIPT_NAMES)
def generated(request):
    """A built-in script on the user rig and its noisy session and ground truth."""
    user = humanoid()
    script = builtin_script(request.param, user, duration=0.4, fps=10.0, seed=1)
    session, truth = generate_synthetic_session(
        user, script, noise=NoiseModel(position_sigma=0.002, rotation_sigma=0.01, seed=3))
    return script, session, truth


def test_sessions_and_ground_truths(generated, tmp_path):
    _, session, truth = generated
    write_session(session, tmp_path / "session.jsonl")
    write_ground_truth(truth, session, tmp_path / "gt.jsonl")
    read = read_session(tmp_path / "session.jsonl")
    read_truth = read_ground_truth(tmp_path / "gt.jsonl")
    for frames, world_frames, how in ((session.frames, truth.frames, "generated"),
                                      (read.frames, read_truth.frames, "read")):
        for frame, world in zip(frames, world_frames, strict=True):
            assert_states(list(frame.devices.values()), f"{how} session device")
            # The ground truth is handed out as Transforms, for NumPy callers.
            assert_states(world, f"{how} ground-truth joint", Transform)


def test_script_roots_and_default_mounts(generated, tmp_path):
    script, _, _ = generated
    for sp in script:
        assert_states([] if sp.root_world is None else [sp.root_world], "script root")
        for q in sp.rotations.values():
            assert_floats(q, "script rotation")
    assert_states(default_mount_offsets().values(), "default mount")
    path = tmp_path / "script.jsonl"
    path.write_text(json.dumps({"t": 0.0}) + "\n" + json.dumps(
        {"t": 0.1, "root": {"p": [0, 1, 0], "q": [1, 0, 0, 0]}}) + "\n", encoding="utf-8")
    assert_states([sp.root_world for sp in read_script_file(path)[1:]], "file script root")


@pytest.fixture(scope="module")
def calibrated(generated):
    _, session, _ = generated
    profile, scaled, _ = calibrate_session(session, humanoid_long_legs())
    return session, profile, scaled


def test_calibrated_profile_and_scaled_avatar(calibrated, tmp_path):
    _, profile, scaled = calibrated
    assert_states(profile.offsets.values(), "profile offset")
    assert_floats(profile.w0, "w0")
    assert_floats([profile.scale], "scale")
    for state in scaled.bind_states:
        assert_floats(state, "scaled bind state")
    assert_floats(scaled.bone_lengths, "bone length")
    save_profile_file(profile, tmp_path / "profile.json")
    assert_states(load_profile_file(tmp_path / "profile.json").offsets.values(),
                  "loaded profile offset")
    save_skeleton_file(scaled, tmp_path / "avatar.json")
    for skeleton, how in ((humanoid_long_legs(), "loaded"), (scaled, "scaled"),
                          (load_skeleton_file(tmp_path / "avatar.json"), "read")):
        assert_states([j.bind_local for j in skeleton.joints], f"{how} bind_local")


def test_hand_models(tmp_path):
    for side in ("left", "right"):
        hand = default_hand_model(side)
        save_hand_file(hand, tmp_path / f"{side}.json")
        for model, how in ((hand, "default"), (load_hand_file(tmp_path / f"{side}.json"), "read")):
            assert_states([f.base_local for f in model.fingers], f"{how} {side} base_local")
            assert_states([model.palm_anchor], f"{how} {side} palm_anchor")


@pytest.mark.parametrize("mode", list(OffsetMode))
def test_solved_world_and_grip(calibrated, mode):
    session, profile, scaled = calibrated
    hand = default_hand_model("left")
    wrist_index = scaled.role_index("wrist_l")
    root_index = scaled.role_index("root")
    for frame in session.frames[::2]:
        world = solve_frame(frame, profile, scaled, mode).world
        # The benchmark reads `translation` off each solved joint, and FK
        # composes plain tuples, which unpack faster than a Transform.
        assert_states(world, "solved joint", Transform)
        states = forward_kinematics(scaled, scaled.bind_rotations, world[root_index])
        assert {type(s) for i, s in enumerate(states) if i != root_index} == {tuple}
        wrist = world[wrist_index]
        capsule = transform_capsule(default_grip_capsule(hand), wrist)
        button = apply_state(wrist, hand.palm_anchor[4:])
        grip = pose_hand_on_controller(hand, wrist, capsule, DescentConfig(max_iters=5), button)
        for poses in grip.poses:
            assert_states(poses, "grip pose")
