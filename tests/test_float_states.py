"""Every pose state the package builds holds Python floats.

`Transform.of_state` keeps the state it is given. A NumPy scalar that gets
into a state stays there, and every later solve on it runs on `np.float64`:
the outputs keep their bytes and only the frame time shows it. These tests
check the type of every number, `type(v) is float`, from the generator to
the grip.
"""

import pytest

from avatarfit.calibration import calibrate_session
from avatarfit.fingers import DescentConfig, default_grip_capsule, default_hand_model, \
    pose_hand_on_controller, transform_capsule
from avatarfit.motion import SCRIPT_NAMES, builtin_script
from avatarfit.retarget import OffsetMode, solve_frame
from avatarfit.rigs import humanoid, humanoid_long_legs
from avatarfit.session import NoiseModel, default_mount_offsets, generate_synthetic_session


def assert_floats(values, what: str) -> None:
    types = [type(v).__name__ for v in values]
    assert types == ["float"] * len(types), f"{what}: {types}"


def assert_states(transforms, what: str) -> None:
    for t in transforms:
        assert len(t.state) == 7, what
        assert_floats(t.state, what)


@pytest.fixture(scope="module", params=SCRIPT_NAMES)
def generated(request):
    """A built-in script on the user rig and its noisy session and ground truth."""
    user = humanoid()
    script = builtin_script(request.param, user, duration=0.4, fps=10.0, seed=1)
    session, truth = generate_synthetic_session(
        user, script, noise=NoiseModel(position_sigma=0.002, rotation_sigma=0.01, seed=3))
    return script, session, truth


def test_sessions_and_ground_truths(generated):
    _, session, truth = generated
    for frame, world in zip(session.frames, truth.frames):
        assert_states(list(frame.devices.values()), "session device")
        assert_states(world, "ground-truth joint")


def test_script_roots_and_default_mounts(generated):
    script, _, _ = generated
    for sp in script:
        assert_states([] if sp.root_world is None else [sp.root_world], "script root")
        for q in sp.rotations.values():
            assert_floats(q, "script rotation")
    assert_states(default_mount_offsets().values(), "default mount")


@pytest.fixture(scope="module")
def calibrated(generated):
    _, session, _ = generated
    profile, scaled, _ = calibrate_session(session, humanoid_long_legs())
    return session, profile, scaled


def test_calibrated_profile_and_scaled_avatar(calibrated):
    _, profile, scaled = calibrated
    assert_states(profile.offsets.values(), "profile offset")
    assert_floats(profile.w0, "w0")
    assert_floats([profile.scale], "scale")
    for state in scaled.bind_states:
        assert_floats(state, "scaled bind state")
    assert_floats([scaled.bone_length(i) for i in range(len(scaled.joints))], "bone length")


@pytest.mark.parametrize("mode", list(OffsetMode))
def test_solved_world_and_grip(calibrated, mode):
    session, profile, scaled = calibrated
    hand = default_hand_model("left")
    wrist_index = scaled.role_index("wrist_l")
    for frame in session.frames[::2]:
        world = solve_frame(frame, profile, scaled, mode).world
        assert_states(world, "solved joint")
        wrist = world[wrist_index]
        capsule = transform_capsule(default_grip_capsule(hand), wrist)
        button = wrist.apply(hand.palm_anchor.state[4:])
        grip = pose_hand_on_controller(hand, wrist, capsule, DescentConfig(max_iters=5), button)
        for poses in grip.poses:
            assert_states(poses, "grip pose")
