import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from avatarfit.calibration import calibrate_session
from avatarfit.math3d import compose_state, qmul, quat_from_axis_angle, slerp_at, slerp_basis
from avatarfit.motion import squat_script, tpose_script
from avatarfit.rigs import humanoid, humanoid_long_legs
from avatarfit.session import DeviceRole, default_mount_offsets, generate_synthetic_session

settings.register_profile(
    "ci",
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("ci")


def transform(q, p) -> tuple:
    """The pose state of the seven floats (*q, *p), from any two sequences of numbers."""
    return (*map(float, q), *map(float, p))


def compose(a, b) -> tuple:
    """The pose a composed with the pose b: `compose_state(a, b[:4], b[4:])`."""
    return compose_state(a, b[:4], b[4:])


def vec3(x: float, y: float, z: float) -> np.ndarray:
    return np.array([x, y, z], dtype=np.float64)


def quat_slerp(a, b, t: float) -> tuple[float, float, float, float]:
    """Shortest-arc slerp from a to b at t, from the package's basis/evaluation pair."""
    return slerp_at(slerp_basis(a, b), t)


def device_id(profile, role: DeviceRole) -> str:
    """The id of the device that a calibration profile maps onto `role`."""
    for did, r in profile.role_map.items():
        if r == role:
            return did
    raise KeyError(f"profile role map lacks {role.value}")


def rotated_mount_offsets() -> dict[DeviceRole, tuple]:
    """Mounts with deliberate non-identity rotations (straps at odd angles)."""
    mounts = default_mount_offsets()
    spins = {
        DeviceRole.CONTROLLER_LEFT: quat_from_axis_angle([0, 0, 1], math.radians(25)),
        DeviceRole.CONTROLLER_RIGHT: quat_from_axis_angle([0, 0, 1], math.radians(-25)),
        DeviceRole.TRACKER_ROOT: quat_from_axis_angle([0, 1, 0], math.pi),
        DeviceRole.TRACKER_FOOT_LEFT: quat_from_axis_angle([1, 0, 0], math.radians(30)),
        DeviceRole.TRACKER_FOOT_RIGHT: quat_from_axis_angle([1, 0, 0], math.radians(30)),
    }
    out = {}
    for role, mount in mounts.items():
        spin = spins.get(role)
        rot = mount[:4] if spin is None else qmul(spin, mount[:4])
        out[role] = transform(rot, np.array(mount[4:]))
    return out


def random_unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_quat(rng: np.random.Generator) -> np.ndarray:
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


@pytest.fixture(scope="session")
def user_skeleton():
    return humanoid()


@pytest.fixture(scope="session")
def long_leg_skeleton():
    return humanoid_long_legs()


@pytest.fixture(scope="session")
def tpose_session(user_skeleton):
    return generate_synthetic_session(user_skeleton, tpose_script(duration=0.5, fps=10.0))


@pytest.fixture(scope="session")
def squat_session(user_skeleton):
    return generate_synthetic_session(user_skeleton, squat_script(user_skeleton))


@pytest.fixture(scope="session")
def matched_setup(tpose_session):
    """Profile captured for the avatar matching the synthetic user."""
    session, truth = tpose_session
    profile, scaled, _ = calibrate_session(session, humanoid())
    return session, truth, profile, scaled


@pytest.fixture(scope="session")
def long_leg_setup(squat_session):
    """Squat session solved against the 10%-longer-legs avatar."""
    session, truth = squat_session
    profile, scaled, _ = calibrate_session(session, humanoid_long_legs())
    return session, truth, profile, scaled
