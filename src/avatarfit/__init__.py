"""Self-avatar calibration and retargeting from six tracked devices.

The pipeline: identify device roles from a T-pose frame, scale the avatar to
the user's eye height, capture exact per-user tracker-to-joint offsets, then
solve every frame into a full-body pose with analytic limb IK and pose the
fingers onto the hand controller by direct search.
"""

__version__ = "0.1.0"
