#!/usr/bin/env bash
# Byte-identity check of the avatarfit CLI between two source trees.
#
# Usage: tools/same_outputs.sh OLD_TREE NEW_TREE [WORK_DIR]
#
# Each tree (a checkout holding src/avatarfit) writes its own inputs: the
# `humanoid` user and `humanoid_long_legs` avatar skeletons, the default left
# hand and its grip capsule with a thumb button, carried into the controller
# device's frame. Then, for the squat, arms, free and tpose scripts at seeds 1
# and 3 (2 mm / 0.01 rad noise, 1 s at 30 fps), it runs gen, calibrate, solve
# in exact and fixed mode, each without hands, with --hand-model and
# --controller (--max-iters 30, where the grip search converges), and with the
# same files at --max-iters 3 (the search stops unconverged), and compare. Last,
# it solves squat seed 1 with a hand whose fingers have 4 joints against a
# controller about 1 m out of reach, where no bound prunes the grip's seed
# grid, and with the default right hand and its grip capsule in the right
# controller's frame (--max-iters 30), which the CLI mirrors to the left
# hand. Every CLI grip runs at the identity wrist, so each tree also writes
# the `repr` of `pose_hand_on_controller` at six seeded world wrists: the
# default left and right hands on their grip capsules, and the 4-joint hand
# near and about 1 m out of reach, each with and without a thumb button
# (8 data files). It also calibrates the free seed 1 session on a third avatar, the
# `humanoid_long_legs` rig plus a `finger` joint under each wrist, an `other`
# joint under the head and an `other` joint under the hips that is no limb's
# ancestor, and solves it in exact and fixed mode without hands. It does the
# same on a fourth avatar, in exact mode only: `humanoid_long_legs` with
# fixed, non-identity bind rotations and the same bind world positions, so
# each bone lies oblique to its joint's axes and its length is the norm of
# three nonzero components. It calibrates squat seed 1 on a fifth avatar,
# `humanoid_long_legs` with joint names that JSON escapes (a quote, a
# backslash, `%` and a non-ASCII letter), and solves it without hands and with
# a left hand whose finger names hold `"`, `%` and a non-ASCII letter
# (--max-iters 30). Last, squat seed 1 again: with one device id
# renamed on a few frame lines, solved with and without hands (frames skipped
# between solved ones); with every id renamed, header too, solved with hands
# (no frame solves); and against a ground truth cut to 10 frames (exit 3, and
# no trace). After those, gen
# reads a JSONL motion script (--script-file: a T-pose line, then 30 lines of
# joint rotations and root poses), and the session is calibrated and solved
# against its ground truth. Every command's stdout, stderr and exit code go
# to a .out file, with the tree's output directory masked: 180 data files and
# 89 command outputs per tree. Prints every file that differs or exists on one
# side only; exits 0 when all are identical.
# WORK_DIR (default: a new temporary directory) is kept for inspection;
# tools/float_drift.py WORK_DIR tells whether the trees differ only in the
# values of numbers, and by how much. The Python below runs in each tree, so
# it may use only the package API that both trees have.
set -eu

if [ $# -lt 2 ]; then
    echo "usage: $0 OLD_TREE NEW_TREE [WORK_DIR]" >&2
    exit 2
fi
old=$(cd "$1" && pwd)
new=$(cd "$2" && pwd)
work=${3:-$(mktemp -d)}
python=${PYTHON:-python3}

run_tree() {  # run_tree TREE OUT_DIR
    local tree=$1 out=$2
    mkdir -p "$out"
    export PYTHONPATH="$tree/src"
    "$python" - "$out" <<'EOF'
import math
import random
import sys
from avatarfit import fingers, math3d, rigs, session, skeleton


def inverse(pose):
    """The inverse pose, from helpers both trees have; a `math3d.Transform`,
    whose `apply` an older tree's `transform_capsule` calls."""
    rinv = math3d.qconj(pose[:4])
    dx, dy, dz = math3d.qrotate(rinv, pose[4:])
    return math3d.Transform((*rinv, -dx, -dy, -dz))


def apply(pose, p):
    dx, dy, dz = math3d.qrotate(pose[:4], p)
    return dx + pose[4], dy + pose[5], dz + pose[6]


out = sys.argv[1]
skeleton.save_skeleton_file(rigs.humanoid(), f"{out}/user.json")
skeleton.save_skeleton_file(rigs.humanoid_long_legs(), f"{out}/avatar.json")
extended = rigs.humanoid_long_legs_document()
for name, parent, role, t in (("finger_l", "wrist_l", "finger", [-0.08, 0.0, 0.0]),
                              ("finger_r", "wrist_r", "finger", [0.08, 0.0, 0.0]),
                              ("head_top", "head", "other", [0.0, 0.1, 0.0]),
                              ("hip_pouch", "hips", "other", [0.0, 0.0, 0.1])):
    extended["joints"].append({"name": name, "parent": parent, "role": role, "translation": t})
skeleton.save_skeleton_file(skeleton.load_skeleton(extended), f"{out}/avatar3.json")
# Fixed bind rotations, each bind translation re-expressed in its parent's
# new frame: the same bind world positions, with oblique bones.
base = rigs.humanoid_long_legs()
oblique = skeleton.skeleton_to_document(base)
turns = [math3d.quat_from_axis_angle(math3d.normalize((1.0, 0.5 + i % 3, 0.3 * i - 0.7)),
                                     0.4 + 0.1 * i) for i in range(len(base.joints))]
for i, (joint, entry) in enumerate(zip(base.joints, oblique["joints"])):
    if joint.parent is None:
        entry["rotation"] = list(turns[i])
        continue
    to_parent = math3d.qconj(turns[joint.parent])
    entry["rotation"] = list(math3d.qmul(to_parent, turns[i]))
    bone = [a - b for a, b in zip(base.bind_states[i][4:], base.bind_states[joint.parent][4:])]
    entry["translation"] = list(math3d.qrotate(to_parent, bone))
skeleton.save_skeleton_file(skeleton.load_skeleton(oblique), f"{out}/avatar4.json")
hand = fingers.default_hand_model("left")
fingers.save_hand_file(hand, f"{out}/hand.json")
to_device = inverse(session.default_mount_offsets()[session.DeviceRole.CONTROLLER_LEFT])
capsule = fingers.transform_capsule(fingers.default_grip_capsule(hand), to_device)
button = apply(to_device, (-0.06, -0.012, -0.02))
fingers.save_controller_file(capsule, f"{out}/controller.json", button)
long_fingers = tuple(fingers.Finger(f.name, f.base_local, (f.joints * 2)[:4]) for f in hand.fingers)
fingers.save_hand_file(fingers.HandModel(hand.side, long_fingers, hand.palm_anchor),
                       f"{out}/hand4.json")
fingers.save_controller_file(fingers.CapsuleShape((1.0, 0.0, -0.05), (1.0, 0.0, 0.05), 0.026),
                             f"{out}/far_controller.json")
right = fingers.default_hand_model("right")
fingers.save_hand_file(right, f"{out}/hand_right.json")
to_right = inverse(session.default_mount_offsets()[session.DeviceRole.CONTROLLER_RIGHT])
fingers.save_controller_file(fingers.transform_capsule(fingers.default_grip_capsule(right), to_right),
                             f"{out}/controller_right.json")
# Joint and finger names that a trace line must escape: quotes, backslashes,
# `%` and a non-ASCII letter.
escaped = rigs.humanoid_long_legs_document()
names = {"hips": 'hi"ps', "spine": "sp\\ine", "chest": "ch%est", "head": "h\u00e9ad%s",
         "wrist_l": 'wr"ist%%_l\\'}
for joint in escaped["joints"]:
    joint["name"] = names.get(joint["name"], joint["name"])
    joint["parent"] = names.get(joint["parent"], joint["parent"])
skeleton.save_skeleton_file(skeleton.load_skeleton(escaped), f"{out}/avatar5.json")
finger_names = ["thumb", 'in"dex%', "mid%sdle", 'r"%%ing', "p\u00efnky"]
fingers.save_hand_file(fingers.HandModel(hand.side, tuple(
    fingers.Finger(name, f.base_local, f.joints) for name, f in zip(finger_names, hand.fingers)),
    hand.palm_anchor), f"{out}/hand5.json")
# World-frame grips, which no CLI command makes: the `repr` of each
# `pose_hand_on_controller` result at six seeded world wrists, one per line.
rng = random.Random(35)
wrists = []
for _ in range(6):
    q = [rng.gauss(0.0, 1.0) for _ in range(4)]
    n = math.sqrt(sum(c * c for c in q))
    wrists.append((*(c / n for c in q), *(rng.uniform(-1.0, 1.0) for _ in range(3))))
hand4 = fingers.HandModel(hand.side, long_fingers, hand.palm_anchor)
far = fingers.CapsuleShape((1.0, 0.0, -0.05), (1.0, 0.0, 0.05), 0.026)
for name, model, shape, tip in (
        ("left", hand, fingers.default_grip_capsule(hand), (-0.06, -0.012, -0.02)),
        ("right", right, fingers.default_grip_capsule(right), (0.06, -0.012, -0.02)),
        ("hand4", hand4, fingers.default_grip_capsule(hand4), (-0.06, -0.012, -0.02)),
        ("hand4-far", hand4, far, (1.0, 0.0, 0.0))):
    for pressed in (False, True):
        with open(f"{out}/grip-{name}{'-button' if pressed else ''}.txt", "w") as f:
            for wrist in wrists:
                result = fingers.pose_hand_on_controller(
                    model, wrist, fingers.transform_capsule(shape, wrist),
                    button=apply(wrist, tip) if pressed else None)
                f.write(repr(result) + "\n")
EOF
    cli() {  # cli NAME ARGS...: run one command, recording its output and exit code
        local name=$1 status=0
        shift
        "$python" -m avatarfit "$@" >"$out/$name.out" 2>&1 || status=$?
        sed -i "s#$out#OUT#g" "$out/$name.out"
        echo "exit $status" >>"$out/$name.out"
    }
    local script seed s mode hands iters
    for script in squat arms free tpose; do
        for seed in 1 3; do
            s="$out/$script-$seed"
            cli "$script-$seed.gen" gen --skeleton "$out/user.json" --script "$script" \
                --seed "$seed" --noise 0.002 --rot-noise 0.01 --duration 1 --fps 30 \
                --out "$s.session.jsonl"
            cli "$script-$seed.calibrate" calibrate --skeleton "$out/avatar.json" \
                --session "$s.session.jsonl" --out "$s.profile.json"
            for mode in exact fixed; do
                for hands in body hand capped; do
                    set -- --skeleton "$out/avatar.json" --session "$s.session.jsonl" \
                        --profile "$s.profile.json" --ground-truth "$s.session.gt.jsonl" \
                        --mode "$mode" --out "$s.$mode-$hands.trace.jsonl"
                    if [ "$hands" != body ]; then
                        iters=30
                        [ "$hands" = capped ] && iters=3
                        set -- "$@" --hand-model "$out/hand.json" \
                            --controller "$out/controller.json" --max-iters "$iters"
                    fi
                    cli "$script-$seed.solve-$mode-$hands" solve "$@"
                done
            done
            cli "$script-$seed.compare" compare --skeleton "$out/avatar.json" \
                --session "$s.session.jsonl" --profile "$s.profile.json" \
                --ground-truth "$s.session.gt.jsonl" --out "$s.compare.json"
        done
    done
    s="$out/free-1"
    cli free-1.calibrate-avatar3 calibrate --skeleton "$out/avatar3.json" \
        --session "$s.session.jsonl" --out "$s.avatar3.profile.json"
    for mode in exact fixed; do
        cli "free-1.solve-avatar3-$mode" solve --skeleton "$out/avatar3.json" \
            --session "$s.session.jsonl" --profile "$s.avatar3.profile.json" \
            --ground-truth "$s.session.gt.jsonl" --mode "$mode" \
            --out "$s.avatar3-$mode.trace.jsonl"
    done
    cli free-1.calibrate-avatar4 calibrate --skeleton "$out/avatar4.json" \
        --session "$s.session.jsonl" --out "$s.avatar4.profile.json"
    cli free-1.solve-avatar4-exact solve --skeleton "$out/avatar4.json" \
        --session "$s.session.jsonl" --profile "$s.avatar4.profile.json" \
        --ground-truth "$s.session.gt.jsonl" --out "$s.avatar4-exact.trace.jsonl"
    s="$out/squat-1"
    cli squat-1.calibrate-avatar5 calibrate --skeleton "$out/avatar5.json" \
        --session "$s.session.jsonl" --out "$s.avatar5.profile.json"
    for hands in body hand; do
        set -- --skeleton "$out/avatar5.json" --session "$s.session.jsonl" \
            --profile "$s.avatar5.profile.json" --ground-truth "$s.session.gt.jsonl" \
            --out "$s.avatar5-$hands.trace.jsonl"
        if [ "$hands" = hand ]; then
            set -- "$@" --hand-model "$out/hand5.json" --controller "$out/controller.json" \
                --max-iters 30
        fi
        cli "squat-1.solve-avatar5-$hands" solve "$@"
    done
    cli squat-1.solve-exact-far4 solve --skeleton "$out/avatar.json" \
        --session "$s.session.jsonl" --profile "$s.profile.json" \
        --ground-truth "$s.session.gt.jsonl" --out "$s.exact-far4.trace.jsonl" \
        --hand-model "$out/hand4.json" --controller "$out/far_controller.json" --max-iters 30
    cli squat-1.solve-exact-right solve --skeleton "$out/avatar.json" \
        --session "$s.session.jsonl" --profile "$s.profile.json" \
        --ground-truth "$s.session.gt.jsonl" --out "$s.exact-right.trace.jsonl" \
        --hand-model "$out/hand_right.json" --controller "$out/controller_right.json" \
        --max-iters 30
    "$python" - "$s" <<'EOF'
import json
import sys

s = sys.argv[1]
lines = [json.loads(line) for line in open(f"{s}.session.jsonl", encoding="utf-8")]


def write(path, objects):
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(json.dumps(obj) + "\n" for obj in objects)


gaps = json.loads(json.dumps(lines))
for n in (5, 6, 20):
    gaps[n]["devices"][0]["id"] += "-renamed"
write(f"{s}.gaps.session.jsonl", gaps)
for obj in lines:
    if "role_map" in obj:
        obj["role_map"] = {d + "-renamed": role for d, role in obj["role_map"].items()}
    for device in obj.get("devices", ()):
        device["id"] += "-renamed"
write(f"{s}.renamed.session.jsonl", lines)
EOF
    head -n 11 "$s.session.gt.jsonl" >"$s.short.gt.jsonl"
    for hands in body hand; do
        set -- --skeleton "$out/avatar.json" --session "$s.gaps.session.jsonl" \
            --profile "$s.profile.json" --ground-truth "$s.session.gt.jsonl" \
            --out "$s.gaps-$hands.trace.jsonl"
        if [ "$hands" = hand ]; then
            set -- "$@" --hand-model "$out/hand.json" --controller "$out/controller.json" \
                --max-iters 30
        fi
        cli "squat-1.solve-gaps-$hands" solve "$@"
    done
    cli squat-1.solve-renamed-hand solve --skeleton "$out/avatar.json" \
        --session "$s.renamed.session.jsonl" --profile "$s.profile.json" \
        --ground-truth "$s.session.gt.jsonl" --out "$s.renamed-hand.trace.jsonl" \
        --hand-model "$out/hand.json" --controller "$out/controller.json" --max-iters 30
    cli squat-1.solve-short-gt solve --skeleton "$out/avatar.json" \
        --session "$s.session.jsonl" --profile "$s.profile.json" \
        --ground-truth "$s.short.gt.jsonl" --out "$s.short-gt.trace.jsonl"
    s="$out/file"
    "$python" - "$s.script.jsonl" <<'EOF'
import json
import math
import sys


def axis_angle(axis, angle):
    n = math.sqrt(sum(c * c for c in axis))
    return [math.cos(angle / 2)] + [c * math.sin(angle / 2) / n for c in axis]


with open(sys.argv[1], "w", encoding="utf-8") as f:
    f.write(json.dumps({"t": 0.0}) + "\n")
    for i in range(1, 31):
        a = math.sin(math.pi * i / 30) ** 2
        rotations = {"hip_l": axis_angle([1, 0, 0], 0.6 * a),
                     "knee_l": axis_angle([1, 0, 0], -1.2 * a),
                     "knee_r": axis_angle([1, 0, 0], -0.4 * a),
                     "spine": axis_angle([1, 0.3, 0], 0.2 * a),
                     "shoulder_l": axis_angle([0, 0.2, 1], 0.5 * a),
                     "elbow_r": axis_angle([0, 1, 0], 1.1 * a)}
        root = {"p": [0.02 * a, 0.95 - 0.08 * a, -0.3 * i / 30],
                "q": axis_angle([0, 1, 0], 0.4 * a)}
        f.write(json.dumps({"t": i / 30, "rotations": rotations, "root": root}) + "\n")
EOF
    cli file.gen gen --skeleton "$out/user.json" --script-file "$s.script.jsonl" \
        --seed 2 --noise 0.002 --rot-noise 0.01 --out "$s.session.jsonl"
    cli file.calibrate calibrate --skeleton "$out/avatar.json" \
        --session "$s.session.jsonl" --out "$s.profile.json"
    cli file.solve solve --skeleton "$out/avatar.json" --session "$s.session.jsonl" \
        --profile "$s.profile.json" --ground-truth "$s.session.gt.jsonl" \
        --out "$s.trace.jsonl"
}

rm -rf "$work/old" "$work/new"
run_tree "$old" "$work/old"
run_tree "$new" "$work/new"

outs=$(ls "$work/old" | grep -c '\.out$' || true)
files=$(ls "$work/old" | grep -vc '\.out$' || true)
if diff -rq "$work/old" "$work/new"; then
    echo "identical: $files data files and $outs command outputs ($work)"
else
    echo "outputs differ ($work)"
    exit 1
fi
