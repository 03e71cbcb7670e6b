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
# grid. Every command's stdout, stderr and exit code go to a .out file, with
# the tree's output directory masked. Prints every file that differs or exists
# on one side only; exits 0 when all are identical.
# WORK_DIR (default: a new temporary directory) is kept for inspection.
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
import sys
from avatarfit import fingers, rigs, session, skeleton

out = sys.argv[1]
skeleton.save_skeleton_file(rigs.humanoid(), f"{out}/user.json")
skeleton.save_skeleton_file(rigs.humanoid_long_legs(), f"{out}/avatar.json")
hand = fingers.default_hand_model("left")
fingers.save_hand_file(hand, f"{out}/hand.json")
to_device = session.default_mount_offsets()[session.DeviceRole.CONTROLLER_LEFT].inverse()
capsule = fingers.transform_capsule(fingers.default_grip_capsule(hand), to_device)
button = to_device.apply((-0.06, -0.012, -0.02))
fingers.save_controller_file(capsule, f"{out}/controller.json", button)
long_fingers = tuple(fingers.Finger(f.name, f.base_local, (f.joints * 2)[:4]) for f in hand.fingers)
fingers.save_hand_file(fingers.HandModel(hand.side, long_fingers, hand.palm_anchor),
                       f"{out}/hand4.json")
fingers.save_controller_file(fingers.CapsuleShape((1.0, 0.0, -0.05), (1.0, 0.0, 0.05), 0.026),
                             f"{out}/far_controller.json")
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
    s="$out/squat-1"
    cli squat-1.solve-exact-far4 solve --skeleton "$out/avatar.json" \
        --session "$s.session.jsonl" --profile "$s.profile.json" \
        --ground-truth "$s.session.gt.jsonl" --out "$s.exact-far4.trace.jsonl" \
        --hand-model "$out/hand4.json" --controller "$out/far_controller.json" --max-iters 30
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
