"""Benchmark entry point for avatarfit.

    python3 bench/run.py --workload stream_body --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Runs one workload in this process (single-threaded, BLAS pinned to one
thread) against the avatarfit sources of this checkout, checks its outputs
and prints every metric with its unit and better direction. The last line
of standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`. A failed output check
prints `"correct": false` and no numbers, and the exit status is 1.
`--workload all` runs each workload in its own child process, one after the
other, and prints their tables.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as f:
        return json.load(f)


def import_program() -> None:
    """Put this checkout's sources first on the path, or exit without a result."""
    package = SRC / "avatarfit" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import avatarfit
    if Path(avatarfit.__file__).resolve() != package.resolve():
        sys.exit(f"error: imported avatarfit from {avatarfit.__file__}, not {package}")


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy
    # A checkout copied without .git has no commit; the digest of the
    # sources still tells which code was measured.
    digest = hashlib.sha256()
    for path in sorted((SRC / "avatarfit").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def per_layer(w, tracer) -> dict:
    """Per-layer metrics of a traced run; zero for a layer the workload skips."""
    st = tracer.stat
    frames = w.traced_frames

    def per_frame(name):
        return st(name).scoped_calls / frames if frames else 0.0

    solve = st("retarget.solve_frame")
    solve_spans = tracer.span_durations("retarget.solve_frame")
    descend = st("fingers.descend")
    gen = st("session.generate_synthetic_session")
    traced_item = statistics.fmean(w.pass_s[True])
    untraced_item = statistics.fmean(w.pass_s[False])
    m = {
        "env.probe_ms": 1e3 * statistics.median(w.probes) if w.probes else 0.0,
        "trace.overhead_ratio": traced_item / untraced_item,
        "skeleton.forward_kinematics.calls_per_frame": per_frame("skeleton.forward_kinematics"),
        "skeleton.forward_kinematics.ms_per_call": st("skeleton.forward_kinematics").ms_per_call(),
        "skeleton.forward_kinematics.share":
            st("skeleton.forward_kinematics").scoped_s / w.traced_frame_s if frames else 0.0,
        "skeleton.bind_world.calls_per_frame": per_frame("skeleton.bind_world"),
        "math3d.quat_rotate.calls_per_frame": per_frame("math3d.quat_rotate"),
        "math3d.quat_rotate.us_per_call": 1e3 * st("math3d.quat_rotate").ms_per_call(),
        "math3d.quat_mul.calls_per_frame": per_frame("math3d.quat_mul"),
        "math3d.quat_mul.us_per_call": 1e3 * st("math3d.quat_mul").ms_per_call(),
        "math3d.Transform.compose.calls_per_frame": per_frame("math3d.Transform.compose"),
        "retarget.solve_frame.ms_p50": 1e3 * statistics.median(solve_spans) if solve_spans else 0.0,
        "retarget.solve_frame.self_ms": 1e3 * solve.self_s / solve.calls if solve.calls else 0.0,
        "retarget.two_bone_ik.calls_per_frame": per_frame("retarget.two_bone_ik"),
        "retarget.two_bone_ik.us_per_call": 1e3 * st("retarget.two_bone_ik").ms_per_call(),
        "retarget.effector.us_per_call": 1e3 * st("retarget.effector").ms_per_call(),
        "retarget.detached_ratio": statistics.fmean(w.detached) if w.detached else 0.0,
        "retarget.solve_session.frames_per_s":
            st("retarget.solve_session").per_s(st("retarget.solve_session").frames),
        "retarget.write_pose_trace.frames_per_s":
            st("retarget.write_pose_trace").per_s(st("retarget.write_pose_trace").frames),
        "retarget.write_pose_trace.bytes_per_frame":
            w.trace_bytes / frames if frames else 0.0,
        "fingers.pose_hand_on_controller.hands_per_s":
            st("fingers.pose_hand_on_controller").per_s(st("fingers.pose_hand_on_controller").calls),
        "fingers.pose_hand_on_controller.first_frame_hands_per_s":
            1.0 / statistics.median(w.first_hand_s) if w.first_hand_s else 0.0,
        "fingers.descend.iterations_per_finger":
            w.finger_iterations / w.fingers if w.fingers else 0.0,
        "fingers.descend.converged_ratio": w.fingers_converged / w.fingers if w.fingers else 0.0,
        "fingers.descend.iterations_per_s":
            descend.per_s(descend.calls * w.finger_iterations / len(w.hand_objectives))
            if w.hand_objectives else 0.0,
        "fingers.descend.objective_per_hand":
            statistics.fmean(w.hand_objectives) if w.hand_objectives else 0.0,
        "session.generate_synthetic_session.ms_per_frame":
            1e3 * gen.total_s / gen.frames if gen.frames else 0.0,
        "session.identify_roles.ms": st("session.identify_roles").ms_per_call(),
        "calibration.calibrate_session.ms": st("calibration.calibrate_session").ms_per_call(),
        "calibration.capture_profile.ms": st("calibration.capture_profile").ms_per_call(),
        "calibration.load_profile_file.calls_per_s":
            st("calibration.load_profile_file").per_s(st("calibration.load_profile_file").calls),
        "motion.builtin_script.ms": st("motion.builtin_script").ms_per_call(),
    }
    for name in ("read_session", "write_session", "read_ground_truth"):
        s = st(f"session.{name}")
        m[f"session.{name}.frames_per_s"] = s.per_s(s.frames)
    for command, seconds in w.command_s.items():
        m[f"cli.{command}.frames_per_s"] = (
            w.command_frames[command] / seconds if seconds > 0.0 else 0.0)
    return m


def run_one(args, spec, sizes) -> int:
    import tracing  # both import avatarfit, so only after import_program()
    import workloads

    traced = args.trace == 1
    tracer = tracing.Tracer()
    if traced:
        tracer.install()
        tracer.active = True   # input generation is traced too
    workload = workloads.WORKLOADS[args.workload](
        args.seed, sizes[args.workload], tracer, ROOT)
    tracer.active = False
    try:
        workloads.run(workload, args.seconds, traced)
    finally:
        tracer.uninstall()
    try:
        workload.finish()
    finally:
        workload.close()
    env = environment(args.seed)
    env["probe_ms"] = 1e3 * statistics.median(workload.probes) if workload.probes else None
    print("env " + json.dumps(env, sort_keys=True))

    if traced:
        metrics = per_layer(workload, tracer)
        defs = spec["per_layer"]
        out = ROOT / ".bench_work" / f"trace-{args.workload}-{args.seed}.jsonl"
        out.parent.mkdir(exist_ok=True)
        tracer.write(out, {"workload": args.workload, "env": env})
        print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
    else:
        metrics = workload.end_to_end(peak_rss_mb())
        defs = spec["end_to_end"]
        for name, values in (("wall frame ms", workload.frame_ms),
                             ("normalized frame ms", workload.frame_norm_ms)):
            print(f"{name} over {len(values)} samples: " + ", ".join(
                f"p{q} {workloads.percentile(values, q):.4f}" for q in (50, 75, 90, 99)))
        print(f"set-up s over {len(workload.setup_s)} set-ups: wall median "
              f"{workloads.percentile(workload.setup_s, 50):.6f}, normalized median "
              f"{workloads.percentile(workload.setup_norm_s, 50):.6f}")
    names = [d["name"] for d in defs]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(f"metric names differ from BENCHMARK.json: "
                           f"{sorted(set(names) ^ set(metrics))}")

    correct = workload.failed == 0 and bool(workload.checks) and all(workload.checks.values())
    print("checks " + json.dumps(workload.checks, sort_keys=True))
    for error in workload.errors:
        print(f"error: {error}")
    print(f"{'metric':<52}{'value':>16}  {'unit':<8}better")
    for d in defs:
        print(f"{d['name']:<52}{metrics[d['name']]:>16.6g}  {d['unit']:<8}{d['better']}")
    result = {
        "correct": correct,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in defs}
        if correct else {},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args, spec) -> int:
    """Each workload in its own child process, one after the other."""
    status = 0
    results = {}
    for name in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1]) if lines else None
        status = status or proc.returncode
    print(json.dumps(results))
    return status


def main(argv=None, sizes=None) -> int:
    # Before NumPy is first imported, so that BLAS starts one thread only.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, required=True,
                        help="any integer; inputs derive from it alone")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    import_program()
    import workloads
    return run_one(args, spec, sizes or workloads.FULL_SIZES)


if __name__ == "__main__":
    sys.exit(main())
