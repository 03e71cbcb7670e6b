"""Fast self-test of the benchmark harness on tiny workload sizes.

    python3 -m pytest -q bench/selftest.py

Kept out of the repository's test suite (its name does not match test_*.py)
so the suite stays fast; it runs each workload in-process for about a second.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()

import avatarfit.cli  # noqa: E402
import avatarfit.retarget  # noqa: E402
import workloads  # noqa: E402

SPEC = run.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]
EXPECTED_CHECKS = {
    "stream_body": {"ankle_error_below_limit", "body_pose_finite"},
    "grip_stream": {"ankle_error_below_limit", "body_pose_finite", "grip_closes_from_open_hand",
                    "grip_distances_finite", "grip_objective_finite"},
    "cli_batch": {"ankle_error_below_limit", "cli_exit_codes_zero", "cli_outputs_byte_identical",
                  "exact_beats_fixed_mean_ankle_error",
                  "exact_beats_fixed_mean_knee_flexion_straight", "solve_frames_without_errors"},
}


def bench(workload: str, trace: int, seed: int = 7) -> tuple[int, list[str], dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                         "--trace", str(trace)], sizes=workloads.TINY_SIZES)
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    return {(w, t): bench(w, t) for w in NAMES for t in (0, 1)}


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_reported_with_unit_and_direction(runs, workload, trace):
    code, lines, result = runs[workload, trace]
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    defs = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [d["name"] for d in defs]
    for d in defs:
        metric = result["metrics"][d["name"]]
        assert metric["unit"] == d["unit"]
        assert isinstance(metric["value"], float)
        row = next(line for line in lines if line.startswith(d["name"] + " "))
        assert row.split()[-2:] == [d["unit"], d["better"]]
    if not trace:
        assert all(m["value"] > 0.0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_output_checks_run(runs, workload):
    for trace in (0, 1):
        _, lines, _ = runs[workload, trace]
        checks = json.loads(next(line for line in lines if line.startswith("checks "))[7:])
        assert set(checks) == EXPECTED_CHECKS[workload] and all(checks.values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_exactly(runs, workload):
    _, _, first = runs[workload, 1]
    _, _, second = bench(workload, 1)
    counts = [d["name"] for d in SPEC["per_layer"]
              if d["name"].endswith((".calls_per_frame", ".iterations_per_finger"))]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["skeleton.forward_kinematics.calls_per_frame"]["value"] > 0.0


def test_failed_frames_report_failure_instead_of_numbers(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("broken solver")

    monkeypatch.setattr(avatarfit.retarget, "solve_frame", broken)
    code, _, result = bench("stream_body", 0)
    assert code == 1
    assert result["correct"] is False and result["metrics"] == {}
    assert result["failed"] == result["attempted"] > 0


def test_failed_cli_command_reports_failure(monkeypatch):
    monkeypatch.setattr(avatarfit.cli, "main", lambda argv=None: 3)
    code, lines, result = bench("cli_batch", 0)
    assert code == 1 and result["correct"] is False and result["metrics"] == {}
    checks = json.loads(next(line for line in lines if line.startswith("checks "))[7:])
    assert checks["cli_exit_codes_zero"] is False


def test_output_differing_from_own_process_run_is_caught(monkeypatch):
    original = avatarfit.cli.main

    def main_with_extra_byte(argv):
        code = original(argv)
        if argv[0] == "compare":
            with open(argv[argv.index("--out") + 1], "a", encoding="utf-8") as f:
                f.write("\n")
        return code

    monkeypatch.setattr(avatarfit.cli, "main", main_with_extra_byte)
    code, lines, result = bench("cli_batch", 0)
    assert code == 1 and result["correct"] is False
    checks = json.loads(next(line for line in lines if line.startswith("checks "))[7:])
    assert checks["cli_outputs_byte_identical"] is False
    assert checks["cli_exit_codes_zero"] is True


def test_fails_without_program_sources(tmp_path):
    root = Path(run.ROOT)
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
