"""tools/float_drift.py on small output trees laid out as tools/same_outputs.sh keeps them."""

import math
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "float_drift.py"
OLD = {"a.out": "solved 3/3 frames\nexit 0\n",
       "s-1.exact-body.trace.jsonl": '{"t": 0.1, "p": [1e-05, -0.0, 3], "name": "dev0"}\n',
       "s-1.compare.json": '{"mean": 0.25}\n'}


def drift(tmp_path, new: dict):
    for side, files in (("old", OLD), ("new", new)):
        (tmp_path / side).mkdir()
        for name, text in files.items():
            (tmp_path / side / name).write_text(text, encoding="utf-8")
    return subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                          capture_output=True, text=True)


def test_identical_trees(tmp_path):
    run = drift(tmp_path, OLD)
    assert run.returncode == 0, run.stderr
    assert "0 of 2 data files moved" in run.stdout
    assert "1 command outputs identical" in run.stdout


def test_moved_numbers_are_counted_by_kind(tmp_path):
    # One ulp up on the first position, and -0.0 written as 0.0.
    trace = f'{{"t": 0.1, "p": [{math.nextafter(1e-05, 1)!r}, 0.0, 3], "name": "dev0"}}\n'
    run = drift(tmp_path, {**OLD, "s-1.exact-body.trace.jsonl": trace})
    assert run.returncode == 0, run.stderr
    rows = {line.split()[0]: line.split()[1:] for line in run.stdout.splitlines()}
    assert rows["trace.jsonl"] == ["1", "1", "2", f"{math.ulp(1e-05):.3g}"]
    assert rows["compare.json"] == ["1", "0", "0", "0"]
    assert "1 of 2 data files moved" in run.stdout


@pytest.mark.parametrize("name, text", [
    ("a.out", "solved 3/3 frames\nexit 1\n"),
    ("s-1.compare.json", '{"means": 0.25}\n'),
    ("s-1.exact-body.trace.jsonl", '{"t": 0.1, "p": [1e-05, -0.0, 3], "name": "dev1"}\n'),
    ("s-1.profile.json", "{}\n"),
], ids=["command_output", "key", "digit_in_a_name", "one_side_only"])
def test_anything_but_number_values_fails(tmp_path, name, text):
    run = drift(tmp_path, {**OLD, name: text})
    assert run.returncode == 1
    assert name in run.stderr
