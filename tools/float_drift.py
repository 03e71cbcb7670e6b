#!/usr/bin/env python3
"""Float drift between the two output trees that tools/same_outputs.sh keeps.

Usage: tools/float_drift.py WORK_DIR

WORK_DIR holds old/ and new/, as tools/same_outputs.sh OLD NEW WORK_DIR
leaves them. Every command output (*.out) must be identical, every file
must exist on both sides, and two data files may differ only in the values
of the numbers they hold: their text with each number masked must match.
Then, for each output kind (the last two dot-separated parts of a file
name, such as trace.jsonl or metrics.json; *.out for the command outputs),
it prints how many files moved, how many number values changed and the
largest |new - old| among them.

Exits 0 when the trees differ at most in number values, 1 otherwise (each
offending file is named on stderr), 2 on a usage error. Standard library
only.
"""

import math
import re
import sys
from pathlib import Path

# A JSON (or Python repr) number that does not continue a word, so the digits
# of a name such as dev0 stay text.
NUMBER = re.compile(r"(?<![\w.])-?(?:\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|Infinity|NaN)")


def kind_of(name: str) -> str:
    return "*.out" if name.endswith(".out") else ".".join(name.split(".")[-2:])


def number_changes(old: str, new: str):
    """The |new - old| of each number whose text changed, or None when the
    texts differ in anything but numbers."""
    if NUMBER.sub("\x00", old) != NUMBER.sub("\x00", new):
        return None
    changes = []
    for a, b in zip(NUMBER.findall(old), NUMBER.findall(new)):
        if a != b:
            d = abs(float(b) - float(a))
            changes.append(d if math.isfinite(d) else math.inf)
    return changes


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old_dir, new_dir = Path(argv[1], "old"), Path(argv[1], "new")
    old_names = {p.name for p in old_dir.iterdir()}
    new_names = {p.name for p in new_dir.iterdir()}
    failed = False
    for name in sorted(old_names ^ new_names):
        print(f"only in {'old' if name in old_names else 'new'}: {name}", file=sys.stderr)
        failed = True
    kinds = {}  # kind -> [files, moved files, changed values, largest |difference|]
    for name in sorted(old_names & new_names):
        old = (old_dir / name).read_text(encoding="utf-8")
        new = (new_dir / name).read_text(encoding="utf-8")
        row = kinds.setdefault(kind_of(name), [0, 0, 0, 0.0])
        row[0] += 1
        if old == new:
            continue
        changes = None if name.endswith(".out") else number_changes(old, new)
        if changes is None:
            what = "command output" if name.endswith(".out") else "more than number values"
            print(f"differs in {what}: {name}", file=sys.stderr)
            failed = True
            continue
        row[1] += 1
        row[2] += len(changes)
        row[3] = max([row[3], *changes])
    if failed:
        return 1
    print(f"{'kind':<20} {'files':>5} {'moved':>5} {'values':>7}  largest |difference|")
    for kind, (files, moved, values, largest) in sorted(kinds.items()):
        print(f"{kind:<20} {files:>5} {moved:>5} {values:>7}  {largest:.3g}")
    outs = kinds.pop("*.out", [0])[0]
    print(f"{sum(row[1] for row in kinds.values())} of {sum(row[0] for row in kinds.values())} "
          f"data files moved, only in the values of numbers; {outs} command outputs identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
