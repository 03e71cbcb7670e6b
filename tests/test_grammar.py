"""Every Python file of the project parses under Python 3.10's grammar.

pyproject.toml allows Python 3.10, and a newer interpreter accepts newer
syntax (`except*`, PEP 695 `type` aliases and generics) without a word. This
catches grammar only, and `feature_version` is best effort: a library API
that 3.10 lacks (`tomllib`, `enum.StrEnum`, ...) still passes here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_file_parses_as_python_3_10():
    files = [path for folder in ("src", "tests", "bench", "tools")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(files) > 10
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
