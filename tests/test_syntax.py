"""Every source and test file must parse as Python 3.10, the oldest version
the package supports (`requires-python`) and CI runs."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_file_parses_as_python_3_10():
    paths = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    assert len(paths) > 10, paths
    for path in paths:
        # a construct newer than 3.10 (except*, type parameters) raises SyntaxError
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
