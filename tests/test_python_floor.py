"""Every source and test file parses under the oldest Python that
``pyproject.toml`` declares (``requires-python``).

The floor is read with a regex, since ``tomllib`` is newer than it.
``ast.parse`` with ``feature_version`` rejects the grammar added after the
floor that the running parser knows, such as ``except*`` (3.11) or a
``type`` alias statement (3.12); it is best-effort and does not check the
standard library names a file uses.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', text, re.M)
    assert match, "pyproject.toml declares no requires-python floor"
    return int(match[1]), int(match[2])


def test_every_file_parses_at_the_floor():
    floor = _floor()
    files = sorted((ROOT / "src" / "forcekit").glob("*.py")) + sorted(
        (ROOT / "tests").glob("*.py"))
    assert floor == (3, 10) and len(files) > 20
    for path in files:
        ast.parse(path.read_text(), str(path), feature_version=floor)


def test_newer_grammar_is_rejected():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=_floor())
