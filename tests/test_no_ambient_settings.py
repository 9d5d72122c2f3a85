"""The library reads no ambient settings: every knob is an argument or a
command-line flag, so a suite's flag policy cannot be bypassed and a run
depends only on what it was given."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "forcekit"
BANNED = {"environ", "environb", "getenv", "getenvb"}


def _ambient_reads(path: Path) -> list[str]:
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in BANNED:
            hits.append(f"{path.name}:{getattr(node, 'lineno', '?')} {name}")
    return hits


def test_library_reads_no_environment():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert [hit for f in files for hit in _ambient_reads(f)] == []


def test_guard_sees_each_form(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import os\nfrom os import getenv\n"
                    "a = os.environ.get('X')\nb = environ\n")
    assert sorted(h.split()[1] for h in _ambient_reads(path)) == [
        "environ", "environ", "getenv"]
