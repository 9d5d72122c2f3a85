"""Every name a forcekit module imports is used in it.

No linter runs on this repository, so this test keeps unused imports out
of ``src/forcekit``.  ``__init__.py`` is exempt: it imports to re-export.
The other exceptions are the names that ``perfbench/tracing.py`` patches
on a module, read from its ``HOT`` and ``SPANS`` tables: a module may
import a name only so that the benchmark can trace the calls made
through it.
"""

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "forcekit"


def _traced_names(monkeypatch) -> set[tuple[str, str]]:
    """(module file name, attribute) of every name perfbench traces."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {(module.removeprefix("forcekit.") + ".py", attr)
            for module, attr, _, _ in tracing.HOT + tracing.SPANS}


def unused_imports(path: Path) -> list[str]:
    """The names that ``path`` imports and never reads, in import order."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [name for name in imported if name not in used]


def test_every_import_is_used(monkeypatch):
    traced = _traced_names(monkeypatch)
    files = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert files
    unused = [(f.name, name) for f in files for name in unused_imports(f)
              if (f.name, name) not in traced]
    assert unused == []


def test_guard_sees_each_form(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import json as js\n"
        "from .graphs import Graph, bits\n"
        "from .forcing import Rule as R\n"
        "def f(g: Graph) -> R:\n"
        "    return os.sep\n")
    assert unused_imports(path) == ["js", "bits"]
