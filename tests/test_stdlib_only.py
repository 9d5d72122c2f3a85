"""The library runs on the standard library alone: no module of forcekit
imports anything else, not even inside a function or a TYPE_CHECKING
block, and a linalg run leaves numpy unloaded.  numpy serves the tests
only, as an oracle."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "forcekit"


def _foreign_imports(path: Path) -> list[str]:
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        hits.extend((node.lineno, f"{path.name}:{node.lineno} {name}")
                    for name in names
                    if name.split(".")[0] not in sys.stdlib_module_names
                    and name.split(".")[0] != "forcekit")
    return [hit for _, hit in sorted(hits)]


def test_library_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert [hit for f in files for hit in _foreign_imports(f)] == []


def test_guard_sees_each_form(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import numpy\n"
        "import os, numpy.linalg as la\n"
        "from numpy import x\n"
        "from typing import TYPE_CHECKING\n"
        "from . import graphs\n"
        "from forcekit.graphs import Graph\n"
        "if TYPE_CHECKING:\n"
        "    import scipy\n"
        "def f():\n"
        "    from numpy.random import default_rng\n"
        "    return default_rng\n")
    assert [h.split()[1] for h in _foreign_imports(path)] == [
        "numpy", "numpy.linalg", "numpy", "scipy", "numpy.random"]


def test_linalg_suite_leaves_numpy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = ("import sys\n"
            "from forcekit.cli import main\n"
            "code = main(['verify', '--suite', 'linalg', '--max-n', '6'])\n"
            "print(code, 'numpy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 False"
