"""Every function, class and method in ``src/forcekit`` has a program reader.

Code that only tests use lives in ``tests/``, not in ``src/``.  This test
lists each top-level ``def`` and ``class`` of a forcekit module (not
``__init__.py``) and each non-dunder method of such a class, and reports
the ones that no program path reads.  A function or class is read when its
name appears as an ``ast.Name`` or an ``ast.Attribute`` in a forcekit
module other than ``__init__.py``, or in ``perfbench/*.py``.  A method is
read only as an ``ast.Attribute``, so a local variable of the same name
does not count.  A string constant in ``perfbench/`` also counts, because
``perfbench/tracing.py``'s ``HOT`` and ``SPANS`` tables name the
attributes that it patches as strings.  Being exported in ``__all__`` does
not count, and neither does being used by a test.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "forcekit"
BENCH = ROOT / "perfbench"


def _defined(tree: ast.Module) -> list[tuple[str, bool]]:
    """(name, is a method) of each top-level def and class of a module and
    of each non-dunder method of its classes, in source order."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out.append((node.name, False))
        elif isinstance(node, ast.ClassDef):
            out.append((node.name, False))
            out += [(item.name, True) for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__")
                             and item.name.endswith("__"))]
    return out


def unread_definitions(src: Path, bench: Path) -> list[str]:
    """``"file: name"`` for each function, class or method of the modules
    in ``src`` that neither the modules of ``src`` other than
    ``__init__.py`` nor the scripts in ``bench`` read."""
    modules = {p.name: ast.parse(p.read_text(encoding="utf-8"), str(p))
               for p in sorted(src.glob("*.py")) if p.name != "__init__.py"}
    scripts = [ast.parse(p.read_text(encoding="utf-8"), str(p))
               for p in sorted(bench.glob("*.py"))]
    names, attributes = set(), set()
    for tree in [*modules.values(), *scripts]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    attributes |= {node.value for tree in scripts for node in ast.walk(tree)
                   if isinstance(node, ast.Constant)
                   and isinstance(node.value, str)}
    return [f"{file}: {name}" for file, tree in modules.items()
            for name, method in _defined(tree)
            if name not in attributes and (method or name not in names)]


def test_every_definition_has_a_program_reader():
    assert sorted(SRC.glob("*.py")) and sorted(BENCH.glob("*.py"))
    assert unread_definitions(SRC, BENCH) == []


def test_scan_sees_each_form(tmp_path):
    src, bench, tests = (tmp_path / d for d in ("src", "bench", "tests"))
    for d in (src, bench, tests):
        d.mkdir()
    (src / "__init__.py").write_text(
        "from .mod import exported, Box\n"
        "__all__ = ['exported', 'Box']\n"
        "exported()\n"
        "Box().shown()\n")
    (src / "mod.py").write_text(
        "def exported():\n"
        "    return 1\n"
        "def called():\n"
        "    return 2\n"
        "def traced():\n"
        "    return 3\n"
        "def timed():\n"
        "    return 4\n"
        "def tested():\n"
        "    return 5\n"
        "class Box:\n"
        "    def __repr__(self):\n"
        "        return 'Box'\n"
        "    def shown(self):\n"
        "        return 6\n"
        "    def count(self):\n"
        "        return 7\n"
        "    def size(self):\n"
        "        return 8\n"
        "    def read(self):\n"
        "        count = called()\n"
        "        return count + self.size()\n"
        "def user(box: Box):\n"
        "    return 'tested', box.read()\n")
    (bench / "run.py").write_text(
        "import mod\n"
        "HOT = [('mod', 'traced')]\n"
        "mod.user(mod.Box())\n"
        "mod.timed()\n")
    (tests / "test_mod.py").write_text(
        "from mod import Box, tested\n"
        "def test_it():\n"
        "    assert tested() == 5 and Box().count() == 7\n")
    # read only in __init__.py (exported, shown) or only by a test (tested,
    # count); a string in src, or a Name for a method, does not count
    assert unread_definitions(src, bench) == [
        "mod.py: exported", "mod.py: tested", "mod.py: shown",
        "mod.py: count"]
