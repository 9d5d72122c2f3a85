"""The layer graph of ``src/forcekit``, pinned: which forcekit modules each
file imports, what formulas and linalg take from graphs, what search takes
from forcing, and which module may read Table 5.1.  The suites look up
each instance's record once, through ``formulas.table51_lookup``, and hand
it to the checks that read it, so the checks in linalg and theorems never
look it up themselves.
Predictions read only a family's kind and parameters, so formulas takes
nothing from graphs but ``FamilySpec``; the certificates and the rank
bound read only their matrix and record, so linalg takes only ``Graph``.
The searches reach the forcing kernel only through ``derived_set`` and
``is_fort``, the one fort predicate.
A new cross-layer import fails here until the pin is changed with it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "forcekit"


def _imported_modules(path: Path) -> set[str]:
    """The modules that ``path`` imports, forcekit's by bare name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name.removeprefix("forcekit.") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("forcekit.")
            if module in ("", "forcekit"):  # from . import formulas
                found.update(alias.name for alias in node.names)
            else:
                found.add(module)
    return found


def _names(path: Path) -> set[str]:
    """Every identifier ``path`` uses, imports or defines."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_linalg_imports_nothing_from_formulas():
    assert "formulas" not in _imported_modules(SRC / "linalg.py")


def _taken_from(path: Path, module: str) -> set[str]:
    """The names that ``path`` imports from forcekit's ``module``."""
    return {alias.name
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").removeprefix("forcekit.") == module
            for alias in node.names}


def test_layer_graph_is_pinned():
    files = sorted(SRC.glob("*.py"))
    modules = {f.stem for f in files}
    assert {f.name: _imported_modules(f) & modules for f in files} == {
        "__init__.py": {"forcing", "formulas", "graphs", "linalg", "search",
                        "theorems"},
        "cli.py": {"forcing", "formulas", "graphs", "search", "suites",
                   "theorems"},
        "forcing.py": {"graphs"},
        "formulas.py": {"forcing", "graphs"},
        "graphs.py": set(),
        "linalg.py": {"forcing", "graphs", "theorems"},
        "search.py": {"forcing", "graphs"},
        "suites.py": {"forcing", "formulas", "graphs", "linalg", "search",
                      "theorems"},
        "theorems.py": {"formulas", "graphs"},
    }


def test_formulas_and_linalg_take_one_name_from_graphs():
    assert _taken_from(SRC / "formulas.py", "graphs") == {"FamilySpec"}
    assert _taken_from(SRC / "linalg.py", "graphs") == {"Graph"}


def test_searches_reach_the_forcing_kernel_through_two_names():
    assert _taken_from(SRC / "search.py", "forcing") == {
        "Rule", "derived_set", "is_fort"}


def test_only_formulas_suites_and_cli_look_up_table51():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert [f.name for f in files if "table51_lookup" in _names(f)] == [
        "cli.py", "formulas.py", "suites.py"]


def test_guards_see_each_form(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from .formulas import x\n"
        "from . import formulas\n"
        "from forcekit import search\n"
        "import forcekit.formulas\n"
        "from forcekit.formulas import y\n"
        "from .graphs import Graph\n"
        "z = formulas.table51_lookup\n")
    assert _imported_modules(path) == {"formulas", "graphs", "search"}
    assert _taken_from(path, "formulas") == {"x", "y"}
    assert _taken_from(path, "graphs") == {"Graph"}
    assert "table51_lookup" in _names(path)
    path.write_text('"""table51_lookup is named only in this docstring."""\n')
    assert "table51_lookup" not in _names(path)
