"""The names that the benchmark under perfbench/ reaches in forcekit.

A name that forcekit renames or deletes would otherwise only show up as a
"names not found" note in a traced benchmark run, with its per-layer
metric reading 0.  These tests read perfbench/ and change nothing in it.
"""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

import forcekit
import forcekit.cli  # noqa: F401  (loaded as perfbench's import_forcekit does)
import forcekit.suites  # noqa: F401

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fk_names():
    names = set()
    for script in ("run.py", "workloads.py", "record_reference.py"):
        text = (PERFBENCH / script).read_text(encoding="utf-8")
        names.update(re.findall(r"\bfk((?:\.[A-Za-z_]\w*)+)", text))
    return sorted(name[1:] for name in names)


def test_every_traced_name_resolves(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    patches = tracing.HOT + tracing.SPANS
    assert patches
    missing = [f"{module_name}.{attr}"
               for module_name, attr, _, _ in patches
               if getattr(importlib.import_module(module_name), attr,
                          None) is None]
    assert missing == []


def test_every_fk_name_resolves():
    names = _fk_names()
    # the scan finds what the workloads call
    assert {"derived_set", "is_fort", "suites.run_exhaustive"} <= set(names)
    missing = []
    for name in names:
        obj = forcekit
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(name)
    assert missing == []
