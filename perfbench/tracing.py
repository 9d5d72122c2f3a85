"""Span tracing patched onto forcekit's layer boundaries from outside.

Each patch replaces a name that one forcekit module imports from the layer
below (``forcekit.search.derived_set``, ``forcekit.cli.parse_graph``, ...)
with a wrapper that records a span.  Spans nest through an explicit stack,
so every span knows its parent and its self time (duration minus the time
its children cover).  Hot leaves, called over a million times a pass, are
only aggregated per (name, parent name); every other call keeps one span.
Nothing leaves memory until ``write``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from array import array
from pathlib import Path

# Hot leaves, aggregated per (name, parent name):
# (module, attribute, span name, position of the Rule argument or None)
HOT = (
    ("forcekit.search", "derived_set", "forcing.derived_set", 2),
    # forcing's own name serves is_forcing_set, which linalg's certificates use
    ("forcekit.forcing", "derived_set", "forcing.derived_set", 2),
    ("forcekit.forcing", "components_within", "graphs.components_within", None),
    ("forcekit.search", "components_within", "graphs.components_within", None),
)
_THEOREM_CHECKS = ("check_isolated_characterizations", "check_module_characterizations",
                   "check_low_Fplus", "check_F_vs_Z", "check_minrank_equalities",
                   "check_Fplus_lt_Zplus_cases")
_SUITE_LINALG = ("sample_pattern_matrix", "shifted_singular_matrix",
                 "weighted_laplacian", "support_implies_failed",
                 "rank_lower_bound_check")
# Functions that keep one span per call, same fields.
SPANS = (
    ("forcekit.linalg", "is_failed_set", "forcing.is_failed_set", 2),
    ("forcekit.cli", "zero_forcing_number", "search.zero_forcing_number", 1),
    ("forcekit.cli", "failed_number", "search.failed_number", 1),
    ("forcekit.suites", "zero_forcing_number", "search.zero_forcing_number", 1),
    ("forcekit.suites", "failed_number", "search.failed_number", 1),
    ("forcekit.cli", "parse_graph", "graphs.parse_graph", None),
    ("forcekit.cli", "parse_family", "graphs.parse_family", None),
    ("forcekit.cli", "build_family", "graphs.build_family", None),
    ("forcekit.suites", "build_family", "graphs.build_family", None),
    ("forcekit.suites", "is_connected", "graphs.is_connected", None),
    # shifted_singular_matrix calls sample_pattern_matrix and
    # support_implies_failed calls kernel_basis inside forcekit.linalg
    ("forcekit.linalg", "sample_pattern_matrix", "linalg.sample_pattern_matrix", None),
    ("forcekit.linalg", "kernel_basis", "linalg.kernel_basis", None),
) + tuple(("forcekit.suites", fn, "theorems.check", None) for fn in _THEOREM_CHECKS) \
  + tuple(("forcekit.suites", fn, f"linalg.{fn}", None) for fn in _SUITE_LINALG)


# fields of an aggregate [calls, total_s, self_s]
CALLS, TOTAL_S, SELF_S = 0, 1, 2


def _namer(base: str, rule_pos):
    """Span name of a call: base, plus the rule's value for rule-taking
    functions.  Names are cached by id(rule): this runs on every hot call,
    and hashing an Enum member runs Python code."""
    names = {}

    def name_of(args, kwargs):
        if rule_pos is None:
            return base
        rule = args[rule_pos] if len(args) > rule_pos else kwargs["rule"]
        name = names.get(id(rule))
        if name is None:
            name = names[id(rule)] = f"{base}.{rule.value}"
        return name
    return name_of


class Tracer:
    """Records spans while installed; ``span`` wraps the benchmark's own
    calls into forcekit's entry points."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one record per non-hot span
        self.span_id = array("q")
        self.parent_id = array("q")
        self.root_id = array("q")
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        # name -> [calls, total_s, self_s] over non-hot spans
        self.totals: dict[str, list] = {}
        # (name, parent name) -> [calls, total_s, self_s] for hot leaves
        self.hot: dict[tuple[str, str], list] = {}
        # frame: [child seconds, name, span id, root id]
        self._stack = [[0.0, "", -1, -1]]
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def _name_index(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _span_wrapper(self, fn, base: str, rule_pos):
        stack = self._stack
        perf = time.perf_counter
        name_of = _namer(base, rule_pos)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            parent = stack[-1]
            sid = self._next_id
            self._next_id += 1
            frame = [0.0, name, sid, sid if parent[3] < 0 else parent[3]]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                own = dur - frame[0]
                self.span_id.append(sid)
                self.parent_id.append(parent[2])
                self.root_id.append(frame[3])
                self.name_id.append(self._name_index(name))
                self.start.append(t0)
                self.end.append(t1)
                self.self_s.append(own)
                agg = self.totals.get(name)
                if agg is None:
                    agg = self.totals[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += own
        return wrapper

    def _hot_wrapper(self, fn, base: str, rule_pos):
        stack = self._stack
        hot = self.hot
        perf = time.perf_counter
        name_of = _namer(base, rule_pos)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            frame = [0.0, name]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                parent = stack[-1]
                parent[0] += dur
                key = (name, parent[1])
                agg = hot.get(key)
                if agg is None:
                    agg = hot[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
        return wrapper

    def span(self, fn, name: str):
        """Wrap one of the benchmark's calls into forcekit as a span."""
        return self._span_wrapper(fn, name, None)

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        for patches, make in ((HOT, self._hot_wrapper), (SPANS, self._span_wrapper)):
            for module_name, attr, base, rule_pos in patches:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, make(original, base, rule_pos))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- reading -----------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Every call count, keyed by span name (and parent for hot leaves)."""
        out = {name: agg[0] for name, agg in self.totals.items()}
        out.update({f"{name} <- {parent or '(root)'}": agg[0]
                    for (name, parent), agg in self.hot.items()})
        return out

    def hot_sum(self, name: str, field: int, parent: str | None = None):
        return sum(agg[field] for (n, p), agg in self.hot.items()
                   if n == name and (parent is None or p == parent))

    def total(self, name: str, field: int):
        agg = self.totals.get(name)
        return agg[field] if agg else 0

    def write(self, path: Path) -> None:
        """Gzipped JSON: span columns with times in microseconds from the
        first span's start, and the hot-leaf aggregates in seconds."""
        origin = min(self.start, default=0.0)

        def micros(xs, base=0.0):
            return [round((x - base) * 1e6) for x in xs]
        data = {
            "names": self.names,
            "spans": {
                "id": list(self.span_id), "parent": list(self.parent_id),
                "root": list(self.root_id), "name": list(self.name_id),
                "start_us": micros(self.start, origin),
                "end_us": micros(self.end, origin),
                "self_us": micros(self.self_s),
            },
            "hot": [{"name": n, "parent": p, "calls": a[0], "total_s": a[1],
                     "self_s": a[2]} for (n, p), a in sorted(self.hot.items())],
            "missing_patches": self.missing,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(data, fh, separators=(",", ":"))
