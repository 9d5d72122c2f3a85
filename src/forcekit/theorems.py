"""Executable checks for the characterization theorems.

Each check compares computed parameter values against what a theorem
asserts about the graph's structure.  The checks take already-computed
parameters so they can be driven by either the fort search or the brute
oracle.  The eleven checks that read only the graph and its four
parameters are the rows of one table, ``GRAPH_CHECKS``, and one evaluator,
``graph_checks``, gives each row's expected and observed values; the
Table 5.1 checks take the record that their suite looked up
(``table51_lookup``) and return one TheoremReport per assertion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formulas import TABLE1, TABLE2, Table51, UnsupportedFamilyError, table_lookup
from .graphs import (
    FamilySpec,
    Graph,
    has_adjacent_module_order2,
    has_isolated_vertex,
    has_module_order2,
    is_complete,
    is_connected,
    is_cycle_graph,
    is_empty_graph,
    is_tree,
)


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    graph: str
    expected: object
    observed: object
    passed: bool

    @staticmethod
    def compare(theorem: str, graph: str, expected, observed) -> "TheoremReport":
        return TheoremReport(theorem, graph, expected, observed,
                             expected == observed)

    def as_dict(self) -> dict:
        return {"theorem": self.theorem, "graph": self.graph,
                "expected": self.expected, "observed": self.observed,
                "pass": self.passed}


# The graph-level checks, in the order the suites report them.  A row is
# (theorem, applies, reads, check): applies is None for a check on every
# graph, else the predicate a graph must meet; check maps the graph and a
# dict from parameter name (F, Z, Fplus, Zplus) to value to the pair
# (expected, observed), reading only the parameters in reads.
GRAPH_CHECKS = (
    # F = n-1 iff an isolated vertex exists; the same for F+
    ("Obs 3.4", None, ("F",),
     lambda g, v: (has_isolated_vertex(g), v["F"] == g.n - 1)),
    ("Thm 4.2", None, ("Fplus",),
     lambda g, v: (has_isolated_vertex(g), v["Fplus"] == g.n - 1)),
    # connected graphs: F = n-2 iff a module of order 2 exists; the PSD
    # analogue needs the module's two vertices adjacent
    ("Thm 3.5", is_connected, ("F",),
     lambda g, v: (has_module_order2(g), v["F"] == g.n - 2)),
    ("Thm 4.12", is_connected, ("Fplus",),
     lambda g, v: (has_adjacent_module_order2(g), v["Fplus"] == g.n - 2)),
    # F+ = 0 exactly on trees, equivalently when Z+ = 1, and F+ = 1 exactly
    # on cycles and on two isolated vertices
    ("Thm 4.16", None, ("Fplus",), lambda g, v: (is_tree(g), v["Fplus"] == 0)),
    ("Cor 4.17", None, ("Zplus", "Fplus"),
     lambda g, v: (v["Zplus"] == 1, v["Fplus"] == 0)),
    ("Thm 4.18", None, ("Fplus",), lambda g, v: (
        g.n == 2 and is_empty_graph(g) or is_cycle_graph(g), v["Fplus"] == 1)),
    # the bounds Z - 1 <= F <= n - 1, Z+ - 1 <= F+ <= n - 1 and F+ <= F
    ("Obs 3.1", None, ("F", "Z"),
     lambda g, v: (True, v["Z"] - 1 <= v["F"] <= g.n - 1)),
    ("Prop 4.1", None, ("Fplus", "Zplus"),
     lambda g, v: (True, v["Zplus"] - 1 <= v["Fplus"] <= g.n - 1)),
    ("Thm 4.19", None, ("F", "Fplus"), lambda g, v: (True, v["Fplus"] <= v["F"])),
    # F < Z exactly on complete graphs and their complements
    ("Thm 5.1", None, ("F", "Z"),
     lambda g, v: (is_complete(g) or is_empty_graph(g), v["F"] < v["Z"])),
)


def graph_checks(g: Graph, values: dict, rows=None):
    """Yield (theorem, expected, observed) for each row of ``rows``, all of
    GRAPH_CHECKS by default, that applies to g, in order."""
    for theorem, applies, _, check in GRAPH_CHECKS if rows is None else rows:
        if applies is None or applies(g):
            yield (theorem, *check(g, values))


def _reports(g: Graph, name: str, theorems: tuple, **values) -> list[TheoremReport]:
    """A report for each row named in theorems whose parameters are given."""
    rows = [row for row in GRAPH_CHECKS
            if row[0] in theorems and all(p in values for p in row[2])]
    return [TheoremReport.compare(theorem, name, expected, observed)
            for theorem, expected, observed in graph_checks(g, values, rows)]


_BOUNDS = ("Obs 3.1", "Prop 4.1", "Thm 4.19")


def check_failed_bounds(g: Graph, name: str, values: dict) -> list[TheoremReport]:
    """The bound rows whose parameters values (keyed F, Z, Fplus, Zplus) gives."""
    return _reports(g, name, _BOUNDS, **values)


# The row groups that tests/test_theorems.py checks; perfbench/tracing.py
# patches their names on the suites module.

def check_isolated_characterizations(g: Graph, name: str, f: int, fplus: int):
    return _reports(g, name, ("Obs 3.4", "Thm 4.2"), F=f, Fplus=fplus)


def check_module_characterizations(g: Graph, name: str, f: int, fplus: int):
    if not is_connected(g):
        raise ValueError("module characterizations apply to connected graphs")
    return _reports(g, name, ("Thm 3.5", "Thm 4.12"), F=f, Fplus=fplus)


def check_low_Fplus(g: Graph, name: str, fplus: int, zplus: int):
    return _reports(g, name, ("Thm 4.16", "Cor 4.17", "Thm 4.18"),
                    Fplus=fplus, Zplus=zplus)


def check_F_vs_Z(g: Graph, name: str, f: int, z: int, fplus: int, zplus: int):
    return _reports(g, name, _BOUNDS + ("Thm 5.1",),
                    F=f, Z=z, Fplus=fplus, Zplus=zplus)


def check_minrank_equalities(spec: FamilySpec, table: Table51, f: int,
                             fplus: int) -> list[TheoremReport]:
    """F = mr (Thm 5.7) and F+ = mr+ (Thm 5.8) exactly where the family's
    row of Table 1 or 2 says so; P1 = K1 is the one path meeting its own
    minimum rank.  ``table`` is the spec's Table 5.1 record, whose mr and
    mr+ come from the tabulated nullities M and M+ by rank-nullity."""
    name = spec.label()
    return [
        TheoremReport.compare("Thm 5.7", name, table_lookup(TABLE1, spec).meets_mr,
                              f == table.mr),
        TheoremReport.compare("Thm 5.8", name, table_lookup(TABLE2, spec).meets_mr,
                              fplus == table.mrplus),
    ]


def check_Fplus_lt_Zplus_cases(spec: FamilySpec, table: Table51 | None,
                               fplus: int, zplus: int) -> list[TheoremReport]:
    """Thm 5.2: F+ < Z+ exactly where the spec's Table 5.1 record ``table``
    says so; trees and edgeless graphs, outside the table (``table`` None),
    always have it."""
    if table is None and spec.kind not in ("marytree", "empty"):
        raise UnsupportedFamilyError(f"{spec.label()} is in no row of Table 5.1")
    return [TheoremReport.compare("Thm 5.2", spec.label(),
                                  table is None or table.fplus_lt_zplus, fplus < zplus)]
