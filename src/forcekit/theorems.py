"""Executable checks for the characterization theorems.

Each check compares computed parameter values against what a theorem
asserts about the graph's structure and returns one TheoremReport per
assertion.  The checks take already-computed parameters so they can be
driven by either the fort search or the brute oracle, and the Table 5.1
checks take the record that their suite looked up (``table51_lookup``).
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


def check_isolated_characterizations(g: Graph, name: str, f: int,
                                     fplus: int) -> list[TheoremReport]:
    """F = n-1 iff isolated vertex; same for the PSD failed number."""
    isolated = has_isolated_vertex(g)
    return [
        TheoremReport.compare("Obs 3.4", name, isolated, f == g.n - 1),
        TheoremReport.compare("Thm 4.2", name, isolated, fplus == g.n - 1),
    ]


def check_module_characterizations(g: Graph, name: str, f: int,
                                   fplus: int) -> list[TheoremReport]:
    """Connected graphs: F = n-2 iff a module of order 2 exists; the PSD
    analogue needs the module's two vertices adjacent."""
    if not is_connected(g):
        raise ValueError("module characterizations apply to connected graphs")
    return [
        TheoremReport.compare("Thm 3.5", name,
                              has_module_order2(g), f == g.n - 2),
        TheoremReport.compare("Thm 4.12", name,
                              has_adjacent_module_order2(g), fplus == g.n - 2),
    ]


def check_low_Fplus(g: Graph, name: str, fplus: int,
                    zplus: int) -> list[TheoremReport]:
    """The PSD failed number is 0 exactly on trees (equivalently when the
    PSD forcing number is 1) and 1 exactly on cycles and on two isolated
    vertices."""
    two_isolated = g.n == 2 and is_empty_graph(g)
    return [
        TheoremReport.compare("Thm 4.16", name, is_tree(g), fplus == 0),
        TheoremReport.compare("Cor 4.17", name, zplus == 1, fplus == 0),
        TheoremReport.compare("Thm 4.18", name,
                              two_isolated or is_cycle_graph(g), fplus == 1),
    ]


def check_failed_bounds(n: int, name: str, f=None, z=None, fplus=None,
                        zplus=None) -> list[TheoremReport]:
    """Z - 1 <= F <= n - 1 (Obs 3.1), Z+ - 1 <= F+ <= n - 1 (Prop 4.1) and
    F+ <= F (Thm 4.19), each checked when the values it reads are given."""
    checks = (("Obs 3.1", (f, z), lambda: z - 1 <= f <= n - 1),
              ("Prop 4.1", (fplus, zplus), lambda: zplus - 1 <= fplus <= n - 1),
              ("Thm 4.19", (f, fplus), lambda: fplus <= f))
    return [TheoremReport.compare(theorem, name, True, holds())
            for theorem, values, holds in checks if None not in values]


def check_F_vs_Z(g: Graph, name: str, f: int, z: int, fplus: int,
                 zplus: int) -> list[TheoremReport]:
    """Sandwich bounds, rule dominance, and the characterization of
    F < Z (complete graphs and their complements only)."""
    return check_failed_bounds(g.n, name, f, z, fplus, zplus) + [
        TheoremReport.compare("Thm 5.1", name,
                              is_complete(g) or is_empty_graph(g), f < z),
    ]


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
