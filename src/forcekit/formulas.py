"""Closed-form parameter predictions for the named graph families.

The paper's Tables 1 (F), 2 (F+) and 5.1 (M, Z, M+, Z+, with Thm 5.2's
case of F+ < Z+) are coded once, as the rows of TABLE1, TABLE2 and TABLE51.
``predicted_failed`` reads Tables 1 and 2 through one row per rule,
``FAILED``; every other module reads Table 5.1 by field name, through
``table51_lookup``.  Every prediction carries the identifier of the
published result it encodes (e.g. "Thm 3.6") and whether it is exact or
only a lower bound.  The only lower bounds are the hypercube failed numbers
for dimension >= 3 and the unions with such a member; everything else is
exact on its family range.  Every prediction is a function of the family
kind and its parameters: none builds a graph.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass

from .forcing import Rule
from .graphs import FamilySpec

EXACT = "exact"
LOWER_BOUND = "lower-bound"


class UnsupportedFamilyError(ValueError):
    """The family instance falls outside the hypotheses of every known result."""


@dataclass(frozen=True)
class Prediction:
    parameter: str   # F, Fplus, Z, Zplus, M, Mplus, mr, mrplus
    value: int
    exactness: str   # "exact" or "lower-bound"
    source: str      # identifier of the result supplying the value


def _path_failed(n: int) -> int:
    # ceil((n - 2) / 2), which is 0 for n in {1, 2}
    return (n - 1) // 2


def _table_params(spec: FamilySpec) -> tuple[str, tuple[int, ...]]:
    """The kind and parameters a table row reads: K_1 is the path P_1, and
    a biclique K_{m,n} is read with m >= n."""
    if spec.kind == "complete" and spec.params == (1,):
        return "path", (1,)
    if spec.kind == "biclique":
        return "biclique", tuple(sorted(spec.params, reverse=True))
    return spec.kind, spec.params


def _first_row(table: tuple, spec: FamilySpec):
    """The first row of ``table`` covering ``spec``, or None, and its parameters."""
    kind, params = _table_params(spec)
    for row in table:
        if row.kind == kind and row.when(*params):
            return row, params
    return None, params


def _entry(entry, params: tuple[int, ...]):
    return entry(*params) if callable(entry) else entry


@dataclass(frozen=True)
class TableRow:
    """One row of the paper's Table 1 (F) or Table 2 (F+): the printed
    columns, the instances it covers (``when``), its value, and whether
    that value is the minimum rank, mr in Table 1 and mr+ in Table 2
    (``meets_mr``).  ``value`` and ``meets_mr`` are constants or functions
    of the parameters."""

    label: str
    formula: str
    equality: str
    kind: str
    when: Callable[..., bool]
    value: int | Callable[..., int]
    meets_mr: bool | Callable[..., bool]
    source: str
    exactness: str = EXACT

    def covers(self, spec: FamilySpec) -> bool:
        return _first_row((self,), spec)[0] is not None


# Rows may overlap (K_{m,2} lies in K_{m,n}, m>=n>=2); they agree where they
# meet.  The W_n row of Table 2 prints "iff n=5,6,7" as the paper does.
TABLE1 = (
    TableRow("P_n", "ceil((n-2)/2)", "iff n=1", "path", lambda n: True,
             _path_failed, lambda n: n == 1, "Thm 3.6"),
    TableRow("C_n, n>=3", "floor(n/2)", "iff n=3,4", "cycle", lambda n: True,
             lambda n: n // 2, lambda n: n in (3, 4), "Thm 3.6"),
    TableRow("K_n, n>=2", "n-2", "iff n=3", "complete", lambda n: n >= 2,
             lambda n: n - 2, lambda n: n == 3, "Thm 3.6"),
    TableRow("W_4", "2", "no", "wheel", lambda n: n == 4, 2, False, "Thm 3.6"),
    TableRow("W_5", "3", "no", "wheel", lambda n: n == 5, 3, False, "Thm 3.6"),
    TableRow("W_n, n>=6", "floor((2n-2)/3)", "iff n=6,7", "wheel", lambda n: n >= 6,
             lambda n: (2 * n - 2) // 3, lambda n: n in (6, 7), "Thm 3.6"),
    TableRow("K_{m,1}, m>=1", "m-1", "iff m=3", "biclique", lambda m, n: n == 1,
             lambda m, n: m - 1, lambda m, n: m == 3, "Thm 3.6"),
    TableRow("K_{m,2}, m>=2", "m", "iff m=2", "biclique", lambda m, n: n == 2,
             lambda m, n: m, lambda m, n: m == 2, "Thm 3.6"),
    TableRow("K_{m,n}, m>=n>=2", "m+n-2", "iff m+n=4", "biclique",
             lambda m, n: n >= 2, lambda m, n: m + n - 2,
             lambda m, n: m + n == 4, "Thm 3.6"),
    TableRow("Q_1", "0", "no", "hypercube", lambda d: d == 1, 0, False, "Thm 3.7"),
    TableRow("Q_2", "2", "yes", "hypercube", lambda d: d == 2, 2, True, "Thm 3.7"),
    TableRow("Q_n, n>=3", ">= 2^n - n", "no", "hypercube", lambda d: d >= 3,
             lambda d: (1 << d) - d, False, "Thm 3.7", LOWER_BOUND),
    TableRow("H_1", "0", "no", "halfgraph", lambda s: s == 1, 0, False, "Thm 3.8"),
    TableRow("H_s, s>=2", "2s-3", "iff s=3", "halfgraph", lambda s: s >= 2,
             lambda s: 2 * s - 3, lambda s: s == 3, "Thm 3.8"),
)

TABLE2 = (
    TableRow("P_n", "0", "iff n=1", "path", lambda n: True, 0, lambda n: n == 1,
             "Thm 4.16"),
    TableRow("C_n, n>=3", "1", "iff n=3", "cycle", lambda n: True, 1,
             lambda n: n == 3, "Thm 4.6"),
    TableRow("K_n, n>=2", "n-2", "iff n=3", "complete", lambda n: n >= 2,
             lambda n: n - 2, lambda n: n == 3, "Cor 4.13"),
    TableRow("W_4", "2", "no", "wheel", lambda n: n == 4, 2, False, "Thm 4.20"),
    TableRow("W_5", "2", "yes", "wheel", lambda n: n == 5, 2, True, "Thm 4.20"),
    TableRow("W_n, n>=6", "floor((2n-2)/3)", "iff n=5,6,7", "wheel", lambda n: n >= 6,
             lambda n: (2 * n - 2) // 3, lambda n: n in (6, 7), "Thm 4.20"),
    TableRow("K_{m,1}, m>=1", "0", "no", "biclique", lambda m, n: n == 1, 0, False,
             "Thm 4.21"),
    TableRow("K_{m,2}, m>=2", "m-1", "no", "biclique", lambda m, n: n == 2,
             lambda m, n: m - 1, False, "Thm 4.21"),
    TableRow("K_{m,n}, m>=n>=3", "m+n-4", "iff n=4", "biclique",
             lambda m, n: n >= 3, lambda m, n: m + n - 4,
             lambda m, n: n == 4, "Thm 4.21"),
    TableRow("Q_1", "0", "no", "hypercube", lambda d: d == 1, 0, False, "Thm 4.22"),
    TableRow("Q_2", "1", "no", "hypercube", lambda d: d == 2, 1, False, "Thm 4.22"),
    TableRow("Q_n, n>=3", ">= 2^n - n - 1", "iff n=3", "hypercube", lambda d: d >= 3,
             lambda d: (1 << d) - d - 1, lambda d: d == 3, "Thm 4.22", LOWER_BOUND),
    TableRow("H_1", "0", "no", "halfgraph", lambda s: s == 1, 0, False, "Thm 4.23"),
    TableRow("H_s, s>=2", "2s-4", "iff s=4", "halfgraph", lambda s: s >= 2,
             lambda s: 2 * s - 4, lambda s: s == 4, "Thm 4.23"),
)


TableEntry = namedtuple("TableEntry", "row value meets_mr")


def table_lookup(table: tuple[TableRow, ...], spec: FamilySpec) -> TableEntry:
    """The first row of ``table`` that covers ``spec``, with its value and
    its ``meets_mr`` there."""
    row, params = _first_row(table, spec)
    if row is None:
        raise UnsupportedFamilyError(f"{spec.label()} is in no row of the table")
    return TableEntry(row, _entry(row.value, params), _entry(row.meets_mr, params))


@dataclass(frozen=True)
class Table51Row:
    """One row of the paper's Table 5.1: the instances it covers (``when``),
    their maximum nullities and forcing numbers (M, Z, M+, Z+), Thm 5.2's
    case for them (``fplus_lt_zplus``: whether F+ < Z+), and which of these
    claims ("Z", "Zplus", "Thm 5.2") are known to disagree with the graphs
    that ``graphs.py`` generates.  ``values`` and ``fplus_lt_zplus`` are
    constants or functions of the parameters."""

    kind: str
    when: Callable[..., bool]
    values: tuple[int, int, int, int] | Callable[..., tuple[int, int, int, int]]
    fplus_lt_zplus: bool | Callable[..., bool]
    known_discrepancies: tuple[str, ...] = ()


# K_{1,1} = P_2, H_1 = P_2 and H_2 = P_4 take the path values, not the formulas.
#
# Known discrepancy: Table 5.1 gives Z = Z+ = s for the half-graph H_s, but
# on the half-graph graphs.py generates (a and s+b adjacent iff a <= b,
# as the failed-number results need) the search finds s - 1; in H_3 the two
# least vertices of the second part force everything.  So Thm 5.2's case
# "F+ < Z+ iff s <= 3" fails at s = 3 (F+ = Z+ = 2).  The suites report the
# claims marked here as known discrepancies; every other claim must hold.
# The tabulated M = M+ = s (so mr = mr+ = s), s >= 3, cannot hold either:
# M <= Z and M+ <= Z+.  Unmarked, they let Thm 5.7 pass at H_3 and Thm 5.8 at H_4.
TABLE51 = (
    Table51Row("path", lambda n: True, (1, 1, 1, 1), True),
    Table51Row("cycle", lambda n: True, (2, 2, 2, 2), True),
    Table51Row("complete", lambda n: n >= 2, lambda n: (n - 1,) * 4, True),
    Table51Row("hypercube", lambda d: True, lambda d: (1 << (d - 1),) * 4,
               lambda d: d in (1, 2)),
    Table51Row("wheel", lambda n: True, (3, 3, 3, 3), lambda n: n in (4, 5)),
    Table51Row("biclique", lambda m, n: m == 1, (1, 1, 1, 1), True),
    Table51Row("biclique", lambda m, n: m >= 2,
               lambda m, n: (m + n - 2, m + n - 2, n, n),
               lambda m, n: n == 1 or (m, n) in ((2, 2), (3, 3))),
    Table51Row("halfgraph", lambda s: s <= 2, (1, 1, 1, 1), True),
    Table51Row("halfgraph", lambda s: s == 3, (3, 3, 3, 3), True,
               ("Z", "Zplus", "Thm 5.2")),
    Table51Row("halfgraph", lambda s: s >= 4, lambda s: (s,) * 4, False,
               ("Z", "Zplus")),
)

Table51 = namedtuple("Table51", "M Z Mplus Zplus mr mrplus fplus_lt_zplus "
                     "known_discrepancies")


def table51_lookup(spec: FamilySpec) -> Table51 | None:
    """The Table 5.1 values of ``spec``, with mr = n - M and mr+ = n - M+ by
    rank-nullity, its Thm 5.2 case and its row's known-discrepancy marks; or
    None when no row covers it (unions, level-filled trees, edgeless graphs)."""
    row, params = _first_row(TABLE51, spec)
    if row is None:
        return None
    m, z, mplus, zplus = _entry(row.values, params)
    n = spec.order()
    return Table51(m, z, mplus, zplus, n - m, n - mplus,
                   _entry(row.fplus_lt_zplus, params), row.known_discrepancies)


def predicted_table51(table: Table51) -> list[Prediction]:
    """M, Z, M+ and Z+ of an instance's Table 5.1 record ``table``
    (``table51_lookup``), plus mr and mr+."""
    return [Prediction(parameter, value, EXACT, "Table 5.1")
            for parameter, value in zip(table._fields, table[:6])]


def compose_disconnected(components: list[tuple[int, int]]) -> int:
    """Failed number of a disconnected graph from per-component data.

    ``components`` holds (order, failed_number) pairs; the result is
    sum(order) - min(order - failed).  The same formula serves both rules.
    With a single component it degenerates to that component's value.
    """
    if not components:
        raise ValueError("need at least one component")
    total = sum(size for size, _ in components)
    return total - min(size - f for size, f in components)


def _tree_F(spec: FamilySpec) -> int:
    # F = n - 2 iff the tree has a module of order 2; the only level-filled
    # trees lacking one are the paths n = 1 and (m, n) = (2, 4).
    m, n = spec.params
    return _path_failed(n) if n == 1 or (m, n) == (2, 4) else n - 2


@dataclass(frozen=True)
class FailedRow:
    """One rule's failed number: its name, its table, and the results for
    unions, edgeless graphs and level-filled trees, which no row covers."""

    parameter: str
    table: tuple[TableRow, ...]
    union_source: str
    empty_source: str
    tree_source: str
    tree_value: Callable[[FamilySpec], int]


FAILED = {
    Rule.STANDARD: FailedRow("F", TABLE1, "Cor 3.3", "Obs 3.4", "Thm 3.6", _tree_F),
    Rule.PSD: FailedRow("Fplus", TABLE2, "Cor 4.8", "Thm 4.2", "Thm 4.16",
                        lambda spec: 0),
}


def predicted_failed(spec: FamilySpec, rule: Rule) -> Prediction:
    """Failed number of a family instance under ``rule``: F (Table 1) or
    F+ (Table 2), or one of the edgeless graphs and level-filled trees
    outside the tables.  A disjoint union is composed from its members'
    predictions: exact when every member's is exact, a lower bound
    otherwise (the composition formula is monotone in each member value).
    A ``rule`` that is not a ``Rule`` member is a ``TypeError``.
    """
    if not isinstance(rule, Rule):
        raise TypeError(f"rule must be a Rule, got {rule!r}")
    row = FAILED[rule]
    if spec.kind == "union":
        preds = [predicted_failed(m, rule) for m in spec.members]
        value = compose_disconnected(
            [(m.order(), pred.value) for m, pred in zip(spec.members, preds)])
        exact = all(pred.exactness == EXACT for pred in preds)
        source = row.union_source
    elif spec.kind == "empty":
        value, exact, source = spec.params[0] - 1, True, row.empty_source
    elif spec.kind == "marytree":
        value, exact, source = row.tree_value(spec), True, row.tree_source
    else:
        entry = table_lookup(row.table, spec)
        value, exact = entry.value, entry.row.exactness == EXACT
        source = entry.row.source
    return Prediction(row.parameter, value, EXACT if exact else LOWER_BOUND, source)
