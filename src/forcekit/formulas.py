"""Closed-form parameter predictions for the named graph families.

The paper's Tables 1 (F) and 2 (F+) are coded once, as the rows of TABLE1
and TABLE2; the predictions, the minimum-rank checks in ``theorems`` and
``forcekit table`` all read them.  Every prediction carries the identifier
of the published result it encodes (e.g. "Thm 3.6") and whether it is
exact or only a lower bound.  The only lower bounds are the hypercube
failed numbers for dimension >= 3; everything else is exact on its family
range.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .forcing import Rule
from .graphs import FamilySpec, build_family, has_module_order2, is_path_graph

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
        kind, params = _table_params(spec)
        return kind == self.kind and self.when(*params)


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


def table_lookup(table: tuple[TableRow, ...],
                 spec: FamilySpec) -> tuple[TableRow, int, bool]:
    """The first row of ``table`` that covers ``spec``, with its value and
    its ``meets_mr`` there."""
    kind, params = _table_params(spec)
    for row in table:
        if row.kind == kind and row.when(*params):
            value, meets_mr = (entry(*params) if callable(entry) else entry
                               for entry in (row.value, row.meets_mr))
            return row, value, meets_mr
    raise UnsupportedFamilyError(f"{spec.label()} is in no row of the table")


def _table_prediction(table: tuple[TableRow, ...], parameter: str,
                      spec: FamilySpec) -> Prediction:
    if spec.kind == "union":
        raise UnsupportedFamilyError("use predicted_failed_union for unions")
    row, value, _ = table_lookup(table, spec)
    return Prediction(parameter, value, row.exactness, row.source)


def predicted_F(spec: FamilySpec) -> Prediction:
    """Failed zero forcing number of a family instance: a Table 1 row, or
    one of the trees and edgeless graphs outside the table."""
    k, p = spec.kind, spec.params
    if k == "marytree":
        n = p[1]
        # F = n - 2 holds exactly when the tree has a module of order 2;
        # the level-filled instances lacking one are paths (only m=2 with
        # n in {1, 4}), where the path formula applies instead.
        g = build_family(spec)
        if has_module_order2(g):
            return Prediction("F", n - 2, EXACT, "Thm 3.6")
        if is_path_graph(g):
            return Prediction("F", _path_failed(n), EXACT, "Thm 3.6")
        raise UnsupportedFamilyError(f"no closed form for marytree{p}")
    if k == "empty":
        return Prediction("F", p[0] - 1, EXACT, "Obs 3.4")
    return _table_prediction(TABLE1, "F", spec)


def predicted_Fplus(spec: FamilySpec) -> Prediction:
    """Failed PSD zero forcing number of a family instance: a Table 2 row,
    or one of the trees and edgeless graphs outside the table."""
    k, p = spec.kind, spec.params
    if k == "marytree":
        return Prediction("Fplus", 0, EXACT, "Thm 4.16")
    if k == "empty":
        return Prediction("Fplus", p[0] - 1, EXACT, "Thm 4.2")
    return _table_prediction(TABLE2, "Fplus", spec)


# Table 5.1 rows: (M, Z, M+, Z+) as functions of the parameters.  The half
# graph rows for s <= 2 and the biclique row for m = n = 1 degenerate to
# paths (H1 = P2, H2 = P4, K11 = P2), where the tabulated formulas do not
# apply; those instances are served by the path row instead.

def predicted_table51(spec: FamilySpec) -> list[Prediction]:
    """Maximum-nullity / forcing-number table row, plus mr and mr+ via
    rank-nullity (mr = n - M, mr+ = n - M+)."""
    k, p = spec.kind, spec.params
    order = spec.order()

    def row(m_val: int, z_val: int, mp_val: int, zp_val: int) -> list[Prediction]:
        src = "Table 5.1"
        return [
            Prediction("M", m_val, EXACT, src),
            Prediction("Z", z_val, EXACT, src),
            Prediction("Mplus", mp_val, EXACT, src),
            Prediction("Zplus", zp_val, EXACT, src),
            Prediction("mr", order - m_val, EXACT, src),
            Prediction("mrplus", order - mp_val, EXACT, src),
        ]

    def path_row() -> list[Prediction]:
        return row(1, 1, 1, 1)

    if k == "path":
        return path_row()
    if k == "cycle":
        return row(2, 2, 2, 2)
    if k == "complete":
        if p[0] == 1:
            return path_row()
        return row(p[0] - 1, p[0] - 1, p[0] - 1, p[0] - 1)
    if k == "hypercube":
        d = p[0]
        if d == 1:
            return row(1, 1, 1, 1)
        if d == 2:
            return row(2, 2, 2, 2)
        h = 1 << (d - 1)
        return row(h, h, h, h)
    if k == "wheel":
        return row(3, 3, 3, 3)
    if k == "biclique":
        m, n = p
        if m + n == 2:
            return path_row()
        return row(m + n - 2, m + n - 2, min(m, n), min(m, n))
    if k == "halfgraph":
        s = p[0]
        if s <= 2:
            return path_row()
        return row(s, s, s, s)
    raise UnsupportedFamilyError(f"{k} is not covered by Table 5.1")


def table51_value(spec: FamilySpec, parameter: str) -> int:
    for pred in predicted_table51(spec):
        if pred.parameter == parameter:
            return pred.value
    raise KeyError(parameter)


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


def predicted_failed_union(spec: FamilySpec, rule: Rule) -> Prediction:
    """Failed number of a disjoint union composed from member predictions.

    Exact when every member prediction is exact; a lower bound otherwise
    (the composition formula is monotone in each member value).
    """
    if spec.kind != "union":
        raise UnsupportedFamilyError("spec is not a union")
    predict = predicted_F if rule is Rule.STANDARD else predicted_Fplus
    preds = [predict(m) for m in spec.members]
    value = compose_disconnected(
        [(m.order(), pred.value) for m, pred in zip(spec.members, preds)])
    exactness = EXACT if all(p.exactness == EXACT for p in preds) else LOWER_BOUND
    source = "Cor 3.3" if rule is Rule.STANDARD else "Cor 4.8"
    parameter = "F" if rule is Rule.STANDARD else "Fplus"
    return Prediction(parameter, value, exactness, source)
