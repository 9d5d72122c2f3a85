from itertools import chain, combinations_with_replacement, product

import pytest

from forcekit.forcing import Rule, is_failed_set, is_forcing_set
from forcekit.formulas import (
    EXACT,
    LOWER_BOUND,
    TABLE1,
    TABLE2,
    TABLE51,
    Prediction,
    UnsupportedFamilyError,
    compose_disconnected,
    predicted_failed,
    _first_row,
    predicted_table51,
    table51_lookup,
    table_lookup,
)
from forcekit.graphs import (
    FAMILY_KINDS,
    MAX_VERTICES,
    FamilyError,
    FamilySpec,
    build_family,
    parse_family,
)
from forcekit.search import brute_failed_number, failed_number, zero_forcing_number
from forcekit.suites import default_family_specs, failed_number_check

# the seven kinds that Tables 1, 2 and 5.1 cover
TABLE_KINDS = ("path", "cycle", "complete", "hypercube", "wheel",
               "biclique", "halfgraph")


def spec(text):
    return parse_family(text)


def tabulated_defaults():
    """The default instances that a Table 5.1 row covers."""
    return [s for s in default_family_specs() if table51_lookup(s) is not None]


# F and F+ of a family instance, as the paper's Tables 1 and 2 name them
def predicted_F(s):
    return predicted_failed(s, Rule.STANDARD)


def predicted_Fplus(s):
    return predicted_failed(s, Rule.PSD)


class TestPredictedF:
    @pytest.mark.parametrize("text,value", [
        ("path:1", 0), ("path:2", 0), ("path:5", 2), ("path:12", 5),
        ("cycle:4", 2), ("cycle:9", 4),
        ("complete:2", 0), ("complete:7", 5),
        ("wheel:4", 2), ("wheel:5", 3), ("wheel:7", 4), ("wheel:12", 7),
        ("biclique:3,1", 2), ("biclique:2,2", 2), ("biclique:5,4", 7),
        ("biclique:1,1", 0),
        ("hypercube:1", 0), ("hypercube:2", 2),
        ("halfgraph:1", 0), ("halfgraph:2", 1), ("halfgraph:5", 7),
        ("empty:4", 3),
        ("marytree:2,7", 5), ("marytree:3,9", 7), ("marytree:2,2", 0),
    ])
    def test_exact_values(self, text, value):
        pred = predicted_F(spec(text))
        assert (pred.value, pred.exactness) == (value, EXACT)

    def test_hypercube_lower_bound(self):
        pred = predicted_F(spec("hypercube:3"))
        assert pred == Prediction("F", 5, LOWER_BOUND, "Thm 3.7")
        assert predicted_F(spec("hypercube:4")).value == 12

    def test_degenerate_marytree_is_path(self):
        # the level-filled binary tree on 4 vertices is a path, where the
        # n-2 form does not hold (its failed number is 1)
        pred = predicted_F(spec("marytree:2,4"))
        assert (pred.value, pred.exactness) == (1, EXACT)

    def test_tree_prediction_is_the_twin_definition(self):
        # Thm 3.6 by its hypothesis, on every order: F = n - 2 when two
        # vertices u < v have N(u) - v == N(v) - u, and the path value
        # ceil((n - 2) / 2) otherwise.  The twins are found on Python sets,
        # not with Graph.twin_pairs, which the F search prunes with.
        for m in chain(range(2, MAX_VERTICES + 1), [10**30]):
            for n in range(1, MAX_VERTICES + 1):
                s = FamilySpec("marytree", (m, n))
                g = build_family(s)
                nbrs = [{w for w in range(n) if g.adj[u] >> w & 1}
                        for u in range(n)]
                twins = any(nbrs[u] - {v} == nbrs[v] - {u}
                            for v in range(n) for u in range(v))
                assert predicted_F(s).value == (
                    n - 2 if twins else (n - 1) // 2), s

    def test_complete_singleton_is_p1(self):
        assert predicted_F(spec("complete:1")).value == 0
        assert predicted_Fplus(spec("complete:1")).value == 0


class TestPredictedFplus:
    @pytest.mark.parametrize("text,value", [
        ("path:9", 0), ("marytree:3,13", 0),
        ("cycle:3", 1), ("cycle:12", 1),
        ("complete:2", 0), ("complete:8", 6),
        ("wheel:4", 2), ("wheel:5", 2), ("wheel:6", 3), ("wheel:12", 7),
        ("biclique:4,1", 0), ("biclique:4,2", 3), ("biclique:4,3", 3),
        ("biclique:5,5", 6),
        ("hypercube:1", 0), ("hypercube:2", 1),
        ("halfgraph:1", 0), ("halfgraph:2", 0), ("halfgraph:4", 4),
        ("empty:5", 4),
    ])
    def test_exact_values(self, text, value):
        pred = predicted_Fplus(spec(text))
        assert (pred.value, pred.exactness) == (value, EXACT)

    def test_hypercube_lower_bound(self):
        pred = predicted_Fplus(spec("hypercube:3"))
        assert (pred.value, pred.exactness) == (4, LOWER_BOUND)
        assert predicted_Fplus(spec("hypercube:4")).value == 11


@pytest.mark.parametrize("rule", ["standard", "psd", None, 0])
@pytest.mark.parametrize("predict", [predicted_failed, failed_number_check])
def test_a_rule_that_is_no_rule_is_a_type_error(predict, rule):
    with pytest.raises(TypeError, match="rule must be a Rule"):
        predict(spec("cycle:5"), rule)


class TestOracleAgreement:
    """Every exact closed form must equal the brute-force oracle on the
    instances small enough to scan."""

    @pytest.mark.parametrize("rule,predict", [
        (Rule.STANDARD, predicted_F), (Rule.PSD, predicted_Fplus)])
    def test_all_small_instances(self, rule, predict):
        for s in default_family_specs(max_n=8):
            pred = predict(s)
            got = brute_failed_number(build_family(s), rule).value
            if pred.exactness == EXACT:
                assert got == pred.value, s.label()
            else:
                assert got >= pred.value, s.label()


class TestPaperTables:
    @pytest.mark.parametrize("table", [TABLE1, TABLE2], ids=["table1", "table2"])
    def test_rows_and_default_instances_cover_each_other(self, table):
        instances = tabulated_defaults()
        for s in instances:
            assert any(row.covers(s) for row in table), s.label()
        for row in table:
            assert any(row.covers(s) for s in instances), row.label

    @pytest.mark.parametrize("table", [TABLE1, TABLE2], ids=["table1", "table2"])
    def test_overlapping_rows_agree(self, table):
        for s in tabulated_defaults():
            rows = [row for row in table if row.covers(s)]
            values = {table_lookup((row,), s)[1:] for row in rows}
            assert len(values) == 1, (s.label(), [r.label for r in rows])

    def test_biclique_read_with_larger_part_first(self):
        for table in (TABLE1, TABLE2):
            row, value, meets_mr = table_lookup(table, spec("biclique:2,5"))
            assert (row, value, meets_mr) == table_lookup(table, spec("biclique:5,2"))
            assert row.label == "K_{m,2}, m>=2"
        assert predicted_F(spec("biclique:2,3")) == predicted_F(spec("biclique:3,2"))
        assert predicted_Fplus(spec("biclique:2,3")) == \
            predicted_Fplus(spec("biclique:3,2"))

    def test_k1_reads_the_path_row(self):
        for table in (TABLE1, TABLE2):
            assert table_lookup(table, spec("complete:1")) == \
                table_lookup(table, spec("path:1"))

    @pytest.mark.parametrize("text", ["empty:3", "marytree:2,5", "path:2+path:3"])
    def test_outside_the_tables(self, text):
        with pytest.raises(UnsupportedFamilyError):
            table_lookup(TABLE1, spec(text))


class TestTable51:
    def test_cycle_row(self):
        preds = {p.parameter: p.value
                 for p in predicted_table51(table51_lookup(spec("cycle:6")))}
        assert preds == {"M": 2, "Z": 2, "Mplus": 2, "Zplus": 2,
                         "mr": 4, "mrplus": 4}

    def test_biclique_row(self):
        preds = {p.parameter: p.value
                 for p in predicted_table51(table51_lookup(spec("biclique:4,3")))}
        assert preds == {"M": 5, "Z": 5, "Mplus": 3, "Zplus": 3,
                         "mr": 2, "mrplus": 4}

    def test_hypercube_row(self):
        preds = {p.parameter: p.value
                 for p in predicted_table51(table51_lookup(spec("hypercube:3")))}
        assert preds == {"M": 4, "Z": 4, "Mplus": 4, "Zplus": 4,
                         "mr": 4, "mrplus": 4}

    @pytest.mark.parametrize("text", ["halfgraph:1", "halfgraph:2",
                                      "biclique:1,1", "complete:1"])
    def test_degenerate_rows_fall_back_to_path(self, text):
        preds = {p.parameter: p.value
                 for p in predicted_table51(table51_lookup(spec(text)))}
        order = spec(text).order()
        assert preds["M"] == preds["Z"] == preds["Mplus"] == preds["Zplus"] == 1
        assert preds["mr"] == preds["mrplus"] == order - 1

    def test_wheel_row(self):
        assert table51_lookup(spec("wheel:9")).mr == 6

    def test_record_fields(self):
        assert table51_lookup(spec("halfgraph:3"))._asdict() == {
            "M": 3, "Z": 3, "Mplus": 3, "Zplus": 3, "mr": 3, "mrplus": 3,
            "fplus_lt_zplus": True,
            "known_discrepancies": ("Z", "Zplus", "Thm 5.2")}
        table = table51_lookup(spec("biclique:3,4"))
        assert (table.M, table.Z, table.Mplus, table.Zplus, table.mr,
                table.mrplus) == (5, 5, 3, 3, 2, 4)
        assert (table.fplus_lt_zplus, table.known_discrepancies) == (False, ())

    def test_rows_and_default_instances_cover_each_other(self):
        # every default instance of the seven tabulated kinds has a row,
        # and every row serves some default instance
        instances = [s for s in default_family_specs() if s.kind in TABLE_KINDS]
        assert instances == tabulated_defaults()
        rows = [_first_row(TABLE51, s)[0] for s in instances]
        assert set(map(id, rows)) == set(map(id, TABLE51))

    def test_tabulated_nullities_bound_the_computed_forcing_numbers(self):
        # M <= Z (AIM Minimum Rank - Special Graphs Work Group, LAA 2008)
        # and M+ <= Z+ (Barioli et al., LAA 2010).  Table 5.1's M = M+ = s
        # for the half-graph H_s exceeds the computed Z = Z+ = s - 1 at
        # s >= 3, so those nullities, and the mr and mr+ read from them,
        # cannot hold; every other default instance meets both bounds.
        too_large = set()
        instances = tabulated_defaults()
        assert len(instances) == 64
        for s in instances:
            table, g = table51_lookup(s), build_family(s)
            z = zero_forcing_number(g, Rule.STANDARD).value
            zplus = zero_forcing_number(g, Rule.PSD).value
            if table.M > z or table.Mplus > zplus:
                too_large.add((s.label(), table.M, z, table.Mplus, zplus))
        assert too_large == {(f"halfgraph:{s}", s, s - 1, s, s - 1)
                             for s in (3, 4, 5)}

    def test_known_discrepancies_marked_only_on_half_graphs(self):
        # a mark turns a failure of that claim into a known discrepancy, so
        # a mark where the claim holds would hide a later regression
        marked = {(s.label(), claim)
                  for s in tabulated_defaults()
                  for claim in table51_lookup(s).known_discrepancies}
        assert marked == {("halfgraph:3", "Z"), ("halfgraph:3", "Zplus"),
                          ("halfgraph:3", "Thm 5.2"),
                          ("halfgraph:4", "Z"), ("halfgraph:4", "Zplus"),
                          ("halfgraph:5", "Z"), ("halfgraph:5", "Zplus")}

    @pytest.mark.parametrize("text", ["marytree:2,5", "empty:3",
                                      "cycle:3+path:2"])
    def test_not_in_table(self, text):
        assert table51_lookup(spec(text)) is None


class TestEveryInstance:
    def test_every_plain_instance_has_its_predictions(self):
        # Parameters over 0..MAX_VERTICES reach every valid instance: a
        # larger parameter exceeds the vertex cap, except a marytree's
        # arity m, and every m >= n - 1 builds the same star.
        values = range(MAX_VERTICES + 1)
        specs = []
        for kind in FAMILY_KINDS:
            for params in chain(((p,) for p in values), product(values, values)):
                try:
                    specs.append(FamilySpec(kind, params))
                except FamilyError:
                    pass
        assert len(specs) == 6205
        specs.append(parse_family("cycle:3+path:2"))
        for s in specs:
            assert isinstance(predicted_F(s), Prediction), s
            assert isinstance(predicted_Fplus(s), Prediction), s
            if s.kind in ("marytree", "empty", "union"):
                assert table51_lookup(s) is None, s
            else:
                assert len(predicted_table51(table51_lookup(s))) == 6, s


class TestComposition:
    def test_c3_plus_p2(self):
        assert compose_disconnected([(3, 1), (2, 0)]) == 3

    def test_two_isolated(self):
        assert compose_disconnected([(1, 0), (1, 0)]) == 1

    def test_single_component_identity(self):
        assert compose_disconnected([(9, 4)]) == 4

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            compose_disconnected([])

    def test_union_prediction_matches_oracle(self):
        for text in ("cycle:3+path:2", "path:3+path:4", "complete:3+empty:2",
                     "cycle:4+cycle:3+path:2"):
            s = spec(text)
            g = build_family(s)
            for rule in (Rule.STANDARD, Rule.PSD):
                pred = predicted_failed(s, rule)
                assert pred.exactness == EXACT
                assert pred.value == brute_failed_number(g, rule).value

    def test_every_small_pair_of_default_instances(self):
        # failed_number is pinned to brute_failed_number in test_search.py
        specs = default_family_specs(max_n=9)
        checked = {EXACT: 0, LOWER_BOUND: 0}
        for a, b in combinations_with_replacement(specs, 2):
            if a.order() + b.order() > 10:
                continue
            s = FamilySpec("union", members=(a, b))
            g = build_family(s)
            for rule in (Rule.STANDARD, Rule.PSD):
                pred = predicted_failed(s, rule)
                got = failed_number(g, rule).value
                checked[pred.exactness] += 1
                if pred.exactness == EXACT:
                    assert got == pred.value, (s.label(), rule)
                else:
                    assert got >= pred.value, (s.label(), rule)
        assert checked == {EXACT: 2866, LOWER_BOUND: 24}

    def test_union_with_hypercube_is_lower_bound(self):
        pred = predicted_failed(spec("hypercube:3+path:2"), Rule.STANDARD)
        assert pred.exactness == LOWER_BOUND
        got = brute_failed_number(build_family(spec("hypercube:3+path:2")),
                                  Rule.STANDARD).value
        assert got >= pred.value


class TestFamilySpecOrder:
    @pytest.mark.parametrize("text,order", [
        ("hypercube:4", 16), ("halfgraph:5", 10), ("biclique:5,4", 9),
        ("marytree:2,13", 13), ("cycle:3+path:2", 5),
    ])
    def test_order(self, text, order):
        assert spec(text).order() == order
        assert build_family(spec(text)).n == order


# The largest instance of each kind at order <= 63, with half-graph H_16.
# Each of the 44 cells (instance, parameter) that finishes within a budget
# of 1,000,000 search nodes is checked here; the other 14 are walls:
# F of path:63, cycle:63 and wheel:63, F+ of wheel:63 and the two trees,
# Z of the two trees, and Z and Z+ of hypercube:5 and both half-graphs.
ORDER_63_CELLS = [
    ("path:63", ("Fplus", "Z", "Zplus")),
    ("cycle:63", ("Fplus", "Z", "Zplus")),
    ("complete:63", ("F", "Fplus", "Z", "Zplus")),
    ("wheel:63", ("Z", "Zplus")),
    ("biclique:31,32", ("F", "Fplus", "Z", "Zplus")),
    ("hypercube:5", ("F", "Fplus")),
    ("halfgraph:16", ("F", "Fplus")),
    ("halfgraph:31", ("F", "Fplus")),
    ("marytree:2,63", ("F", "Zplus")),
    ("marytree:3,63", ("F", "Zplus")),
    ("empty:63", ("F", "Fplus", "Z", "Zplus")),
]
# Cells outside Tables 1, 2 and 5.1 and the tree and edgeless forms of
# predicted_failed: a tree has Z+ = 1 and an edgeless graph Z = Z+ = n.
ORDER_63_UNTABULATED = {("marytree:2,63", "Zplus"): 1,
                        ("marytree:3,63", "Zplus"): 1,
                        ("empty:63", "Z"): 63, ("empty:63", "Zplus"): 63}


@pytest.mark.parametrize("text,parameter", [
    (text, parameter) for text, parameters in ORDER_63_CELLS
    for parameter in parameters])
def test_closed_forms_at_order_63(text, parameter):
    s = spec(text)
    g = build_family(s)
    rule = Rule.PSD if parameter.endswith("plus") else Rule.STANDARD
    if parameter.startswith("Z"):
        res = zero_forcing_number(g, rule, 1_000_000)
        assert is_forcing_set(g, res.witness, rule)
    else:
        res = failed_number(g, rule, 1_000_000)
        assert is_failed_set(g, res.witness, rule)
    assert res.witness.bit_count() == res.value
    if (text, parameter) in ORDER_63_UNTABULATED:
        assert res.value == ORDER_63_UNTABULATED[text, parameter]
    elif parameter.startswith("Z"):
        assert res.value == getattr(table51_lookup(s), parameter)
    else:
        pred = predicted_failed(s, rule)
        assert (pred.parameter, pred.exactness) == (
            parameter, LOWER_BOUND if s.kind == "hypercube" else EXACT)
        if pred.exactness == EXACT:
            assert res.value == pred.value
        else:
            assert res.value >= pred.value
