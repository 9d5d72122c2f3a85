import pytest

from forcekit.forcing import Rule
from forcekit.formulas import UnsupportedFamilyError, table51_lookup
from forcekit.graphs import build_family, parse_family
from forcekit.search import failed_number, zero_forcing_number
from forcekit.suites import default_family_specs
from forcekit.theorems import (
    check_F_vs_Z,
    check_Fplus_lt_Zplus_cases,
    check_isolated_characterizations,
    check_low_Fplus,
    check_minrank_equalities,
    check_module_characterizations,
)

from conftest import labeled_exhaustive

TABLE_KINDS = ("path", "cycle", "complete", "hypercube", "wheel",
               "biclique", "halfgraph")


def computed(text):
    g = build_family(parse_family(text))
    return (g,
            failed_number(g, Rule.STANDARD).value,
            zero_forcing_number(g, Rule.STANDARD).value,
            failed_number(g, Rule.PSD).value,
            zero_forcing_number(g, Rule.PSD).value)


def with_record(text):
    """The spec and its Table 5.1 record, as the suites pass them."""
    spec = parse_family(text)
    return spec, table51_lookup(spec)


def all_pass(reports):
    return all(r.passed for r in reports)


class TestIsolated:
    def test_empty3(self):
        g, f, _, fp, _ = computed("empty:3")
        assert f == fp == 2
        assert all_pass(check_isolated_characterizations(g, "empty:3", f, fp))

    def test_c5_both_sides_false(self):
        g, f, _, fp, _ = computed("cycle:5")
        assert f == 2
        assert all_pass(check_isolated_characterizations(g, "cycle:5", f, fp))

    def test_k1_plus_p2(self):
        g, f, _, fp, _ = computed("complete:1+path:2")
        assert fp == 2 == g.n - 1
        assert all_pass(check_isolated_characterizations(g, "k1+p2", f, fp))


class TestModules:
    def test_k4(self):
        g, f, _, fp, _ = computed("complete:4")
        assert f == 2 == g.n - 2
        assert all_pass(check_module_characterizations(g, "complete:4", f, fp))

    def test_k22_similar_but_not_adjacent(self):
        g, f, _, fp, _ = computed("biclique:2,2")
        assert fp == 1 != g.n - 2
        assert all_pass(check_module_characterizations(g, "biclique:2,2", f, fp))

    def test_k3(self):
        g, f, _, fp, _ = computed("complete:3")
        assert fp == 1 == g.n - 2
        assert all_pass(check_module_characterizations(g, "complete:3", f, fp))

    def test_refuses_disconnected(self):
        g, f, _, fp, _ = computed("empty:2")
        with pytest.raises(ValueError):
            check_module_characterizations(g, "empty:2", f, fp)


class TestLowFplus:
    def test_marytree(self):
        g, _, _, fp, zp = computed("marytree:2,7")
        assert (fp, zp) == (0, 1)
        assert all_pass(check_low_Fplus(g, "marytree:2,7", fp, zp))

    def test_c7(self):
        g, _, _, fp, zp = computed("cycle:7")
        assert fp == 1
        assert all_pass(check_low_Fplus(g, "cycle:7", fp, zp))

    def test_k4_both_sides_false(self):
        g, _, _, fp, zp = computed("complete:4")
        assert fp == 2
        assert all_pass(check_low_Fplus(g, "complete:4", fp, zp))

    def test_two_isolated_vertices(self):
        g, _, _, fp, zp = computed("empty:2")
        assert fp == 1
        assert all_pass(check_low_Fplus(g, "empty:2", fp, zp))


class TestFvsZ:
    def test_k5_strictly_below(self):
        g, f, z, fp, zp = computed("complete:5")
        assert (f, z) == (3, 4)
        assert all_pass(check_F_vs_Z(g, "complete:5", f, z, fp, zp))

    def test_p6(self):
        g, f, z, fp, zp = computed("path:6")
        assert (f, z) == (2, 1)
        assert all_pass(check_F_vs_Z(g, "path:6", f, z, fp, zp))

    def test_w6_dominance(self):
        g, f, z, fp, zp = computed("wheel:6")
        assert (f, fp) == (3, 3)
        assert all_pass(check_F_vs_Z(g, "wheel:6", f, z, fp, zp))


class TestMinrankEqualities:
    def test_c4_meets_mr(self):
        _, f, _, fp, _ = computed("cycle:4")
        reports = check_minrank_equalities(*with_record("cycle:4"), f, fp)
        assert all_pass(reports)
        assert f == 2  # equals the tabulated mr

    def test_w5_meets_mrplus(self):
        _, f, _, fp, _ = computed("wheel:5")
        assert fp == 2
        assert all_pass(check_minrank_equalities(*with_record("wheel:5"), f, fp))

    def test_p6_strict(self):
        _, f, _, fp, _ = computed("path:6")
        assert f == 2  # tabulated mr is 5
        assert all_pass(check_minrank_equalities(*with_record("path:6"), f, fp))

    def test_k1_is_p1_meeting_both_minimum_ranks(self):
        # K_1 = P_1: F = F+ = 0 = mr = mr+, as the P_n rows say ("iff n=1")
        _, f, _, fp, _ = computed("complete:1")
        assert (f, fp) == (0, 0)
        for text in ("complete:1", "path:1"):
            reports = check_minrank_equalities(*with_record(text), f, fp)
            assert [(r.theorem, r.expected, r.observed, r.passed)
                    for r in reports] == [("Thm 5.7", True, True, True),
                                          ("Thm 5.8", True, True, True)]

    def test_whole_default_range(self):
        for spec in (s for s in default_family_specs() if s.kind in TABLE_KINDS):
            g = build_family(spec)
            f = failed_number(g, Rule.STANDARD).value
            fp = failed_number(g, Rule.PSD).value
            for rep in check_minrank_equalities(spec, table51_lookup(spec), f, fp):
                assert rep.passed, (spec.label(), rep)


class TestFplusLtZplus:
    @pytest.mark.parametrize("text", ["hypercube:2", "wheel:6", "cycle:9",
                                      "biclique:3,3", "biclique:3,2",
                                      "halfgraph:4", "marytree:2,9",
                                      "empty:4", "path:8", "complete:6"])
    def test_cases_hold_with_computed_values(self, text):
        g, _, _, fp, zp = computed(text)
        assert all_pass(check_Fplus_lt_Zplus_cases(*with_record(text), fp, zp))

    def test_expected_side_of_every_default_instance(self):
        # the default instances where Thm 5.2 says F+ is not below Z+
        not_below = {"wheel:6", "wheel:7", "wheel:8", "wheel:9", "wheel:10",
                     "wheel:11", "wheel:12", "hypercube:3", "hypercube:4",
                     "halfgraph:4", "halfgraph:5", "biclique:3,2",
                     "biclique:4,2", "biclique:4,3", "biclique:4,4",
                     "biclique:5,2", "biclique:5,3", "biclique:5,4",
                     "biclique:5,5"}
        specs = default_family_specs()
        assert not_below <= {s.label() for s in specs}
        for spec in specs:
            [rep] = check_Fplus_lt_Zplus_cases(spec, table51_lookup(spec), 0, 1)
            assert rep.expected == (spec.label() not in not_below), spec.label()

    def test_union_is_outside_the_table(self):
        union = parse_family("cycle:3+path:2")
        with pytest.raises(UnsupportedFamilyError):
            check_Fplus_lt_Zplus_cases(union, None, 1, 2)

    def test_halfgraph3_inherits_table_discrepancy(self):
        # the tabulated Z+ = 3 would put H3 on the strict side, but the
        # computed Z+ is 2, so the derived claim fails there
        g, _, _, fp, zp = computed("halfgraph:3")
        assert (fp, zp) == (2, 2)
        reports = check_Fplus_lt_Zplus_cases(*with_record("halfgraph:3"), fp, zp)
        assert not all_pass(reports)


class TestModuleLowerBound:
    """Replacing a vertex by a clique creates a module of that order with
    internal edges, which pins the PSD failed number at n - k or above."""

    def test_clique_blowups(self):
        import random

        from forcekit.graphs import graph_from_edges
        from forcekit.suites import random_connected_graph

        rng = random.Random(99)
        for _ in range(15):
            h = random_connected_graph(rng, rng.randint(2, 5))
            k = rng.randint(2, 4)
            v = rng.randrange(h.n)
            # vertices of h keep their labels, clique takes v plus new ones
            clique = [v] + list(range(h.n, h.n + k - 1))
            edges = [e for e in h.edges()]
            nbrs = [u for u in range(h.n)
                    if u != v and h.adj[v] & (1 << u)]
            for extra in clique[1:]:
                edges.extend((u, extra) for u in nbrs)
            edges.extend((a, b) for i, a in enumerate(clique)
                         for b in clique[i + 1:])
            g = graph_from_edges(h.n + k - 1, sorted(set(edges)))
            fp = failed_number(g, Rule.PSD).value
            assert fp >= g.n - k, (h.edges(), k, v)


class TestSmallExhaustive:
    """Downscaled run of the labeled exhaustive scan (orders 1..4); the
    full order-6 scan lives in the acceptance suite."""

    def test_all_graphs_up_to_4(self):
        res = labeled_exhaustive(4)
        assert res["graphs_checked"] == 1 + 2 + 8 + 64
        assert {theorem: violated for theorem, (_, violated)
                in res["counts"].items() if violated} == {}
