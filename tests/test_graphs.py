import itertools
import pickle
import re
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings

from forcekit.graphs import (
    FAMILY_KINDS,
    FamilyError,
    FamilySpec,
    Graph,
    GraphFormatError,
    bits,
    build_family,
    component_reaches,
    components_within,
    disjoint_union,
    graph_from_edges,
    has_adjacent_module_order2,
    is_connected,
    is_cycle_graph,
    is_tree,
    mask_of,
    parse_family,
    parse_graph,
)
from forcekit.suites import default_family_specs

from conftest import graph_from_edge_mask, graphs, is_path_graph, serialize_graph

README = Path(__file__).resolve().parent.parent / "README.md"

# The least parameters each kind accepts.
LOWEST = {
    "path": (1,), "cycle": (3,), "complete": (1,), "wheel": (4,),
    "biclique": (1, 1), "hypercube": (1,), "halfgraph": (1,),
    "marytree": (2, 1), "empty": (1,),
}


def fam(text):
    return build_family(parse_family(text))


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


class TestMasks:
    @pytest.mark.parametrize("mask", [-1, -2, -(1 << 70)])
    def test_negative_mask_is_a_value_error(self, mask):
        # mask & -mask never reaches 0 on a negative int, so without the
        # check the decode would never return
        with pytest.raises(ValueError, match="nonnegative"):
            bits(mask)


class TestGraphInvariants:
    def test_rejects_loop(self):
        with pytest.raises(ValueError, match="loop"):
            Graph(2, (0b01, 0b10))

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(2, (0b10, 0b00))

    def test_rejects_stray_bits(self):
        with pytest.raises(ValueError):
            Graph(2, (0b100, 0b000))

    def test_rejects_adjacency_of_wrong_length(self):
        with pytest.raises(ValueError, match="adjacency length"):
            Graph(2, (2,))

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            Graph(0, ())
        with pytest.raises(ValueError):
            Graph(64, (0,) * 64)

    @pytest.mark.parametrize("n,adj,message", [
        (True, (0,), "vertex count True outside 1..63"),
        (3.0, (0, 0, 0), "vertex count 3.0 outside 1..63"),
        (2, [2, 1], "adjacency is a list, not a tuple"),
        (2, (2, True), "row 1 of the adjacency is True, not a nonnegative int"),
        (2, (2.0, 1), "row 0 of the adjacency is 2.0, not a nonnegative int"),
        (2, (2, -1), "row 1 of the adjacency is -1, not a nonnegative int"),
    ])
    def test_refuses_what_it_cannot_hold(self, n, adj, message):
        # a list would leave the graph mutable and unhashable, and a float
        # row fails in bit arithmetic far from the cause
        with pytest.raises(ValueError) as exc:
            Graph(n, adj)
        assert str(exc.value) == message

    @pytest.mark.parametrize("edge", [(0, 5), (-1, 0), (3, 1), (0, -3)])
    def test_edge_list_refuses_endpoints_outside_the_graph(self, edge):
        with pytest.raises(ValueError) as exc:
            graph_from_edges(3, [(0, 1), edge])
        assert str(exc.value) == \
            f"edge {edge} has an endpoint outside 0..2"

    @pytest.mark.parametrize("edge", [(0, 1.0), (0, "1"), (0, True)])
    def test_edge_list_refuses_endpoints_that_are_not_ints(self, edge):
        with pytest.raises(ValueError) as exc:
            graph_from_edges(3, [(0, 1), edge])
        assert str(exc.value) == \
            f"edge (0, {edge[1]!r}) has an endpoint that is not an int"

    @pytest.mark.parametrize("n", [0, -1, 64, 3.0, 2**63])
    def test_edge_list_refuses_an_order_outside_1_to_63(self, n):
        with pytest.raises(ValueError) as exc:
            graph_from_edges(n, [])
        assert str(exc.value) == f"vertex count {n!r} outside 1..63"

    def test_edges_sorted(self):
        g = fam("cycle:4")
        assert g.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
        # each call returns a new list of the kept tuple
        g.edges().clear()
        assert g.edge_pairs is g.edge_pairs == ((0, 1), (0, 3), (1, 2), (2, 3))
        assert g.edges() == list(g.edge_pairs)

    def test_cached_facts_leave_identity_alone(self):
        fresh, used = fam("biclique:2,3"), fam("biclique:2,3")
        assert used.full_mask == 0b11111
        assert used.twin_pairs == ((0, 1, False), (2, 3, False),
                                   (2, 4, False), (3, 4, False))
        assert len(used.edge_pairs) == 6
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        back = pickle.loads(pickle.dumps(used))
        assert back == fresh and hash(back) == hash(fresh)
        assert back.twin_pairs == used.twin_pairs


class TestFamilies:
    def test_cycle4_degrees(self):
        g = fam("cycle:4")
        assert g.n == 4
        assert all(g.adj[v].bit_count() == 2 for v in range(4))

    def test_hypercube3(self):
        g = fam("hypercube:3")
        assert (g.n, g.size) == (8, 12)
        assert all(g.adj[v].bit_count() == 3 for v in range(8))
        # adjacency iff labels differ in exactly one bit
        for u in range(8):
            for v in range(u + 1, 8):
                expect = (u ^ v).bit_count() == 1
                assert bool(g.adj[u] & (1 << v)) == expect

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_hypercube_regular(self, d):
        g = fam(f"hypercube:{d}")
        assert all(g.adj[v].bit_count() == d for v in range(g.n))

    def test_halfgraph2_is_p4(self):
        g = fam("halfgraph:2")
        assert g.n == 4 and is_path_graph(g)

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_halfgraph_degrees(self, s):
        g = fam(f"halfgraph:{s}")
        # part one vertex i (0-based) has degree s - i, part two vertex
        # s + j has degree j + 1
        for i in range(s):
            assert g.adj[i].bit_count() == s - i
            assert g.adj[s + i].bit_count() == i + 1

    @pytest.mark.parametrize("n", range(4, 13))
    def test_wheel_labeling(self, n):
        g = fam(f"wheel:{n}")
        hub = n - 1
        assert g.adj[hub].bit_count() == n - 1
        if n >= 5:
            assert all(g.adj[v].bit_count() == 3 for v in range(n - 1))
        # rim is the consecutive cycle
        for v in range(n - 1):
            assert g.adj[v] & (1 << ((v + 1) % (n - 1)))

    def test_biclique(self):
        g = fam("biclique:3,2")
        assert g.n == 5 and g.size == 6
        assert all(g.adj[v].bit_count() == 2 for v in range(3))
        assert all(g.adj[v].bit_count() == 3 for v in range(3, 5))

    @pytest.mark.parametrize("m,n", [(2, 7), (2, 13), (3, 10)])
    def test_marytree_is_tree(self, m, n):
        assert is_tree(fam(f"marytree:{m},{n}"))

    def test_marytree_level_fill(self):
        g = fam("marytree:2,7")
        assert sorted(bits(g.adj[0])) == [1, 2]
        assert sorted(bits(g.adj[1])) == [0, 3, 4]
        assert sorted(bits(g.adj[2])) == [0, 5, 6]

    def test_empty(self):
        g = fam("empty:3")
        assert g.size == 0 and g.n == 3

    @pytest.mark.parametrize("text", [
        "cycle:2", "wheel:3", "biclique:0,2", "marytree:1,5", "path:0",
        "hypercube:6", "hypercube:20000", "hypercube:1000000000000",
        "halfgraph:32", "empty:64", "path:70",
    ])
    def test_parameter_bounds(self, text):
        with pytest.raises(FamilyError):
            parse_family(text)

    @pytest.mark.parametrize("text", ["wheel", "wheel:x", "biclique:3",
                                      "frob:3", "path:4+path:70",
                                      "path:1_0", "path:\u0663"])
    def test_bad_syntax(self, text):
        with pytest.raises(FamilyError):
            parse_family(text)

    def test_union_label_roundtrip(self):
        spec = parse_family("cycle:3+path:2")
        assert spec.label() == "cycle:3+path:2"
        assert spec.order() == 5


class TestFamilyErrors:
    @pytest.mark.parametrize("text,message", [
        ("path:0", "path needs parameter >= 1, got 0"),
        ("cycle:2", "cycle needs parameter >= 3, got 2"),
        ("complete:0", "complete needs parameter >= 1, got 0"),
        ("wheel:3", "wheel needs parameter >= 4, got 3"),
        ("biclique:0,2", "biclique needs both part sizes >= 1"),
        ("biclique:2,0", "biclique needs both part sizes >= 1"),
        ("hypercube:0", "hypercube needs parameter >= 1, got 0"),
        ("hypercube:-1", "hypercube needs parameter >= 1, got -1"),
        ("halfgraph:0", "halfgraph needs parameter >= 1, got 0"),
        ("marytree:1,5", "marytree arity must be >= 2"),
        ("marytree:2,0", "marytree needs at least one vertex"),
        ("marytree:1,0", "marytree arity must be >= 2"),
        ("empty:0", "empty needs parameter >= 1, got 0"),
        ("path:64", "path:64 has more than 63 vertices"),
        ("empty:64", "empty:64 has more than 63 vertices"),
        ("biclique:32,32", "biclique:32,32 has more than 63 vertices"),
        ("halfgraph:32", "halfgraph:32 has more than 63 vertices"),
        ("marytree:2,64", "marytree:2,64 has more than 63 vertices"),
        ("hypercube:6", "hypercube:6 has more than 63 vertices"),
        ("hypercube:20000", "hypercube:20000 has more than 63 vertices"),
        ("biclique:3", "biclique takes 2 parameter(s), got 1"),
        ("path:3,4", "path takes 1 parameter(s), got 2"),
        ("frob:3", "unknown family kind 'frob'"),
        ("path:4+path:70", "path:70 has more than 63 vertices"),
        ("empty:40+empty:30", "union has 70 vertices > 63"),
    ])
    def test_exact_message(self, text, message):
        with pytest.raises(FamilyError) as exc:
            parse_family(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text", ["path:3+", "+path:3", "path:3++path:2",
                                      "path:3+ +path:2", "+"])
    def test_empty_union_term(self, text):
        # the whole spec is quoted, as the empty term alone says nothing
        with pytest.raises(FamilyError) as exc:
            parse_family(text)
        assert str(exc.value) == (f"bad family syntax {text!r}: "
                                  "a union term is empty")

    def test_union_cap_enforced_by_spec(self):
        members = (FamilySpec("empty", (40,)), FamilySpec("empty", (30,)))
        with pytest.raises(FamilyError) as exc:
            FamilySpec("union", members=members)
        assert str(exc.value) == "union has 70 vertices > 63"

    @pytest.mark.parametrize("members,message", [
        ((FamilySpec("path", (2,)),), "union needs at least two members"),
        ((FamilySpec("path", (2,)),
          FamilySpec("union", members=(FamilySpec("path", (1,)),
                                       FamilySpec("cycle", (3,))))),
         "nested unions are not supported"),
    ])
    def test_union_members_checked_by_spec(self, members, message):
        with pytest.raises(FamilyError) as exc:
            FamilySpec("union", members=members)
        assert str(exc.value) == message

    @pytest.mark.parametrize("kind,params", [
        ("path", (3.0,)),
        ("path", ("3",)),
        ("path", (True,)),  # a bool is an int, but would be labelled path:True
        ("biclique", (2, 3.5)),
        ("marytree", (2, False)),
    ])
    def test_spec_takes_only_int_parameters(self, kind, params):
        with pytest.raises(FamilyError) as exc:
            FamilySpec(kind, params)
        assert str(exc.value) == f"{kind} takes int parameters, got {params}"

    @pytest.mark.parametrize("kind,params,message", [
        ("path", (3,), "path takes no members, only a union does"),
        ("union", (5,), "union takes no parameters, got (5,)"),
    ])
    def test_spec_refuses_a_shape_it_would_ignore(self, kind, params, message):
        # the first would label and build as path:3 and the second as
        # path:2+path:2, yet neither would equal that spec
        p2 = FamilySpec("path", (2,))
        with pytest.raises(FamilyError) as exc:
            FamilySpec(kind, params, members=(p2, p2))
        assert str(exc.value) == message

    @pytest.mark.parametrize("text", ["union:3+path:2", "union:3",
                                      "path:2+union:1,2"])
    def test_union_is_no_dsl_kind(self, text):
        with pytest.raises(FamilyError) as exc:
            parse_family(text)
        assert str(exc.value) == "unknown family kind 'union'"


class TestFamilyKinds:
    def test_lowest_covers_every_kind(self):
        assert set(LOWEST) == set(FAMILY_KINDS)

    @pytest.mark.parametrize("kind", sorted(LOWEST))
    def test_lowest_parameters(self, kind):
        spec = FamilySpec(kind, LOWEST[kind])
        assert build_family(spec).n == spec.order()
        assert parse_family(spec.label()) == spec
        for i in range(len(spec.params)):
            lower = list(spec.params)
            lower[i] -= 1
            with pytest.raises(FamilyError):
                FamilySpec(kind, tuple(lower))

    def test_default_instances(self):
        for spec in default_family_specs():
            assert build_family(spec).n == spec.order(), spec
            assert parse_family(spec.label()) == spec

    def test_readme_family_dsl_names_every_kind(self):
        text = README.read_text(encoding="utf-8")
        paragraph = re.search(r"^Family DSL:.*?(?=\n\n)", text,
                              re.S | re.M).group(0)
        examples = re.findall(r"`([a-z]+:[^`]*)`", paragraph)
        kinds = set()
        for example in examples:
            spec = parse_family(example)
            members = spec.members or (spec,)
            kinds.update(m.kind for m in members)
        assert kinds == set(FAMILY_KINDS)


class TestDisjointUnion:
    def test_p2_p2(self):
        g = disjoint_union(fam("path:2"), fam("path:2"))
        assert (g.n, g.size) == (4, 2)
        assert len(g.components) == 2

    def test_two_singletons(self):
        g = disjoint_union(fam("complete:1"), fam("complete:1"))
        assert g.size == 0 and g.n == 2

    def test_c3_p2(self):
        g = fam("cycle:3+path:2")
        assert (g.n, g.size) == (5, 4)

    def test_overflow(self):
        with pytest.raises(FamilyError):
            disjoint_union(fam("empty:40"), fam("empty:30"))


class TestComponents:
    def test_c5_one_block(self):
        assert list(fam("cycle:5").components) == [0b11111]

    def test_empty3_singletons(self):
        assert list(fam("empty:3").components) == [1, 2, 4]

    def test_c3_p2_blocks(self):
        blocks = fam("cycle:3+path:2").components
        assert sorted(b.bit_count() for b in blocks) == [2, 3]

    def test_within_c4(self):
        assert components_within(fam("cycle:4"), 0b0101) == [0b0001, 0b0100]

    def test_within_p4_all(self):
        g = fam("path:4")
        assert components_within(g, g.full_mask) == [0b1111]

    def test_within_k4(self):
        assert components_within(fam("complete:4"), 0b1110) == [0b1110]

    @pytest.mark.parametrize("text", ["cycle:3+path:2", "wheel:6",
                                      "biclique:3,2", "empty:3"])
    def test_reaches_on_every_subset(self, text):
        g = fam(text)
        h = to_networkx(g)
        for sub in range(1 << g.n):
            got = list(component_reaches(g, sub))
            want = sorted((mask_of(c) for c in
                           nx.connected_components(h.subgraph(bits(sub)))),
                          key=lambda m: m & -m)  # by least vertex
            assert [comp for comp, _ in got] == want
            for comp, reach in got:
                assert reach == mask_of(u for v in bits(comp)
                                        for u in h.neighbors(v))
            assert components_within(g, sub) == want

    @settings(max_examples=60)
    @given(graphs())
    def test_blocks_partition_and_separate(self, g):
        blocks = g.components
        assert sum(blocks) == g.full_mask  # disjoint cover
        for a, b in itertools.combinations(blocks, 2):
            assert a & b == 0
            for u in bits(a):
                assert g.adj[u] & b == 0

    @settings(max_examples=40)
    @given(graphs())
    def test_matches_networkx(self, g):
        want = sorted(mask_of(c) for c in nx.connected_components(to_networkx(g)))
        assert sorted(g.components) == want


class TestModules:
    def test_k3_all_adjacent_pairs(self):
        assert fam("complete:3").twin_pairs == (
            (0, 1, True), (0, 2, True), (1, 2, True))

    def test_k22_two_similar_pairs(self):
        assert fam("biclique:2,2").twin_pairs == ((0, 1, False), (2, 3, False))
        assert not has_adjacent_module_order2(fam("biclique:2,2"))

    def test_p4_none(self):
        assert fam("path:4").twin_pairs == ()

    def test_brute_force_all_graphs_up_to_6(self):
        for n in range(1, 7):
            for mask in range(1 << (n * (n - 1) // 2)):
                g = graph_from_edge_mask(n, mask)
                nbrs = [set(bits(row)) for row in g.adj]
                want = [(u, v, v in nbrs[u])
                        for u in range(n) for v in range(u + 1, n)
                        if nbrs[u] - {v} == nbrs[v] - {u}]
                assert list(g.twin_pairs) == want


class TestPredicates:
    @pytest.mark.parametrize("text,expect", [
        ("path:5", True), ("cycle:4", False), ("marytree:2,7", True),
        ("complete:1", True), ("biclique:4,1", True), ("cycle:3+path:2", False),
    ])
    def test_is_tree(self, text, expect):
        assert is_tree(fam(text)) == expect

    @settings(max_examples=40)
    @given(graphs())
    def test_is_tree_matches_networkx(self, g):
        assert is_tree(g) == nx.is_tree(to_networkx(g))

    def test_cycle_and_path_shapes(self):
        assert is_cycle_graph(fam("cycle:7"))
        assert not is_cycle_graph(fam("path:7"))
        assert is_path_graph(fam("path:1"))
        assert is_path_graph(fam("path:2"))
        assert not is_path_graph(fam("biclique:3,1"))
        assert not is_cycle_graph(fam("cycle:3+cycle:4"))

    def test_connected(self):
        assert is_connected(fam("wheel:6"))
        assert not is_connected(fam("empty:2"))


class TestEdgeListFormat:
    def test_p2(self):
        g = parse_graph("2 1\n0 1")
        assert g.edges() == [(0, 1)]

    def test_k3(self):
        g = parse_graph("3 3\n0 1\n1 2\n0 2")
        assert g.size == 3

    @pytest.mark.parametrize("text,fragment", [
        ("2 1\n0 0", "loop"),
        ("2 2\n0 1\n1 0", "duplicate"),
        ("2 1\n0 2", "out of range"),
        ("2", "header"),
        ("x y\n", "header"),
        ("2 2\n0 1", "promises"),
        ("", "empty"),
        ("70 0", "outside"),
    ])
    def test_rejects(self, text, fragment):
        with pytest.raises(GraphFormatError, match=fragment):
            parse_graph(text)

    @settings(max_examples=80)
    @given(graphs())
    def test_roundtrip(self, g):
        assert parse_graph(serialize_graph(g)) == g

    def test_isolated_vertices_survive(self):
        g = graph_from_edges(4, [(1, 2)])
        assert parse_graph(serialize_graph(g)) == g
