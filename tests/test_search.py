import random
import re
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcekit.forcing import (
    Rule,
    is_failed_set,
    is_forcing_set,
    is_fort,
    is_stalled,
)
from forcekit.formulas import EXACT, predicted_failed
from forcekit.graphs import bits, build_family, graph_from_edges, parse_family
from forcekit.search import (
    DEFAULT_BUDGET,
    SearchBudgetExceeded,
    _Budget,
    brute_failed_number,
    failed_number,
    min_fort,
    zero_forcing_number,
)
from forcekit.suites import _edge_mask_classes

from conftest import (
    ascending_min_fort,
    ascending_zero_forcing,
    enumerate_maximal_failed,
    graph_from_edge_mask,
    graph_with_subset,
    graphs,
    literal_is_fort,
    reference_closure,
    seeded_random_graph,
    twin_graphs,
)

BOTH = (Rule.STANDARD, Rule.PSD)
TWIN_FAMILIES = ("biclique:4,4", "complete:8", "marytree:3,9")


def fam(text):
    return build_family(parse_family(text))


def twin_prefix_closed(g, s):
    """True when s holds every earlier twin u < v of each of its vertices v,
    with twins by the literal definition N(u) - v == N(v) - u."""
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if (s >> v & 1 and not s >> u & 1
                    and set(bits(g.adj[u])) - {v} == set(bits(g.adj[v])) - {u}):
                return False
    return True


def relabeled(g, perm):
    """g with each vertex v renamed perm[v]."""
    return graph_from_edges(g.n, sorted(
        tuple(sorted((perm[u], perm[v]))) for u, v in g.edges()))


def small_graphs():
    """Every labeled graph with n <= 5, then one graph of each isomorphism
    class of order 6 under three seeded relabelings."""
    for n in range(1, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            yield graph_from_edge_mask(n, mask)
    rng = random.Random(29)
    for edges, _ in _edge_mask_classes(6):
        g = graph_from_edge_mask(6, edges)
        for _ in range(3):
            yield relabeled(g, rng.sample(range(6), 6))


def brute_zero_forcing(g, rule):
    """Smallest forcing set by a plain scan: sizes ascending, combinations
    in lexicographic order, each tested with the asynchronous oracle."""
    for k in range(1, g.n + 1):
        for combo in combinations(range(g.n), k):
            s = sum(1 << v for v in combo)
            if reference_closure(g, s, rule) == g.full_mask:
                return k, s
    raise AssertionError("the full vertex set always forces")


class TestZeroForcingNumber:
    @pytest.mark.parametrize("text,rule,want", [
        ("path:7", Rule.STANDARD, 1),
        ("wheel:6", Rule.STANDARD, 3),
        ("biclique:3,2", Rule.PSD, 2),
        ("cycle:5", Rule.STANDARD, 2),
        ("cycle:5", Rule.PSD, 2),
        ("complete:6", Rule.STANDARD, 5),
        ("empty:4", Rule.STANDARD, 4),
        ("empty:4", Rule.PSD, 4),
        ("marytree:2,7", Rule.PSD, 1),
        ("complete:1", Rule.STANDARD, 1),
    ])
    def test_known_values(self, text, rule, want):
        res = zero_forcing_number(fam(text), rule)
        assert res.value == want

    def test_witness_forces_and_has_right_size(self):
        g = fam("wheel:8")
        for rule in BOTH:
            res = zero_forcing_number(g, rule)
            assert res.witness.bit_count() == res.value
            assert is_forcing_set(g, res.witness, rule)

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=7), st.sampled_from(BOTH))
    def test_matches_brute_scan(self, g, rule):
        res = zero_forcing_number(g, rule)
        assert (res.value, res.witness) == brute_zero_forcing(g, rule)

    def test_lexicographically_least_witness(self):
        # adjacent pairs force a cycle; {0,1} comes first
        res = zero_forcing_number(fam("cycle:4"), Rule.STANDARD)
        assert res.witness == 0b0011

    def test_supersets_of_witness_force(self):
        g = fam("cycle:6")
        rng = random.Random(5)
        for rule in BOTH:
            w = zero_forcing_number(g, rule).witness
            for _ in range(20):
                extra = rng.randrange(1 << g.n)
                assert is_forcing_set(g, w | extra, rule)

    def test_budget_error(self):
        with pytest.raises(SearchBudgetExceeded):
            zero_forcing_number(fam("hypercube:4"), Rule.STANDARD, budget=10)

    @pytest.mark.parametrize("budget,progress", [
        (0, "no forcing set found yet"),
        (100, "smallest forcing set so far: 8 vertices"),
    ])
    def test_budget_error_says_how_far(self, budget, progress):
        # the first path of the search reaches a forcing set within 10 nodes
        with pytest.raises(SearchBudgetExceeded, match=progress):
            zero_forcing_number(fam("hypercube:4"), Rule.STANDARD, budget)

    @pytest.mark.parametrize("rule", BOTH)
    def test_matches_ascending_search_on_every_small_graph(self, rule):
        for n in range(1, 6):
            for mask in range(1 << (n * (n - 1) // 2)):
                g = graph_from_edge_mask(n, mask)
                res = zero_forcing_number(g, rule)
                assert ((res.value, res.witness)
                        == ascending_zero_forcing(g, rule)), (n, mask)

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_n=9), st.sampled_from(BOTH))
    def test_matches_ascending_search_property(self, g, rule):
        res = zero_forcing_number(g, rule)
        assert (res.value, res.witness) == ascending_zero_forcing(g, rule)

    @pytest.mark.parametrize("rule", BOTH)
    def test_matches_ascending_search_on_random_graphs(self, rule):
        for seed in range(40):
            g = seeded_random_graph(seed, 10 + seed % 4)
            res = zero_forcing_number(g, rule)
            assert ((res.value, res.witness)
                    == ascending_zero_forcing(g, rule)), seed

    @pytest.mark.parametrize("text,rule,nodes", [
        ("hypercube:4", Rule.STANDARD, 25_231),
        ("hypercube:4", Rule.PSD, 25_113),
        ("biclique:7,7", Rule.STANDARD, 16_203),
        ("biclique:7,7", Rule.PSD, 6_477),
        ("biclique:8,7", Rule.STANDARD, 64),
        ("biclique:8,7", Rule.PSD, 36),
        ("marytree:4,16", Rule.STANDARD, 1_577),
        ("complete:12", Rule.STANDARD, 12),
    ])
    def test_node_counts_do_not_grow(self, text, rule, nodes):
        # One node is one unit of budget and does not depend on the machine,
        # so a search that walks a subset twice or prunes less fails here.
        zero_forcing_number(fam(text), rule, budget=nodes)

    def test_environment_sets_no_budget(self, monkeypatch):
        # The budget is the search's argument alone; the environment sets
        # none.
        monkeypatch.setenv("FORCEKIT_BUDGET", "5")
        assert zero_forcing_number(fam("wheel:9"), Rule.STANDARD).value == 3


@pytest.fixture
def spent(monkeypatch):
    """A one-item list that counts every budget unit a search spends."""
    count = [0]
    spend = _Budget.spend

    def counting(tracker):
        count[0] += 1
        spend(tracker)

    monkeypatch.setattr(_Budget, "spend", counting)
    return count


class TestFloor:
    """A floor of Z+ stops the standard search at its first forcing set of
    that size: Z+ <= Z, so only the node count may change."""

    @staticmethod
    def check(g):
        floor = zero_forcing_number(g, Rule.PSD).value
        assert (zero_forcing_number(g, Rule.STANDARD, floor=floor)
                == zero_forcing_number(g, Rule.STANDARD))

    def test_small_graphs(self):
        for g in small_graphs():
            self.check(g)

    def test_random_graphs(self):
        for seed in range(100):
            self.check(seeded_random_graph(seed, 7 + seed % 7))

    @pytest.mark.parametrize("text,unfloored,floored", [
        ("hypercube:4", 25_231, 9),
        ("halfgraph:8", 12_618, 10),
        ("marytree:3,13", 481, 481),  # Z+ = 1 < Z: the floor never binds
    ])
    def test_node_counts(self, spent, text, unfloored, floored):
        g = fam(text)
        floor = zero_forcing_number(g, Rule.PSD).value
        counts = []
        for kwargs in ({}, {"floor": floor}):
            spent[0] = 0
            zero_forcing_number(g, Rule.STANDARD, **kwargs)
            counts.append(spent[0])
        assert counts == [unfloored, floored]


def test_least_minimum_psd_forcing_set_holds_vertex_0():
    # Ekstrand et al. (LAA 2013): every vertex lies in some minimum PSD
    # forcing set, so the lexicographically least one holds vertex 0.  A
    # PSD search could then try only 0 at the root; that rule is not in
    # the search, and this is its oracle.
    for g in small_graphs():
        assert zero_forcing_number(g, Rule.PSD).witness & 1, g.edges()


@pytest.mark.parametrize("search", [
    zero_forcing_number, min_fort, failed_number, brute_failed_number])
def test_negative_budget_is_a_value_error(search):
    with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
        search(fam("path:3"), Rule.STANDARD, -1)


@pytest.mark.parametrize("budget", [True, 2.5, "10"])
@pytest.mark.parametrize("search", [
    zero_forcing_number, min_fort, failed_number, brute_failed_number])
def test_budget_that_is_not_an_int_is_a_value_error(search, budget):
    # True would run as a budget of 1
    with pytest.raises(ValueError) as exc:
        search(fam("path:3"), Rule.STANDARD, budget)
    assert str(exc.value) == f"budget must be an int, got {budget!r}"


@pytest.mark.parametrize("floor", [-1, 8, 100, 2.5, True])
def test_floor_outside_0_to_n_is_a_value_error(spent, floor):
    # floor=100 would return value 8 with a 7-vertex witness
    with pytest.raises(ValueError) as exc:
        zero_forcing_number(fam("wheel:7"), Rule.PSD, floor=floor)
    assert str(exc.value) == f"floor must be an int in 0..7, got {floor!r}"
    assert spent[0] == 0  # refused before any node


@pytest.mark.parametrize("text,floor", [("wheel:7", 0), ("empty:3", 3)])
def test_floor_at_either_end_is_taken(text, floor):
    # 0 and n are both proven bounds here: Z(empty:3) = 3
    g = fam(text)
    assert (zero_forcing_number(g, Rule.PSD, floor=floor)
            == zero_forcing_number(g, Rule.PSD))


class TestMinFort:
    @pytest.mark.parametrize("text,rule,size", [
        ("cycle:5", Rule.STANDARD, 3),
        ("complete:4", Rule.STANDARD, 2),
        ("path:2", Rule.PSD, 2),
        ("empty:3", Rule.STANDARD, 1),
        ("hypercube:3", Rule.STANDARD, 3),
    ])
    def test_known_sizes(self, text, rule, size):
        assert min_fort(fam(text), rule).bit_count() == size

    def test_complement_is_stalled(self):
        for text in ("cycle:7", "wheel:6", "biclique:3,3", "marytree:2,9"):
            g = fam(text)
            for rule in BOTH:
                w = min_fort(g, rule)
                assert is_fort(g, w, rule)
                assert is_stalled(g, g.full_mask & ~w, rule)

    @settings(max_examples=120)
    @given(graph_with_subset(), st.sampled_from(BOTH))
    def test_is_fort_matches_definition(self, gs, rule):
        g, w = gs
        assert is_fort(g, w, rule) == literal_is_fort(g, w, rule)

    def test_is_fort_matches_definition_on_every_small_class(self):
        # every nonempty subset of one graph from each isomorphism class of
        # order <= 6, both rules: white sets of three or more components
        # are common there
        cases = 0
        for n in range(1, 7):
            for edges, _ in _edge_mask_classes(n):
                g = graph_from_edge_mask(n, edges)
                for w in range(1, g.full_mask + 1):
                    for rule in BOTH:
                        assert is_fort(g, w, rule) == \
                            literal_is_fort(g, w, rule), (n, edges, w, rule)
                        cases += 1
        assert cases == 22_164

    @pytest.mark.parametrize("rule", BOTH)
    def test_matches_ascending_scan_on_every_small_graph(self, rule):
        for n in range(1, 6):
            for mask in range(1 << (n * (n - 1) // 2)):
                g = graph_from_edge_mask(n, mask)
                assert min_fort(g, rule) == ascending_min_fort(g, rule), (n, mask)

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_n=9), st.sampled_from(BOTH))
    def test_matches_ascending_scan_property(self, g, rule):
        assert min_fort(g, rule) == ascending_min_fort(g, rule)

    @pytest.mark.parametrize("rule", BOTH)
    def test_matches_ascending_scan_on_random_graphs(self, rule):
        for seed in range(40):
            g = seeded_random_graph(seed, 10 + seed % 4)
            assert min_fort(g, rule) == ascending_min_fort(g, rule), seed

    @pytest.mark.parametrize("text,rule,nodes", [
        ("wheel:9", Rule.STANDARD, 113),
        ("wheel:9", Rule.PSD, 117),
        ("hypercube:4", Rule.STANDARD, 431),
        ("hypercube:4", Rule.PSD, 796),
        ("biclique:8,7", Rule.PSD, 24),
        ("marytree:4,16", Rule.PSD, 1_371),
    ])
    def test_node_counts_do_not_grow(self, text, rule, nodes):
        # The budget counts search nodes, which do not depend on the
        # machine, so a weaker prune shows here while the witness stays right.
        min_fort(fam(text), rule, budget=nodes)

    @pytest.mark.parametrize("text,nodes", [
        ("marytree:2,16", 4_950), ("wheel:20", 8_560), ("cycle:16", 2_984)])
    def test_psd_budgets_are_exact(self, text, nodes):
        # the fewest nodes each search takes: a weaker PSD prune (c) needs
        # more, and one that also cut a fort out would find fewer
        g = fam(text)
        min_fort(g, Rule.PSD, budget=nodes)
        with pytest.raises(SearchBudgetExceeded):
            min_fort(g, Rule.PSD, budget=nodes - 1)

    def test_budget_spent_on_every_small_graph(self, spent):
        # every labeled graph with n <= 5 and one graph of each order-6
        # class: a prune that decides differently moves these sums (PSD
        # reads 22,479 without prune (c))
        small = [graph_from_edge_mask(n, mask) for n in range(1, 6)
                 for mask in range(1 << (n * (n - 1) // 2))]
        small += [graph_from_edge_mask(6, edges)
                  for edges, _ in _edge_mask_classes(6)]
        sums = []
        for rule in BOTH:
            spent[0] = 0
            for g in small:
                min_fort(g, rule)
            sums.append(spent[0])
        assert sums == [15_428, 21_404]

    def test_budget_error_names_the_size_searched(self):
        # path:40 has no fort of fewer than 21 vertices
        with pytest.raises(SearchBudgetExceeded,
                           match="searching forts of 5 vertices, none is smaller"):
            min_fort(fam("path:40"), Rule.STANDARD, budget=1000)

    def test_no_smaller_fort(self):
        g = fam("cycle:6")
        for rule in BOTH:
            k = min_fort(g, rule).bit_count()
            for mask in range(1, 1 << g.n):
                if mask.bit_count() < k:
                    assert not is_fort(g, mask, rule)


class TestTwins:
    """Both searches add a vertex only after its previous twin; the
    witnesses must stay those of the ascending scans."""

    @staticmethod
    def check_oracles(g, rule):
        res = zero_forcing_number(g, rule)
        assert (res.value, res.witness) == ascending_zero_forcing(g, rule)
        assert min_fort(g, rule) == ascending_min_fort(g, rule)

    @settings(max_examples=150, deadline=None)
    @given(twin_graphs(), st.sampled_from(BOTH))
    def test_match_ascending_oracles(self, g, rule):
        self.check_oracles(g, rule)

    @pytest.mark.parametrize("rule", BOTH)
    @pytest.mark.parametrize("text", TWIN_FAMILIES)
    def test_twin_rich_families_match_ascending_oracles(self, text, rule):
        self.check_oracles(fam(text), rule)

    @settings(max_examples=150, deadline=None)
    @given(twin_graphs(), st.sampled_from(BOTH))
    def test_witnesses_are_twin_prefix_closed(self, g, rule):
        # F's witness is a failed set; its fort is the complement
        fort = g.full_mask & ~failed_number(g, rule).witness
        assert twin_prefix_closed(g, zero_forcing_number(g, rule).witness)
        assert twin_prefix_closed(g, fort)


class TestFailedNumber:
    @pytest.mark.parametrize("text,rule,want", [
        ("wheel:5", Rule.STANDARD, 3),
        ("biclique:3,3", Rule.PSD, 2),
        ("hypercube:2", Rule.PSD, 1),
        ("path:1", Rule.STANDARD, 0),
        ("halfgraph:4", Rule.STANDARD, 5),
        ("halfgraph:4", Rule.PSD, 4),
    ])
    def test_known_values(self, text, rule, want):
        assert failed_number(fam(text), rule).value == want

    def test_witness_failed_stalled_right_size(self):
        for text in ("cycle:8", "complete:5", "biclique:4,2"):
            g = fam(text)
            for rule in BOTH:
                res = failed_number(g, rule)
                assert res.witness.bit_count() == res.value
                assert is_failed_set(g, res.witness, rule)
                assert is_stalled(g, res.witness, rule)

    @pytest.mark.parametrize("text,rule", [
        ("path:30", Rule.STANDARD),
        ("wheel:30", Rule.STANDARD),
        ("wheel:30", Rule.PSD),
        ("cycle:30", Rule.PSD),
    ])
    def test_order_30_within_default_budget(self, text, rule):
        spec = parse_family(text)
        g = build_family(spec)
        res = failed_number(g, rule, DEFAULT_BUDGET)
        pred = predicted_failed(spec, rule)
        assert pred.exactness == EXACT and res.value == pred.value
        assert is_failed_set(g, res.witness, rule)
        assert is_stalled(g, res.witness, rule)

    def test_subsets_of_witness_failed(self):
        g = fam("wheel:7")
        rng = random.Random(11)
        for rule in BOTH:
            w = failed_number(g, rule).witness
            for _ in range(20):
                assert is_failed_set(g, w & rng.randrange(1 << g.n), rule)


class TestBruteOracle:
    @pytest.mark.parametrize("text,rule,want", [
        ("path:4", Rule.STANDARD, 1),
        ("cycle:6", Rule.PSD, 1),
        # frozen regression constants from the exhaustive 2^8 scan: the
        # hypercube Q3 meets its failed-number lower bounds exactly
        ("hypercube:3", Rule.STANDARD, 5),
        ("hypercube:3", Rule.PSD, 4),
    ])
    def test_known_values(self, text, rule, want):
        assert brute_failed_number(fam(text), rule).value == want

    def test_size_guard(self):
        with pytest.raises(SearchBudgetExceeded):
            brute_failed_number(fam("empty:21"), Rule.STANDARD)

    def test_agrees_with_fort_search_on_random_graphs(self):
        for seed in range(120):
            g = seeded_random_graph(seed, 1 + seed % 7)
            for rule in BOTH:
                assert (failed_number(g, rule).value
                        == brute_failed_number(g, rule).value), (seed, rule)

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=6), st.sampled_from(BOTH))
    def test_agrees_with_fort_search_property(self, g, rule):
        assert failed_number(g, rule).value == brute_failed_number(g, rule).value

    @pytest.mark.parametrize("rule", BOTH)
    def test_witness_is_least_largest_failed_set(self, rule):
        # every labeled graph with n <= 5, against all 2^n sets tested with
        # the asynchronous closure
        for n in range(1, 6):
            for edges in range(1 << (n * (n - 1) // 2)):
                g = graph_from_edge_mask(n, edges)
                failed = [s for s in range(1 << n)
                          if reference_closure(g, s, rule) != g.full_mask]
                want = min(failed, key=lambda s: (-s.bit_count(), bits(s)))
                res = brute_failed_number(g, rule)
                assert (res.value, res.witness) == (want.bit_count(), want), \
                    (n, edges)

    @pytest.mark.parametrize("text,sets", [("path:4", 13), ("wheel:6", 24)])
    def test_budget_counts_sets_tested(self, text, sets):
        # path:4 tests 1 + 4 + 6 sets that force, then {0} and {1}, which
        # fails; wheel:6 tests 1 + 6 + 15, then its first two 3-sets
        g = fam(text)
        brute_failed_number(g, Rule.STANDARD, sets)
        size = {"path:4": "1 vertex", "wheel:6": "3 vertices"}[text]
        with pytest.raises(SearchBudgetExceeded,
                           match=f"testing sets of {size}, none larger is failed"):
            brute_failed_number(g, Rule.STANDARD, sets - 1)


class TestMaximalFailed:
    def test_two_isolated_vertices(self):
        assert enumerate_maximal_failed(fam("empty:2"), Rule.STANDARD) == [1, 2]

    def test_k3_singletons(self):
        assert enumerate_maximal_failed(fam("complete:3"), Rule.STANDARD) == [1, 2, 4]

    def test_c4_contains_opposite_pairs(self):
        out = enumerate_maximal_failed(fam("cycle:4"), Rule.STANDARD)
        assert 0b0101 in out and 0b1010 in out

    def test_all_outputs_stalled_and_maximal(self):
        for text in ("cycle:5", "wheel:5", "biclique:3,2", "cycle:3+path:2"):
            g = fam(text)
            for rule in BOTH:
                for s in enumerate_maximal_failed(g, rule):
                    assert is_stalled(g, s, rule)
                    for v in bits(g.full_mask & ~s):
                        assert is_forcing_set(g, s | (1 << v), rule)

    def test_contains_every_maximum_witness_size(self):
        g = fam("wheel:6")
        for rule in BOTH:
            best = failed_number(g, rule).value
            sizes = [s.bit_count()
                     for s in enumerate_maximal_failed(g, rule)]
            assert max(sizes) == best


class TestWitnesses:
    @settings(max_examples=80, deadline=None)
    @given(graphs(max_n=8), st.sampled_from(BOTH))
    def test_every_witness_verifies(self, g, rule):
        z = zero_forcing_number(g, rule)
        failed = (failed_number(g, rule), brute_failed_number(g, rule))
        for res in (z, *failed):
            assert res.witness.bit_count() == res.value
        assert is_forcing_set(g, z.witness, rule)
        for res in failed:
            assert is_failed_set(g, res.witness, rule)
            assert is_stalled(g, res.witness, rule)


class TestCrossParameterInvariants:
    @settings(max_examples=50, deadline=None)
    @given(graphs(max_n=6))
    def test_sandwich_and_dominance(self, g):
        z = zero_forcing_number(g, Rule.STANDARD).value
        f = failed_number(g, Rule.STANDARD).value
        zp = zero_forcing_number(g, Rule.PSD).value
        fp = failed_number(g, Rule.PSD).value
        assert z - 1 <= f <= g.n - 1
        assert zp - 1 <= fp <= g.n - 1
        assert fp <= f
        assert zp <= z


def test_readme_library_block_prints_what_its_comments_say(capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = re.search(r"^## Library use\n\n```python\n(.*?)^```$",
                      readme.read_text(encoding="utf-8"), re.S | re.M).group(1)
    expected = [line.split("# ", 1)[1].split(":")[0]
                for line in block.splitlines() if line.startswith("print(")]
    exec(block, {})
    assert capsys.readouterr().out.splitlines() == expected
    assert expected == ["4", "4 Thm 4.20", "[0, 1, 2]", "0b11", "0b1111111"]
