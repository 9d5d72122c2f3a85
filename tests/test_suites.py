import importlib
import json
import os
import pkgutil
import random
import re
import subprocess
import sys
from collections import Counter
from functools import cached_property
from itertools import permutations
from math import factorial
from pathlib import Path

import pytest

import forcekit
import forcekit.formulas as formulas
import forcekit.suites as suites
from forcekit.cli import main
from forcekit.forcing import Rule
from forcekit.graphs import (
    Graph,
    build_family,
    disjoint_union,
    graph_from_edges,
    parse_family,
)
from forcekit.suites import (
    SUITE_NAMES,
    default_family_specs,
    random_connected_graph,
    run_characterizations,
    run_disconnected,
    run_exhaustive,
    run_linalg,
    run_suite,
    run_table51,
)
from forcekit.theorems import TheoremReport

from conftest import (
    maximal_failed_contains_compositions,
    random_graph,
    run_oracle_equivalence,
)


class TestDefaultSpecs:
    def test_ranges(self):
        labels = {s.label() for s in default_family_specs()}
        assert "path:12" in labels and "path:13" not in labels
        assert "hypercube:4" in labels and "hypercube:5" not in labels
        assert "marytree:3,13" in labels
        assert "biclique:5,5" in labels and "biclique:5,6" not in labels

    def test_max_n_filter(self):
        assert all(s.order() <= 8 for s in default_family_specs(max_n=8))


class TestTableSuites:
    def test_table1_small(self):
        res = run_suite("table1", max_n=9)
        assert res["ok"] and res["failed"] == 0 and res["passed"] > 40
        assert res["known_discrepancies"] == 0

    def test_table2_small(self):
        res = run_suite("table2", max_n=9)
        assert res["ok"] and res["failed"] == 0

    def test_table51_flags_halfgraph_rows(self):
        res = run_table51(max_n=8)
        assert res["ok"] and res["failed"] == 0
        flagged = {(c["graph"], c["parameter"]) for c in res["checks"]
                   if c.get("known_discrepancy")}
        assert flagged == {("halfgraph:3", "Z"), ("halfgraph:3", "Zplus"),
                           ("halfgraph:4", "Z"), ("halfgraph:4", "Zplus")}
        # the search found s - 1, the table says s
        for c in res["checks"]:
            assert c["observed"] == c["expected"] - 1


class TestCharacterizations:
    def test_small_run(self):
        res = run_characterizations(max_n=8)
        assert res["ok"] and res["failed"] == 0
        assert res["known_discrepancies"] == 1  # Thm 5.2 at halfgraph:3
        assert res["by_theorem"]["Thm 4.19"]["failed"] == 0


    def test_twin_pairs_are_scanned_once_per_graph(self, monkeypatch):
        # The four searches and the module theorems all read the same
        # twin pairs; the O(n^2) scan for them runs once per graph.
        scan = Graph.twin_pairs.func
        calls = []

        def counted(g):
            calls.append(g)
            return scan(g)

        prop = cached_property(counted)
        prop.__set_name__(Graph, "twin_pairs")
        monkeypatch.setattr(Graph, "twin_pairs", prop)
        g = build_family(parse_family("biclique:2,3"))
        _, reports = suites._characterize(g, "biclique:2,3")
        assert {"Thm 3.5", "Thm 4.12"} <= {r.theorem for r in reports}
        assert calls == [g]


class TestKnownDiscrepancies:
    def test_whole_default_range(self):
        # Table 5.1's Z = Z+ = s for half-graphs with s >= 3, and Thm 5.2's
        # case at H_3 that rests on it; every other check must pass
        results = (run_table51(), run_characterizations())
        assert all(res["ok"] for res in results)
        flagged = {(c["graph"], c["theorem"], c.get("parameter"))
                   for res in results for c in res["checks"]
                   if c.get("known_discrepancy")}
        assert flagged == {
            ("halfgraph:3", "Table 5.1", "Z"), ("halfgraph:3", "Table 5.1", "Zplus"),
            ("halfgraph:4", "Table 5.1", "Z"), ("halfgraph:4", "Table 5.1", "Zplus"),
            ("halfgraph:5", "Table 5.1", "Z"), ("halfgraph:5", "Table 5.1", "Zplus"),
            ("halfgraph:3", "Thm 5.2", None)}


class TestExhaustive:
    def test_n4_clean(self):
        res = run_exhaustive(max_n=4, jobs=1)
        assert res["ok"] and res["graphs_checked"] == 75
        assert all(t["failed"] == 0 for t in res["by_theorem"].values())

    def test_tallies_every_theorem_it_meets(self, monkeypatch):
        # a check added to _characterize needs no second list of names
        _add_extra_check(monkeypatch, fails_from=3)
        res = run_exhaustive(max_n=3, jobs=1)
        assert res["graphs_checked"] == 11  # 1 + 2 + 8
        assert res["by_theorem"]["Extra"] == {"passed": 0, "failed": 1}
        assert res["by_theorem"]["Thm 5.1"] == {"passed": 1, "failed": 0}
        [check] = res["checks"]
        assert (check["theorem"], check["expected"], check["observed"]) == (
            "Extra", "0 violations in 11", "8 violations")
        # one sample per failing class, named by its least edge mask: the
        # edgeless graph, an edge, a path and the triangle
        assert [(v["graph"], v["theorem"]) for v in res["violation_samples"]] \
            == [("n=3 edges=0x0", "Extra"), ("n=3 edges=0x1", "Extra"),
                ("n=3 edges=0x3", "Extra"), ("n=3 edges=0x7", "Extra")]
        parallel = run_exhaustive(max_n=3, jobs=2)
        parallel["params"]["jobs"] = 1  # only the recorded setting differs
        assert json.dumps(res, sort_keys=True) == json.dumps(parallel,
                                                             sort_keys=True)

    def test_violation_samples_are_the_first_25_by_name(self, monkeypatch):
        _add_extra_check(monkeypatch, fails_from=5)
        res = run_exhaustive(max_n=5, jobs=1)
        names = sorted(f"n=5 edges={rep:#x}"
                       for rep, _ in suites._edge_mask_classes(5))
        assert len(names) == 34
        assert [v["graph"] for v in res["violation_samples"]] == names[:25]
        assert res["checks"][0]["observed"] == "1024 violations"

    def test_edge_mask_bits_follow_lexicographic_pairs(self):
        # violation labels name graphs by this mask, so its order is fixed
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        for k, pair in enumerate(pairs):
            assert suites.graph_from_edge_mask(4, 1 << k).edges() == [pair]
        g = suites.graph_from_edge_mask(4, 0b101001)
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]

    def test_jobs_do_not_change_output(self):
        serial = run_exhaustive(max_n=4, jobs=1)
        parallel = run_exhaustive(max_n=4, jobs=2)
        parallel["params"]["jobs"] = 1  # only the recorded setting differs
        assert json.dumps(serial, sort_keys=True) == json.dumps(parallel,
                                                                sort_keys=True)

    def test_import_does_not_load_multiprocessing(self):
        # no suite starts a process pool
        assert _loaded_on_import("multiprocessing") == "[]\n"


def _add_extra_check(monkeypatch, fails_from: int) -> None:
    """Make _characterize report one more theorem, "Extra", that fails on
    every graph with at least fails_from vertices."""
    check_F_vs_Z = suites.check_F_vs_Z

    def with_extra(g, name, *values):
        return check_F_vs_Z(g, name, *values) + [
            TheoremReport.compare("Extra", name, True, g.n < fails_from)]

    monkeypatch.setattr(suites, "check_F_vs_Z", with_extra)


def _loaded_on_import(package: str) -> str:
    """The modules of package that a fresh interpreter holds after
    importing forcekit as the command line does, as printed there."""
    src = str(Path(forcekit.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, forcekit, forcekit.cli, forcekit.suites; "
            "print(sorted(m for m in sys.modules "
            f"if m.split('.')[0] == {package!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout


@pytest.fixture(scope="module")
def mask_classes():
    """_edge_mask_classes(n) for n = 1..7, computed once: order 7 takes
    about a second."""
    return {n: suites._edge_mask_classes(n) for n in range(1, 8)}


@pytest.fixture(scope="module")
def relabelings(mask_classes):
    """For n <= 6, each class representative's images under all n!
    relabelings, in the order of permutations()."""
    return {n: {rep: [_relabeled(n, rep, perm)
                      for perm in permutations(range(n))]
                for rep, _ in mask_classes[n]}
            for n in range(1, 7)}


class TestEdgeMaskClasses:
    def test_class_counts(self, mask_classes):
        # OEIS A000088: graphs on n unlabeled vertices
        assert [len(mask_classes[n]) for n in range(1, 8)] == [
            1, 2, 4, 11, 34, 156, 1044]

    def test_class_counts_match_graph_atlas(self, mask_classes):
        nx = pytest.importorskip("networkx")
        atlas = Counter(g.number_of_nodes() for g in nx.graph_atlas_g())
        for n in range(1, 8):
            assert len(mask_classes[n]) == atlas[n]

    def test_orbits_cover_every_labeled_graph(self, mask_classes):
        for n in range(1, 8):
            orbits = [size for _, size in mask_classes[n]]
            assert sum(orbits) == 1 << (n * (n - 1) // 2)

    def test_orbits_by_brute_force(self, mask_classes, relabelings):
        # every relabeling of each representative: it is the least mask
        # of its orbit, and the orbit has n!/|Aut| masks
        for n in range(1, 7):
            classes = mask_classes[n]
            assert [rep for rep, _ in classes] == sorted(
                rep for rep, _ in classes)
            for rep, size in classes:
                images = relabelings[n][rep]
                automorphisms = images.count(rep)
                assert min(images) == rep
                assert len(set(images)) == size
                assert size == factorial(n) // automorphisms

    def test_complement_maps_classes_onto_classes(self, mask_classes,
                                                  relabelings):
        # the walk covers only masks with at most half of the edges and
        # takes the other classes as complements: the complement of each
        # representative lies in a class of the same orbit size, whose
        # least mask is the complement of the greatest mask in the
        # representative's orbit
        self_complementary = []
        for n in range(1, 7):
            full = (1 << n * (n - 1) // 2) - 1
            size_of = dict(mask_classes[n])
            class_of = {image: rep for rep, images in relabelings[n].items()
                        for image in images}
            count = 0
            for rep, size in mask_classes[n]:
                partner = class_of[full ^ rep]
                assert partner == full ^ max(relabelings[n][rep])
                assert size_of[partner] == size
                count += partner == rep
            self_complementary.append(count)
        # OEIS A000171: self-complementary graphs on n vertices
        assert self_complementary == [1, 0, 0, 1, 2, 0]


def _relabeled(n: int, mask: int, perm) -> int:
    """The edge mask of the graph of mask with vertex v renamed perm[v]."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    position = {pair: k for k, pair in enumerate(pairs)}
    image = 0
    for k, (u, v) in enumerate(pairs):
        if mask >> k & 1:
            image |= 1 << position[tuple(sorted((perm[u], perm[v])))]
    return image


class TestRelabelingInvariance:
    def test_characterize(self):
        # the exhaustive suite checks one labeling per class, so the twin
        # pruning and the lexicographic order of the searches must not
        # change any value or verdict
        rng = random.Random(20261018)
        for _ in range(100):
            n = rng.randint(7, 9)
            g = random_graph(rng, n)
            values, reports = suites._characterize(g, "g")
            for _ in range(2):
                perm = rng.sample(range(n), n)
                h = graph_from_edges(n, sorted(
                    tuple(sorted((perm[u], perm[v]))) for u, v in g.edges()))
                relabeled_values, relabeled_reports = suites._characterize(
                    h, "g")
                assert relabeled_values == values
                assert [(r.theorem, r.expected, r.observed, r.passed)
                        for r in relabeled_reports] == [
                    (r.theorem, r.expected, r.observed, r.passed)
                    for r in reports]


class TestDisconnected:
    def test_composition_matches(self):
        res = run_disconnected(seed=3, trials=40)
        assert res["ok"] and res["failed"] == 0
        assert res["by_theorem"]["Cor 3.3"]["passed"] == 40
        assert res["by_theorem"]["Cor 4.8"]["passed"] == 40
        assert res["by_theorem"]["Prop 4.3"]["passed"] == 40

    def test_deterministic(self):
        a = run_disconnected(seed=9, trials=25)
        b = run_disconnected(seed=9, trials=25)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_composed_sets_are_maximal_failed(self):
        rng = random.Random(13)
        for _ in range(10):
            g = disjoint_union(random_connected_graph(rng, rng.randint(1, 5)),
                               random_connected_graph(rng, rng.randint(1, 5)))
            for rule in (Rule.STANDARD, Rule.PSD):
                assert maximal_failed_contains_compositions(g, rule)


class TestOracle:
    def test_small_run(self):
        res = run_oracle_equivalence(seed=5, trials=40, max_n=7)
        assert res["ok"] and res["failed"] == 0
        assert res["passed"] >= 80


class TestLinalgSuite:
    def test_small_run(self):
        res = run_linalg(seed=11, trials=5, max_n=8)
        assert res["ok"] and res["failed"] == 0

    def test_failures_are_counted_and_sampled(self, monkeypatch):
        # every PSD certificate and every rank bound fails; each instance
        # keeps its first five failed reports, in trial order, each named
        # after its instance and trial
        rank_calls = []
        trials_begun = []

        def certificate(matrix):
            rule = Rule.PSD if matrix.psd else Rule.STANDARD
            # each trial checks its standard certificate first
            if rule is Rule.STANDARD:
                trials_begun.append(matrix)
            idx, t = divmod(len(trials_begun) - 1, 4)
            return TheoremReport(rule.value, f"instance {idx}", "-", f"t={t}",
                                 rule is Rule.STANDARD)

        def rank_bound(table, matrix):
            assert table.mr == table.mrplus == 0  # path:1's record
            rank_calls.append(matrix)
            return TheoremReport("Table 5.1 rank bound", f"n={matrix.graph.n}",
                                 "-", f"call {len(rank_calls)}", False)

        monkeypatch.setattr(suites, "support_implies_failed", certificate)
        monkeypatch.setattr(suites, "rank_lower_bound_check", rank_bound)
        res = run_linalg(seed=0, trials=4, max_n=1)
        # path:1, empty:1, marytree:2,1 and marytree:3,1; only the path is
        # a Table 5.1 family
        assert res["by_theorem"] == {
            "Cor 2.10 / Prop 2.12": {"passed": 0, "failed": 4},
            "Table 5.1 rank bound": {"passed": 0, "failed": 1}}
        path = [c for c in res["checks"] if c["graph"].startswith("path:1")]
        assert [(c["graph"], c["observed"]) for c in path] == [
            ("path:1", "4 passed"), ("path:1", "0 held"),
            ("path:1 trial 0: instance 0", "t=0"),
            ("path:1 trial 0: n=1", "call 1"),
            ("path:1 trial 0: n=1", "call 2"),
            ("path:1 trial 0: n=1", "call 3"),
            ("path:1 trial 1: instance 0", "t=1")]

    def test_deterministic(self):
        a = run_linalg(seed=2, trials=3, max_n=6)
        b = run_linalg(seed=2, trials=3, max_n=6)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestTable51Lookups:
    """A suite, or ``analyze``, looks up each instance's Table 5.1 record
    once and hands it to the code that reads it."""

    @pytest.mark.parametrize("run,instances", [
        (lambda: run_characterizations(max_n=8), 70),
        (lambda: run_linalg(0, trials=2, max_n=12), 100),
        (lambda: main(["analyze", "--family", "halfgraph:4", "--json"]), 1),
    ])
    def test_one_lookup_per_instance(self, monkeypatch, run, instances):
        original = formulas.table51_lookup
        calls = []

        def counted(spec):
            calls.append(spec)
            return original(spec)

        modules = [forcekit] + [importlib.import_module(f"forcekit.{m.name}")
                                for m in pkgutil.iter_modules(forcekit.__path__)]
        for module in modules:
            if getattr(module, "table51_lookup", None) is original:
                monkeypatch.setattr(module, "table51_lookup", counted)
        run()
        assert len(calls) == len(set(calls)) == instances


class TestDispatch:
    def test_known_names(self):
        assert set(SUITE_NAMES) == {"table1", "table2", "table51",
                                    "characterizations", "exhaustive6",
                                    "disconnected", "linalg"}

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nope")

    def test_dispatch_honors_max_n(self):
        res = run_suite("table1", max_n=6)
        assert res["ok"]

    def test_readme_flag_table_names_what_each_suite_takes(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        rows = re.findall(r"^\| `([a-z0-9]+)` \| (.*) \|$",
                          readme.read_text(encoding="utf-8"), re.M)
        table = {suite: set(re.findall(r"`(--[a-z-]+)`", flags))
                 for suite, flags in rows}
        assert len(rows) == len(table)  # one row per suite
        assert table == {name: {"--" + flag.replace("_", "-")
                                for flag in suites._SUITES[name][1]}
                         for name in SUITE_NAMES}
