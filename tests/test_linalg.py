import random
import re

import numpy as np
import pytest

import forcekit.linalg as linalg
import forcekit.suites as suites
from forcekit.forcing import Rule, is_failed_set
from forcekit.formulas import table51_lookup
from forcekit.graphs import build_family, parse_family
from forcekit.linalg import (
    PatternMatrix,
    PatternMismatchError,
    kernel_basis,
    matrix_rank,
    rank_lower_bound_check,
    sample_pattern_matrix,
    shifted_singular_matrix,
    support_implies_failed,
    weighted_laplacian,
)

from forcekit.suites import run_linalg

from conftest import (
    matrix_to_text,
    random_graph,
    reference_echelon,
    seeded_random_graph,
)


def fam(text):
    return build_family(parse_family(text))


def pattern_of(entries):
    n = len(entries)
    return {(i, j) for i in range(n) for j in range(i + 1, n) if entries[i][j]}


def diagonal(*values):
    return [[v if i == j else 0 for j in range(len(values))]
            for i, v in enumerate(values)]


def zero_set(x):
    return sum(1 << i for i, v in enumerate(x) if v == 0)


class TestSampling:
    def test_empty_graph_gives_diagonal(self):
        m = sample_pattern_matrix(fam("empty:3"), seed=1)
        assert pattern_of(m.entries) == set()
        assert all(m.entries[i][j] == 0
                   for i in range(3) for j in range(3) if i != j)

    def test_p2_offdiagonal_nonzero(self):
        m = sample_pattern_matrix(fam("path:2"), seed=2)
        assert abs(m.entries[0][1]) >= 1

    @pytest.mark.parametrize("seed", range(8))
    def test_pattern_roundtrip(self, seed):
        g = seeded_random_graph(seed, 3 + seed % 6)
        m = sample_pattern_matrix(g, seed)
        assert pattern_of(m.entries) == set(g.edges())

    def test_deterministic_per_seed(self):
        g = fam("wheel:6")
        a = sample_pattern_matrix(g, 7).entries
        b = sample_pattern_matrix(g, 7).entries
        assert a == b

    # A seed names the same integer matrix from one version to the next:
    # per edge in row-major order one draw from +-{1,2,3}, then the diagonal.
    @pytest.mark.parametrize("text,seed,rows", [
        ("path:3", 0, [[-1, -1, 0], [-1, -1, -3], [0, -3, -2]]),
        ("wheel:5", 3, [
            [-2, 1, 0, 2, -1],
            [1, 0, 3, 0, -2],
            [0, 3, 1, -3, 3],
            [2, 0, -3, 2, -1],
            [-1, -2, 3, -1, 1]]),
    ])
    def test_entries_are_stable_across_versions(self, text, seed, rows):
        m = sample_pattern_matrix(fam(text), seed)
        assert m.entries == tuple(map(tuple, rows))

    def test_edge_magnitudes_in_band(self):
        m = sample_pattern_matrix(fam("complete:6"), seed=3)
        off = [abs(m.entries[i][j]) for i, j in pattern_of(m.entries)]
        assert len(off) == 15 and all(1 <= v <= 3 for v in off)
        assert all(-3 <= m.entries[i][i] <= 3 for i in range(6))

    def test_shifted_matrix_is_singular_same_pattern(self):
        for seed in range(6):
            g = seeded_random_graph(seed + 100, 5)
            m = shifted_singular_matrix(g, seed)
            assert pattern_of(m.entries) == set(g.edges())
            assert len(kernel_basis(m)) >= 1


class TestValidation:
    def test_rejects_asymmetric(self):
        g = fam("path:2")
        with pytest.raises(PatternMismatchError):
            PatternMatrix(g, [[0, 1], [2, 0]])

    def test_rejects_asymmetry_within_float_tolerance(self):
        # np.allclose would let this through at its default rtol of 1e-5
        with pytest.raises(PatternMismatchError, match="not symmetric"):
            PatternMatrix(fam("path:2"), [[0, 10**6], [10**6 + 1, 0]])

    @pytest.mark.parametrize("entry", [1.0, np.int64(1), True])
    def test_rejects_entries_other_than_python_ints(self, entry):
        with pytest.raises(PatternMismatchError, match="not all Python ints"):
            PatternMatrix(fam("path:2"), [[0, entry], [entry, 0]])

    def test_rejects_zero_at_edge(self):
        g = fam("path:2")
        with pytest.raises(PatternMismatchError):
            PatternMatrix(g, [[0, 0], [0, 0]])

    def test_rejects_nonzero_at_nonedge(self):
        g = fam("empty:2")
        with pytest.raises(PatternMismatchError):
            PatternMatrix(g, [[0, 1], [1, 0]])

    def test_names_first_wrong_entry_in_row_major_order(self):
        # path 0-1-2: (0,2) is a nonzero non-edge, (1,2) a zero edge
        entries = [[0, 1, 1], [1, 0, 0], [1, 0, 0]]
        with pytest.raises(PatternMismatchError,
                           match=r"^entry \(0,2\) nonzero contradicts"):
            PatternMatrix(fam("path:3"), entries)
        entries[0][2] = entries[2][0] = 0
        with pytest.raises(PatternMismatchError,
                           match=r"^entry \(1,2\) zero contradicts"):
            PatternMatrix(fam("path:3"), entries)

    def test_rejects_wrong_shape(self):
        with pytest.raises(PatternMismatchError, match="not 3 x 3"):
            PatternMatrix(fam("path:3"), [[0, 0], [0, 0]])
        with pytest.raises(PatternMismatchError, match="not 3 x 3"):
            PatternMatrix(fam("path:3"), [[0, 1, 0], [1, 0, 1], [0, 1]])

    def test_patterns_are_kept_per_graph(self):
        # Edgeless graphs of different orders share an (empty) edge list
        # but not a pattern; each graph is validated against its own.
        for text in ("empty:3", "empty:5", "complete:1", "path:3"):
            m = sample_pattern_matrix(fam(text), seed=0)
            assert pattern_of(m.entries) == set(fam(text).edges())
        entries = diagonal(1, 1, 1, 1, 1)
        entries[1][3] = entries[3][1] = 1
        with pytest.raises(PatternMismatchError,
                           match=r"^entry \(1,3\) nonzero contradicts the graph pattern$"):
            PatternMatrix(fam("empty:5"), entries)
        PatternMatrix(fam("complete:1"), [[0]])
        self.test_names_first_wrong_entry_in_row_major_order()

    def test_entries_are_read_only(self):
        m = sample_pattern_matrix(fam("path:3"), seed=0)
        with pytest.raises(TypeError, match="does not support item assignment"):
            m.entries[0][0] = 1


class TestValidationCount:
    @pytest.fixture
    def validations(self, monkeypatch):
        count = [0]
        validate = PatternMatrix.__post_init__

        def counting(matrix):
            count[0] += 1
            validate(matrix)

        monkeypatch.setattr(PatternMatrix, "__post_init__", counting)
        return count

    def test_shifted_matrix_validated_once(self, validations):
        shifted_singular_matrix(fam("cycle:5"), 3)
        assert validations[0] == 1

    def test_linalg_suite_validates_each_matrix_once(self, validations):
        # 100 instances of order <= 12, two trials each.  The 63 Table 5.1
        # instances build three matrices a trial, as each gets a rank
        # check; the other 37 build two: the one the standard certificate
        # reads and the Laplacian.
        run_linalg(0, trials=2, max_n=12)
        assert validations[0] == 63 * 2 * 3 + 37 * 2 * 2 == 526

    def test_linalg_suite_decomposes_each_matrix_once(self, monkeypatch):
        # A matrix's kernel basis and rank read one elimination.  A
        # singular matrix's is the elimination of its cofactor block, once
        # per draw, so each draw whose cofactor is 0 adds one.  A
        # Laplacian's kernel, the component indicators, is known by
        # construction, so it takes none.
        calls = {"_echelon": 0, "_draw": 0}
        for name in calls:
            def counting(*args, _name=name, _run=getattr(linalg, name)):
                calls[_name] += 1
                return _run(*args)
            monkeypatch.setattr(linalg, name, counting)
        run_linalg(0, trials=2, max_n=12)
        # 526 matrices, 200 of them Laplacians, which draw no entries
        redraws = calls["_draw"] - (526 - 200)
        assert redraws == 35
        assert calls["_echelon"] == 526 - 200 + redraws == 361

    @pytest.mark.parametrize("text,built", [
        # the standard certificate reads the sampled matrix on even trials
        # and the singular one on odd trials; a Table 5.1 family also
        # checks the rank of both on every trial
        ("marytree:2,7", {"sample_pattern_matrix": 2, "shifted_singular_matrix": 2}),
        ("path:7", {"sample_pattern_matrix": 4, "shifted_singular_matrix": 4}),
    ])
    def test_linalg_suite_builds_only_read_matrices(self, monkeypatch, text, built):
        calls = dict.fromkeys(built, 0)
        for name in built:
            def counting(*args, _name=name, _build=getattr(suites, name)):
                calls[_name] += 1
                return _build(*args)
            monkeypatch.setattr(suites, name, counting)
        monkeypatch.setattr(suites, "default_family_specs",
                            lambda max_n: [parse_family(text)])
        assert run_linalg(0, trials=4, max_n=0)["ok"]
        assert calls == built


class TestLaplacian:
    @pytest.mark.parametrize("text", ["cycle:4", "cycle:3+path:2"])
    def test_default_weights(self, text):
        # -w with w in 1..3 on exactly the edges, zero row sums, one
        # kernel direction per component
        g = fam(text)
        m = weighted_laplacian(g, seed=0)
        a = m.entries
        for i in range(g.n):
            for j in range(g.n):
                if g.adj[i] >> j & 1:
                    assert 1 <= -a[i][j] <= 3
                elif i != j:
                    assert a[i][j] == 0
        assert all(sum(row) == 0 for row in a)
        assert g.n - matrix_rank(m) == len(g.components)

    def test_entries_are_stable_across_versions(self):
        m = weighted_laplacian(fam("wheel:5"), seed=3)
        assert m.entries == (
            (7, -2, 0, -3, -2),
            (-2, 6, -3, 0, -1),
            (0, -3, 7, -1, -3),
            (-3, 0, -1, 6, -2),
            (-2, -1, -3, -2, 8))

    @pytest.mark.parametrize("text,comps", [
        ("wheel:7", 1), ("cycle:3+path:2", 2), ("empty:3", 3),
        ("path:3+path:4+cycle:3", 3),
    ])
    def test_nullity_counts_components(self, text, comps):
        g = fam(text)
        assert len(g.components) == comps
        m = weighted_laplacian(g, seed=4)
        assert len(kernel_basis(m)) == comps
        assert m.psd

    @pytest.mark.parametrize("seed", range(6))
    def test_psd_certified(self, seed):
        g = seeded_random_graph(seed + 50, 8)
        m = weighted_laplacian(g, seed)
        a = np.array(m.entries, dtype=float)
        eig = np.linalg.eigvalsh(a)
        assert eig.min() >= -1e-10 * max(np.linalg.norm(a), 1.0)


class TestKernelBasis:
    def test_connected_laplacian_spans_ones(self):
        m = weighted_laplacian(fam("wheel:6"), seed=1)
        assert kernel_basis(m) == [(1,) * 6]

    def test_identity_has_trivial_kernel(self):
        m = PatternMatrix(fam("empty:4"), diagonal(1, 1, 1, 1))
        assert kernel_basis(m) == []
        assert matrix_rank(m) == 4

    def test_diagonal_zero_entry(self):
        m = PatternMatrix(fam("empty:3"), diagonal(2, 0, -1))
        assert kernel_basis(m) == [(0, 1, 0)]
        assert zero_set(kernel_basis(m)[0]) == 0b101

    def test_zero_matrix_full_kernel(self):
        m = PatternMatrix(fam("empty:2"), [[0, 0], [0, 0]])
        # exactly the standard basis, in order
        assert kernel_basis(m) == [(1, 0), (0, 1)]
        assert matrix_rank(m) == 0

    def test_rref_rows(self):
        # one vector per non-pivot column f, the least integer multiple of
        # the reduced row echelon form's vector: positive at f, 0 at the
        # other non-pivot columns (here 0, 1, 2 and 4; 3 is the pivot)
        m = weighted_laplacian(fam("empty:3+path:2"), seed=9)
        assert kernel_basis(m) == [
            (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 1)]
        m = PatternMatrix(fam("complete:3"), [[1, 1, 2], [1, 1, 2], [2, 2, 4]])
        assert kernel_basis(m) == [(-1, 1, 0), (-2, 0, 1)]


class TestExactKernelOracle:
    """Every matrix that run_linalg(0, trials=2, max_n=12) builds, checked
    exactly, with numpy's float rank as an independent oracle."""

    @pytest.fixture(scope="class")
    def matrices(self):
        built = []
        with pytest.MonkeyPatch.context() as patch:
            for name in ("sample_pattern_matrix", "shifted_singular_matrix",
                         "weighted_laplacian"):
                def recording(g, seed, _name=name, _build=getattr(suites, name)):
                    built.append((_name, _build(g, seed)))
                    return built[-1][1]
                patch.setattr(suites, name, recording)
            assert run_linalg(0, trials=2, max_n=12)["ok"]
        return built

    def test_every_suite_matrix(self, matrices):
        assert len(matrices) == 526
        for kind, m in matrices:
            g, a, n = m.graph, m.entries, m.graph.n
            assert a == tuple(zip(*a))
            assert [sum(1 << j for j in range(n) if j != i and a[i][j])
                    for i in range(n)] == list(g.adj)
            basis = kernel_basis(m)
            rank = matrix_rank(m)
            assert len(basis) == n - rank
            assert rank == np.linalg.matrix_rank(np.array(a, dtype=float))
            for x in basis:
                assert any(x)
                assert all(sum(r * v for r, v in zip(row, x)) == 0 for row in a)
            # reduced row echelon form: each vector's last nonzero
            # coordinate is its own non-pivot column, where it is
            # positive and every other basis vector is 0
            last = [max(j for j, v in enumerate(x) if v) for x in basis]
            assert last == sorted(set(last))
            for x in basis:
                assert [x[f] > 0 if x is y else x[f] == 0
                        for y, f in zip(basis, last)] == [True] * len(basis)
            if kind == "shifted_singular_matrix":
                assert rank < n
            if kind == "weighted_laplacian":
                assert rank == n - len(g.components)


class TestCarriedKernel:
    """shifted_singular_matrix keeps the kernel of the elimination that
    built it; a fresh matrix of the same entries finds it on its own."""

    @staticmethod
    def carried_kernel(g, seed):
        """The kernel the matrix carries, checked against a fresh one."""
        m = shifted_singular_matrix(g, seed)
        assert "_kernel" in vars(m)
        fresh = PatternMatrix(g, m.entries)
        assert "_kernel" not in vars(fresh)
        assert kernel_basis(m) == kernel_basis(fresh)
        assert len(kernel_basis(m)) == 1
        return kernel_basis(m)

    @pytest.mark.parametrize("seed", range(20))
    def test_every_suite_instance(self, seed):
        specs = suites.default_family_specs(12)
        specs += [parse_family(text) for text in suites._LINALG_UNIONS]
        assert len(specs) == 100
        for spec in specs:
            self.carried_kernel(build_family(spec), seed)

    @pytest.mark.parametrize("text", ["path:1", "empty:1"])
    def test_one_vertex(self, text):
        # the cofactor block [M | b] has no rows: C = 1, det A0 = 0
        for seed in range(5):
            assert self.carried_kernel(fam(text), seed) == [(1,)]

    def test_redrawn_matrix(self, monkeypatch):
        # the first draw of cycle:4 with seed 1 has cofactor 0
        draws = [0]

        def counting(*args, _draw=linalg._draw):
            draws[0] += 1
            return _draw(*args)

        monkeypatch.setattr(linalg, "_draw", counting)
        self.carried_kernel(fam("cycle:4"), 1)
        assert draws == [2]


class TestLaplacianKernel:
    """weighted_laplacian keeps the component indicators, ordered by
    greatest vertex, as its kernel; a PatternMatrix of the same entries
    eliminates to find it, and is the oracle."""

    @staticmethod
    def check(g, seed):
        m = weighted_laplacian(g, seed)
        assert "_kernel" in vars(m)
        fresh = PatternMatrix(g, m.entries, psd=True)
        assert "_kernel" not in vars(fresh)
        assert m._kernel == fresh._kernel
        assert matrix_rank(m) == g.n - len(g.components)

    def test_every_suite_instance(self):
        specs = suites.default_family_specs(12)
        specs += [parse_family(text) for text in suites._LINALG_UNIONS]
        assert len(specs) == 100
        for seed, spec in enumerate(specs):
            self.check(build_family(spec), seed)

    def test_every_class_up_to_order_5(self):
        classes = [(n, rep) for n in range(1, 6)
                   for rep, _ in suites._edge_mask_classes(n)]
        assert len(classes) == 1 + 2 + 4 + 11 + 34
        for seed, (n, rep) in enumerate(classes):
            self.check(suites.graph_from_edge_mask(n, rep), seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs(self, seed):
        # sparse draws leave isolated vertices, each its own component
        rng = random.Random(seed)
        isolated = 0
        for t in range(100):
            g = random_graph(rng, rng.randint(1, 14),
                             rng.choice((0.05, 0.15, None)))
            isolated += 0 in g.adj
            self.check(g, [seed, t])
        assert isolated >= 60

    def test_refuses_a_weight_that_is_not_positive(self, monkeypatch):
        class Negative(random.Random):
            def randint(self, a, b):
                return -1
        monkeypatch.setattr(linalg, "_rng", Negative)
        with pytest.raises(ArithmeticError, match="positive weights"):
            weighted_laplacian(fam("path:3"), 0)


class TestLazyEchelon:
    """_echelon leaves a row with 0 in the pivot column alone until it is
    read; the eager elimination in conftest is its oracle."""

    @staticmethod
    def random_matrix(rng):
        """1..12 x 1..13 integers of any density and size, some rows
        zeroed or replaced by a combination of two others."""
        m, n = rng.randint(1, 12), rng.randint(1, 13)
        density = rng.choice((0, 1, rng.random(), rng.random()))
        span = rng.choice((1, 3, 100))
        a = [[rng.randint(-span, span) if rng.random() < density else 0
              for _ in range(n)] for _ in range(m)]
        for _ in range(rng.randint(0, 3)):
            i, j, k = (rng.randrange(m) for _ in range(3))
            u, v = rng.randint(-3, 3), rng.randint(-3, 3)
            a[i] = [u * x + v * y for x, y in zip(a[j], a[k])]
        return a

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_eager_elimination(self, seed):
        rng = random.Random(seed)
        deficient = 0
        for _ in range(1000):
            a = self.random_matrix(rng)
            rows, pivots, d = linalg._echelon(a)
            want_rows, want_pivots, want_d = reference_echelon(a)
            assert (pivots, d) == (want_pivots, want_d), a
            # each row's entries right of its pivot, the pivot included
            assert ([row[c:] for row, c in zip(rows, pivots)]
                    == [row[c:] for row, c in zip(want_rows, pivots)]), a
            deficient += len(pivots) < min(len(a), len(a[0]))
        assert deficient >= 500


class TestSupportImpliesFailed:
    def test_random_samples_on_c5(self):
        g = fam("cycle:5")
        for seed in range(50):
            rep = support_implies_failed(sample_pattern_matrix(g, seed))
            assert rep.passed

    def test_singular_matrices_on_families(self):
        for text in ("cycle:5", "path:7", "wheel:6", "biclique:3,2",
                     "halfgraph:3"):
            g = fam(text)
            for seed in range(20):
                rep = support_implies_failed(shifted_singular_matrix(g, seed))
                assert rep.passed, (text, seed)

    def test_laplacians_under_psd_rule(self):
        for text in ("cycle:6", "complete:4", "cycle:3+path:2",
                     "empty:2+path:3"):
            g = fam(text)
            for seed in range(20):
                rep = support_implies_failed(weighted_laplacian(g, seed))
                assert rep.passed, (text, seed)

    def test_isolated_vertex_certificate(self):
        # diag(0, 1) on two isolated vertices: kernel e1, zero set {1}
        g = fam("empty:2")
        m = PatternMatrix(g, diagonal(0, 1))
        rep = support_implies_failed(m)
        assert rep.passed

    @pytest.fixture
    def checked(self, monkeypatch):
        """The zero sets passed to is_failed_set, in order, and the rule
        of each; the sets in ``forcing`` are reported as forcing."""
        calls = []
        rules = []
        forcing = set()

        def recording(g, zero_set, rule):
            calls.append(zero_set)
            rules.append(rule)
            return zero_set not in forcing and is_failed_set(g, zero_set, rule)

        monkeypatch.setattr(linalg, "is_failed_set", recording)
        return calls, forcing, rules

    def test_psd_flag_picks_rule_and_theorem(self, checked):
        _, _, rules = checked
        g = fam("path:3")
        rep = support_implies_failed(weighted_laplacian(g, 0))
        assert (rules, rep.theorem) == ([Rule.PSD], "Prop 2.12")
        rules.clear()
        rep = support_implies_failed(sample_pattern_matrix(g, 11))  # singular
        assert (rules, rep.theorem) == ([Rule.STANDARD], "Cor 2.10")

    def test_each_distinct_zero_set_checked_once(self, checked):
        # kernel e0, e1: the zero sets of the basis are distinct, and each
        # is checked once, in basis order
        calls, _, _ = checked
        m = PatternMatrix(fam("empty:3"), diagonal(0, 0, 1))
        rep = support_implies_failed(m)
        assert rep.passed
        assert rep.observed == "every zero set failed"
        assert calls == [0b110, 0b101]

    def test_one_zero_set_for_a_connected_laplacian(self, checked):
        calls, _, _ = checked
        rep = support_implies_failed(weighted_laplacian(fam("wheel:6"), 1))
        assert rep.observed == "every zero set failed"
        assert calls == [0]

    # Kernels whose first basis vector has zero set 0b110 (e0 of
    # diag(0, 1, 0)) or 0b100 ((-1, 1, 0), on an edge 01 and an isolated
    # vertex 2); checking stops there, before the second one, e2.
    _KERNELS = {
        0b110: ("empty:3", [[0, 0, 0], [0, 1, 0], [0, 0, 0]]),
        0b100: ("path:2+empty:1", [[1, 1, 0], [1, 1, 0], [0, 0, 0]]),
    }

    @pytest.mark.parametrize("forces", [0b110, 0b100])
    def test_forcing_zero_set_is_named(self, checked, forces):
        calls, forcing, _ = checked
        forcing.add(forces)
        text, entries = self._KERNELS[forces]
        m = PatternMatrix(fam(text), entries)
        rep = support_implies_failed(m)
        assert not rep.passed
        assert rep.observed == f"zero set {forces:#x} of a kernel vector forces"
        assert calls == [forces] and len(kernel_basis(m)) == 2

    def test_suite_samples_name_their_instance_and_trial(self, monkeypatch):
        # With every certificate failing, each instance keeps up to five
        # failing reports as samples; each names its instance and trial, so
        # no two samples of one theorem share a name.
        monkeypatch.setattr(linalg, "is_failed_set", lambda *args: False)
        res = run_linalg(0, trials=2, max_n=4)
        labels = {s.label() for s in suites.default_family_specs(4)}
        samples = [c for c in res["checks"]
                   if c["theorem"] in ("Cor 2.10", "Prop 2.12")]
        assert len(samples) == 93
        for c in samples:
            match = re.fullmatch(r"(\S+) trial [01]: n=(\d+) kernel dim [1-9]",
                                 c["graph"])
            assert match and match[1] in labels, c["graph"]
            assert parse_family(match[1]).order() == int(match[2])
        assert len({(c["graph"], c["theorem"]) for c in samples}) == 93


class TestRankBound:
    def test_paths_nearly_full_rank(self):
        spec = parse_family("path:8")
        g, table = build_family(spec), table51_lookup(spec)
        for seed in range(20):
            rep = rank_lower_bound_check(table, sample_pattern_matrix(g, seed))
            assert rep.passed

    def test_complete_graphs(self):
        spec = parse_family("complete:5")
        g, table = build_family(spec), table51_lookup(spec)
        for seed in range(20):
            rep = rank_lower_bound_check(table, shifted_singular_matrix(g, seed))
            assert rep.passed

    def test_c6_laplacian(self):
        spec = parse_family("cycle:6")
        m = weighted_laplacian(build_family(spec), seed=2)
        assert matrix_rank(m) == 5
        rep = rank_lower_bound_check(table51_lookup(spec), m)
        assert rep.passed  # 5 >= mr = 4
        assert rep.graph == "n=6 kernel dim 1"


class TestSerialization:
    def test_text_round_trip(self):
        m = sample_pattern_matrix(fam("wheel:5"), seed=3)
        text = matrix_to_text(m)
        back = tuple(tuple(int(x) for x in line.split())
                     for line in text.strip().splitlines())
        assert back == m.entries
