import numpy as np
import pytest

import forcekit.linalg as linalg
import forcekit.suites as suites
from forcekit.forcing import Rule, is_failed_set
from forcekit.graphs import build_family, connected_components, parse_family
from forcekit.linalg import (
    PatternMatrix,
    PatternMismatchError,
    kernel_basis,
    numerical_rank,
    rank_lower_bound_check,
    sample_pattern_matrix,
    shifted_singular_matrix,
    support_implies_failed,
    support_zero_sets,
    weighted_laplacian,
)

from forcekit.suites import run_linalg

from conftest import matrix_to_text, seeded_random_graph


def fam(text):
    return build_family(parse_family(text))


def pattern_of(entries, tol=1e-12):
    n = entries.shape[0]
    return {(i, j) for i in range(n) for j in range(i + 1, n)
            if abs(entries[i, j]) > tol}


class TestSampling:
    def test_empty_graph_gives_diagonal(self):
        m = sample_pattern_matrix(fam("empty:3"), seed=1)
        assert pattern_of(m.entries) == set()
        assert np.count_nonzero(m.entries - np.diag(np.diag(m.entries))) == 0

    def test_p2_offdiagonal_nonzero(self):
        m = sample_pattern_matrix(fam("path:2"), seed=2)
        assert abs(m.entries[0, 1]) >= 0.5

    @pytest.mark.parametrize("seed", range(8))
    def test_pattern_roundtrip(self, seed):
        g = seeded_random_graph(seed, 3 + seed % 6)
        m = sample_pattern_matrix(g, seed)
        assert pattern_of(m.entries) == set(g.edges())

    def test_deterministic_per_seed(self):
        g = fam("wheel:6")
        a = sample_pattern_matrix(g, 7).entries
        b = sample_pattern_matrix(g, 7).entries
        assert np.array_equal(a, b)

    # Entries as sampled by earlier releases: a seed names the same matrix
    # from one version to the next.
    @pytest.mark.parametrize("text,seed,rows", [
        ("path:3", 0, [
            [-1.9338894578858836, 1.4554425309821815, 0.0],
            [1.4554425309821815, 1.2530809568010897, -0.5614602859042921],
            [0.0, -0.5614602859042921, 1.6510223091108869]]),
        ("wheel:5", 3, [
            [-0.2774879183432888, -0.6284737507154365, 0.0,
             -1.7019116978095954, -1.3732430540965517],
            [-0.6284737507154365, 0.34719428575256295, -1.1496904103547108,
             0.0, -1.218576947211251],
            [0.0, -1.1496904103547108, 0.9513511491686408,
             -1.6018657271138217, -0.6705080298821051],
            [-1.7019116978095954, 0.0, -1.6018657271138217,
             1.8250690193443941, -1.2751102739320455],
            [-1.3732430540965517, -1.218576947211251, -0.6705080298821051,
             -1.2751102739320455, -0.8631953450048342]]),
    ])
    def test_entries_are_stable_across_versions(self, text, seed, rows):
        assert sample_pattern_matrix(fam(text), seed).entries.tolist() == rows

    def test_edge_magnitudes_in_band(self):
        m = sample_pattern_matrix(fam("complete:6"), seed=3)
        off = [abs(m.entries[i, j]) for i, j in pattern_of(m.entries)]
        assert all(0.5 <= v <= 2.0 for v in off)

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
            PatternMatrix(g, np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_asymmetry_within_float_tolerance(self):
        # np.allclose would let this through at its default rtol of 1e-5
        with pytest.raises(PatternMismatchError, match="not symmetric"):
            PatternMatrix(fam("path:2"), np.array([[0.0, 1.0], [1.000009, 0.0]]))

    def test_rejects_zero_at_edge(self):
        g = fam("path:2")
        with pytest.raises(PatternMismatchError):
            PatternMatrix(g, np.zeros((2, 2)))

    def test_rejects_nonzero_at_nonedge(self):
        g = fam("empty:2")
        with pytest.raises(PatternMismatchError):
            PatternMatrix(g, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_names_first_wrong_entry_in_row_major_order(self):
        # path 0-1-2: (0,2) is a nonzero non-edge, (1,2) a zero edge
        entries = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(PatternMismatchError,
                           match=r"^entry \(0,2\) nonzero contradicts"):
            PatternMatrix(fam("path:3"), entries)
        entries[0, 2] = entries[2, 0] = 0.0
        with pytest.raises(PatternMismatchError,
                           match=r"^entry \(1,2\) zero contradicts"):
            PatternMatrix(fam("path:3"), entries)

    def test_rejects_wrong_shape(self):
        with pytest.raises(PatternMismatchError):
            PatternMatrix(fam("path:3"), np.zeros((2, 2)))

    def test_patterns_are_kept_per_graph(self):
        # Edgeless graphs of different orders share an (empty) edge list
        # but not a pattern; once patterns are kept, each graph is still
        # validated against its own.
        for text in ("empty:3", "empty:5", "complete:1", "path:3"):
            m = sample_pattern_matrix(fam(text), seed=0)
            assert pattern_of(m.entries) == set(fam(text).edges())
        entries = np.eye(5)
        entries[1, 3] = entries[3, 1] = 1.0
        with pytest.raises(PatternMismatchError,
                           match=r"^entry \(1,3\) nonzero contradicts the graph pattern$"):
            PatternMatrix(fam("empty:5"), entries)
        PatternMatrix(fam("complete:1"), np.zeros((1, 1)))
        self.test_names_first_wrong_entry_in_row_major_order()

    def test_entries_are_read_only(self):
        m = sample_pattern_matrix(fam("path:3"), seed=0)
        with pytest.raises(ValueError, match="read-only"):
            m.entries[0, 0] = 1.0


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
        # A matrix's kernel basis and numerical rank read one SVD; taking
        # it again for each rank check made 778 of them.
        calls = [0]
        svd = np.linalg.svd

        def counting(*args, **kwargs):
            calls[0] += 1
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        run_linalg(0, trials=2, max_n=12)
        assert calls[0] == 526

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
        # -w with w in [0.5, 2] on exactly the edges, zero row sums, one
        # kernel direction per component
        g = fam(text)
        a = weighted_laplacian(g, seed=0).entries
        for i in range(g.n):
            for j in range(g.n):
                if g.adj[i] >> j & 1:
                    assert 0.5 <= -a[i, j] <= 2.0
                elif i != j:
                    assert a[i, j] == 0.0
        assert np.allclose(a.sum(axis=1), 0.0, atol=1e-12)
        assert (g.n - np.linalg.matrix_rank(a)
                == len(connected_components(g)))

    def test_entries_are_stable_across_versions(self):
        m = weighted_laplacian(fam("wheel:5"), seed=3)
        assert m.entries.tolist() == [
            [3.1856012084191816, -0.6284737507154365, 0.0,
             -0.8552157598941496, -1.7019116978095954],
            [-0.6284737507154365, 2.6429097681725873, -1.3732430540965517,
             0.0, -0.6411929633605988],
            [0.0, -1.3732430540965517, 3.7415104116625137,
             -1.1496904103547108, -1.218576947211251],
            [-0.8552157598941496, 0.0, -1.1496904103547108,
             2.7445145422044783, -0.7396083719556179],
            [-1.7019116978095954, -0.6411929633605988, -1.218576947211251,
             -0.7396083719556179, 4.301289980337064]]

    @pytest.mark.parametrize("text,comps", [
        ("wheel:7", 1), ("cycle:3+path:2", 2), ("empty:3", 3),
        ("path:3+path:4+cycle:3", 3),
    ])
    def test_nullity_counts_components(self, text, comps):
        g = fam(text)
        assert len(connected_components(g)) == comps
        m = weighted_laplacian(g, seed=4)
        assert len(kernel_basis(m)) == comps
        assert m.psd

    @pytest.mark.parametrize("seed", range(6))
    def test_psd_certified(self, seed):
        g = seeded_random_graph(seed + 50, 8)
        m = weighted_laplacian(g, seed)
        eig = np.linalg.eigvalsh(m.entries)
        norm = np.linalg.norm(m.entries)
        assert eig.min() >= -1e-10 * max(norm, 1.0)


class TestKernelBasis:
    def test_connected_laplacian_spans_ones(self):
        m = weighted_laplacian(fam("wheel:6"), seed=1)
        basis = kernel_basis(m)
        assert len(basis) == 1
        v = basis[0]
        assert np.allclose(v, v[0] * np.ones_like(v), atol=1e-9)

    def test_identity_has_trivial_kernel(self):
        m = PatternMatrix(fam("empty:4"), np.eye(4))
        assert kernel_basis(m) == []

    def test_diagonal_zero_entry(self):
        m = PatternMatrix(fam("empty:3"), np.diag([2.0, 0.0, -1.0]))
        basis = kernel_basis(m)
        assert len(basis) == 1
        assert support_zero_sets(np.array(basis)) == [0b101]

    def test_zero_matrix_full_kernel(self):
        m = PatternMatrix(fam("empty:2"), np.zeros((2, 2)))
        assert len(kernel_basis(m)) == 2
        # exactly the standard basis, in order
        assert np.array_equal(np.array(kernel_basis(m)), np.eye(2))
        assert numerical_rank(m) == 0

    def test_orthonormal(self):
        m = weighted_laplacian(fam("empty:3+path:2"), seed=9)
        basis = np.array(kernel_basis(m))
        assert np.allclose(basis @ basis.T, np.eye(len(basis)), atol=1e-9)


class TestSupportImpliesFailed:
    def test_random_samples_on_c5(self):
        g = fam("cycle:5")
        for seed in range(50):
            rep = support_implies_failed(sample_pattern_matrix(g, seed),
                                         Rule.STANDARD, trials=5, seed=seed)
            assert rep.passed

    def test_singular_matrices_on_families(self):
        for text in ("cycle:5", "path:7", "wheel:6", "biclique:3,2",
                     "halfgraph:3"):
            g = fam(text)
            for seed in range(20):
                rep = support_implies_failed(
                    shifted_singular_matrix(g, seed), Rule.STANDARD,
                    trials=5, seed=seed)
                assert rep.passed, (text, seed)

    def test_laplacians_under_psd_rule(self):
        for text in ("cycle:6", "complete:4", "cycle:3+path:2",
                     "empty:2+path:3"):
            g = fam(text)
            for seed in range(20):
                rep = support_implies_failed(weighted_laplacian(g, seed),
                                             Rule.PSD, trials=5, seed=seed)
                assert rep.passed, (text, seed)

    def test_isolated_vertex_certificate(self):
        # diag(0, 1) on two isolated vertices: kernel e1, zero set {1}
        g = fam("empty:2")
        m = PatternMatrix(g, np.diag([0.0, 1.0]))
        rep = support_implies_failed(m, Rule.STANDARD, trials=3, seed=0)
        assert rep.passed

    @pytest.fixture
    def checked(self, monkeypatch):
        """The zero sets passed to is_failed_set, in order; the sets in
        ``forcing`` are reported as forcing."""
        calls = []
        forcing = set()

        def recording(g, zero_set, rule):
            calls.append(zero_set)
            return zero_set not in forcing and is_failed_set(g, zero_set, rule)

        monkeypatch.setattr(linalg, "is_failed_set", recording)
        return calls, forcing

    def test_each_distinct_zero_set_checked_once(self, checked):
        # kernel e0, e1 (zero sets 0b110, 0b101 from the basis and again
        # from its sparsification) and three combinations (zero set 0b100)
        calls, _ = checked
        m = PatternMatrix(fam("empty:3"), np.diag([0.0, 0.0, 1.0]))
        rep = support_implies_failed(m, Rule.STANDARD, trials=3, seed=0)
        assert rep.passed
        assert rep.observed == "7 vectors failed"
        assert sorted(calls) == [0b100, 0b101, 0b110]
        assert calls[-1] == 0b100

    def test_one_zero_set_for_a_connected_laplacian(self, checked):
        calls, _ = checked
        rep = support_implies_failed(weighted_laplacian(fam("wheel:6"), 1),
                                     Rule.PSD, trials=5, seed=2)
        assert rep.observed == "7 vectors failed"
        assert calls == [0]

    @pytest.mark.parametrize("forces", [0b110, 0b100])
    def test_forcing_zero_set_is_named(self, checked, forces):
        calls, forcing = checked
        forcing.add(forces)
        m = PatternMatrix(fam("empty:3"), np.diag([0.0, 0.0, 1.0]))
        rep = support_implies_failed(m, Rule.STANDARD, trials=3, seed=0)
        assert not rep.passed
        assert rep.observed == f"zero set {forces:#x} of a kernel vector forces"
        assert calls[-1] == forces

    def test_zero_vector_has_no_support(self):
        with pytest.raises(ValueError, match="zero vector"):
            support_zero_sets(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_psd_rule_needs_psd_matrix(self):
        g = fam("path:3")
        with pytest.raises(PatternMismatchError):
            support_implies_failed(sample_pattern_matrix(g, 0), Rule.PSD)


class TestRankBound:
    def test_paths_nearly_full_rank(self):
        spec = parse_family("path:8")
        g = build_family(spec)
        for seed in range(20):
            rep = rank_lower_bound_check(spec, sample_pattern_matrix(g, seed))
            assert rep.passed

    def test_complete_graphs(self):
        spec = parse_family("complete:5")
        g = build_family(spec)
        for seed in range(20):
            rep = rank_lower_bound_check(spec, shifted_singular_matrix(g, seed))
            assert rep.passed

    def test_c6_laplacian(self):
        spec = parse_family("cycle:6")
        m = weighted_laplacian(build_family(spec), seed=2)
        assert numerical_rank(m) == 5
        assert rank_lower_bound_check(spec, m).passed  # 5 >= mr = 4


class TestSerialization:
    def test_text_round_trip(self):
        m = sample_pattern_matrix(fam("wheel:5"), seed=3)
        text = matrix_to_text(m)
        back = np.array([[float(x) for x in line.split()]
                         for line in text.strip().splitlines()])
        assert np.array_equal(back, m.entries)
