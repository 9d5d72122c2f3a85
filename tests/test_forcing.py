import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcekit.forcing import (
    Rule,
    _force,
    derived_set,
    is_failed_set,
    is_forcing_set,
    is_fort,
    is_stalled,
)
from forcekit.graphs import bits, build_family, parse_family
from forcekit.search import brute_failed_number, failed_number, zero_forcing_number
from forcekit.suites import _edge_mask_classes

from conftest import _neighbor_sets, _set_components, graph_from_edge_mask, \
    graph_with_subset, graphs, reference_closure

BOTH = (Rule.STANDARD, Rule.PSD)


def fam(text):
    return build_family(parse_family(text))


class TestStep:
    """Hand-checked final colorings of small paths and cycles."""

    def test_p3_endpoint_standard(self):
        assert derived_set(fam("path:3"), 0b001, Rule.STANDARD) == 0b111

    def test_c4_single_stalls(self):
        assert derived_set(fam("cycle:4"), 0b0001, Rule.STANDARD) == 0b0001

    def test_p3_center_psd_forces_both(self):
        assert derived_set(fam("path:3"), 0b010, Rule.PSD) == 0b111

    def test_simultaneous_not_sequential(self):
        # 0-1-2-3 with blue {1,2}: each endpoint is forced by its blue
        # neighbor, neither force waiting on the other
        assert derived_set(fam("path:4"), 0b0110, Rule.STANDARD) == 0b1111

    def test_rejects_stray_bits(self):
        with pytest.raises(ValueError):
            derived_set(fam("path:2"), 0b100, Rule.STANDARD)


class TestClosure:
    def test_p5_endpoint_forces_all(self):
        g = fam("path:5")
        assert derived_set(g, 0b00001, Rule.STANDARD) == g.full_mask

    def test_c5_single_vertex_psd_stalls(self):
        assert derived_set(fam("cycle:5"), 0b00001, Rule.PSD) == 0b00001

    def test_c5_any_two_vertices_psd_force(self):
        g = fam("cycle:5")
        for u, v in itertools.combinations(range(5), 2):
            assert derived_set(g, (1 << u) | (1 << v), Rule.PSD) == g.full_mask

    @settings(max_examples=80)
    @given(graph_with_subset(), st.sampled_from(BOTH))
    def test_matches_async_oracle(self, gs, rule):
        g, sub = gs
        assert derived_set(g, sub, rule) == reference_closure(g, sub, rule)

    @settings(max_examples=80)
    @given(graph_with_subset(), st.sampled_from(BOTH))
    def test_idempotent(self, gs, rule):
        g, sub = gs
        once = derived_set(g, sub, rule)
        assert derived_set(g, once, rule) == once

    @settings(max_examples=80)
    @given(graph_with_subset(), st.integers(0, (1 << 7) - 1),
           st.sampled_from(BOTH))
    def test_monotone(self, gs, extra, rule):
        g, small = gs
        big = (small | extra) & g.full_mask
        sub_closure = derived_set(g, small, rule)
        sup_closure = derived_set(g, big, rule)
        assert sub_closure & ~sup_closure == 0

    @settings(max_examples=100)
    @given(graph_with_subset(max_n=8), st.integers(0, 7),
           st.sampled_from(BOTH))
    def test_incremental_closure(self, gs, v, rule):
        # cl(cl(S) + v) == cl(S + v): the minimum-forcing-set search builds
        # each node's closure from its parent's
        g, sub = gs
        bit = 1 << (v % g.n)
        assert (derived_set(g, derived_set(g, sub, rule) | bit, rule)
                == derived_set(g, sub | bit, rule))

    @settings(max_examples=80)
    @given(graph_with_subset())
    def test_standard_within_psd(self, gs):
        g, sub = gs
        std = derived_set(g, sub, Rule.STANDARD)
        psd = derived_set(g, sub, Rule.PSD)
        assert std & ~psd == 0

    def test_every_small_graph_and_subset(self):
        # every labeled graph with n <= 5, and one graph from each of the
        # 156 isomorphism classes of order 6 (whose white sets often have
        # three or more components), every subset, both rules: the
        # one-force-at-a-time closure reaches the oracle's coloring, and a
        # set is stalled exactly when the oracle leaves it as it is.  The
        # kernel returns 0 exactly then, and otherwise one white vertex
        # that is some blue vertex's only white neighbor in its scope
        small = [graph_from_edge_mask(n, edges) for n in range(1, 6)
                 for edges in range(1 << (n * (n - 1) // 2))]
        order6 = [graph_from_edge_mask(6, edges)
                  for edges, _ in _edge_mask_classes(6)]
        cases = 0
        for g in small + order6:
            nbrs = _neighbor_sets(g)
            for sub in range(g.full_mask + 1):
                blue = set(bits(sub))
                white = set(range(g.n)) - blue
                for rule in BOTH:
                    ref = reference_closure(g, sub, rule)
                    assert derived_set(g, sub, rule) == ref
                    assert is_stalled(g, sub, rule) == (
                        ref == sub and sub != g.full_mask)
                    forced = _force(g, sub, rule)
                    assert (forced == 0) == (ref == sub)
                    if forced:
                        assert not forced & (forced - 1) and not forced & sub
                        v = forced.bit_length() - 1
                        scope = white if rule is Rule.STANDARD else next(
                            c for c in _set_components(nbrs, white) if v in c)
                        assert any(nbrs[u] & scope == {v} for u in blue)
                    cases += 1
        assert cases == 67_732 + 19_968


class TestClassification:
    def test_k3_empty_set_failed(self):
        assert is_failed_set(fam("complete:3"), 0, Rule.STANDARD)

    def test_k3_pair_forces(self):
        assert is_forcing_set(fam("complete:3"), 0b011, Rule.STANDARD)

    def test_isolated_vertex_left_white(self):
        assert is_failed_set(fam("empty:2"), 0b01, Rule.STANDARD)
        assert is_failed_set(fam("empty:2"), 0b01, Rule.PSD)

    @settings(max_examples=60)
    @given(graph_with_subset(), st.sampled_from(BOTH))
    def test_complementary(self, gs, rule):
        g, sub = gs
        assert is_forcing_set(g, sub, rule) != is_failed_set(g, sub, rule)


class TestStalled:
    def test_c4_opposite_pair(self):
        g = fam("cycle:4")
        assert is_stalled(g, 0b0101, Rule.STANDARD)
        # the white components are singletons, so the PSD rule forces them
        assert not is_stalled(g, 0b0101, Rule.PSD)

    def test_p2_singleton_forces(self):
        assert not is_stalled(fam("path:2"), 0b01, Rule.STANDARD)

    @settings(max_examples=40)
    @given(graphs(), st.sampled_from(BOTH))
    def test_full_set_never_stalled(self, g, rule):
        assert not is_stalled(g, g.full_mask, rule)

    @settings(max_examples=60)
    @given(graph_with_subset(), st.sampled_from(BOTH))
    def test_stalled_iff_fixed_proper_subset(self, gs, rule):
        g, sub = gs
        fixed = derived_set(g, sub, rule) == sub
        assert is_stalled(g, sub, rule) == (fixed and sub != g.full_mask)

    @settings(max_examples=80)
    @given(graph_with_subset(), st.sampled_from(BOTH))
    def test_stalled_iff_fixed_point_of_async_oracle(self, gs, rule):
        g, sub = gs
        fixed = reference_closure(g, sub, rule) == sub
        assert is_stalled(g, sub, rule) == (fixed and sub != g.full_mask)


@pytest.mark.parametrize("rule", ["standard", "psd", None, 0])
@pytest.mark.parametrize("ask", [
    lambda g, rule: derived_set(g, 0b1, rule),
    lambda g, rule: is_fort(g, 0b110, rule),
    lambda g, rule: is_fort(g, 0, rule),
    lambda g, rule: zero_forcing_number(g, rule),
    lambda g, rule: failed_number(g, rule),
    lambda g, rule: brute_failed_number(g, rule),
], ids=["derived_set", "is_fort", "is_fort_empty", "zero_forcing_number",
        "failed_number", "brute_failed_number"])
def test_a_rule_that_is_no_rule_is_a_type_error(ask, rule):
    # read as PSD, "standard" would give F(C5) = 1, the F+ value; F = 2
    with pytest.raises(TypeError, match="rule must be a Rule"):
        ask(fam("cycle:5"), rule)


class TestFort:
    @pytest.mark.parametrize("rule", BOTH)
    @pytest.mark.parametrize("bad", ["beyond", "negative"])
    def test_mask_outside_the_graph_is_a_value_error(self, rule, bad):
        # the same masks that is_stalled and derived_set refuse
        g = fam("cycle:4")
        w = 1 << g.n if bad == "beyond" else -1
        with pytest.raises(ValueError, match="outside the graph"):
            is_fort(g, w, rule)

    def test_stalled_is_fort_of_the_complement(self):
        # every subset of one graph from each isomorphism class of order
        # <= 5, both rules
        cases = 0
        for n in range(1, 6):
            for edges, _ in _edge_mask_classes(n):
                g = graph_from_edge_mask(n, edges)
                for s in range(g.full_mask + 1):
                    for rule in BOTH:
                        assert is_stalled(g, s, rule) == \
                            is_fort(g, g.full_mask & ~s, rule), (n, edges, s)
                        cases += 1
        assert cases == 2 * (2 * 1 + 4 * 2 + 8 * 4 + 16 * 11 + 32 * 34)
