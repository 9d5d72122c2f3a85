"""Color-change rules and set classification.

The derived set is reached in synchronous rounds: each round colors every
white vertex that some blue vertex forces against the coloring at its
start.  Both rules are monotone, so the final coloring is the same in
whatever order the forces are applied.
"""

from __future__ import annotations

import enum

from .graphs import Graph, VertexSet, components_within


class Rule(enum.Enum):
    """Which color-change rule drives the forcing process."""

    STANDARD = "standard"
    PSD = "psd"


def _check_subset(g: Graph, blue: VertexSet) -> None:
    if blue & ~g.full_mask:
        raise ValueError("blue set has bits outside the graph's vertices")


# Looking a member up on the enum class costs ~150 ns; the kernels run often.
_STANDARD = Rule.STANDARD


def _scopes(g: Graph, white: VertexSet, rule: Rule):
    """Where a blue vertex must see exactly one white neighbor to force it:
    the whole white set under the standard rule, each white component under
    PSD.  This is the only difference between the two rules."""
    return (white,) if rule is _STANDARD else components_within(g, white)


def _forced(g: Graph, blue: VertexSet, rule: Rule) -> VertexSet:
    """The white vertices that some blue vertex forces against the current
    coloring."""
    adj = g.adj
    forced = 0
    for scope in _scopes(g, g.full_mask & ~blue, rule):
        b = blue
        while b:
            lsb = b & -b
            b ^= lsb
            m = adj[lsb.bit_length() - 1] & scope
            if m and not m & (m - 1):
                forced |= m
    return forced


def can_force_into(g: Graph, white: VertexSet, rule: Rule) -> bool:
    """True when some color change applies while exactly the vertices of
    white are white; returns at the first force found.  A nonempty white
    set is a fort exactly when this is False."""
    adj = g.adj
    blue = g.full_mask & ~white
    for scope in _scopes(g, white, rule):
        b = blue
        while b:
            lsb = b & -b
            b ^= lsb
            m = adj[lsb.bit_length() - 1] & scope
            if m and not m & (m - 1):
                return True
    return False


def derived_set(g: Graph, blue: VertexSet, rule: Rule) -> VertexSet:
    """The final coloring reached from blue (the hot path of the searches)."""
    _check_subset(g, blue)
    while forced := _forced(g, blue, rule):
        blue |= forced
    return blue


def is_forcing_set(g: Graph, s: VertexSet, rule: Rule) -> bool:
    return derived_set(g, s, rule) == g.full_mask


def is_failed_set(g: Graph, s: VertexSet, rule: Rule) -> bool:
    return not is_forcing_set(g, s, rule)


def is_stalled(g: Graph, s: VertexSet, rule: Rule) -> bool:
    """True when s is a proper subset admitting no color change.

    The full vertex set is never stalled (stalledness is defined for proper
    subsets only).
    """
    _check_subset(g, s)
    return s != g.full_mask and not can_force_into(g, g.full_mask & ~s, rule)
