"""Color-change rules and set classification.

The derived set is reached one force at a time: ``_force`` finds one
white vertex that some blue vertex forces, it turns blue, and the scan
repeats until no force applies.  Both rules are monotone, so the final
coloring is the same in whatever order the forces are applied.

A fort is a nonempty white set that admits no force, the complement of a
stalled set; ``is_fort`` is the one predicate: ``is_stalled`` asks it of
the complement, the PSD fort search of the components it has closed.  A
rule is a ``Rule`` member, and any other value is a TypeError.
"""

from __future__ import annotations

import enum

from .graphs import Graph, VertexSet
from .graphs import components_within  # noqa: F401  (traced by perfbench/tracing.py)


class Rule(enum.Enum):
    """Which color-change rule drives the forcing process."""

    STANDARD = "standard"
    PSD = "psd"


def _check_subset(g: Graph, blue: VertexSet) -> None:
    if blue & ~g.full_mask:
        raise ValueError("blue set has bits outside the graph's vertices")


# Looking a member up on the enum class costs ~150 ns; the kernels run often.
_STANDARD, _PSD = Rule.STANDARD, Rule.PSD


def _force(g: Graph, blue: VertexSet, rule: Rule) -> VertexSet:
    """The first force the scan finds against the current coloring: the
    forced white vertex as a one-bit mask, or 0 when no force applies.

    A blue vertex forces a white vertex when that is its only white
    neighbor in the scope: the whole white set under the standard rule,
    each connected component of the white subgraph under PSD.  Under PSD
    one breadth-first walk finds a component and its neighbors together,
    and only the blue neighbors are tested: a blue vertex with no neighbor
    in a component cannot force into it.  Any other rule is a TypeError.
    """
    adj = g.adj
    white = g.full_mask & ~blue
    if rule is _STANDARD:
        b = blue
        while b:
            lsb = b & -b
            b ^= lsb
            m = adj[lsb.bit_length() - 1] & white
            if m and not m & (m - 1):
                return m
        return 0
    if rule is not _PSD:
        raise TypeError(f"rule must be a Rule, got {rule!r}")
    rest = white  # the white vertices no walk has reached yet
    while rest:
        comp = frontier = rest & -rest
        rest ^= comp
        reach = 0  # the neighbors of comp, white or blue
        while frontier:
            while frontier:
                lsb = frontier & -frontier
                frontier ^= lsb
                reach |= adj[lsb.bit_length() - 1]
            frontier = reach & rest
            rest ^= frontier
            comp |= frontier
        b = reach & blue
        while b:
            lsb = b & -b
            b ^= lsb
            m = adj[lsb.bit_length() - 1] & comp  # never 0: b borders comp
            if not m & (m - 1):
                return m
    return 0


def is_fort(g: Graph, w: VertexSet, rule: Rule) -> bool:
    """A nonempty w is a fort when its complement is stalled.

    Standard rule: every outside vertex has 0 or >= 2 neighbors in w.
    PSD rule: the same holds within each connected component of G[w].
    """
    _check_subset(g, w)
    return not _force(g, g.full_mask & ~w, rule) and w != 0


def derived_set(g: Graph, blue: VertexSet, rule: Rule) -> VertexSet:
    """The final coloring reached from blue (the hot path of the searches)."""
    _check_subset(g, blue)
    while forced := _force(g, blue, rule):
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
    return is_fort(g, g.full_mask & ~s, rule)
