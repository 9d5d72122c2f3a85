"""Color-change rules: one-step operators, closures, and set classification.

Both rules use synchronous semantics: every force valid against the
pre-step coloring is applied at once, so the derived coloring and the
recorded trace are fully deterministic.  When several blue vertices can
force the same white vertex in one iteration, the trace credits the
least-index forcer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .graphs import Graph, VertexSet, components_within, mask_of


class Rule(enum.Enum):
    """Which color-change rule drives the forcing process."""

    STANDARD = "standard"
    PSD = "psd"


class Force(NamedTuple):
    forcer: int
    forced: int
    iteration: int


@dataclass(frozen=True)
class ForcingTrace:
    """Chronological record of all forces performed during a closure."""

    steps: tuple[Force, ...]

    def replay(self, initial: VertexSet) -> VertexSet:
        mask = initial
        for f in self.steps:
            mask |= 1 << f.forced
        return mask


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


def _forces(g: Graph, blue: VertexSet, rule: Rule) -> dict[int, int]:
    """forced vertex -> least blue forcer, against the current coloring."""
    adj = g.adj
    forced: dict[int, int] = {}
    for scope in _scopes(g, g.full_mask & ~blue, rule):
        b = blue
        while b:
            lsb = b & -b
            b ^= lsb
            u = lsb.bit_length() - 1
            m = adj[u] & scope
            if m and not m & (m - 1):
                v = m.bit_length() - 1
                if v not in forced:
                    forced[v] = u
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


def step(g: Graph, blue: VertexSet, rule: Rule) -> tuple[VertexSet, list[Force]]:
    """Apply one synchronous round of the rule; returns the new blue set and
    the forces performed, ordered by forced vertex."""
    _check_subset(g, blue)
    forced = _forces(g, blue, rule)
    return blue | mask_of(forced), [Force(forced[v], v, 1) for v in sorted(forced)]


def closure(g: Graph, blue: VertexSet, rule: Rule) -> tuple[VertexSet, ForcingTrace]:
    """Iterate the rule to its fixpoint (the derived coloring)."""
    _check_subset(g, blue)
    steps: list[Force] = []
    iteration = 0
    while True:
        forced = _forces(g, blue, rule)
        if not forced:
            return blue, ForcingTrace(tuple(steps))
        iteration += 1
        steps.extend(Force(forced[v], v, iteration) for v in sorted(forced))
        blue |= mask_of(forced)


def derived_set(g: Graph, blue: VertexSet, rule: Rule) -> VertexSet:
    """Closure without trace bookkeeping (the hot path for searches)."""
    _check_subset(g, blue)
    while True:
        forced = _forces(g, blue, rule)
        if not forced:
            return blue
        for v in forced:
            blue |= 1 << v


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
