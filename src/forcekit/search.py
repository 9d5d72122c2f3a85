"""Exact extremal search: minimum forcing sets and maximum failed sets.

Minimum forcing sets come from a depth-first branch-and-bound over subsets
pruned by closures; given a proven lower bound, a floor, it stops at the
first forcing set of that size.  Maximum failed sets come from minimum-fort
search: a fort is a nonempty vertex set W whose complement is stalled, so
the failed number is n - |minimum fort|, found by a depth-first search
that prunes with necessary conditions of the fort definition.  Its leaves,
and under PSD its closed components, are tested with ``forcing.is_fort``,
the one fort predicate.  The independent oracle,
``brute_failed_number``, tests the vertex sets by definition, sizes from n
down and each size's sets in ``combinations`` order.  Every larger set was
tested and forces, and ``combinations`` meets the sets of one size in
lexicographic order, so the first failed set found is the
lexicographically least largest one.

Both searches skip relabelings of twins.  Two vertices u < v are twins when
N(u) - v == N(v) - u; swapping them is an automorphism, so the forcing sets
and the forts are closed under the swap.  The lexicographically least
minimum forcing set (or fort) therefore contains u whenever it contains v:
otherwise the swap would give a smaller set of the same size.  So a search
adds v only to sets that hold v's previous twin, and finds the same witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .forcing import Rule, derived_set, is_fort
from .graphs import Graph, VertexSet, bits, component_reaches
from .graphs import components_within  # noqa: F401  (traced by perfbench/tracing.py)

DEFAULT_BUDGET = 20_000_000
BRUTE_FORCE_MAX_N = 20


class SearchBudgetExceeded(RuntimeError):
    """Raised when a search would examine more candidates than allowed."""


class _Budget:
    # progress: how far the search got, for the error message; a search
    # updates it whenever that changes
    __slots__ = ("left", "what", "progress")

    def __init__(self, limit: int | None, what: str, progress: str = ""):
        """limit None means DEFAULT_BUDGET; a negative one is a ValueError."""
        if limit is None:
            limit = DEFAULT_BUDGET
        elif limit < 0:
            raise ValueError(f"budget must be >= 0, got {limit}")
        self.left = limit
        self.what = what
        self.progress = progress

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise SearchBudgetExceeded(
                f"{self.what}: candidate budget exhausted{self.progress} "
                "(raise --budget, or shrink the instance)")


def _vertices(k: int) -> str:
    return "1 vertex" if k == 1 else f"{k} vertices"


def _previous_twins(g: Graph) -> list[VertexSet]:
    """For each vertex v, the bit of its largest twin below v, or 0 when v
    has none.  A search may add v only to a set that holds this bit."""
    prev = [0] * g.n
    for u, v, _ in g.twin_pairs:  # u ascending: the last u wins
        prev[v] = 1 << u
    return prev


@dataclass(frozen=True)
class ExtremalResult:
    """An extremal value with its witness set.

    method records how the value was obtained ("subset-search", "fort-search"
    or "brute-force").  The witness always has exactly ``value`` vertices
    and verifies under the forcing engine as forcing resp. failed.
    """

    value: int
    witness: VertexSet
    method: str

    def witness_vertices(self) -> list[int]:
        return bits(self.witness)


def zero_forcing_number(g: Graph, rule: Rule, budget: int | None = None,
                        *, floor: int = 0) -> ExtremalResult:
    """Smallest k admitting a forcing set of size k, with the
    lexicographically least witness.

    One depth-first branch-and-bound walks the subsets in lexicographic
    preorder.  A partial set is only extended by vertices above its last one
    and outside its closure (a member of a minimum forcing set is never in
    the closure of the others), and only while its children stay smaller
    than the least forcing set found so far, and only by vertices whose
    previous twin it holds (see the module docstring).  Preorder meets the
    sets of one size in lexicographic order, so the first one of minimum
    size found is the least.  A child's closure is cl(cl(S) + v), which is
    cl(S + v).

    floor is a proven lower bound on the answer: the search returns as soon
    as its incumbent has floor vertices.  That set is the first forcing set
    of its size that preorder meets, so the least one, and the bound proves
    it minimum: the value and witness stay those of the unfloored search,
    and only the node count falls.  A floor above the true value gives a
    wrong answer.  This package passes only Z+, the PSD value, as the floor
    of a standard search: every standard force is a PSD force, so
    Z+ <= Z.
    """
    tracker = _Budget(budget, "zero_forcing_number",
                      "; no forcing set found yet")
    n = g.n
    full = g.full_mask
    best, witness = n + 1, full  # the incumbent
    prev = _previous_twins(g)

    def extend(prefix: VertexSet, start: VertexSet, last: int, size: int):
        nonlocal best, witness
        tracker.spend()
        cl = derived_set(g, start, rule)
        if cl == full:  # every node is created below the incumbent's size
            best, witness = size, prefix
            tracker.progress = f"; smallest forcing set so far: {_vertices(size)}"
            return
        for v in range(last + 1, n):
            if size + 1 >= best or best <= floor:
                return
            if not cl & (1 << v) and not prev[v] & ~prefix:
                extend(prefix | (1 << v), cl | (1 << v), v, size + 1)

    extend(0, 0, -1, 0)
    return ExtremalResult(best, witness, "subset-search")


def _must_include(g: Graph, chosen: VertexSet, must: VertexSet,
                  outside: VertexSet, later: VertexSet,
                  rule: Rule) -> VertexSet | None:
    """Vertices that every fort W with chosen | must <= W <= chosen | later
    and W & outside == 0 contains, or None when no such fort exists.

    A vertex outside W must not have exactly one neighbor in W (standard)
    or in one component of G[W] (PSD); one neighbor in all of W is one in
    that neighbor's component, so (a) and (b) serve both rules:
    (a) an outside vertex with one neighbor in chosen | must and no
        neighbor in later & ~must keeps that one neighbor in every W: no fort;
    (b) if it has exactly one neighbor u in later & ~must, u is in every W;
    (c) PSD only: a component C of G[chosen | must] with no neighbor in
        later & ~must is a component of G[W] for every W, and its other
        neighbors lie outside W, so C must itself be a fort (``is_fort``).
    """
    adj = g.adj
    inside = chosen | must
    free = later & ~must
    grew = True
    while grew:
        grew = False
        rest = outside
        while rest:
            lsb = rest & -rest
            rest ^= lsb
            a = adj[lsb.bit_length() - 1]
            m = a & inside
            if m and not m & (m - 1):
                m = a & free
                if not m:
                    return None
                if not m & (m - 1):
                    inside |= m
                    free ^= m
                    grew = True
    if rule is Rule.PSD:
        for comp, reach in component_reaches(g, inside):
            if not reach & free and not is_fort(g, comp, rule):
                return None
    return inside & ~chosen


def min_fort(g: Graph, rule: Rule, budget: int | None = None) -> VertexSet:
    """Lexicographically least minimum-cardinality fort.

    For k = 1, 2, ... a depth-first search walks the k-subsets in
    lexicographic order, choosing vertices by increasing index, so the first
    fort it reaches is the one an ascending scan of ``combinations`` would
    return.  Vertices below the last choice that were skipped lie outside W;
    an inner node is pruned only when ``_must_include`` shows that no fort
    extends it, and the next choice never skips a vertex W must contain.
    A vertex is chosen only after its previous twin (see the module
    docstring).  One child loop serves every node: a child with vertices
    still to choose is a ``grow`` call, and a leaf is tested in the loop
    with ``is_fort``, as in prune (c) of ``_must_include``.  Every node, and
    every leaf tested, spends one unit of budget.  A fort always exists:
    the full vertex set is one (its complement is the stalled empty coloring).
    """
    tracker = _Budget(budget, "min_fort")
    n = g.n
    adj = g.adj
    full = g.full_mask
    prev = _previous_twins(g)

    def grow(chosen: VertexSet, must: VertexSet, nxt: int, left: int,
             reach: VertexSet) -> VertexSet | None:
        # reach: the neighbors of chosen; no prune applies while no outside
        # vertex is among them and must is empty
        tracker.spend()
        last = n - left
        outside = ((1 << nxt) - 1) & ~chosen
        if must or outside & reach:
            must = _must_include(g, chosen, must, outside,
                                 full >> nxt << nxt, rule)
            if must is None:
                return None
            need = must.bit_count()
            if need > left:
                return None
            if must:
                first = (must & -must).bit_length() - 1
                if need == left:
                    nxt = first
                last = min(last, first)
        for v in range(nxt, last + 1):
            if prev[v] & ~chosen:
                continue
            bit = 1 << v
            if left > 1:
                found = grow(chosen | bit, must & ~bit, v + 1, left - 1,
                             reach | adj[v])
                if found is not None:
                    return found
            else:  # a leaf: one unit; a grow call per leaf was slower
                tracker.spend()
                if is_fort(g, chosen | bit, rule):
                    return chosen | bit
        return None

    for k in range(1, n + 1):
        tracker.progress = f"; searching forts of {_vertices(k)}, none is smaller"
        w = grow(0, 0, 0, k, 0)
        if w is not None:
            return w
    raise AssertionError("unreachable: V itself is a fort")


def failed_number(g: Graph, rule: Rule, budget: int | None = None) -> ExtremalResult:
    """Maximum size of a failed set, as n - |minimum fort|.

    Complements of forts are exactly the stalled proper subsets, maximum
    failed sets are stalled, and any failed set is contained in its stalled
    derived set, so the maximum failed size is n minus the minimum fort size.
    """
    w = min_fort(g, rule, budget)
    witness = g.full_mask & ~w
    return ExtremalResult(g.n - w.bit_count(), witness, "fort-search")


def brute_failed_number(g: Graph, rule: Rule,
                        budget: int | None = None) -> ExtremalResult:
    """Independent oracle: the descending scan of the module docstring for
    the largest failed set; each set tested spends one unit of budget."""
    tracker = _Budget(budget, "brute_failed_number")
    if g.n > BRUTE_FORCE_MAX_N:
        raise SearchBudgetExceeded(
            f"brute_failed_number: n={g.n} exceeds the 2^n scan guard "
            f"(n <= {BRUTE_FORCE_MAX_N})")
    full = g.full_mask
    for k in range(g.n, -1, -1):
        tracker.progress = f"; testing sets of {_vertices(k)}, none larger is failed"
        for combo in combinations(range(g.n), k):
            tracker.spend()
            s = sum(1 << v for v in combo)
            if derived_set(g, s, rule) != full:
                return ExtremalResult(k, s, "brute-force")
    raise AssertionError("unreachable: the empty set never forces n >= 1")
