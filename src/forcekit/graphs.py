"""Bitmask graph core: representation, family generators, structure predicates.

A graph on n <= 63 vertices is stored as one neighbor bitmask per vertex, so
every vertex subset is a plain ``int`` and all set algebra is single-word
bit arithmetic.  Vertex sets produced and consumed throughout the package are
these masks; ``bits()`` / ``mask_of()`` convert to and from index lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, NamedTuple

MAX_VERTICES = 63

# A vertex subset encoded as a bitmask (bit v set <=> vertex v in the set).
VertexSet = int


class GraphFormatError(ValueError):
    """Malformed edge-list text."""


class FamilyError(ValueError):
    """Unknown family kind or parameters outside generator bounds."""


def bits(mask: VertexSet) -> list[int]:
    """Decode a bitmask into its sorted list of vertex indices."""
    if mask < 0:
        raise ValueError(f"a vertex set is a nonnegative mask, got {mask}")
    out = []
    while mask:
        lsb = mask & -mask
        out.append(lsb.bit_length() - 1)
        mask ^= lsb
    return out


def mask_of(vertices) -> VertexSet:
    """Encode an iterable of vertex indices as a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph as per-vertex neighbor bitmasks.

    Invariants enforced on construction: no loops, symmetric adjacency,
    no bits at or above ``n``, and 1 <= n <= 63.  Facts derived from the
    adjacency (``full_mask``, ``twin_pairs``, ``edge_pairs``,
    ``components``, ``size``) are computed on first use and kept for the
    graph's lifetime; they take no part in ==, hash or repr.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside 1..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & (1 << v):
                raise ValueError(f"loop at vertex {v}")
            if row & ~full:
                raise ValueError(f"vertex {v} has neighbors outside 0..{self.n - 1}")
        for v, row in enumerate(self.adj):
            for u in bits(row):
                if not self.adj[u] & (1 << v):
                    raise ValueError(f"asymmetric edge {v}-{u}")

    @cached_property
    def full_mask(self) -> VertexSet:
        return (1 << self.n) - 1

    @cached_property
    def twin_pairs(self) -> tuple[tuple[int, int, bool], ...]:
        """All pairs {u, v} with identical neighborhoods outside the pair,
        as (u, v, adjacent) triples with u < v in lexicographic order.
        Non-adjacent pairs are similar vertices, adjacent ones modules."""
        adj = self.adj
        return tuple((u, v, bool(adj[u] >> v & 1))
                     for u in range(self.n) for v in range(u + 1, self.n)
                     if adj[u] & ~(1 << v) == adj[v] & ~(1 << u))

    @cached_property
    def edge_pairs(self) -> tuple[tuple[int, int], ...]:
        """The edges, as ``edges()`` lists them."""
        return tuple((u, v) for u in range(self.n)
                     for v in bits(self.adj[u] >> (u + 1) << (u + 1)))

    @cached_property
    def components(self) -> tuple[VertexSet, ...]:
        """The connected components, by least vertex."""
        return tuple(comp for comp, _ in component_reaches(self, self.full_mask))

    @cached_property
    def size(self) -> int:
        """The number of edges, half the degree sum."""
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        return list(self.edge_pairs)

    def edge_count(self) -> int:
        return self.size


def graph_from_edges(n: int, edges) -> Graph:
    # the order is checked before [0] * n allocates for it
    if not (type(n) is int and 1 <= n <= MAX_VERTICES):
        raise ValueError(f"vertex count {n!r} outside 1..{MAX_VERTICES}")
    adj = [0] * n
    for u, v in edges:
        if type(u) is not int or type(v) is not int:
            raise ValueError(f"edge ({u!r}, {v!r}) has an endpoint that is "
                             "not an int")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------

class _Family(NamedTuple):
    """A row of ``_FAMILIES``.  ``checks`` holds the (condition, message)
    pairs the parameters must meet, in order; a message is formatted with
    the parameters, ``kind`` and ``label``."""

    arity: int
    checks: tuple
    edges: Callable[..., list]  # of the canonical labeled instance
    order: Callable[..., int] = lambda n: n


_TOO_BIG = f"{{label}} has more than {MAX_VERTICES} vertices"


def _at_least(lo: int) -> tuple:
    return ((lambda n: n >= lo, f"{{kind}} needs parameter >= {lo}, got {{0}}"),)


# Labeling conventions: a path or cycle runs 0, 1, ..., n-1; the wheel rim
# is the cycle 0..n-2 with the hub last; biclique parts are 0..m-1 and
# m..m+n-1; hypercube vertices are their binary labels, adjacent iff the
# labels differ in exactly one bit; half-graph parts are 0..s-1 and
# s..2s-1 with a ~ s+b iff a <= b; marytree is filled level by level
# (vertex k's parent is (k-1) // m).  A hypercube's order 2^d is capped
# through d, so that no absurd d builds a huge 1 << d.
_FAMILIES = {
    "path": _Family(1, _at_least(1), lambda n: [(i, i + 1) for i in range(n - 1)]),
    "cycle": _Family(1, _at_least(3), lambda n: [
        (i, (i + 1) % n) for i in range(n)]),
    "complete": _Family(1, _at_least(1), lambda n: [
        (i, j) for i in range(n) for j in range(i + 1, n)]),
    "wheel": _Family(1, _at_least(4), lambda n: [
        e for i in range(n - 1) for e in ((i, (i + 1) % (n - 1)), (i, n - 1))]),
    "biclique": _Family(
        2, ((lambda m, n: min(m, n) >= 1, "biclique needs both part sizes >= 1"),),
        lambda m, n: [(i, m + j) for i in range(m) for j in range(n)],
        lambda m, n: m + n),
    "hypercube": _Family(
        1, _at_least(1) + ((lambda d: d < MAX_VERTICES.bit_length(), _TOO_BIG),),
        lambda d: [(v, v | 1 << b) for v in range(1 << d) for b in range(d)
                   if not v & 1 << b],
        lambda d: 1 << d),
    "halfgraph": _Family(1, _at_least(1), lambda s: [
        (a, s + b) for a in range(s) for b in range(a, s)], lambda s: 2 * s),
    "marytree": _Family(
        2, ((lambda m, n: m >= 2, "marytree arity must be >= 2"),
            (lambda m, n: n >= 1, "marytree needs at least one vertex")),
        lambda m, n: [((j - 1) // m, j) for j in range(1, n)], lambda m, n: n),
    "empty": _Family(1, _at_least(1), lambda n: []),
}
FAMILY_KINDS = tuple(_FAMILIES)


@dataclass(frozen=True)
class FamilySpec:
    """A named family instance, or a disjoint union of such instances.

    For plain instances ``kind`` is one of FAMILY_KINDS and ``params`` holds
    the generator parameters.  A union has ``kind == "union"`` and its members
    in ``members``.
    """

    kind: str
    params: tuple[int, ...] = ()
    members: tuple["FamilySpec", ...] = field(default=())

    def __post_init__(self):
        if self.kind == "union":
            if len(self.members) < 2:
                raise FamilyError("union needs at least two members")
            if any(m.kind == "union" for m in self.members):
                raise FamilyError("nested unions are not supported")
            if self.order() > MAX_VERTICES:
                raise FamilyError(f"union has {self.order()} vertices > "
                                  f"{MAX_VERTICES}")
            return
        row = _FAMILIES.get(self.kind)
        if row is None:
            raise FamilyError(f"unknown family kind {self.kind!r}")
        if len(self.params) != row.arity:
            raise FamilyError(f"{self.kind} takes {row.arity} parameter(s), "
                              f"got {len(self.params)}")
        if any(type(p) is not int for p in self.params):
            raise FamilyError(f"{self.kind} takes int parameters, got {self.params}")
        for holds, message in row.checks:
            if not holds(*self.params):
                raise FamilyError(message.format(*self.params, kind=self.kind,
                                                 label=self.label()))
        if self.order() > MAX_VERTICES:
            raise FamilyError(_TOO_BIG.format(label=self.label()))

    def order(self) -> int:
        """Number of vertices of the generated instance."""
        if self.kind == "union":
            return sum(m.order() for m in self.members)
        return _FAMILIES[self.kind].order(*self.params)

    def label(self) -> str:
        if self.kind == "union":
            return "+".join(m.label() for m in self.members)
        return f"{self.kind}:" + ",".join(str(p) for p in self.params)


def _decimal(text: str) -> int:
    """An optionally signed ASCII decimal, spaces around it allowed; a
    ValueError otherwise (int() alone also takes "_" and non-ASCII digits)."""
    digits = text.strip().lstrip("+-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def parse_family(text: str) -> FamilySpec:
    """Parse the family DSL, e.g. ``"wheel:7"`` or ``"cycle:3+path:2"``."""
    parts = [p.strip() for p in text.split("+")]
    specs = []
    for part in parts:
        if ":" not in part:
            raise FamilyError(f"bad family syntax {part!r}, expected kind:params")
        kind, _, arg = part.partition(":")
        kind = kind.strip()
        if kind == "union":  # the DSL writes a union with "+"
            raise FamilyError(f"unknown family kind {kind!r}")
        try:
            params = tuple(_decimal(x) for x in arg.split(","))
        except ValueError:
            raise FamilyError(f"non-integer parameter in {part!r}") from None
        specs.append(FamilySpec(kind, params))
    if len(specs) == 1:
        return specs[0]
    return FamilySpec("union", members=tuple(specs))


def build_family(spec: FamilySpec) -> Graph:
    """Build the canonical labeled instance of a family spec."""
    if spec.kind == "union":
        g = build_family(spec.members[0])
        for member in spec.members[1:]:
            g = disjoint_union(g, build_family(member))
        return g
    return graph_from_edges(spec.order(), _FAMILIES[spec.kind].edges(*spec.params))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union with g2's vertices relabeled after g1's."""
    n = g1.n + g2.n
    if n > MAX_VERTICES:
        raise FamilyError(f"union has {n} vertices > {MAX_VERTICES}")
    shifted = tuple(row << g1.n for row in g2.adj)
    return Graph(n, g1.adj + shifted)


# ---------------------------------------------------------------------------
# Components and structure predicates
# ---------------------------------------------------------------------------

def component_reaches(g: Graph,
                      sub: VertexSet) -> Iterator[tuple[VertexSet, VertexSet]]:
    """Yield each connected component of the subgraph induced by ``sub``,
    by least vertex, with the union of its vertices' neighborhoods, from
    one breadth-first walk per component."""
    adj = g.adj
    rest = sub  # the vertices of sub no walk has reached yet
    while rest:
        comp = frontier = rest & -rest
        rest ^= comp
        reach = 0
        while frontier:
            while frontier:
                lsb = frontier & -frontier
                frontier ^= lsb
                reach |= adj[lsb.bit_length() - 1]
            frontier = reach & rest
            rest ^= frontier
            comp |= frontier
        yield comp, reach


def components_within(g: Graph, sub: VertexSet) -> list[VertexSet]:
    """Connected components of the subgraph induced by ``sub``, by least vertex."""
    return [comp for comp, _ in component_reaches(g, sub)]


def connected_components(g: Graph) -> list[VertexSet]:
    return list(g.components)


def is_connected(g: Graph) -> bool:
    return len(g.components) == 1


def has_isolated_vertex(g: Graph) -> bool:
    return any(row == 0 for row in g.adj)


def is_tree(g: Graph) -> bool:
    """Connected with exactly n - 1 edges."""
    return g.size == g.n - 1 and is_connected(g)


def is_cycle_graph(g: Graph) -> bool:
    return (g.n >= 3 and g.size == g.n and is_connected(g)
            and all(g.degree(v) == 2 for v in range(g.n)))


def is_complete(g: Graph) -> bool:
    return g.size == g.n * (g.n - 1) // 2


def is_empty_graph(g: Graph) -> bool:
    return g.size == 0


def has_module_order2(g: Graph) -> bool:
    return bool(g.twin_pairs)


def has_adjacent_module_order2(g: Graph) -> bool:
    return any(adj for _, _, adj in g.twin_pairs)


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------

def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: header line ``n m`` then m lines ``u v``.

    Rejects loops, duplicate edges (in either orientation) and out-of-range
    indices.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise GraphFormatError("empty input")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphFormatError(f"bad header {lines[0]!r}, expected 'n m'")
    try:
        n, m = _decimal(header[0]), _decimal(header[1])
    except ValueError:
        raise GraphFormatError(f"non-integer header {lines[0]!r}") from None
    if not 1 <= n <= MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} outside 1..{MAX_VERTICES}")
    if len(lines) - 1 != m:
        raise GraphFormatError(f"header promises {m} edges, found {len(lines) - 1}")
    seen = set()
    edges = []
    for ln in lines[1:]:
        fields = ln.split()
        if len(fields) != 2:
            raise GraphFormatError(f"bad edge line {ln!r}")
        try:
            u, v = _decimal(fields[0]), _decimal(fields[1])
        except ValueError:
            raise GraphFormatError(f"non-integer edge line {ln!r}") from None
        if u == v:
            raise GraphFormatError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge {u} {v} out of range for n={n}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphFormatError(f"duplicate edge {u} {v}")
        seen.add(key)
        edges.append(key)
    return graph_from_edges(n, edges)
