"""Bitmask graph core: representation, family generators, structure predicates.

A graph on n <= 63 vertices is stored as one neighbor bitmask per vertex, so
every vertex subset is a plain ``int`` and all set algebra is single-word
bit arithmetic.  Vertex sets produced and consumed throughout the package are
these masks; ``bits()`` / ``mask_of()`` convert to and from index lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

MAX_VERTICES = 63

# A vertex subset encoded as a bitmask (bit v set <=> vertex v in the set).
VertexSet = int


class GraphFormatError(ValueError):
    """Malformed edge-list text."""


class FamilyError(ValueError):
    """Unknown family kind or parameters outside generator bounds."""


def bits(mask: VertexSet) -> list[int]:
    """Decode a bitmask into its sorted list of vertex indices."""
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
    no bits at or above ``n``, and 1 <= n <= 63.
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

    @property
    def full_mask(self) -> VertexSet:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1) << (u + 1)):
                out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2


def graph_from_edges(n: int, edges) -> Graph:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------

FAMILY_KINDS = (
    "path", "cycle", "complete", "wheel", "biclique",
    "hypercube", "halfgraph", "marytree", "empty",
)

_FAMILY_ARITY = {k: 1 for k in FAMILY_KINDS}
_FAMILY_ARITY["biclique"] = 2
_FAMILY_ARITY["marytree"] = 2


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
            return
        if self.kind not in FAMILY_KINDS:
            raise FamilyError(f"unknown family kind {self.kind!r}")
        if len(self.params) != _FAMILY_ARITY[self.kind]:
            raise FamilyError(
                f"{self.kind} takes {_FAMILY_ARITY[self.kind]} parameter(s), "
                f"got {len(self.params)}")
        _check_family_bounds(self.kind, self.params)
        # A hypercube's order 2^d is capped through d, so that no absurd d
        # builds a huge 1 << d.
        too_big = (self.params[0] >= MAX_VERTICES.bit_length()
                   if self.kind == "hypercube" else self.order() > MAX_VERTICES)
        if too_big:
            raise FamilyError(f"{self.label()} has more than {MAX_VERTICES} "
                              "vertices")

    def order(self) -> int:
        """Number of vertices of the generated instance."""
        if self.kind == "union":
            return sum(m.order() for m in self.members)
        if self.kind == "biclique":
            return self.params[0] + self.params[1]
        if self.kind == "hypercube":
            return 1 << self.params[0]
        if self.kind == "halfgraph":
            return 2 * self.params[0]
        if self.kind == "marytree":
            return self.params[1]
        return self.params[0]

    def label(self) -> str:
        if self.kind == "union":
            return "+".join(m.label() for m in self.members)
        return f"{self.kind}:" + ",".join(str(p) for p in self.params)


def _check_family_bounds(kind: str, params: tuple[int, ...]) -> None:
    lo = {"path": 1, "cycle": 3, "complete": 1, "wheel": 4, "empty": 1,
          "halfgraph": 1, "hypercube": 1}
    if kind in lo and params[0] < lo[kind]:
        raise FamilyError(f"{kind} needs parameter >= {lo[kind]}, got {params[0]}")
    if kind == "biclique" and (params[0] < 1 or params[1] < 1):
        raise FamilyError("biclique needs both part sizes >= 1")
    if kind == "marytree":
        m, n = params
        if m < 2:
            raise FamilyError("marytree arity must be >= 2")
        if n < 1:
            raise FamilyError("marytree needs at least one vertex")


def parse_family(text: str) -> FamilySpec:
    """Parse the family DSL, e.g. ``"wheel:7"`` or ``"cycle:3+path:2"``."""
    parts = [p.strip() for p in text.split("+")]
    specs = []
    for part in parts:
        if ":" not in part:
            raise FamilyError(f"bad family syntax {part!r}, expected kind:params")
        kind, _, arg = part.partition(":")
        kind = kind.strip()
        try:
            params = tuple(int(x) for x in arg.split(","))
        except ValueError:
            raise FamilyError(f"non-integer parameter in {part!r}") from None
        specs.append(FamilySpec(kind, params))
    if len(specs) == 1:
        return specs[0]
    total = sum(s.order() for s in specs)
    if total > MAX_VERTICES:
        raise FamilyError(f"union has {total} vertices > {MAX_VERTICES}")
    return FamilySpec("union", members=tuple(specs))


def build_family(spec: FamilySpec) -> Graph:
    """Build the canonical labeled instance of a family spec.

    Labeling conventions: wheel rim is the cycle 0..n-2 with the hub last;
    hypercube vertices are their binary labels, adjacent iff the labels
    differ in exactly one bit; half-graph parts are 0..s-1 and s..2s-1 with
    a ~ s+b iff a <= b; marytree is filled level by level (vertex k's parent
    is (k-1) // m).
    """
    k, p = spec.kind, spec.params
    if k == "union":
        g = build_family(spec.members[0])
        for member in spec.members[1:]:
            g = disjoint_union(g, build_family(member))
        return g
    if k == "path":
        return graph_from_edges(p[0], [(i, i + 1) for i in range(p[0] - 1)])
    if k == "cycle":
        n = p[0]
        return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    if k == "complete":
        n = p[0]
        return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if k == "empty":
        return Graph(p[0], (0,) * p[0])
    if k == "wheel":
        n = p[0]
        rim = [(i, (i + 1) % (n - 1)) for i in range(n - 1)]
        spokes = [(i, n - 1) for i in range(n - 1)]
        return graph_from_edges(n, rim + spokes)
    if k == "biclique":
        m, n = p
        return graph_from_edges(m + n, [(i, m + j) for i in range(m) for j in range(n)])
    if k == "hypercube":
        d = p[0]
        n = 1 << d
        return graph_from_edges(n, [(v, v ^ (1 << b)) for v in range(n)
                                    for b in range(d) if v < v ^ (1 << b)])
    if k == "halfgraph":
        s = p[0]
        return graph_from_edges(2 * s, [(a, s + b) for a in range(s)
                                        for b in range(a, s)])
    if k == "marytree":
        m, n = p
        return graph_from_edges(n, [((j - 1) // m, j) for j in range(1, n)])
    raise FamilyError(f"unknown family kind {k!r}")


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

def components_within(g: Graph, sub: VertexSet) -> list[VertexSet]:
    """Connected components of the subgraph induced by ``sub``.

    Blocks are ordered by least vertex.
    """
    adj = g.adj
    comps = []
    rem = sub
    while rem:
        comp = rem & -rem
        frontier = comp
        while frontier:
            nxt = 0
            f = frontier
            while f:
                lsb = f & -f
                f ^= lsb
                nxt |= adj[lsb.bit_length() - 1]
            nxt &= sub & ~comp
            comp |= nxt
            frontier = nxt
        comps.append(comp)
        rem &= ~comp
    return comps


def connected_components(g: Graph) -> list[VertexSet]:
    return components_within(g, g.full_mask)


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1


def has_isolated_vertex(g: Graph) -> bool:
    return any(row == 0 for row in g.adj)


def is_tree(g: Graph) -> bool:
    """Connected with exactly n - 1 edges."""
    return g.edge_count() == g.n - 1 and is_connected(g)


def is_cycle_graph(g: Graph) -> bool:
    return (g.n >= 3 and is_connected(g)
            and all(g.degree(v) == 2 for v in range(g.n)))


def is_path_graph(g: Graph) -> bool:
    if g.n == 1:
        return True
    degs = sorted(g.degree(v) for v in range(g.n))
    return (is_tree(g) and degs[0] == degs[1] == 1
            and (g.n == 2 or degs[2] == 2) and degs[-1] <= 2)


def is_complete(g: Graph) -> bool:
    return g.edge_count() == g.n * (g.n - 1) // 2


def is_empty_graph(g: Graph) -> bool:
    return g.edge_count() == 0


def find_modules_order2(g: Graph) -> list[tuple[int, int, bool]]:
    """All pairs {u, v} with identical neighborhoods outside the pair.

    Returns (u, v, adjacent) triples with u < v.  Non-adjacent such pairs
    are similar vertices; adjacent ones are modules joined by an edge.
    """
    out = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.adj[u] & ~(1 << v) == g.adj[v] & ~(1 << u):
                out.append((u, v, bool(g.adj[u] & (1 << v))))
    return out


def has_module_order2(g: Graph) -> bool:
    return bool(find_modules_order2(g))


def has_adjacent_module_order2(g: Graph) -> bool:
    return any(adj for _, _, adj in find_modules_order2(g))


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
        n, m = int(header[0]), int(header[1])
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
            u, v = int(fields[0]), int(fields[1])
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
