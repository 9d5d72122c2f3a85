import random
from itertools import combinations

from hypothesis import strategies as st

from forcekit.forcing import Rule, derived_set
from forcekit.graphs import (
    Graph,
    VertexSet,
    bits,
    build_family,
    graph_from_edges,
    is_tree,
    mask_of,
)
from forcekit.linalg import PatternMatrix
from forcekit.search import (
    BRUTE_FORCE_MAX_N,
    SearchBudgetExceeded,
    _Budget,
    brute_failed_number,
    failed_number,
)
from forcekit.suites import (
    _characterize,
    _finish,
    _new_result,
    _record,
    default_family_specs,
    graph_from_edge_mask,
)
from forcekit.theorems import TheoremReport


def graph_from_edge_pairs(n: int, mask: int) -> Graph:
    """The pair-list reading of an edge mask, the oracle for
    ``graph_from_edge_mask``: bit k stands for the k-th pair (i, j), i < j,
    in lexicographic order, and the set pairs go to ``graph_from_edges``."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return graph_from_edges(n, [p for k, p in enumerate(pairs) if mask >> k & 1])


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 7):
    n = draw(st.integers(min_n, max_n))
    mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return graph_from_edge_mask(n, mask)


@st.composite
def twin_graphs(draw, max_n: int = 9):
    """A random graph with planted twins: vertices of a random graph are
    cloned one at a time, each as a true twin (adjacent to its original)
    or a false twin, and the result is relabeled at random so that twins
    land anywhere in the vertex order.  Random graphs alone seldom have
    twins."""
    base = draw(graphs(1, 6))
    nbrs = [set(bits(a)) for a in base.adj]
    for _ in range(draw(st.integers(1, max_n - base.n))):
        src = draw(st.integers(0, len(nbrs) - 1))
        clone = set(nbrs[src]) | ({src} if draw(st.booleans()) else set())
        for u in clone:
            nbrs[u].add(len(nbrs))
        nbrs.append(clone)
    perm = draw(st.permutations(range(len(nbrs))))
    edges = {tuple(sorted((perm[u], perm[v])))
             for u, vs in enumerate(nbrs) for v in vs}
    return graph_from_edges(len(nbrs), sorted(edges))


@st.composite
def graph_with_subset(draw, min_n: int = 1, max_n: int = 7):
    g = draw(graphs(min_n, max_n))
    sub = draw(st.integers(0, g.full_mask))
    return g, sub


def _set_components(nbrs: list[set[int]], verts: set[int]) -> list[set[int]]:
    """Connected components of the subgraph induced by verts, by search
    over python sets; nbrs[v] is the neighbor set of v."""
    blocks, todo = [], set(verts)
    while todo:
        block, frontier = set(), [todo.pop()]
        while frontier:
            u = frontier.pop()
            block.add(u)
            for v in nbrs[u] & todo:
                todo.discard(v)
                frontier.append(v)
        blocks.append(block)
    return blocks


def _neighbor_sets(g: Graph) -> list[set[int]]:
    return [set(bits(row)) for row in g.adj]


def reference_closure(g, blue, rule):
    """Oracle on python sets: apply one valid force at a time until none
    applies; the derived coloring must match the forcing kernel's."""
    nbrs = _neighbor_sets(g)
    blue_set = set(bits(blue))
    while True:
        move = None
        white = set(range(g.n)) - blue_set
        if rule is Rule.STANDARD:
            regions = [white] if white else []
        else:
            regions = _set_components(nbrs, white)
        for region in regions:
            for u in sorted(blue_set):
                inside = nbrs[u] & region
                if len(inside) == 1:
                    move = inside.pop()
                    break
            if move is not None:
                break
        if move is None:
            return sum(1 << v for v in blue_set)
        blue_set.add(move)


def _literal_fort(nbrs: list[set[int]], inside: set[int], rule: Rule) -> bool:
    if not inside:
        return False
    blocks = _set_components(nbrs, inside) if rule is Rule.PSD else [inside]
    for u in range(len(nbrs)):
        if u not in inside and any(len(nbrs[u] & block) == 1
                                   for block in blocks):
            return False
    return True


def literal_is_fort(g: Graph, w: VertexSet, rule: Rule) -> bool:
    """The fort definition on python sets, independent of forcekit's
    forcing kernel: w is nonempty and every outside vertex has 0 or >= 2
    neighbors in w, counted within each component of G[w] under the PSD
    rule."""
    return _literal_fort(_neighbor_sets(g), set(bits(w)), rule)


def ascending_min_fort(g: Graph, rule: Rule) -> int:
    """The literal minimum-fort scan: sizes ascending, combinations in
    lexicographic order, the first set that ``literal_is_fort`` accepts."""
    nbrs = _neighbor_sets(g)
    for k in range(1, g.n + 1):
        for combo in combinations(range(g.n), k):
            if _literal_fort(nbrs, set(combo), rule):
                return mask_of(combo)
    raise AssertionError("V itself is a fort")


def ascending_zero_forcing(g: Graph, rule: Rule) -> tuple[int, int]:
    """The iterative-deepening forcing-set search: for k = 1, 2, ... walk
    the closure-pruned subsets of size at most k in lexicographic preorder;
    the first k-set whose closure is V is the witness."""
    full = g.full_mask

    def extend(prefix, start, last, size, k):
        cl = derived_set(g, start, rule)
        if size == k:
            return prefix if cl == full else None
        for v in range(last + 1, g.n):
            if not cl & (1 << v):
                found = extend(prefix | (1 << v), cl | (1 << v), v,
                               size + 1, k)
                if found is not None:
                    return found
        return None

    for k in range(1, g.n + 1):
        witness = extend(0, 0, -1, 0, k)
        if witness is not None:
            return k, witness
    raise AssertionError("the full vertex set always forces")


def random_graph(rng: random.Random, n: int, p: float | None = None) -> Graph:
    if p is None:
        p = rng.uniform(0.1, 0.9)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return graph_from_edges(n, edges)


def seeded_random_graph(seed: int, n: int) -> Graph:
    return random_graph(random.Random(seed), n)


def run_oracle_equivalence(seed: int = 0, trials: int = 500,
                           max_n: int = 8) -> dict:
    """Fort-complement failed numbers against the 2^n brute oracle on seeded
    random graphs and every default family instance of order <= max_n."""
    rng = random.Random(seed)
    result = _new_result("oracle", seed=seed, trials=trials, max_n=max_n)
    cases: list[tuple[str, Graph]] = []
    for t in range(trials):
        n = rng.randint(1, max_n)
        cases.append((f"random#{t} n={n}", random_graph(rng, n)))
    cases.extend((spec.label(), build_family(spec))
                 for spec in default_family_specs(max_n))
    for name, g in cases:
        for rule in (Rule.STANDARD, Rule.PSD):
            fast = failed_number(g, rule).value
            brute = brute_failed_number(g, rule).value
            _record(result, TheoremReport.compare(
                "fort-vs-brute", name, brute, fast), rule=rule.value)
    return _finish(result)


def labeled_exhaustive(max_n: int) -> dict:
    """The labeled scan that exhaustive6 reduces to isomorphism classes:
    every check of _characterize on every edge mask of each order up to
    max_n.  Returns the graphs checked and, per theorem, the reports
    checked and violated."""
    counts: dict[str, list[int]] = {}
    checked = 0
    for n in range(1, max_n + 1):
        for mask in range(1 << (n * (n - 1) // 2)):
            _, reports = _characterize(graph_from_edge_mask(n, mask),
                                       f"n={n} edges={mask:#x}")
            checked += 1
            for rep in reports:
                slot = counts.setdefault(rep.theorem, [0, 0])
                slot[0] += 1
                slot[1] += not rep.passed
    return {"graphs_checked": checked, "counts": counts}


def maximal_failed_contains_compositions(g: Graph, rule: Rule) -> bool:
    """The per-component construction V \\ (V_i \\ F_i) must appear among the
    maximal failed sets of a disconnected graph."""
    comps = g.components
    if len(comps) < 2:
        raise ValueError("needs a disconnected graph")
    maximal = set(enumerate_maximal_failed(g, rule))
    full = g.full_mask
    for comp in comps:
        sub = _induced(g, comp)
        witness = failed_number(sub, rule).witness
        # map the witness back into g's labels
        verts = bits(comp)
        lifted = mask_of(verts[i] for i in bits(witness))
        constructed = full & ~(comp & ~lifted)
        if constructed not in maximal:
            return False
    return True


def _induced(g: Graph, sub: int) -> Graph:
    verts = bits(sub)
    index = {v: i for i, v in enumerate(verts)}
    edges = [(index[u], index[v]) for u in verts
             for v in bits(g.adj[u]) if u < v and sub & (1 << v)]
    return graph_from_edges(len(verts), edges)


def _ascending_subsets(n: int, tracker: _Budget):
    """Nonempty subsets of range(n) by ascending size, lexicographic within
    a size, spending one unit of budget per subset."""
    for k in range(1, n + 1):
        for combo in combinations(range(n), k):
            tracker.spend()
            yield mask_of(combo)


def enumerate_maximal_failed(g: Graph, rule: Rule,
                             budget: int | None = None) -> list[VertexSet]:
    """All maximal failed sets, i.e. complements of minimal forts.

    A failed set is maximal exactly when it is stalled and no proper stalled
    superset exists, which dualizes to its complement being a minimal fort.
    Results are sorted by vertex list.
    """
    if g.n > BRUTE_FORCE_MAX_N:
        raise SearchBudgetExceeded(
            f"enumerate_maximal_failed: n={g.n} exceeds the scan guard "
            f"(n <= {BRUTE_FORCE_MAX_N})")
    tracker = _Budget(budget, "enumerate_maximal_failed")
    nbrs = _neighbor_sets(g)
    minimal_forts: list[VertexSet] = []
    for w in _ascending_subsets(g.n, tracker):
        if any(f & w == f for f in minimal_forts):
            continue
        if _literal_fort(nbrs, set(bits(w)), rule):
            minimal_forts.append(w)
    return sorted((g.full_mask & ~w for w in minimal_forts), key=bits)


def is_path_graph(g: Graph) -> bool:
    if g.n == 1:
        return True
    degs = sorted(g.adj[v].bit_count() for v in range(g.n))
    return (is_tree(g) and degs[0] == degs[1] == 1
            and (g.n == 2 or degs[2] == 2) and degs[-1] <= 2)


def serialize_graph(g: Graph) -> str:
    """Inverse of parse_graph; edges emitted sorted with u < v."""
    edges = g.edges()
    lines = [f"{g.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def matrix_to_text(matrix: PatternMatrix) -> str:
    """Whitespace-separated dense text form, one row per line."""
    return "\n".join(" ".join(map(str, row)) for row in matrix.entries) + "\n"


def reference_echelon(a) -> tuple[list[list[int]], list[int], int]:
    """Eager Bareiss elimination, the oracle for ``linalg._echelon``: the
    same result, with every row below the pivot row brought up to date at
    every step.  A row with 0 in the pivot column is rescaled by
    pivot / prev, which the lazy form defers until the row is read."""
    rows = [list(row) for row in a]
    pivots, sign, prev = [], 1, 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p], sign = rows[p], rows[r], -sign
        pivot, tail = rows[r][c], rows[r][c + 1:]
        for row in rows[r + 1:]:
            f = row[c]
            if f:
                row[c + 1:] = [(pivot * x - f * y) // prev
                               for x, y in zip(row[c + 1:], tail)]
            elif pivot != prev:
                row[c + 1:] = [pivot * x // prev for x in row[c + 1:]]
        pivots.append(c)
        prev = pivot
    return rows[:len(pivots)], pivots, sign * prev
