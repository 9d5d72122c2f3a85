"""Verification suites: table reproduction, characterization checks,
exhaustive small-graph scans, disconnected composition, and exact
kernel-support trials.

Every suite returns a JSON-ready dict whose content depends only on its
arguments, never on wall time, so two runs with the same inputs serialize
byte-identically.

A failed check counts as a known discrepancy, not a failure, only where
its row of Table 5.1 (``formulas.TABLE51``) marks the claim as one.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from functools import partial

from .forcing import Rule
from .formulas import (
    EXACT,
    FAILED,
    compose_disconnected,
    predicted_failed,
    table51_lookup,
)
# is_connected and the four check_* row groups are imported only because
# perfbench/tracing.py patches these names here; no code here calls them
from .graphs import (
    FamilySpec,
    Graph,
    build_family,
    disjoint_union,
    graph_from_edges,
    is_connected,
    parse_family,
)
from .linalg import (
    RANK_BOUND,
    rank_lower_bound_check,
    sample_pattern_matrix,
    shifted_singular_matrix,
    support_implies_failed,
    weighted_laplacian,
)
from .search import (
    SearchBudgetExceeded,
    failed_number,
    zero_forcing_number,
)
from .theorems import (
    TheoremReport,
    check_F_vs_Z,
    check_Fplus_lt_Zplus_cases,
    check_isolated_characterizations,
    check_low_Fplus,
    check_minrank_equalities,
    check_module_characterizations,
    graph_checks,
)

# exhaustive6 counts the edges of each of the 2^(n(n-1)/2) labeled graphs
# of order n in one bytearray and marks them in another: about 4.2 MB at
# n = 7, 537 MB at n = 8.
_EXHAUSTIVE_MAX_N = 7


class SuiteUsageError(ValueError):
    """A suite was asked for something it does not do, such as a flag it
    would ignore or an order it cannot scan."""


# Default verification ranges; all instances finish within minutes under
# fort search.
_RANGES = {
    "path": range(1, 13),
    "cycle": range(3, 13),
    "complete": range(2, 11),
    "wheel": range(4, 13),
    "hypercube": range(1, 5),
    "halfgraph": range(1, 6),
    "empty": range(1, 11),
}


def default_family_specs(max_n: int | None = None) -> list[FamilySpec]:
    """The default verification instances, optionally capped by order."""
    specs: list[FamilySpec] = []
    for kind, rng in _RANGES.items():
        specs.extend(FamilySpec(kind, (v,)) for v in rng)
    specs.extend(FamilySpec("biclique", (m, n))
                 for m in range(1, 6) for n in range(1, m + 1))
    specs.extend(FamilySpec("marytree", (m, n))
                 for m in (2, 3) for n in range(1, 14))
    if max_n is not None:
        specs = [s for s in specs if s.order() <= max_n]
    return specs


def _new_result(suite: str, **params) -> dict:
    return {"suite": suite, "params": params, "checks": [], "by_theorem": {},
            "passed": 0, "failed": 0, "known_discrepancies": 0}


def _record(result: dict, report: TheoremReport,
            known_discrepancy: bool = False, **fields) -> None:
    """Count report; one that fails is kept in the checks, as its JSON
    entry plus fields."""
    tally = result["by_theorem"].setdefault(
        report.theorem, {"passed": 0, "failed": 0})
    if report.passed:
        result["passed"] += 1
        tally["passed"] += 1
        return
    check = report.as_dict() | fields
    if known_discrepancy:
        result["known_discrepancies"] += 1
        check["known_discrepancy"] = True
    else:
        result["failed"] += 1
        tally["failed"] += 1
    result["checks"].append(check)


def _finish(result: dict) -> dict:
    result["ok"] = result["failed"] == 0
    result["checks"].sort(key=lambda c: (c["graph"], c["theorem"]))
    return result


@contextmanager
def _naming(label: str):
    """A search budget that runs out inside the block names the instance,
    as in ``path:3: min_fort (standard): candidate budget exhausted``."""
    try:
        yield
    except SearchBudgetExceeded as exc:
        raise SearchBudgetExceeded(f"{label}: {exc}") from exc


# ---------------------------------------------------------------------------
# Table reproduction suites
# ---------------------------------------------------------------------------

def failed_number_check(spec: FamilySpec, rule: Rule,
                        budget: int | None = None) -> TheoremReport:
    """The computed failed number of a family instance against its closed
    form: equal to an exact form, at least a lower bound."""
    pred = predicted_failed(spec, rule)
    with _naming(spec.label()):
        got = failed_number(build_family(spec), rule, budget).value
    exact = pred.exactness == EXACT
    return TheoremReport(pred.source, spec.label(),
                         f"{'=' if exact else '>='} {pred.value}", got,
                         got == pred.value if exact else got >= pred.value)


def _run_failed_table(suite: str, rule: Rule, max_n: int | None = None,
                      budget: int | None = None) -> dict:
    result = _new_result(suite, max_n=max_n)
    for spec in default_family_specs(max_n):
        _record(result, failed_number_check(spec, rule, budget))
    return _finish(result)


def run_table51(max_n: int | None = None, budget: int | None = None) -> dict:
    """Computed forcing numbers against the tabulated Z and Z+ columns."""
    result = _new_result("table51", max_n=max_n)
    for spec in default_family_specs(max_n):
        table = table51_lookup(spec)
        if table is None:
            continue
        g = build_family(spec)
        # Z+ <= Z: the PSD value floors the standard search
        with _naming(spec.label()):
            zp = zero_forcing_number(g, Rule.PSD, budget).value
            z = zero_forcing_number(g, Rule.STANDARD, budget, floor=zp).value
        for parameter, want, got in (("Z", table.Z, z),
                                     ("Zplus", table.Zplus, zp)):
            _record(result,
                    TheoremReport.compare("Table 5.1", spec.label(), want, got),
                    parameter in table.known_discrepancies, parameter=parameter)
    return _finish(result)


# ---------------------------------------------------------------------------
# Characterization suite over family instances
# ---------------------------------------------------------------------------

def _searches(g: Graph, budget: int | None = None) -> dict[str, int]:
    """F, F+, Z and Z+ of g, keyed by parameter name."""
    f = failed_number(g, Rule.STANDARD, budget).value
    fp = failed_number(g, Rule.PSD, budget).value
    # Z+ <= Z: the PSD value floors the standard search
    zp = zero_forcing_number(g, Rule.PSD, budget).value
    z = zero_forcing_number(g, Rule.STANDARD, budget, floor=zp).value
    return {"F": f, "Fplus": fp, "Z": z, "Zplus": zp}


def _characterize(g: Graph, name: str, budget: int | None = None):
    """The four parameters of g, keyed by name, and a report for each row
    of ``theorems.GRAPH_CHECKS`` that applies to g."""
    values = _searches(g, budget)
    return values, [TheoremReport.compare(theorem, name, expected, observed)
                    for theorem, expected, observed in graph_checks(g, values)]


def run_characterizations(max_n: int | None = None,
                          budget: int | None = None) -> dict:
    result = _new_result("characterizations", max_n=max_n)
    for spec in default_family_specs(max_n):
        with _naming(spec.label()):
            values, reports = _characterize(build_family(spec), spec.label(),
                                            budget)
        f, fp, zp = values["F"], values["Fplus"], values["Zplus"]
        table = table51_lookup(spec)
        known = ()
        if table is not None:
            reports += check_minrank_equalities(spec, table, f, fp)
            known = table.known_discrepancies
        reports += check_Fplus_lt_Zplus_cases(spec, table, fp, zp)
        for rep in reports:
            _record(result, rep, rep.theorem in known)
    return _finish(result)


# ---------------------------------------------------------------------------
# Exhaustive scan over all labeled graphs up to a given order
# ---------------------------------------------------------------------------

def graph_from_edge_mask(n: int, mask: int) -> Graph:
    """The graph on n vertices whose edges are the set bits of mask, bit k
    standing for the k-th pair (i, j), i < j, in lexicographic order."""
    adj = [0] * n
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            if mask >> k & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return Graph(n, tuple(adj))


def _edge_mask_classes(n: int) -> list[tuple[int, int]]:
    """(representative, orbit size) for each isomorphism class of graphs of
    order n <= 7, in increasing order of representative.  A class is an
    orbit of edge masks under relabeling, and its representative is its
    least mask.

    The swap (0 1) and the rotation v -> v+1 mod n generate every
    relabeling, and an orbit is connected under any generating set, so a
    walk through these two marks a whole orbit.  Masks are visited in
    increasing order, and each one not yet marked starts a walk.
    Only masks with at most m/2 of the m edges are walked: complementing
    commutes with relabeling, so the complement of a walked orbit with
    fewer than m/2 edges is the class of the same size whose least mask is
    the complement of the walked orbit's greatest one."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    position = {pair: k for k, pair in enumerate(pairs)}
    m = len(pairs)
    # Each generator permutes the edge bits.  Per generator, one table for
    # the low 11 bits of a mask and one for the rest (m <= 21) map their
    # value to its image, so the image of a mask is the OR of two lookups.
    tables = []
    for perm in ([1, 0, *range(2, n)], [*range(1, n), 0]):
        image = [position[min(perm[i], perm[j]), max(perm[i], perm[j])]
                 for i, j in pairs]
        for low in (0, 11):
            table = [0]
            for k in range(low, min(low + 11, m)):
                table += [t | 1 << image[k] for t in table]
            tables.append(table)
    s0, s1, r0, r1 = tables
    # Masks with more than m/2 edges start out marked.  edge_count[x] is
    # the popcount of x, built by doubling: the upper half of the masks of
    # k + 1 bits counts one more edge than the lower half.
    edge_count = bytearray(1)
    for _ in range(m):
        edge_count += edge_count.translate(bytes([*range(1, 256), 0]))
    marked = edge_count.translate(bytes(int(2 * e > m) for e in range(256)))
    full = (1 << m) - 1
    classes = []
    rep = marked.find(0)
    while rep >= 0:
        marked[rep] = 1
        orbit = [rep]
        for mask in orbit:
            a, b = mask & 2047, mask >> 11
            image = s0[a] | s1[b]
            if not marked[image]:
                marked[image] = 1
                orbit.append(image)
            image = r0[a] | r1[b]
            if not marked[image]:
                marked[image] = 1
                orbit.append(image)
        classes.append((rep, len(orbit)))
        if 2 * rep.bit_count() < m:
            classes.append((full ^ max(orbit), len(orbit)))
        rep = marked.find(0, rep + 1)
    classes.sort()
    return classes


def run_exhaustive(max_n: int = 6, jobs: int = 1) -> dict:
    """Verify every characterization biconditional on all labeled graphs
    with at most max_n vertices (2^(n(n-1)/2) edge subsets per order).

    Every check is invariant under relabeling, so each isomorphism class is
    checked once, on its least edge mask, and counts once per labeled graph
    in it.  jobs is recorded in the params and otherwise unused."""
    if not 1 <= max_n <= _EXHAUSTIVE_MAX_N:
        raise SuiteUsageError(f"exhaustive6 takes --max-n from 1 to "
                              f"{_EXHAUSTIVE_MAX_N}, got {max_n}")
    result = _new_result("exhaustive6", max_n=max_n, jobs=jobs)
    totals: dict[str, list[int]] = {}
    graphs_checked = 0
    violations = []
    for n in range(1, max_n + 1):
        for mask, orbit in _edge_mask_classes(n):
            g = graph_from_edge_mask(n, mask)
            graphs_checked += orbit
            for theorem, expected, observed in graph_checks(g, _searches(g)):
                total = totals.setdefault(theorem, [0, 0])
                total[0] += orbit
                if expected != observed:
                    total[1] += orbit
                    violations.append(TheoremReport.compare(
                        theorem, f"n={n} edges={mask:#x}", expected,
                        observed).as_dict())
    violations.sort(key=lambda v: (v["graph"], v["theorem"]))
    for theorem, (checked, violated) in totals.items():
        _record(result, TheoremReport(
            theorem, f"all graphs n<={max_n}", f"0 violations in {checked}",
            f"{violated} violations", violated == 0))
    result["graphs_checked"] = graphs_checked
    result["violation_samples"] = violations[:25]
    return _finish(result)


# ---------------------------------------------------------------------------
# Random graphs and disconnected composition
# ---------------------------------------------------------------------------

def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Random spanning tree plus extra edges, uniform parent choice."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    extra = rng.uniform(0.0, 0.5)
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < extra:
                edges.add((i, j))
    return graph_from_edges(n, sorted(edges))


# A random union is drawn again when it has more vertices than this.
_DISCONNECTED_MAX_TOTAL = 14


def run_disconnected(seed: int = 0, trials: int = 200) -> dict:
    """Composition formula on random disjoint unions, both rules, plus the
    path/cycle component lower bounds on constructed unions."""
    rng = random.Random(seed)
    result = _new_result("disconnected", seed=seed, trials=trials,
                         max_total=_DISCONNECTED_MAX_TOTAL)
    built = 0
    while built < trials:
        k = rng.randint(2, 4)
        sizes = [rng.randint(1, 6) for _ in range(k)]
        if sum(sizes) > _DISCONNECTED_MAX_TOTAL:
            continue
        built += 1
        parts = [random_connected_graph(rng, s) for s in sizes]
        g = parts[0]
        for part in parts[1:]:
            g = disjoint_union(g, part)
        for rule in (Rule.STANDARD, Rule.PSD):
            per_part = [(p.n, failed_number(p, rule).value) for p in parts]
            composed = compose_disconnected(per_part)
            direct = failed_number(g, rule).value
            _record(result, TheoremReport.compare(
                FAILED[rule].union_source, f"union#{built} sizes={sizes}",
                composed, direct))
    # Prop 4.3: a path component P_k bounds F+ below by n - k, a cycle
    # component C_k by n - k + 1.
    for trial in range(20):
        h = random_connected_graph(rng, rng.randint(2, 6))
        for kind, label, lo, hi, slack in (("path", "pk-union#{} n={} k={}", 2, 5, 0),
                                           ("cycle", "cm-union#{} n={} m={}", 3, 5, 1)):
            k = rng.randint(lo, hi)
            g = disjoint_union(h, build_family(FamilySpec(kind, (k,))))
            fp = failed_number(g, Rule.PSD).value
            bound = g.n - k + slack
            _record(result, TheoremReport(
                "Prop 4.3", label.format(trial, g.n, k), f">= {bound}", fp,
                fp >= bound))
    return _finish(result)


# ---------------------------------------------------------------------------
# Kernel certificate suite
# ---------------------------------------------------------------------------

_LINALG_UNIONS = ("cycle:3+path:2", "path:3+path:4", "complete:3+empty:2")


def run_linalg(seed: int = 0, trials: int = 100, max_n: int = 12) -> dict:
    """Kernel-support certificates and rank lower bounds on every family
    instance of order <= max_n, plus the few disjoint unions of order
    <= max_n whose Laplacian kernels have dimension > 1."""
    result = _new_result("linalg", seed=seed, trials=trials, max_n=max_n)
    specs = default_family_specs(max_n)
    unions = (parse_family(text) for text in _LINALG_UNIONS)
    specs.extend(spec for spec in unions if spec.order() <= max_n)
    for idx, spec in enumerate(specs):
        g = build_family(spec)
        table = table51_lookup(spec)
        in_table = table is not None
        reports = []
        for t in range(trials):
            # Each matrix draws from its own seed, so one that no check
            # reads is not built: the standard certificate reads the
            # sampled matrix on even trials and the singular one on odd
            # trials, and only Table 5.1 families get rank checks.
            sampled = singular = None
            if in_table or t % 2 == 0:
                sampled = sample_pattern_matrix(g, [seed, idx, t, 0])
            if in_table or t % 2:
                singular = shifted_singular_matrix(g, [seed, idx, t, 1])
            laplacian = weighted_laplacian(g, [seed, idx, t, 2])
            reports.append((t, support_implies_failed(
                singular if t % 2 else sampled)))
            reports.append((t, support_implies_failed(laplacian)))
            if in_table:
                reports.extend((t, rank_lower_bound_check(table, matrix))
                               for matrix in (sampled, singular, laplacian))
        rank_ok = sum(r.passed for _, r in reports if r.theorem == RANK_BOUND)
        support_ok = sum(r.passed for _, r in reports) - rank_ok
        _record(result, TheoremReport(
            "Cor 2.10 / Prop 2.12", spec.label(), f"{2 * trials} certificates pass",
            f"{support_ok} passed", support_ok == 2 * trials))
        if in_table:
            _record(result, TheoremReport(
                RANK_BOUND, spec.label(), f"{3 * trials} bounds hold",
                f"{rank_ok} held", rank_ok == 3 * trials))
        result["checks"].extend(
            [r.as_dict() | {"graph": f"{spec.label()} trial {t}: {r.graph}"}
             for t, r in reports if not r.passed][:5])
    return _finish(result)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

# name -> (runner, the flags it takes).  A flag goes only to the suites
# listed as taking it, and the rest refuse it.
_SUITES = {
    "table1": (partial(_run_failed_table, "table1", Rule.STANDARD),
               ("max_n", "budget")),
    "table2": (partial(_run_failed_table, "table2", Rule.PSD),
               ("max_n", "budget")),
    "table51": (run_table51, ("max_n", "budget")),
    "characterizations": (run_characterizations, ("max_n", "budget")),
    "exhaustive6": (run_exhaustive, ("max_n",)),
    "disconnected": (run_disconnected, ("seed",)),
    "linalg": (run_linalg, ("seed", "max_n")),
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, *, seed: int | None = None, max_n: int | None = None,
              budget: int | None = None) -> dict:
    """Run one suite by name.  An unset flag (None) leaves the suite's own
    default; a flag given to a suite that does not take it, or a negative
    --max-n, is refused rather than run."""
    if name not in _SUITES:
        raise SuiteUsageError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    runner, takes = _SUITES[name]
    flags = {"seed": seed, "max_n": max_n, "budget": budget}
    for flag, value in flags.items():
        if value is not None and flag not in takes:
            raise SuiteUsageError(f"suite {name} does not take "
                                  f"--{flag.replace('_', '-')}")
    if max_n is not None and max_n < 0:
        raise SuiteUsageError(f"--max-n must be >= 0, got {max_n}")
    return runner(**{flag: flags[flag] for flag in takes
                     if flags[flag] is not None})
