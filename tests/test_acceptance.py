"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected values are written out here independently of the formula
module so the two encodings check each other.
"""

import json
import time

import forcekit.suites as suites
from forcekit.cli import main
from forcekit.forcing import Rule
from forcekit.formulas import table51_lookup
from forcekit.graphs import FamilySpec, build_family
from forcekit.search import failed_number
from forcekit.suites import (
    default_family_specs,
    run_disconnected,
    run_exhaustive,
    run_linalg,
)

from conftest import is_path_graph, labeled_exhaustive, run_oracle_equivalence

SEED = 20260811
TABLE_KINDS = ("path", "cycle", "complete", "hypercube", "wheel",
               "biclique", "halfgraph")


def report(number, name, failures, elapsed=None):
    status = "PASS" if not failures else f"FAIL ({len(failures)} violations)"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {number} {name}: {status}{timing}")
    for item in failures[:10]:
        print("   ", item)


def F(text_kind, params, rule):
    return failed_number(build_family(FamilySpec(text_kind, params)), rule).value


def table1_cases():
    # (kind, params, expected F): the closed forms, written out literally
    for n in range(1, 13):
        yield "path", (n,), (n - 1) // 2
    for n in range(3, 13):
        yield "cycle", (n,), n // 2
    for n in range(2, 11):
        yield "complete", (n,), n - 2
    for n in range(4, 13):
        yield "wheel", (n,), 3 if n == 5 else (2 * n - 2) // 3
    for m in range(1, 6):
        for n in range(1, m + 1):
            yield "biclique", (m, n), m + n - 2
    for s in range(1, 6):
        yield "halfgraph", (s,), 0 if s == 1 else 2 * s - 3
    for n in range(1, 14):
        # the n-2 form needs a module of order 2; the level-filled binary
        # tree degenerates to a path at n = 1 and n = 4
        yield "marytree", (2, n), (n - 1) // 2 if n in (1, 4) else n - 2


def test_criterion_1_table1_reproduction():
    start = time.perf_counter()
    failures = []
    for kind, params, want in table1_cases():
        got = F(kind, params, Rule.STANDARD)
        if got != want:
            failures.append(f"F({kind}{params}) = {got}, want {want}")
    for d in (3, 4):
        got = F("hypercube", (d,), Rule.STANDARD)
        if got < (1 << d) - d:
            failures.append(f"F(Q{d}) = {got} below bound {(1 << d) - d}")
    # the degenerate marytree instances really are paths
    for n in (1, 4):
        assert is_path_graph(build_family(FamilySpec("marytree", (2, n))))
    elapsed = time.perf_counter() - start
    report(1, "table-1 closed forms, standard rule", failures, elapsed)
    assert not failures
    assert elapsed < 120.0


def table2_cases():
    for n in range(1, 13):
        yield "path", (n,), 0
    for n in range(3, 13):
        yield "cycle", (n,), 1
    for n in range(2, 11):
        yield "complete", (n,), n - 2
    for n in range(4, 13):
        yield "wheel", (n,), (2 * n - 2) // 3
    for m in range(1, 6):
        for n in range(1, m + 1):
            p = min(m, n)
            yield "biclique", (m, n), (0 if p == 1 else
                                       m + n - 3 if p == 2 else m + n - 4)
    for s in range(1, 6):
        yield "halfgraph", (s,), 0 if s == 1 else 2 * s - 4
    for n in range(1, 14):
        yield "marytree", (2, n), 0


def test_criterion_2_table2_reproduction():
    start = time.perf_counter()
    failures = []
    for kind, params, want in table2_cases():
        got = F(kind, params, Rule.PSD)
        if got != want:
            failures.append(f"F+({kind}{params}) = {got}, want {want}")
    for d in (3, 4):
        got = F("hypercube", (d,), Rule.PSD)
        if got < (1 << d) - d - 1:
            failures.append(f"F+(Q{d}) = {got} below bound {(1 << d) - d - 1}")
    # every tree instance in range has PSD failed number 0
    trees = ([FamilySpec("marytree", (m, n)) for m in (2, 3)
              for n in range(1, 14)]
             + [FamilySpec("biclique", (m, 1)) for m in range(1, 6)]
             + [FamilySpec("path", (n,)) for n in range(1, 13)])
    for spec in trees:
        got = failed_number(build_family(spec), Rule.PSD).value
        if got != 0:
            failures.append(f"tree {spec.label()} has F+ = {got}")
    elapsed = time.perf_counter() - start
    report(2, "table-2 closed forms, PSD rule", failures, elapsed)
    assert not failures
    assert elapsed < 120.0


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    res = run_oracle_equivalence(seed=SEED, trials=500, max_n=8)
    family_count = len(default_family_specs(max_n=8))
    elapsed = time.perf_counter() - start
    failures = [f"{c['graph']}: fort={c['observed']} brute={c['expected']}"
                for c in res["checks"]]
    report(3, "fort search vs brute oracle (500 random + families, n<=8)",
           failures, elapsed)
    assert not failures
    assert res["passed"] == 2 * (500 + family_count)


def test_criterion_4_exhaustive_order_6(monkeypatch):
    # every per-theorem report the suite records, passing ones included
    recorded = []
    record = suites._record

    def keep(result, report, known_discrepancy=False, **fields):
        recorded.append(report)
        record(result, report, known_discrepancy, **fields)

    monkeypatch.setattr(suites, "_record", keep)
    start = time.perf_counter()
    res = run_exhaustive(max_n=6)
    elapsed = time.perf_counter() - start
    failures = []
    for theorem, tally in sorted(res["by_theorem"].items()):
        if tally["failed"]:
            failures.append(f"{theorem}: {tally['failed']} violations")
    failures.extend(str(v) for v in res.get("violation_samples", []))
    report(4, "exhaustive characterizations on all graphs n<=6", failures,
           elapsed)
    assert res["graphs_checked"] == 1 + 2 + 8 + 64 + 1024 + 32768
    assert not failures
    assert elapsed < 600.0
    # the scan of one graph per isomorphism class against the labeled scan
    # of every graph: the same graph count and, per theorem, the same
    # checked and violated counts
    oracle = labeled_exhaustive(6)
    assert res["graphs_checked"] == oracle["graphs_checked"]
    counts = {c.theorem: [int(c.expected.split()[-1]),
                          int(c.observed.split()[0])] for c in recorded}
    assert counts == oracle["counts"]


def test_criterion_4_exhaustive_order_7():
    # the same theorems on every graph of order 7 as well: 1,044 classes
    # of 2^21 labeled graphs
    start = time.perf_counter()
    res = run_exhaustive(max_n=7)
    elapsed = time.perf_counter() - start
    failures = [f"{theorem}: {tally['failed']} violations"
                for theorem, tally in sorted(res["by_theorem"].items())
                if tally["failed"]]
    failures.extend(str(v) for v in res["violation_samples"])
    report(4, "exhaustive characterizations on all graphs n<=7", failures,
           elapsed)
    assert res["ok"]
    assert res["graphs_checked"] == 2_131_019
    assert res["violation_samples"] == []


def test_criterion_5_disconnected_composition():
    start = time.perf_counter()
    res = run_disconnected(seed=SEED, trials=200)
    elapsed = time.perf_counter() - start
    failures = [f"{c['graph']}: {c['theorem']} expected {c['expected']}, "
                f"got {c['observed']}" for c in res["checks"]]
    report(5, "disconnected composition (200 unions) and component bounds",
           failures, elapsed)
    assert not failures
    assert res["by_theorem"]["Cor 3.3"]["passed"] == 200
    assert res["by_theorem"]["Cor 4.8"]["passed"] == 200
    assert res["by_theorem"]["Prop 4.3"]["passed"] == 40


# instances where the failed number equals the tabulated minimum rank
MR_EQUALITY = {("cycle", (3,)), ("cycle", (4,)), ("complete", (3,)),
               ("hypercube", (2,)), ("wheel", (6,)), ("wheel", (7,)),
               ("path", (1,)),
               ("biclique", (2, 2)), ("biclique", (3, 1)), ("halfgraph", (3,))}
MRPLUS_EQUALITY = {("cycle", (3,)), ("complete", (3,)), ("hypercube", (3,)),
                   ("wheel", (5,)), ("wheel", (6,)), ("wheel", (7,)),
                   ("path", (1,)),
                   ("biclique", (4, 4)), ("biclique", (5, 4)),
                   ("halfgraph", (4,))}


def test_criterion_6_minimum_rank_equalities():
    start = time.perf_counter()
    failures = []
    spot = {}
    for spec in default_family_specs():
        if spec.kind not in TABLE_KINDS:
            continue
        g = build_family(spec)
        f = failed_number(g, Rule.STANDARD).value
        fp = failed_number(g, Rule.PSD).value
        table = table51_lookup(spec)
        mr, mrplus = table.mr, table.mrplus
        key = (spec.kind, spec.params)
        if (f == mr) != (key in MR_EQUALITY):
            failures.append(f"{spec.label()}: F={f} mr={mr}")
        if (fp == mrplus) != (key in MRPLUS_EQUALITY):
            failures.append(f"{spec.label()}: F+={fp} mr+={mrplus}")
        spot[key] = (f, mr, fp, mrplus)
    elapsed = time.perf_counter() - start
    # the named equalities, checked by value
    expectations = [
        (("cycle", (4,)), "F", 2), (("complete", (3,)), "F", 1),
        (("wheel", (6,)), "F", 3), (("wheel", (5,)), "F+", 2),
        (("halfgraph", (4,)), "F+", 4),
    ]
    for key, which, value in expectations:
        f, mr, fp, mrplus = spot[key]
        got, bound = (f, mr) if which == "F" else (fp, mrplus)
        if not (got == bound == value):
            failures.append(f"{key}: {which}={got}, mr={bound}, want {value}")
    report(6, "minimum-rank equality pattern", failures, elapsed)
    assert not failures


def test_criterion_7_kernel_support_and_rank():
    start = time.perf_counter()
    res = run_linalg(seed=SEED, trials=100, max_n=12)
    elapsed = time.perf_counter() - start
    failures = [f"{c.get('graph')}: {c.get('theorem')} -> {c.get('observed')}"
                for c in res["checks"]]
    report(7, "kernel-support certificates and rank bounds (100 trials each)",
           failures, elapsed)
    assert not failures


def run_cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


def test_criterion_8_determinism(capsys):
    start = time.perf_counter()
    failures = []
    suites = [
        ("verify", "--suite", "table51", "--json"),
        ("verify", "--suite", "disconnected", "--seed", "7", "--json"),
        ("verify", "--suite", "linalg", "--seed", "7", "--max-n", "6",
         "--json"),
        ("verify", "--suite", "exhaustive6", "--max-n", "5", "--json"),
        ("verify", "--suite", "characterizations", "--max-n", "8", "--json"),
    ]
    for argv in suites:
        first = run_cli_json(capsys, *argv)
        second = run_cli_json(capsys, *argv)
        if first != second:
            failures.append(f"{argv[2]} output differs between runs")
        json.loads(first)  # valid JSON
    elapsed = time.perf_counter() - start
    report(8, "byte-identical JSON for repeated suite runs", failures, elapsed)
    assert not failures
