"""Command-line entry point.

Three commands: ``analyze`` computes forcing parameters of one graph,
``verify`` runs a named verification suite, ``table`` renders the failed
number summary tables with computed confirmation columns.

Exit codes: 0 success, 1 verification failure, 2 malformed input or usage,
3 search budget exhausted, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .forcing import Rule
from .formulas import (
    FAILED,
    predicted_failed,
    predicted_table51,
    table51_lookup,
)
from .graphs import (
    FamilyError,
    FamilySpec,
    GraphFormatError,
    _decimal,
    build_family,
    parse_family,
    parse_graph,
)
from .search import (
    DEFAULT_BUDGET,
    SearchBudgetExceeded,
    failed_number,
    zero_forcing_number,
)
from .suites import (
    SUITE_NAMES,
    SuiteUsageError,
    default_family_specs,
    failed_number_check,
    run_suite,
)
from .theorems import check_failed_bounds

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 141


def _integer(text: str) -> int:
    """An integer flag's value: an ASCII decimal, as the family DSL takes
    (argparse's int() also takes "1_0" and non-ASCII digits)."""
    try:
        return _decimal(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built on first use, then shared: parse_args keeps no state in it
    parser = argparse.ArgumentParser(
        prog="forcekit",
        description="zero forcing and failed zero forcing analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="compute parameters of one graph")
    src = an.add_mutually_exclusive_group(required=True)
    src.add_argument("--family", help="family DSL, e.g. wheel:7 or cycle:3+path:2")
    src.add_argument("--file", help="edge-list file ('n m' header, 'u v' lines)")
    an.add_argument("--rule", choices=("standard", "psd", "both"),
                    default="both")
    an.add_argument("--params", default="Z,F",
                    help="comma list from {Z,F} (default both)")
    an.add_argument("--json", action="store_true")
    an.add_argument("--budget", type=_integer, default=None,
                    help=f"search node cap (default {DEFAULT_BUDGET:,})")
    an.add_argument("--timings", action="store_true",
                    help="include wall-time fields (breaks byte determinism)")

    ve = sub.add_parser("verify", help="run a verification suite")
    ve.add_argument("--suite", choices=SUITE_NAMES, required=True)
    ve.add_argument("--max-n", type=_integer, default=None)
    ve.add_argument("--seed", type=_integer, default=None)
    ve.add_argument("--json", action="store_true")
    ve.add_argument("--budget", type=_integer, default=None)

    ta = sub.add_parser("table", help="render a failed-number summary table")
    ta.add_argument("--which", type=_integer, choices=(1, 2), required=True)
    return parser


def _predictions_for(spec: FamilySpec) -> list[dict]:
    preds = [predicted_failed(spec, rule) for rule in Rule]
    table = table51_lookup(spec)
    if table is not None:
        preds.extend(predicted_table51(table))
    return [vars(p) for p in preds]


def _analyze(args) -> int:
    # each parameter once, in the order first named
    params = list(dict.fromkeys(
        p.strip().upper() for p in args.params.split(",") if p.strip()))
    if not params:
        raise FamilyError(f"--params {args.params!r} names no parameter, "
                          "choose from Z,F")
    for p in params:
        if p not in ("Z", "F"):
            raise FamilyError(f"unknown parameter {p!r}, choose from Z,F")
    spec = None
    if args.family is not None:
        spec = parse_family(args.family)
        g = build_family(spec)
        description = spec.label()
    else:
        with open(args.file, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise GraphFormatError(
                    f"{args.file}: not UTF-8 text ({exc.reason} at byte "
                    f"{exc.start})") from None
        g = parse_graph(text)
        description = f"file:{args.file}"

    entries: dict[tuple[Rule, str], dict] = {}
    rules = list(Rule) if args.rule == "both" else [Rule(args.rule)]
    # Rule lists STANDARD first; PSD runs first, as Z+ <= Z floors the Z search
    for rule in reversed(rules):
        for param in params:
            start = time.perf_counter()
            if param == "Z":
                floor = entries.get((Rule.PSD, "Z"), {"value": 0})["value"]
                res = zero_forcing_number(g, rule, args.budget, floor=floor)
            else:
                res = failed_number(g, rule, args.budget)
            elapsed = time.perf_counter() - start
            entry = {
                "rule": rule.value,
                "parameter": param if rule is Rule.STANDARD else param + "plus",
                "value": res.value,
                "witness": res.witness_vertices(),
                "method": res.method,
            }
            if args.timings:
                entry["seconds"] = round(elapsed, 6)
            entries[rule, param] = entry
    computed = [entries[rule, param] for rule in rules for param in params]

    checks = check_failed_bounds(g, description, {
        entry["parameter"]: entry["value"] for entry in computed})
    report = {
        "command": "analyze",
        "graph": {"description": description, "n": g.n, "edges": g.edges()},
        "rules": [r.value for r in rules],
        "computed": computed,
        "predictions": _predictions_for(spec) if spec else [],
        "checks": [c.as_dict() for c in checks],
        "consistent": all(c.passed for c in checks),
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print_analyze_tsv(report)
    return EXIT_OK


def _print_analyze_tsv(report: dict) -> None:
    print("graph\tn\trule\tparameter\tvalue\twitness\tmethod")
    desc = report["graph"]["description"]
    n = report["graph"]["n"]
    for entry in report["computed"]:
        witness = ",".join(str(v) for v in entry["witness"])
        print(f"{desc}\t{n}\t{entry['rule']}\t{entry['parameter']}"
              f"\t{entry['value']}\t{witness}\t{entry['method']}")
    if report["predictions"]:
        print("# predictions")
        print("parameter\tvalue\texactness\tsource")
        for pred in report["predictions"]:
            print(f"{pred['parameter']}\t{pred['value']}"
                  f"\t{pred['exactness']}\t{pred['source']}")
    status = "consistent" if report["consistent"] else "INCONSISTENT"
    print(f"# {status}")


def _verify(args) -> int:
    result = run_suite(args.suite, seed=args.seed, max_n=args.max_n,
                       budget=args.budget)
    result["command"] = "verify"
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        _print_verify_text(result)
    return EXIT_OK if result["ok"] else EXIT_VERIFY_FAILED


def _print_verify_text(result: dict) -> None:
    print(f"suite {result['suite']}: {result['passed']} passed, "
          f"{result['failed']} failed, "
          f"{result['known_discrepancies']} known discrepancies")
    for theorem, tally in sorted(result["by_theorem"].items()):
        print(f"  {theorem}: {tally['passed']}/{tally['passed'] + tally['failed']} ok")
    for check in result["checks"]:
        flag = "known-discrepancy" if check.get("known_discrepancy") else "FAIL"
        print(f"  {flag} {check['theorem']} on {check['graph']}: "
              f"expected {check['expected']}, observed {check['observed']}")
    print("OK" if result["ok"] else "FAILED")


# ---------------------------------------------------------------------------
# Summary tables
# ---------------------------------------------------------------------------

def _table(args) -> int:
    if args.which == 1:
        rule, param, eq = Rule.STANDARD, "F(G)", "F(G)=mr(G)?"
    else:
        rule, param, eq = Rule.PSD, "F+(G)", "F+(G)=mr+(G)?"
    header = f"{'G':<18} {param:<18} {eq:<14} computed"
    print(header)
    print("-" * len(header))
    instances = default_family_specs()
    for row in FAILED[rule].table:
        checks = [failed_number_check(spec, rule)
                  for spec in instances if row.covers(spec)]
        misses = [f"{c.graph}={c.observed}" for c in checks if not c.passed]
        status = (f"MISMATCH {','.join(misses)}" if misses
                  else f"ok ({len(checks)}/{len(checks)} instances)")
        print(f"{row.label:<18} {row.formula:<18} {row.equality:<14} {status}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    budget = getattr(args, "budget", None)
    if budget is not None and budget < 0:
        print(f"error: --budget must be >= 0, got {budget}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if getattr(args, "timings", False) and not args.json:
        print("error: --timings needs --json: the TSV output has no time "
              "column", file=sys.stderr)
        return EXIT_BAD_INPUT
    commands = {"analyze": _analyze, "verify": _verify, "table": _table}
    try:
        code = commands[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away, as under `forcekit table --which 2 | head -1`.
        # Point stdout at devnull so the exit flush cannot fail again, and
        # exit as a shell reports a writer ended by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (FamilyError, GraphFormatError, SuiteUsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except SearchBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
