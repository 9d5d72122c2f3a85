"""forcekit benchmark: one workload, end-to-end or per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload analyze_mix --seed 3 --seconds 30 --trace 0

The workloads are described in ``workloads.py`` and ``README.md``.  With
``--trace 0`` the run times as many whole passes of the workload as fit in
``--seconds``, scales the times to a reference machine speed (``speed.py``)
and reports the end-to-end metrics; with ``--trace 1`` it runs
one untraced pass and two traced passes and reports the per-layer metrics.
Outputs are checked after the timed region in both modes.  A readable
table goes to stdout first; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from speed import SpeedProbe  # noqa: E402
from tracing import CALLS, SELF_S, TOTAL_S, Tracer  # noqa: E402
from workloads import WORKLOADS, load_reference  # noqa: E402

SETUP_PROBES = 9
# One process, no thread pool: keep numpy's BLAS single-threaded too.
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10
KERNEL_SAMPLES = 400
KERNEL_ROUNDS = 7


def import_forcekit():
    """Import forcekit from this checkout's sources, never an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import forcekit
    import forcekit.cli
    import forcekit.suites
    if Path(forcekit.__file__).resolve().parent != SRC / "forcekit":
        raise ImportError(f"forcekit was imported from {forcekit.__file__}")
    return forcekit


def build(name: str, seed: int):
    """Import forcekit and build the workload's inputs: what setup_s times."""
    fk = import_forcekit()
    return WORKLOADS[name](fk, seed, OUT / "inputs" / f"{name}-{seed}")


def setup_only(name: str, seed: int) -> None:
    t0 = time.perf_counter()
    build(name, seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(name: str, seed: int) -> list[float]:
    """Set-up time of fresh processes, one per probe."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def run_pass(requests, probe=None) -> tuple[float, list[float], list]:
    """Send every request once, in order; returns wall seconds, latencies
    and outputs (an exception counts as the request's output).  With a
    SpeedProbe active, latencies leave out the probe's own time and are
    scaled to its reference speed."""
    perf = time.perf_counter
    latencies, outputs = [], []
    start = perf()
    for request in requests:
        a = probe.mark() if probe else 0
        t0 = perf()
        try:
            output = request()
        except Exception as exc:  # a failed request is counted, not fatal
            output = exc
        t1 = perf()
        if probe:
            b = probe.mark()
            latencies.append((a, b, t1 - t0 - probe.probe_s(a, b)))
        else:
            latencies.append(t1 - t0)
        outputs.append(output)
    return perf() - start, latencies, outputs


def scale(probe, passes) -> list:
    """Replace the (first mark, end mark, seconds) latencies of passes timed
    under probe by their times at the probe's reference speed.  Scaling
    waits until the run has ended, so a short request is scaled by the
    samples on both sides of it."""
    return [(wall, [s * probe.factor(a, b) for a, b, s in lats], outputs)
            for wall, lats, outputs in passes]


def tail(latencies: list[float]) -> tuple[str, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it
    (nearest rank); the maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = None
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_BEYOND:
            best = (f"p{p:g}", ordered[rank - 1])
    return best or ("max", ordered[-1])


def check_passes(workload, passes, reference) -> tuple[int, int, list[str]]:
    """(attempted items, failed items, error messages) over all passes."""
    attempted = failed = 0
    messages = []
    for _, _, outputs in passes:
        errors = workload.check(outputs, reference)
        attempted += len(outputs) * workload.items_per_request
        if -1 in errors:
            failed += len(outputs) * workload.items_per_request
        else:
            failed += len(errors) * workload.items_per_request
        messages.extend(errors.values())
    return attempted, failed, messages


def end_to_end(args) -> tuple[dict, int, int, list[str], list[str]]:
    setups = measure_setup(args.workload, args.seed)
    workload = build(args.workload, args.seed)
    requests = workload.requests(workload.entry())
    # Whole passes, as many as fit in --seconds at the mean pass time so far.
    passes = []
    start = time.perf_counter()
    with SpeedProbe() as probe:
        while not passes or (time.perf_counter() - start) \
                * (len(passes) + 1) / len(passes) <= args.seconds:
            passes.append(run_pass(requests, probe))
    passes = scale(probe, passes)
    attempted, failed, errors = check_passes(workload, passes, load_reference())

    # A request's latency is its least over the passes: what is left of a
    # slow phase after scaling only adds time.
    latencies = [min(lats[i] for _, lats, _ in passes)
                 for i in range(len(requests))]
    tail_name, tail_s = tail(latencies)
    items = len(requests) * workload.items_per_request
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (items / sum(latencies), "1/s"),
        "item_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    # The median (requests of about 2 ms on analyze_mix) is printed but not
    # part of the result: with the random graphs of each seed, its spread
    # over seeds was 0.07 to 0.1 even after scaling, too wide for a bound.
    notes = [f"item_p50_ms: {statistics.median(latencies) * 1e3:.6f} ms (not gated)",
             f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} items)",
             f"{len(passes)} passes of {len(requests)} requests, "
             f"{workload.items_per_request} items per request",
             f"{len(probe.samples)} speed samples, mean "
             f"{statistics.fmean(probe.samples or [1.0]):.4f} of the reference speed",
             f"item_tail_ms is the {tail_name} of {len(latencies)} request latencies"]
    return metrics, attempted, failed, errors, notes


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def ns_per_call(fn, samples, rule) -> float:
    """Median over rounds of the mean time of one call on the samples."""
    perf = time.perf_counter
    rounds = []
    for _ in range(KERNEL_ROUNDS):
        t0 = perf()
        for g, s in samples:
            fn(g, s, rule)
        rounds.append((perf() - t0) / len(samples) * 1e9)
    return statistics.median(rounds)


def kernel_metrics(fk, workload, seed: int) -> dict:
    """derived_set and is_fort on fixed (graph, set) samples drawn from the
    workload's seeded inputs: a random set for the closure, a random
    nonempty set for the fort check."""
    rng = random.Random(seed)
    graphs = workload.kernel_graphs(rng)
    closure_samples, fort_samples = [], []
    for i in range(KERNEL_SAMPLES):
        g = graphs[i % len(graphs)]
        blue = sum(1 << v for v in range(g.n) if rng.random() < 0.3)
        fort = sum(1 << v for v in range(g.n) if rng.random() < 0.5)
        closure_samples.append((g, blue))
        fort_samples.append((g, fort or 1 << rng.randrange(g.n)))
    metrics = {}
    for rule in fk.Rule:
        metrics[f"forcing.derived_set.{rule.value}.ns_per_call"] = (
            ns_per_call(fk.derived_set, closure_samples, rule), "ns")
        metrics[f"search.is_fort.{rule.value}.ns_per_call"] = (
            ns_per_call(fk.is_fort, fort_samples, rule), "ns")
    return metrics


RULES = ("standard", "psd")
LINALG_FUNCTIONS = ("sample_pattern_matrix", "shifted_singular_matrix",
                    "weighted_laplacian", "support_implies_failed", "kernel_basis",
                    "rank_lower_bound_check")


def layer_metrics(tracer) -> dict:
    """Per-layer metrics of one traced pass."""
    m = {}
    for rule in RULES:
        name = f"forcing.derived_set.{rule}"
        m[f"{name}.calls"] = (tracer.hot_sum(name, CALLS), "count")
        m[f"{name}.self_s"] = (tracer.hot_sum(name, SELF_S), "s")
    name = "graphs.components_within"
    m[f"{name}.calls"] = (tracer.hot_sum(name, CALLS), "count")
    m[f"{name}.self_s"] = (tracer.hot_sum(name, SELF_S), "s")
    for search in ("zero_forcing_number", "failed_number"):
        for rule in RULES:
            name = f"search.{search}.{rule}"
            m[f"{name}.calls"] = (tracer.total(name, CALLS), "count")
            m[f"{name}.total_s"] = (tracer.total(name, TOTAL_S), "s")
            m[f"{name}.self_s"] = (tracer.total(name, SELF_S), "s")
    for rule in RULES:
        # derived_set calls whose nearest traced caller is the Z search
        m[f"search.z_nodes.{rule}"] = (tracer.hot_sum(
            f"forcing.derived_set.{rule}", CALLS,
            parent=f"search.zero_forcing_number.{rule}"), "count")
    m["theorems.check.calls"] = (tracer.total("theorems.check", CALLS), "count")
    m["theorems.check.total_s"] = (tracer.total("theorems.check", TOTAL_S), "s")
    for name in ("suites.run_exhaustive", "suites.run_linalg", "cli.main"):
        m[f"{name}.self_s"] = (tracer.total(name, SELF_S), "s")
    m["graphs.parse_graph.total_s"] = (tracer.total("graphs.parse_graph", TOTAL_S), "s")
    for fn in LINALG_FUNCTIONS:
        m[f"linalg.{fn}.total_s"] = (tracer.total(f"linalg.{fn}", TOTAL_S), "s")
    m["forcing.is_failed_set.calls"] = (
        sum(tracer.total(f"forcing.is_failed_set.{r}", CALLS) for r in RULES), "count")
    return m


def traced(args) -> tuple[dict, int, int, list[str], list[str]]:
    workload = build(args.workload, args.seed)
    fk = workload.fk
    metrics = kernel_metrics(fk, workload, args.seed)

    entry = workload.entry()
    plain_s, _, plain_outputs = run_pass(workload.requests(entry))
    runs = []
    for _ in range(2):
        tracer = Tracer()
        requests = workload.requests(tracer.span(entry, workload.entry_name))
        tracer.install()
        try:
            wall, _, outputs = run_pass(requests)
        finally:
            tracer.uninstall()
        runs.append((tracer, wall, outputs))
    passes = [(plain_s, None, plain_outputs)] + [(w, None, o) for _, w, o in runs]
    attempted, failed, errors = check_passes(workload, passes, load_reference())

    first, second = runs[0][0].counters(), runs[1][0].counters()
    if first != second:
        differing = sorted(k for k in first.keys() | second.keys()
                           if first.get(k) != second.get(k))
        errors.append(f"call counters differ between two traced passes: {differing}")
    tracer = runs[1][0]
    metrics.update(layer_metrics(tracer))
    traced_s = statistics.median(w for _, w, _ in runs)
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    trace_file = OUT / f"trace-{args.workload}-{args.seed}.json.gz"
    tracer.write(trace_file)
    notes = [f"untraced pass {plain_s:.3f} s, traced passes "
             + ", ".join(f"{w:.3f} s" for _, w, _ in runs),
             f"spans written to {trace_file.relative_to(ROOT)}"]
    if tracer.missing:
        notes.append("names not found, so not traced: " + ", ".join(tracer.missing))
    return metrics, attempted, failed, errors, notes


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "forcekit" / "__init__.py").is_file():
        print(f"error: no forcekit sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD_ENV)
    os.environ.pop("FORCEKIT_BUDGET", None)
    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0

    measure = traced if args.trace else end_to_end
    metrics, attempted, failed, errors, notes = measure(args)
    for error in errors[:20]:
        print(f"error: {error}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:>16.6f} {unit}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
