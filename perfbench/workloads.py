"""The three benchmark workloads: seeded inputs, one pass, output checks.

A workload is built from the benchmark seed alone and reaches forcekit only
through its public entry points.  One *pass* is a fixed list of requests;
the timed loop in ``run.py`` repeats whole passes.  A request returns the
raw output of its entry point, and ``check`` judges those outputs after the
timed region, so checking never counts against the program.

- ``exhaustive6``: one request per pass, ``run_exhaustive(max_n=6, jobs=1)``
  over all 33,867 labeled graphs with at most 6 vertices.  The unit of work
  is a graph.  The input does not depend on the seed; the seed only picks
  the kernel micro-samples.
- ``analyze_mix``: 119 ``forcekit analyze --json`` requests per pass, sent
  in-process through ``forcekit.cli.main`` by one client in a closed loop.
  50 are seeded random connected graphs passed with ``--file``, 69 a fixed
  catalogue of ``--family`` instances; the seed fixes the random graphs and
  the request order.  The unit of work is a request.
- ``linalg_certs``: 20 requests per pass, each ``run_linalg(seed_i,
  trials=2, max_n=12)`` with ``seed_i`` derived from the benchmark seed.
  The unit of work is a (family spec, trial) pair.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

EXHAUSTIVE_MAX_N = 6
EXHAUSTIVE_GRAPHS = 33867          # labeled graphs with 1 <= n <= 6

# Orders of the 50 random graphs: 10 each of n = 8, 9 and 10, which with the
# small catalogue instances put the median latency inside a dense cluster of
# cheap requests, and 20 spread over n = 11..18.  Random graphs with n >= 24
# exhaust the default budget.
ANALYZE_RANDOM_N = [8] * 10 + [9] * 10 + [10] * 10 + [11 + i % 8 for i in range(20)]
ANALYZE_BRUTE_MAX_N = 14    # F is also checked by the 2^n oracle up to here

# Fixed --family catalogue.  50 instances have at most 10 vertices (eight of
# them disjoint unions); with the smallest random graphs they make about 70%
# of a pass, so the median latency is mostly the per-request overhead of cli
# and graphs.parse_graph.  Five are mid-sized.  Fourteen are deep searches
# of 0.2 to 1 s (Z on Q4 and on bicliques, F+ on long paths, cycles, wheels
# and trees); they outweigh every random graph, so the tail percentile falls
# among fixed instances of similar cost and does not jump with the seed.
ANALYZE_FAMILIES = (
    [f"path:{n}" for n in range(1, 9)]
    + [f"cycle:{n}" for n in range(3, 9)]
    + [f"wheel:{n}" for n in range(4, 10)]
    + [f"hypercube:{d}" for d in (1, 2, 3)]
    + [f"biclique:{m},{n}" for m, n in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2),
                                        (3, 3), (4, 2), (4, 3), (4, 4), (5, 1))]
    + [f"halfgraph:{s}" for s in (1, 2, 3, 4)]
    + [f"marytree:{m},{n}" for m, n in ((2, 5), (2, 7), (3, 7), (2, 9), (3, 9))]
    + ["path:2+cycle:3", "path:1+path:4", "cycle:3+cycle:3", "wheel:4+path:2",
       "biclique:2,2+path:3", "halfgraph:2+cycle:4", "marytree:2,4+path:2",
       "hypercube:2+path:3"]
    + ["path:12", "cycle:12", "wheel:14", "halfgraph:6", "marytree:2,12"]
    + ["path:16", "cycle:16", "wheel:19", "wheel:20", "hypercube:4",
       "biclique:7,7", "biclique:8,6", "biclique:8,7", "biclique:9,6",
       "halfgraph:8", "marytree:2,16", "marytree:3,15", "marytree:3,16",
       "marytree:4,16"]
)

LINALG_REQUESTS = 20                # 20 latencies give a tail with 10 beyond it
LINALG_TRIALS = 2
LINALG_MAX_N = 12
LINALG_SPECS = 100                 # family instances with n <= 12, plus 3 unions


def digest(obj) -> str:
    """sha256 of the canonical JSON form of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


class Workload:
    name = ""
    entry_name = ""         # span name of the entry point the requests call
    items_per_request = 1   # units of work one request covers

    def __init__(self, fk, seed: int, scratch: Path):
        """scratch is a directory the workload may write its inputs to."""
        self.fk = fk
        self.seed = seed

    def entry(self):
        """The forcekit entry point that every request calls."""
        raise NotImplementedError

    def requests(self, entry) -> list:
        """Zero-argument callables of one pass, in order; each calls entry
        and returns its raw output."""
        raise NotImplementedError

    def check(self, outputs: list, reference: dict) -> dict[int, str]:
        """Errors in one pass's outputs by request index; index -1 marks an
        error of the whole pass.  Empty when every output is correct."""
        raise NotImplementedError

    def kernel_graphs(self, rng: random.Random) -> list:
        """Graphs drawn from this workload's inputs for the kernel timings."""
        raise NotImplementedError


def _suite_error(result, reference_digest: str, digest_fn) -> str | None:
    if isinstance(result, Exception):
        return f"raised {result!r}"
    if not result.get("ok"):
        return f"suite reported failures: {result.get('checks')}"
    if digest_fn(result) != reference_digest:
        return "result digest differs from the recorded reference"
    return None


# ---------------------------------------------------------------------------
# exhaustive6
# ---------------------------------------------------------------------------

class Exhaustive6(Workload):
    name = "exhaustive6"
    entry_name = "suites.run_exhaustive"
    items_per_request = EXHAUSTIVE_GRAPHS

    def entry(self):
        return self.fk.suites.run_exhaustive

    def requests(self, entry):
        return [lambda: entry(max_n=EXHAUSTIVE_MAX_N, jobs=1)]

    def check(self, outputs, reference):
        errors = {}
        for i, result in enumerate(outputs):
            error = _suite_error(result, reference["exhaustive6"], digest)
            if error is None and result["graphs_checked"] != EXHAUSTIVE_GRAPHS:
                error = f"checked {result['graphs_checked']} graphs"
            if error:
                errors[i] = error
        return errors

    def kernel_graphs(self, rng):
        graphs = []
        for _ in range(400):
            n = rng.randint(2, EXHAUSTIVE_MAX_N)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.5]
            graphs.append(self.fk.graph_from_edges(n, edges))
        return graphs


# ---------------------------------------------------------------------------
# analyze_mix
# ---------------------------------------------------------------------------

def random_connected_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Random labeled spanning tree plus between 3n/4 and n extra edges.

    Near-trees make the PSD fort search scan almost all 2^n sets and dense
    graphs make the Z search deep; this band keeps the cost of a pass about
    the same whatever the seed.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    edges = set()
    for v in range(1, n):
        u = perm[rng.randrange(v)]
        edges.add((min(u, perm[v]), max(u, perm[v])))
    target = n - 1 + rng.randint(3 * n // 4, n)
    while len(edges) < target:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return sorted(edges)


def edge_list_text(n: int, edges) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


class AnalyzeMix(Workload):
    name = "analyze_mix"
    entry_name = "cli.main"

    def __init__(self, fk, seed, scratch):
        super().__init__(fk, seed, scratch)
        rng = random.Random(seed)
        inputs = [("family", f) for f in ANALYZE_FAMILIES]
        for n in ANALYZE_RANDOM_N:
            inputs.append(("file", edge_list_text(n, random_connected_edges(rng, n))))
        rng.shuffle(inputs)
        self.inputs = inputs
        scratch.mkdir(parents=True, exist_ok=True)
        self.argvs = []
        for idx, (kind, value) in enumerate(inputs):
            if kind == "file":
                path = scratch / f"graph{idx:03d}.txt"
                path.write_text(value)
                value = str(path)
            self.argvs.append(["analyze", f"--{kind}", value, "--json"])
        self._brute: dict = {}

    def entry(self):
        return self.fk.cli.main

    def requests(self, entry):
        def make(argv):
            def request():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = entry(argv)
                return code, out.getvalue(), err.getvalue()
            return request
        return [make(argv) for argv in self.argvs]

    def graph_of(self, kind: str, value: str):
        fk = self.fk
        if kind == "family":
            return fk.build_family(fk.parse_family(value))
        lines = value.splitlines()
        n = int(lines[0].split()[0])
        return fk.graph_from_edges(n, [tuple(map(int, ln.split())) for ln in lines[1:]])

    def _brute_F(self, g, value: str, rule) -> int:
        key = (value, rule)
        if key not in self._brute:
            self._brute[key] = self.fk.brute_failed_number(g, rule).value
        return self._brute[key]

    def check_response(self, kind: str, value: str, output) -> tuple[str | None, list]:
        """Verify one response with the public forcing functions.  Returns
        an error or None, and the (rule, parameter, value, witness) tuples."""
        fk = self.fk
        if isinstance(output, Exception):
            return f"raised {output!r}", []
        code, stdout, stderr = output
        if code != 0:
            return f"exit code {code}: {stderr.strip()}", []
        report = json.loads(stdout)
        g = self.graph_of(kind, value)
        if report["graph"]["n"] != g.n or \
                [tuple(e) for e in report["graph"]["edges"]] != g.edges():
            return "echoed graph differs from the input", []
        if not report["consistent"]:
            return "analyze reported an inconsistency", []
        tuples = [[e["rule"], e["parameter"], e["value"], e["witness"]]
                  for e in report["computed"]]
        values = {}
        for rule_name, parameter, size, witness in tuples:
            rule = fk.Rule(rule_name)
            param = parameter[0]
            values[(rule, param)] = size
            mask = fk.mask_of(witness)
            if len(witness) != size or mask.bit_count() != size:
                return f"{parameter} witness size differs from its value", tuples
            if param == "Z" and not fk.is_forcing_set(g, mask, rule):
                return f"{parameter} witness does not force", tuples
            if param == "F" and not (fk.is_failed_set(g, mask, rule)
                                     and fk.is_stalled(g, mask, rule)):
                return f"{parameter} witness is not failed and stalled", tuples
        if len(values) != 4:
            return "response lacks some of Z, F, Z+, F+", tuples
        if g.n <= ANALYZE_BRUTE_MAX_N:
            for rule in fk.Rule:
                brute = self._brute_F(g, value, rule)
                if brute != values[(rule, "F")]:
                    return (f"F under {rule.value} is {values[(rule, 'F')]}, "
                            f"the brute-force oracle gives {brute}"), tuples
        return None, tuples

    def check(self, outputs, reference):
        catalogue, records, errors = {}, [], {}
        for i, ((kind, value), output) in enumerate(zip(self.inputs, outputs)):
            try:
                error, tuples = self.check_response(kind, value, output)
            except Exception as exc:  # a malformed response is a wrong result
                error, tuples = f"checking raised {exc!r}", []
            if error:
                errors[i] = f"{kind} {value.splitlines()[0]!r}: {error}"
            records.append([kind, value, tuples])
            if kind == "family":
                catalogue[value] = tuples
        ref = reference["analyze_mix"]
        if not errors:
            want = ref["seeds"].get(str(self.seed))
            if digest(catalogue) != ref["catalogue"]:
                errors[-1] = "catalogue digest differs from the recorded reference"
            elif want is not None and digest(records) != want:
                errors[-1] = "pass digest differs from the recorded reference"
        return errors

    def kernel_graphs(self, rng):
        return [self.graph_of(kind, value) for kind, value in self.inputs]


# ---------------------------------------------------------------------------
# linalg_certs
# ---------------------------------------------------------------------------

def linalg_digest(result: dict) -> str:
    """Digest of a run_linalg result without its seed: when every
    certificate passes, the rest of the result does not depend on it."""
    params = {k: v for k, v in result["params"].items() if k != "seed"}
    return digest({**result, "params": params})


class LinalgCerts(Workload):
    name = "linalg_certs"
    entry_name = "suites.run_linalg"
    items_per_request = LINALG_SPECS * LINALG_TRIALS

    def entry(self):
        return self.fk.suites.run_linalg

    def requests(self, entry):
        def make(seed):
            return lambda: entry(seed, trials=LINALG_TRIALS, max_n=LINALG_MAX_N)
        return [make(self.seed * LINALG_REQUESTS + i) for i in range(LINALG_REQUESTS)]

    def check(self, outputs, reference):
        errors = {}
        for i, result in enumerate(outputs):
            error = _suite_error(result, reference["linalg_certs"], linalg_digest)
            if error:
                errors[i] = error
        return errors

    def kernel_graphs(self, rng):
        specs = self.fk.suites.default_family_specs(LINALG_MAX_N)
        return [self.fk.build_family(s) for s in specs]


WORKLOADS = {w.name: w for w in (Exhaustive6, AnalyzeMix, LinalgCerts)}
