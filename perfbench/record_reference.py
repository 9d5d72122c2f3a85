"""Record the reference digests that ``run.py`` compares outputs against.

    python3 perfbench/record_reference.py [--seeds 30]

Run it from the root of a checkout whose outputs are known to be right; it
rewrites ``perfbench/reference.json``.  Every response is first verified
with the same witness and oracle checks the benchmark applies.  The
analyze_mix digest of a whole pass depends on the seed, so it is recorded
for seeds 0 .. seeds-1; other seeds are checked by the catalogue digest and
the oracles alone.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import OUT, build, run_pass
from workloads import REFERENCE, digest, linalg_digest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=30)
    args = parser.parse_args()

    exhaustive = build("exhaustive6", 0)
    _, _, (result,) = run_pass(exhaustive.requests(exhaustive.entry()))
    if not result["ok"]:
        raise SystemExit(f"exhaustive6 failed: {result['checks']}")
    reference = {"exhaustive6": digest(result)}

    linalg = build("linalg_certs", 0)
    _, _, outputs = run_pass(linalg.requests(linalg.entry()))
    digests = {linalg_digest(r) for r in outputs}
    if not all(r["ok"] for r in outputs) or len(digests) != 1:
        raise SystemExit(f"linalg_certs failed or is not seed-independent: {digests}")
    reference["linalg_certs"] = digests.pop()

    seeds = {}
    catalogue = None
    for seed in range(args.seeds):
        mix = build("analyze_mix", seed)
        requests = mix.requests(mix.entry())
        # The catalogue does not depend on the seed: run it once.
        todo = [i for i, (kind, _) in enumerate(mix.inputs)
                if kind == "file" or catalogue is None]
        _, _, done = run_pass([requests[i] for i in todo])
        outputs = [None] * len(requests)
        for i, output in zip(todo, done):
            outputs[i] = output
        records = []
        for i, (kind, value) in enumerate(mix.inputs):
            if outputs[i] is None:
                records.append([kind, value, catalogue[value]])
                continue
            error, tuples = mix.check_response(kind, value, outputs[i])
            if error:
                raise SystemExit(f"analyze_mix seed {seed}, {kind} {value!r}: {error}")
            records.append([kind, value, tuples])
        if catalogue is None:
            catalogue = {value: tuples for kind, value, tuples in records
                         if kind == "family"}
        seeds[str(seed)] = digest(records)
        print(f"analyze_mix seed {seed}: {seeds[str(seed)][:16]}", file=sys.stderr)
    reference["analyze_mix"] = {"catalogue": digest(catalogue), "seeds": seeds}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE} (inputs under {OUT})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
