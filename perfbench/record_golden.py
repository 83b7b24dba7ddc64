"""Record the workload totals that every benchmark pass is checked against.

    python3 perfbench/record_golden.py

Runs one measured pass of each workload for seeds 0..63 (once for the
seedless adversarial workload) and writes perfbench/golden.json.  A pass
with any failed instance is not recorded: the command stops with an error.
Re-record only when a change is meant to alter what the simulator does,
and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import harness

GOLDEN = Path(__file__).resolve().parent / "golden.json"
SEEDS = 64


def main() -> int:
    table: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=harness.ROOT) as tmp:
        trace_path = Path(tmp) / "trace.jsonl"
        for workload in harness.WORKLOADS:
            seeds = ["any"] if workload in harness.SEEDLESS else range(SEEDS)
            table[workload] = {}
            for seed in seeds:
                recipes = harness.recipes_for(workload, 0 if seed == "any" else seed)
                outcomes = harness.run_pass(recipes, trace_path)
                bad = [f"{o.ident}: {p}" for o in outcomes for p in o.problems]
                if bad:
                    print(f"{workload} seed {seed}: refusing to record", *bad, sep="\n  ",
                          file=sys.stderr)
                    return 1
                table[workload][str(seed)] = harness.summarize(outcomes)
                print(workload, seed, table[workload][str(seed)], flush=True)
    GOLDEN.write_text(json.dumps({"default_seed": 0, "held_out_seed": 1, "workloads": table},
                                 indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
