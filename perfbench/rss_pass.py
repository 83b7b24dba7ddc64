"""Peak resident memory of a fresh process running one pass of a workload.

    python3 perfbench/rss_pass.py --workload NAME --seed N --trace-path FILE

Prints one JSON line with the peak resident set size in KiB, the pass
totals that golden.json records, and the problems found.  ``run.py``
starts it once per untraced run to measure ``peak_rss_mib``.

The peak is Linux's ``VmHWM``, the high-water mark of this process's own
memory map.  ``ru_maxrss`` would not do: it keeps the resident size that
the parent had when it started this process.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import harness


def peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fp:
        for line in fp:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-path", type=Path, required=True)
    args = parser.parse_args()
    outcomes = harness.run_pass(harness.recipes_for(args.workload, args.seed), args.trace_path)
    print(json.dumps({
        "peak_rss_kib": peak_rss_kib(),
        "totals": harness.summarize(outcomes),
        "failed": sum(bool(o.problems) for o in outcomes),
        "problems": [f"{o.ident}: {p}" for o in outcomes for p in o.problems],
    }))


if __name__ == "__main__":
    main()
