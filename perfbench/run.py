"""Benchmark of the ringform pipeline: simulate -> write trace -> audit.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Runs one workload (or all of them) closed loop in this process, one
instance at a time, for ``--seconds`` seconds after an untimed warm-up on a
shrunken copy of the workload.  With ``--trace 0`` it reports the
end-to-end metrics of BENCHMARK.json: host-speed-scaled medians over the
passes, and the peak memory of one more pass in a fresh child process.
With ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics.  The last
line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Every instance is checked; see perfbench/README.md for what counts as failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3


def environment(import_s: float) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=60).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ringform").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": commit or None,
        "source_sha256": sources.hexdigest(),
        "import_s": import_s,
    }


def peak_rss_pass(workload: str, seed: int, work_dir: Path) -> dict:
    """One pass in a fresh interpreter; returns its peak RSS and pass totals."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "rss_pass.py"), "--workload", workload,
         "--seed", str(seed), "--trace-path", str(work_dir / "rss-trace.jsonl")],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Measurement:
    """The passes of one workload and everything wrong with them."""

    def __init__(self, harness, workload: str, seed: int, golden: dict | None):
        self.harness = harness
        self.workload = workload
        self.seed = seed
        self.golden = golden
        self.recipes = harness.recipes_for(workload, seed)
        self.passes: list[list] = []
        self.traced: list = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def note(self, problem: str) -> None:
        if problem not in self.problems:
            self.problems.append(problem)

    def check_totals(self, totals: dict, instances_failed: int) -> None:
        """Count a pass; every instance of it fails if its totals miss golden.json."""
        self.attempted += totals["instances"]
        if self.golden is not None and totals != self.golden:
            self.note(f"pass totals {totals} differ from golden.json {self.golden}")
            self.failed += totals["instances"]
        else:
            self.failed += instances_failed

    def add_pass(self, outcomes: list) -> None:
        self.passes.append(outcomes)
        for o in outcomes:
            for problem in o.problems:
                self.note(f"{o.ident}: {problem}")
        self.check_totals(self.harness.summarize(outcomes),
                          sum(bool(o.problems) for o in outcomes))

    def add_traced(self, traced, reference: list) -> None:
        self.traced.append(traced)
        for o, ref in zip(traced.outcomes, reference):
            self.attempted += 1
            bad = bool(o.problems) or o.digest != ref.digest
            self.failed += bad
            if bad:
                self.note(f"{o.ident}: traced run digest or checks differ from engine.run")

    def phase_values(self, phase: str) -> list[float]:
        """Unscaled wall times of ``phase`` in each pass."""
        return [self.harness.phase_total(outcomes, phase) for outcomes in self.passes]


def measure(harness, workload: str, seed: int, seconds: float, trace: bool,
            golden: dict | None, work_dir: Path) -> tuple[Measurement, dict[str, float]]:
    m = Measurement(harness, workload, seed, golden)
    trace_path = work_dir / "trace.jsonl"
    warm = harness.recipes_for(workload, seed, small=True)
    harness.run_pass(warm, trace_path)
    if trace:
        harness.traced_pass(warm, trace_path)

    start = time.perf_counter()
    pass_s = 0.0  # start another pass only while it should end within ``seconds``
    while len(m.passes) < MIN_PASSES or time.perf_counter() - start + pass_s <= seconds:
        began = time.perf_counter()
        gc.collect()
        m.add_pass(harness.run_pass(m.recipes, trace_path))
        if trace:
            gc.collect()
            m.add_traced(harness.traced_pass(m.recipes, trace_path), m.passes[-1])
        pass_s = time.perf_counter() - began

    if trace:
        return m, harness.layer_metrics(m.passes, m.traced)
    metrics = harness.end_to_end_metrics(m.passes)
    child = peak_rss_pass(workload, seed, work_dir)
    metrics["peak_rss_mib"] = child["peak_rss_kib"] / 1024
    m.check_totals(child["totals"], child["failed"])
    for problem in child["problems"]:
        m.note(f"fresh-process pass: {problem}")
    return m, metrics


def report(m: Measurement, metrics: dict[str, float], units: dict[str, str],
           names: list[str]) -> None:
    frac = m.failed / m.attempted
    totals = m.harness.summarize(m.passes[0])
    print(f"[{m.workload} seed={m.seed}] {len(m.passes)} passes, {m.attempted} instance "
          f"runs, {m.failed} failed (failed_frac {frac:g}); per pass: "
          f"{totals['instances']} instances, {totals['rounds_used']} rounds to target, "
          f"{totals['executed_rounds']} executed, {totals['moves']} moves")
    for name in names:
        line = f"  {name:34} {metrics[name]:.6g} {units[name]}"
        if name in m.harness.PHASES + ("total_s",):
            q1, med, q3 = statistics.quantiles(m.phase_values(name), n=4)
            line += (f"  (unscaled wall time over {len(m.passes)} passes: median {med:.6g}, "
                     f"q1 {q1:.6g}, q3 {q3:.6g})")
        print(line)
    for problem in m.problems[:20]:
        print(f"  FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((HERE / "golden.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=golden["default_seed"])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # On SIGTERM, unwind: subprocess.run kills and reaps the child and the
    # temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "ringform" / "__init__.py").is_file():
        print(f"error: no ringform package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    import harness
    import_s = time.perf_counter() - start
    print(json.dumps({"environment": environment(import_s), "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace}))

    key = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[key]}
    selected = workloads if args.workload == "all" else [args.workload]
    attempted = failed = 0
    results: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for workload in selected:
            table = golden["workloads"][workload]
            expected = table.get("any", table.get(str(args.seed)))
            m, metrics = measure(harness, workload, args.seed, args.seconds,
                                 bool(args.trace), expected, Path(tmp))
            report(m, metrics, units, list(units))
            attempted += m.attempted
            failed += m.failed
            prefix = f"{workload}." if args.workload == "all" else ""
            for name, unit in units.items():
                results[prefix + name] = {"value": metrics[name], "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
