"""Self-tests of the benchmark, on shrunken copies of its workloads.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness

HERE = Path(__file__).resolve().parent
SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads((HERE / "golden.json").read_text())


@pytest.fixture(scope="module", params=sorted(harness.WORKLOADS))
def passes(request, tmp_path_factory):
    trace_path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    recipes = harness.recipes_for(request.param, 0, small=True)
    return request.param, harness.run_pass(recipes, trace_path), \
        harness.traced_pass(recipes, trace_path)


def test_shrunken_workload_runs_clean(passes):
    _, untraced, traced = passes
    assert untraced and len(traced.outcomes) == len(untraced)
    assert [o.problems for o in untraced + traced.outcomes if o.problems] == []


def test_traced_run_simulates_what_engine_run_does(passes):
    _, untraced, traced = passes
    assert [(o.ident, o.digest, o.rounds_used, o.executed_rounds) for o in traced.outcomes] \
        == [(o.ident, o.digest, o.rounds_used, o.executed_rounds) for o in untraced]


def test_self_times_add_up_to_each_phase(passes):
    _, _, traced = passes
    tracer = traced.tracer
    for phase in harness.PHASES:
        layers = sum(t for (p, _), t in tracer.self_s.items() if p == phase)
        assert layers == pytest.approx(tracer.phase_s[phase], rel=1e-9, abs=1e-12)


def test_distance_is_only_computed_for_two_colour_workloads(passes):
    workload, _, traced = passes
    calls = traced.metrics()["analysis.distance_calls"]
    assert (calls == 0) == (workload == "many_colour")


def test_metrics_match_benchmark_json(passes):
    _, untraced, traced = passes
    assert set(harness.layer_metrics([untraced], [traced])) \
        == {m["name"] for m in SPEC["per_layer"]}
    assert set(harness.end_to_end_metrics([untraced])) | {"peak_rss_mib"} \
        == {m["name"] for m in SPEC["end_to_end"]}


def test_scaling_uses_the_probes_around_each_phase():
    probe = harness.SpeedProbe()
    probe.starts, probe.loop_s = [0.0, 1.0, 5.0], [0.004, 0.006, 0.010]
    assert probe.scale(1.5, 4.0) == pytest.approx(harness.REFERENCE_S / 0.008)
    assert probe.scale(0.5, 0.9) == pytest.approx(harness.REFERENCE_S / 0.005)
    assert probe.scale(5.5, 6.0) == pytest.approx(harness.REFERENCE_S / 0.010)


def test_benchmark_json_keeps_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_golden_records_the_reference_runs():
    assert GOLDEN["workloads"]["adversarial_k256"]["any"]["rounds_used"] == 383
    assert GOLDEN["workloads"]["adversarial_k256"]["any"]["executed_rounds"] == 639
    assert GOLDEN["workloads"]["adversarial_k256"]["any"]["moves"] == 65790
    for workload in harness.WORKLOADS.keys() - harness.SEEDLESS:
        for seed in (GOLDEN["default_seed"], GOLDEN["held_out_seed"]):
            assert str(seed) in GOLDEN["workloads"][workload]


def test_fails_without_the_program(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "small_batch",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
