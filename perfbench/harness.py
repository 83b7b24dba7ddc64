"""Workloads, the measured pipeline pass, the host-speed probe and the
traced round loop of the ringform benchmark.  Standard library only.

A pass runs every instance of a workload through the user pipeline, one
instance at a time: generate -> serialize/parse round trip -> validate ->
orient roles -> ``engine.run`` -> ``write_trace`` to a file ->
``read_trace`` + ``verify.verify_trace`` (what ``ringform verify`` does).

The traced pass does the same work through the public functions, one call
at a time, and records every call as a span.  Its round loop re-implements
``engine.run`` so the engine's layers can be timed from outside the
package; the digest check proves it simulated exactly what ``engine.run``
simulates.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Iterator

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ringform import analysis, engine, generators, verify  # noqa: E402
from ringform.core import (  # noqa: E402
    Configuration,
    Instance,
    ProblemKind,
    parse_instance,
    serialize_instance,
    validate,
)

Recipe = tuple[str, Callable[[], Instance]]

PHASES = ("setup_s", "run_s", "trace_write_s", "verify_s")

# End-to-end times are scaled to a host on which the reference loop takes
# REFERENCE_S; a pass probes the loop between phases, PROBE_EVERY_S apart.
REFERENCE_S = 0.005
REFERENCE_ITERATIONS = 20000
PROBE_EVERY_S = 0.2

# Every checker name ``verify.run_checks`` knows; each gets a span metric.
CHECKS = ("safety", "quiescence", "order_preserving", "suffix_property", "no_wraparound",
          "distance_monotone", "distance_nonincreasing", "distance_decrease",
          "cooperativeness", "final_condition")

# Configuration methods timed wherever they are called from during a traced pass.
CORE_METHODS = {"block_view": "core.block_view", "all_counts": "core.all_counts",
                "colour_totals": "core.colour_totals"}

LAYER_SPANS = (
    "generators.generate", "core.serialize", "core.parse", "core.validate",
    "engine.orient_roles",
    "engine.build_pairing", "core.block_view", "engine.window_step_two_colour",
    "engine.window_step_q_colour", "engine.apply_moves", "core.all_counts",
    "core.colour_totals", "engine.target_satisfied", "analysis.potential_setup",
    "analysis.distance",
    "engine.write_trace", "engine.read_trace", "verify.replay",
) + tuple(f"verify.check_{name}" for name in CHECKS) + ("bench.unattributed",)

# engine.execute_round records these constant checks with every round.
_ROUND_CHECKS = (("collision_free", True), ("within_window", True), ("colours_conserved", True))


# --- workloads -------------------------------------------------------------------


def adversarial_recipes(seed: int, small: bool = False) -> list[Recipe]:
    """The slow two-colour family; it takes no seed."""
    k = 16 if small else 256
    return [(f"adversarial_half-k{k}-p4", partial(generators.gen_adversarial_half, k, 4))]


def many_colour_recipes(seed: int, small: bool = False) -> list[Recipe]:
    """Exact counts with q=4 and exact patterns with q=3, eight seeds each."""
    k, per = (8, 1) if small else (64, 8)
    seeds = [seed * per + i for i in range(per)]
    return ([(f"random-k{k}-p8-q4-s{s}", partial(generators.gen_random, k, 8, 4, s))
             for s in seeds]
            + [(f"p3_random-k{k}-p6-q3-s{s}", partial(generators.gen_p3_random, k, 6, 3, s))
               for s in seeds])


def small_batch_recipes(seed: int, small: bool = False) -> list[Recipe]:
    """The ``ringform bench --suite all`` families plus a P2 sweep."""
    recipes: list[Recipe] = []
    bench_seeds = [seed * 3 + i for i in range(3)]
    for k in (2, 4, 6, 8, 12, 16):
        for p in (2, 4, 6):
            for s in bench_seeds:
                recipes.append((f"random-k{k}-p{p}-s{s}",
                                partial(generators.gen_random, k, p, 2, s)))
    for k in (4, 8, 16, 32):
        for p in (2, 4):
            for m in sorted({1, p // 2, p - 1}):
                for s in bench_seeds:
                    recipes.append((f"homogeneous-k{k}-p{p}-m{m}-s{s}",
                                    partial(generators.gen_homogeneous, k, p, m, s)))
    for k in (8, 16, 32):
        for p in (2, 4):
            recipes.append((f"adversarial_half-k{k}-p{p}",
                            partial(generators.gen_adversarial_half, k, p)))
    for k in (4, 8, 16):
        for p in (3, 5):
            for s in range(seed * 10, seed * 10 + 10):
                recipes.append((f"p2_random-k{k}-p{p}-s{s}",
                                partial(generators.gen_p2_random, k, p, 2, s)))
    return recipes[::12] if small else recipes


WORKLOADS: dict[str, Callable[..., list[Recipe]]] = {
    "adversarial_k256": adversarial_recipes,
    "many_colour": many_colour_recipes,
    "small_batch": small_batch_recipes,
}

SEEDLESS = {"adversarial_k256"}


def recipes_for(workload: str, seed: int, small: bool = False) -> list[Recipe]:
    return WORKLOADS[workload](seed, small)


# --- correctness -----------------------------------------------------------------


def moves_digest(rounds: Iterable[engine.RoundTrace], final: Configuration) -> str:
    """sha256 over each round's offset and sorted moves, then the final
    configuration; independent of the trace file format."""
    h = hashlib.sha256()
    for rt in rounds:
        moves = " ".join(f"{a},{s},{d}"
                         for a, s, d in sorted((m.agent_id, m.src, m.dst) for m in rt.moves))
        h.update(f"{rt.offset}:{moves}\n".encode())
    h.update(" ".join(f"{a.id},{a.colour}" for a in final.agents).encode())
    return h.hexdigest()


@dataclass
class Outcome:
    """What one instance did, and what was wrong with it (nothing, if correct)."""

    ident: str
    rounds_used: int
    executed_rounds: int
    moves: int
    digest: str
    problems: list[str]
    times: dict[str, float] = field(default_factory=dict)   # phase: wall seconds
    scaled: dict[str, float] = field(default_factory=dict)  # phase: host-speed-scaled seconds


def orient(inst: Instance) -> tuple[Instance, bool]:
    """Orient colour roles as ``ringform run`` does: exact two-colour instances only."""
    if inst.spec.kind is ProblemKind.P1 and inst.q == 2:
        return engine.orient_roles(inst)
    return inst, False


def audit(ident: str, text: str, parsed: Instance, valid: bool, oriented: Instance,
          result: engine.RunResult, stored: engine.TraceData,
          verdicts: list[verify.InvariantVerdict]) -> Outcome:
    problems = []
    if serialize_instance(parsed) != text:
        problems.append("serialize/parse round trip changed the document")
    if not valid:
        problems.append("instance failed validation")
    if not result.terminated:
        problems.append("run did not terminate")
    if analysis.bound_is_proven(oriented) and result.rounds_used > result.bound:
        problems.append(f"{result.rounds_used} rounds exceed the proven bound {result.bound}")
    problems.extend(str(v) for v in verdicts if not v.passed)
    digest = moves_digest(result.trace, result.final)
    if moves_digest(stored.rounds, result.final) != digest:
        problems.append("the stored trace disagrees with the run")
    return Outcome(ident, result.rounds_used, len(result.trace),
                   sum(len(rt.moves) for rt in result.trace), digest, problems)


def summarize(outcomes: list[Outcome]) -> dict:
    """Workload totals recorded in golden.json and compared on every pass."""
    h = hashlib.sha256()
    for o in outcomes:
        h.update(f"{o.ident} {o.digest}\n".encode())
    return {
        "instances": len(outcomes),
        "rounds_used": sum(o.rounds_used for o in outcomes),
        "executed_rounds": sum(o.executed_rounds for o in outcomes),
        "moves": sum(o.moves for o in outcomes),
        "digest": h.hexdigest(),
    }


# --- the measured pass -------------------------------------------------------------


def phase_total(outcomes: list[Outcome], phase: str, kind: str = "times") -> float:
    """One pass's ``times`` (wall) or ``scaled`` time in ``phase``;
    ``total_s`` is the sum of all phases."""
    names = PHASES if phase == "total_s" else (phase,)
    return sum(getattr(o, kind)[name] for o in outcomes for name in names)


def reference_loop_s() -> float:
    """Wall time of a fixed pure-Python loop of dict and tuple work that
    shares no code with ringform: a probe of how fast the host runs now."""
    start = perf_counter()
    table: dict[int, tuple[int, int]] = {}
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        key = (i * 7) & 1023
        table[key] = (i, key)
        acc += table[key][1]
    return perf_counter() - start


class SpeedProbe:
    """Reference-loop times taken between phases, at least PROBE_EVERY_S apart."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.loop_s: list[float] = []
        self.take()

    def take(self) -> None:
        self.starts.append(perf_counter())
        self.loop_s.append(reference_loop_s())

    def between_phases(self) -> None:
        if perf_counter() - self.starts[-1] >= PROBE_EVERY_S:
            self.take()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean loop time of the probes just before
        ``start`` and just after ``end``."""
        before = bisect.bisect_right(self.starts, start) - 1
        after = bisect.bisect_left(self.starts, end)
        near = self.loop_s[before:before + 1] + self.loop_s[after:after + 1]
        return REFERENCE_S / statistics.fmean(near)


def end_to_end_metrics(passes: list[list[Outcome]]) -> dict[str, float]:
    """Median over passes of each phase's scaled time, and of the whole pass."""
    return {phase: statistics.median(phase_total(o, phase, "scaled") for o in passes)
            for phase in PHASES + ("total_s",)}


def run_pass(recipes: list[Recipe], trace_path: Path) -> list[Outcome]:
    """Run every instance through the pipeline, timing each phase.

    The host's speed is probed between phases.  On a shared host the same
    pass can take twice as long for seconds or minutes at a time, and the
    reference loop slows down with it: each phase's ``scaled`` time is its
    wall time on a host where the loop takes REFERENCE_S (see README.md).
    """
    probe = SpeedProbe()
    outcomes = []
    spans = []  # per outcome, each phase's (start, end)
    for ident, make in recipes:
        marks = [perf_counter()]
        inst = make()
        text = serialize_instance(inst)
        parsed = parse_instance(text)
        report = validate(parsed)
        oriented, reversed_roles = orient(parsed)
        marks.append(perf_counter())
        probe.between_phases()
        marks.append(perf_counter())
        result = engine.run(oriented)
        marks.append(perf_counter())
        probe.between_phases()
        marks.append(perf_counter())
        with open(trace_path, "w", encoding="utf-8") as fp:
            engine.write_trace(result, fp, reversed_roles=reversed_roles)
        marks.append(perf_counter())
        probe.between_phases()
        marks.append(perf_counter())
        with open(trace_path, encoding="utf-8") as fp:
            stored = engine.read_trace(fp)
        verdicts = verify.verify_trace(stored)
        marks.append(perf_counter())
        probe.between_phases()
        trace_path.unlink()  # overwriting would make ext4 flush the next trace on close
        outcomes.append(audit(ident, text, parsed, report.valid, oriented, result, stored,
                              verdicts))
        spans.append(dict(zip(PHASES, zip(marks[::2], marks[1::2]))))
    probe.take()
    for o, phases in zip(outcomes, spans):
        o.times = {phase: end - start for phase, (start, end) in phases.items()}
        o.scaled = {phase: (end - start) * probe.scale(start, end)
                    for phase, (start, end) in phases.items()}
    return outcomes


# --- tracing -----------------------------------------------------------------------


class Tracer:
    """Self time and call count of named spans, kept in memory.

    Spans nest: a span's self time is its duration minus the time of the
    spans opened inside it.  Every span belongs to the phase open when it
    started, so each phase's self times add up to the phase's duration.
    """

    def __init__(self) -> None:
        self.self_s: defaultdict[tuple[str, str], float] = defaultdict(float)
        self.phase_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self._phase = ""
        self._children: list[list[float]] = []  # child time of each open span

    def call(self, name: str, fn: Callable, *args, **kwargs):
        self.calls[name] += 1
        frame = [0.0]
        self._children.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self._children.pop()
            self.self_s[(self._phase, name)] += elapsed - frame[0]
            if self._children:
                self._children[-1][0] += elapsed

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """A root span; its own self time is reported as ``bench.unattributed``."""
        self._phase = name
        frame = [0.0]
        self._children.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self._children.pop()
            self.phase_s[name] += elapsed
            self.self_s[(name, "bench.unattributed")] += elapsed - frame[0]

    @contextmanager
    def wrapping(self, owner: type, methods: dict[str, str]) -> Iterator[None]:
        """Record a span for every call of ``owner``'s methods while active."""
        saved = {attr: owner.__dict__[attr] for attr in methods}

        def wrap(name: str, fn: Callable) -> Callable:
            return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)

        for attr, name in methods.items():
            setattr(owner, attr, wrap(name, saved[attr]))
        try:
            yield
        finally:
            for attr, fn in saved.items():
                setattr(owner, attr, fn)

    def layer_s(self, name: str) -> float:
        return sum(t for (_, span), t in self.self_s.items() if span == name)


def _potential_setup(inst: Instance, row: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    offset0 = analysis.rename_offset(analysis.surplus_profile(inst.initial, row))
    n_blue = inst.initial.colour_totals()[0]
    return offset0, analysis.destinations(n_blue, analysis.renamed_row(row, offset0))


def traced_run(inst: Instance, tracer: Tracer, counters: Counter) -> engine.RunResult:
    """``engine.run`` with default arguments, one public call at a time."""
    call = tracer.call
    report = call("core.validate", validate, inst)
    if not report.valid:
        raise engine.InvalidInstanceError("; ".join(report.issues) or "invalid instance")
    max_rounds = engine.default_max_rounds(inst)
    spec, k = inst.spec, inst.k
    two_colour = engine.uses_two_colour_steps(inst)
    measure: Callable[[Configuration], int | None] = lambda cfg: None
    if two_colour:
        row = spec.row(1)
        cap = min(row)
        offset0, dest = call("analysis.potential_setup", _potential_setup, inst, row)

        def measure(cfg: Configuration) -> int:
            return call("analysis.distance", analysis.distance, cfg, row, offset0, dest).total

    def step(cfg: Configuration, offset: int, index: int) -> tuple[Configuration, engine.RoundTrace]:
        pairing = call("engine.build_pairing", engine.build_pairing, k, offset)
        moves: list[engine.Move] = []
        for lb, rb in pairing.pairs:
            left, right = cfg.block_view(lb), cfg.block_view(rb)
            if two_colour:
                window = call("engine.window_step_two_colour", engine.window_step_two_colour,
                              left, right, row[lb - 1], cap)
            else:
                window = call("engine.window_step_q_colour", engine.window_step_q_colour,
                              left, right, spec)
            counters["engine.windows_stepped"] += 1
            counters["engine.active_windows"] += bool(window)
            moves.extend(window)
        new_cfg = call("engine.apply_moves", engine.apply_moves, cfg, moves, pairing)
        if new_cfg.colour_totals() != cfg.colour_totals():
            raise engine.EngineError("colour totals changed across a round")
        return new_cfg, engine.RoundTrace(index=index, offset=offset, moves=tuple(moves),
                                          counts=new_cfg.all_counts(),
                                          distance=measure(new_cfg), checks=_ROUND_CHECKS)

    def target(cfg: Configuration) -> bool:
        return call("engine.target_satisfied", engine.target_satisfied, cfg, inst)

    initial_distance = measure(inst.initial)
    cfg = inst.initial
    rounds: list[engine.RoundTrace] = []
    offset = 1
    while len(rounds) < max_rounds and not target(cfg):
        cfg, rt = step(cfg, offset, len(rounds) + 1)
        rounds.append(rt)
        offset = offset % k + 1
    rounds_used = len(rounds)
    terminated = reached = target(cfg)
    if reached:
        for _ in range(k):
            cfg, rt = step(cfg, offset, len(rounds) + 1)
            rounds.append(rt)
            offset = offset % k + 1
            terminated = terminated and not rt.moves
    return engine.RunResult(terminated=terminated, rounds_used=rounds_used,
                            bound=analysis.theoretical_bound(inst), trace=tuple(rounds),
                            final=cfg, instance=inst, initial_distance=initial_distance)


@dataclass
class TracedPass:
    tracer: Tracer
    counters: Counter
    outcomes: list[Outcome]

    def metrics(self) -> dict[str, float]:
        """Per-layer self times and work counts of the whole pass."""
        t, c, o = self.tracer, self.counters, self.outcomes
        out = {f"{name}_s": t.layer_s(name) for name in LAYER_SPANS}
        out.update({
            "core.block_view_calls": t.calls["core.block_view"],
            "analysis.distance_calls": t.calls["analysis.distance"],
            "engine.rounds_used": sum(x.rounds_used for x in o),
            "engine.executed_rounds": sum(x.executed_rounds for x in o),
            "engine.quiet_rounds": c["engine.quiet_rounds"],
            "engine.moves": sum(x.moves for x in o),
            "engine.windows_stepped": c["engine.windows_stepped"],
            "engine.active_window_ratio":
                c["engine.active_windows"] / max(1, c["engine.windows_stepped"]),
            "engine.trace_bytes": c["engine.trace_bytes"],
        })
        for phase in PHASES:
            out[f"bench.traced_{phase}"] = t.phase_s[phase]
        out["bench.traced_total_s"] = sum(t.phase_s.values())
        return out


def traced_pass(recipes: list[Recipe], trace_path: Path) -> TracedPass:
    """The measured pass again, with a span around every call into a layer."""
    tracer = Tracer()
    counters: Counter = Counter()
    outcomes = []
    call = tracer.call
    with tracer.wrapping(Configuration, CORE_METHODS):
        for ident, make in recipes:
            with tracer.phase("setup_s"):
                inst = call("generators.generate", make)
                text = call("core.serialize", serialize_instance, inst)
                parsed = call("core.parse", parse_instance, text)
                report = call("core.validate", validate, parsed)
                oriented, reversed_roles = call("engine.orient_roles", orient, parsed)
            with tracer.phase("run_s"):
                result = traced_run(oriented, tracer, counters)
            with tracer.phase("trace_write_s"):
                with open(trace_path, "w", encoding="utf-8") as fp:
                    call("engine.write_trace", engine.write_trace, result, fp,
                         reversed_roles=reversed_roles)
            with tracer.phase("verify_s"):
                with open(trace_path, encoding="utf-8") as fp:
                    stored = call("engine.read_trace", engine.read_trace, fp)
                replayed = call("verify.replay", verify.replay_trace, stored)
                rounds_used = stored.summary.get("rounds_used", len(stored.rounds))
                terminated = stored.summary.get("terminated", False)
                verdicts = []
                for name in verify.applicable_checks(stored.instance):
                    verdicts += call(f"verify.check_{name}", verify.run_checks,
                                     replayed, rounds_used, terminated, [name])
            counters["engine.trace_bytes"] += os.path.getsize(trace_path)
            trace_path.unlink()
            counters["engine.quiet_rounds"] += sum(not rt.moves for rt in result.trace)
            outcomes.append(audit(ident, text, parsed, report.valid, oriented, result, stored,
                                  verdicts))
    return TracedPass(tracer, counters, outcomes)


def layer_metrics(passes: list[list[Outcome]], traced: list[TracedPass]) -> dict[str, float]:
    """Medians over the traced passes, and over the untraced passes paired
    with them; the tracing overhead is traced minus untraced total."""
    per_pass = [t.metrics() for t in traced]
    out = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    for phase in ("run_s", "verify_s", "total_s"):
        out[f"bench.untraced_{phase}"] = statistics.median(phase_total(o, phase) for o in passes)
    out["bench.tracing_overhead_s"] = out["bench.traced_total_s"] - out["bench.untraced_total_s"]
    return out
