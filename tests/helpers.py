"""Shortcuts for building instances inline in tests, and small readers of
the library's results."""

import io
import json
from array import array
from typing import Iterable

from ringform import engine, verify
from ringform.core import Configuration, Instance, RequirementSpec
from ringform.engine import (
    ROUND_CHECKS,
    MoveSet,
    RoundTrace,
    RunResult,
    TraceData,
    WindowPairing,
    apply_moves,
    step_round,
    write_trace,
)


def make_p1(config: str, k: int, p: int, rows) -> Instance:
    spec = RequirementSpec.exact(rows, p)
    return Instance(spec=spec, initial=Configuration.from_string(config, k, p, len(rows)))


def make_p2(config: str, k: int, p: int, rows) -> Instance:
    spec = RequirementSpec.lower_bound(rows, p)
    return Instance(spec=spec, initial=Configuration.from_string(config, k, p, len(rows)))


def make_p3(config: str, k: int, p: int, patterns, q: int = 2) -> Instance:
    spec = RequirementSpec.for_patterns(patterns, q)
    return Instance(spec=spec, initial=Configuration.from_string(config, k, p, q))


def block_string(cfg: Configuration, j: int) -> str:
    """The symbols of block ``j`` of ``cfg``."""
    return cfg.to_string()[(j - 1) * cfg.p:j * cfg.p]


def counts(cfg: Configuration, j: int) -> tuple[int, ...]:
    """Per-colour counts of block ``j`` of ``cfg`` (index 0 holds colour 1)."""
    cfg.block_view(j)  # refuses a block out of range
    return cfg.all_counts()[j - 1]


def unpaired(pairing: WindowPairing, k: int) -> int | None:
    """The block that no pair of ``pairing`` holds: None for even k."""
    idle = set(range(1, k + 1)).difference(*pairing.pairs)
    return idle.pop() if idle else None


def fresh_round(cfg: Configuration, inst: Instance, offset: int, *,
                index: int = 0) -> tuple[Configuration, RoundTrace]:
    """One round of ``inst`` from ``cfg`` at ``offset``: ``step_round`` with
    the run's window step and a fresh idle set, so that every window of the
    pairing is stepped; the reference for the rounds of ``run``.  The round
    records no distance."""
    new_cfg, moves = step_round(cfg, offset, engine._window_step(inst), set())
    return new_cfg, RoundTrace(index=index, offset=offset, moves=moves,
                               counts=new_cfg.all_counts(), distance=None, checks=ROUND_CHECKS)


def check_successor(cfg: Configuration, flat, after: Configuration, offset: int) -> None:
    """Assert that ``after``, which a round step built from ``cfg`` with the
    flat moves ``flat`` of the pairing at ``offset``, is the configuration
    that ``apply_moves`` makes of them: the same colours and ids, and the
    same count row objects of the row table."""
    applied = apply_moves(cfg, MoveSet(array("i", flat)), offset)
    assert (after.colours, after.ids) == (applied.colours, applied.ids)
    assert after.all_counts() == applied.all_counts()
    assert all(a is b for a, b in zip(after.all_counts(), applied.all_counts()))


def with_row_table(cfg: Configuration, rows: dict) -> Configuration:
    """A copy of ``cfg`` whose count rows pass through the row table
    ``rows``, as every configuration of a run passes them through its first
    configuration's table."""
    copy = Configuration._flat(cfg.colours, cfg.ids, cfg.k, cfg.p, cfg.q)
    copy.__dict__["_rows"] = rows
    return copy


def step_window(step, cfg: Configuration, lb: int) -> list[int]:
    """The flat moves of the window whose left block is ``lb`` in ``cfg``,
    stepped alone by the round step ``step``, which must return with them
    the configuration that ``apply_moves`` makes of them."""
    moves, after = step(cfg, (lb,), set().add)
    check_successor(cfg, moves, after, lb)
    return moves


def written_records(result: RunResult, *, reversed_roles: bool = False) -> list[dict]:
    """The records that ``engine.write_trace`` writes for ``result``, parsed."""
    buffer = io.StringIO()
    write_trace(result, buffer, reversed_roles=reversed_roles)
    return [json.loads(line) for line in buffer.getvalue().splitlines()]


def replay(inst: Instance, rounds: Iterable[RoundTrace]) -> TraceData:
    """The rounds, as a trace of ``inst`` that ``verify.replay_trace`` found
    to replay."""
    return verify.replay_trace(TraceData(instance=inst, rounds=tuple(rounds), summary={}))


def replay_result(result: RunResult) -> TraceData:
    return replay(result.instance, result.trace)


def replayed_configs(inst: Instance, rounds: Iterable[RoundTrace]) -> list[Configuration]:
    """The initial configuration and the one after every round, made by
    chaining ``engine.apply_moves`` over the recorded moves."""
    configs = [inst.initial]
    for rt in rounds:
        configs.append(apply_moves(configs[-1], rt.moves))
    return configs


def verdict_of(run: TraceData, name: str, rounds_used: int = 0,
               terminated: bool = False) -> verify.InvariantVerdict:
    """The verdict of the checker ``name`` alone on a replayed run."""
    return verify.run_checks(run, rounds_used, terminated, [name])[0]


def oracle_distance(cfg: Configuration, inst: Instance) -> int:
    """Distance computed the plodding way: scan for the best renaming, then walk
    every blue agent and find its destination by a fresh cumulative scan.
    Shares no code with the analysis module."""
    k, p = cfg.k, cfg.p
    row = [inst.spec.matrix[0][j] for j in range(k)]

    best_j, best_sum, running = 0, None, 0
    for j in range(k):
        blues_here = sum(
            1 for x in range(j * p, (j + 1) * p) if cfg.agents[x].colour == 1
        )
        running += blues_here - row[j]
        if best_sum is None or running > best_sum:
            best_sum, best_j = running, j
    start = (best_j + 1) % k  # 0-based original index of the renamed first block

    total = 0
    rank = 0
    for step in range(k):
        orig = (start + step) % k
        renamed_index = step + 1
        for x in range(orig * p, (orig + 1) * p):
            if cfg.agents[x].colour != 1:
                continue
            rank += 1
            covered = 0
            dest = k
            for ell in range(k):
                covered += row[(start + ell) % k]
                if covered >= rank:
                    dest = ell + 1
                    break
            total += renamed_index - dest
    return total
