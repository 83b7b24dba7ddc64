"""Shortcuts for building instances inline in tests, and small readers of
the library's results."""

from typing import Iterable

from ringform import verify
from ringform.core import Configuration, Instance, RequirementSpec, parse_instance
from ringform.engine import RoundTrace, WindowPairing, apply_moves


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
    return cfg.block_view(j).counts


def unpaired(pairing: WindowPairing, k: int) -> int | None:
    """The block that no pair of ``pairing`` holds: None for even k."""
    idle = set(range(1, k + 1)).difference(*pairing.pairs)
    return idle.pop() if idle else None


def v2_records(records: list[dict]) -> list[dict]:
    """Trace records rewritten in the v2 format, which nests each move and
    each changed count row in a list of its own."""
    width = parse_instance(records[0]["instance"]).q + 1
    out = []
    for record in records:
        record = dict(record)
        if record["type"] == "header":
            record["format"] = "ringform-trace-v2"
        elif record["type"] == "round":
            moves, counts = record["moves"], record["counts"]
            record["moves"] = [moves[i:i + 3] for i in range(0, len(moves), 3)]
            record["counts"] = [counts[i:i + width] for i in range(0, len(counts), width)]
        out.append(record)
    return out


def v1_records(records: list[dict]) -> list[dict]:
    """Trace records rewritten in the v1 format, which nests each move in a
    list, lists every block's counts without block numbers and carries the
    constant checks."""
    inst = parse_instance(records[0]["instance"])
    rows, width = [list(row) for row in inst.initial.all_counts()], inst.q + 1
    out = []
    for record in records:
        record = dict(record)
        if record["type"] == "header":
            record["format"] = "ringform-trace-v1"
        elif record["type"] == "round":
            moves, counts = record["moves"], record["counts"]
            for i in range(0, len(counts), width):
                rows[counts[i] - 1] = counts[i + 1:i + width]
            record["moves"] = [moves[i:i + 3] for i in range(0, len(moves), 3)]
            record["counts"] = [list(row) for row in rows]
            record["checks"] = {"collision_free": True, "within_window": True,
                                "colours_conserved": True}
        out.append(record)
    return out


def replayed_configs(inst: Instance, rounds: Iterable[RoundTrace]) -> list[Configuration]:
    """The initial configuration and the one after every round, made by
    chaining ``engine.apply_moves`` over the recorded moves."""
    configs = [inst.initial]
    for rt in rounds:
        configs.append(apply_moves(configs[-1], rt.moves))
    return configs


def verdict_of(run: verify.ReplayedRun, name: str, rounds_used: int = 0,
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
