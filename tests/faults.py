"""Deliberately corrupted traces, one per checker.

Every builder fabricates a replayable trace (moves always permute
positions, so replay succeeds) that violates exactly the property its
checker guards.  ``fault_verdicts`` audits each with ``verify_trace`` and
keeps the verdict of that checker; the test suite asserts each fails.
The same instances pass their checkers when run honestly, which the unit
tests cover separately.
"""

import dataclasses
import json

from ringform import analysis, engine, verify
from ringform.engine import Move, RoundTrace, TraceData
from ringform.generators import gen_adversarial_half
from ringform.verify import InvariantVerdict

from helpers import fresh_round, make_p1, written_records


def fabricate_round(cfg, moves, index, offset, distance=None):
    """A RoundTrace whose counts honestly reflect its (possibly rogue) moves."""
    after = engine.apply_moves(cfg, tuple(moves))
    trace = RoundTrace(index=index, offset=offset, moves=tuple(moves),
                       counts=after.all_counts(), distance=distance)
    return after, trace


def _stalled_rounds(inst, count, distance):
    rounds = []
    offset = 1
    for index in range(1, count + 1):
        rounds.append(RoundTrace(index=index, offset=offset, moves=(),
                                 counts=inst.initial.all_counts(), distance=distance))
        offset = offset % inst.k + 1
    return rounds


def _trace(inst, rounds, **summary) -> TraceData:
    return TraceData(inst, tuple(rounds), summary)


def order_fault() -> TraceData:
    # Two of three blue agents trade places: cyclic blue order breaks.
    inst = make_p1("BBBRRR", 3, 2, [[1, 1, 1], [1, 1, 1]])
    _, rt = fabricate_round(inst.initial, [Move(0, 0, 1), Move(1, 1, 0)], 1, 1, distance=None)
    return _trace(inst, [rt])


def suffix_fault() -> TraceData:
    # All blues pushed into the first renamed block: prefix surplus +1.
    inst = make_p1("RRBB", 2, 2, [[1, 1], [1, 1]])
    moves = [Move(2, 2, 0), Move(3, 3, 1), Move(0, 0, 2), Move(1, 1, 3)]
    _, rt = fabricate_round(inst.initial, moves, 1, 1, distance=None)
    return _trace(inst, [rt])


def wraparound_fault() -> TraceData:
    # Agents exchanged inside the window pairing the renamed last block
    # with the renamed first block.
    inst = make_p1("BRRRBBBR", 4, 2, [[1, 1, 1, 1], [1, 1, 1, 1]])
    row = inst.spec.row(1)
    origin = analysis.rename_offset(analysis.surplus_profile(inst.initial, row))
    left = engine.wrap_block(origin - 1, inst.k)
    lpos = (left - 1) * inst.p
    rpos = (origin - 1) * inst.p
    moves = [Move(inst.initial.agents[lpos].id, lpos, rpos),
             Move(inst.initial.agents[rpos].id, rpos, lpos)]
    _, rt = fabricate_round(inst.initial, moves, 1, left, distance=None)
    return _trace(inst, [rt])


def monotone_fault() -> TraceData:
    # Honest run, but the recorded distance jumps upward mid-trace.
    inst = make_p1("RRBB", 2, 2, [[1, 1], [1, 1]])
    result = engine.run(inst)
    tampered = list(result.trace)
    tampered[1] = dataclasses.replace(tampered[1], distance=tampered[0].distance + 5)
    return _trace(inst, tampered)


def decrease_fault() -> TraceData:
    # Positive distance sits still for four rounds.
    inst = make_p1("RRBB", 2, 2, [[1, 1], [1, 1]])
    return _trace(inst, _stalled_rounds(inst, 4, distance=1))


def final_fault() -> TraceData:
    # A trace that claims termination while the ring never left its
    # initial configuration, which misses the target.
    inst = make_p1("RRBB", 2, 2, [[1, 1], [1, 1]])
    return _trace(inst, [], rounds_used=0, terminated=True)


def cooperativeness_fault() -> TraceData:
    # A first-class blue agent sits outside its destination block past round 4.
    inst = make_p1("RRBB", 2, 2, [[1, 1], [1, 1]])
    return _trace(inst, _stalled_rounds(inst, 6, distance=1))


def safety_fault() -> TraceData:
    # An exchange between blocks that no window of the round connects.
    inst = make_p1("BRRRBBBR", 4, 2, [[1, 1, 1, 1], [1, 1, 1, 1]])
    moves = [Move(inst.initial.agents[0].id, 0, 4),
             Move(inst.initial.agents[4].id, 4, 0)]
    _, rt = fabricate_round(inst.initial, moves, 1, 1, distance=None)
    return _trace(inst, [rt])


def counts_fault() -> TraceData:
    # Honest moves, forged per-block counts.
    inst = make_p1("RRBB", 2, 2, [[1, 1], [1, 1]])
    result = engine.run(inst)
    forged = list(result.trace)
    forged[0] = dataclasses.replace(forged[0], counts=inst.initial.all_counts())
    return _trace(inst, forged)


def distance_fault() -> TraceData:
    # Honest moves of a k=8 half-and-half run, recorded distances
    # 16,15,14,12,9,7,5,3,2,1,0 rewritten to 15,14,...,6,0: still falling
    # every round and zero from round 11 on, but not what the moves give.
    inst = gen_adversarial_half(8, 2)
    result = engine.run(inst)
    forged = [15 - i for i in range(10)] + [0] * (len(result.trace) - 10)
    return _trace(inst, [dataclasses.replace(rt, distance=d)
                         for rt, d in zip(result.trace, forged)])


def summary_fault() -> TraceData:
    # Honest moves of a k=8 half-and-half run (11 rounds used), stored with
    # its summary's bound rewritten from 28 to 5.
    records = written_records(engine.run(gen_adversarial_half(8, 2)))
    records[-1]["bound"] = 5
    return engine.read_trace(json.dumps(record) for record in records)


def index_fault() -> TraceData:
    # Honest moves of a k=8 half-and-half run, stored with every round
    # record's "round" rewritten to 1.
    records = written_records(engine.run(gen_adversarial_half(8, 2)))
    for record in records:
        if record["type"] == "round":
            record["round"] = 1
    return engine.read_trace(json.dumps(record) for record in records)


def offset_fault() -> TraceData:
    # A k=8 half-and-half run whose every round runs at offset 1, with
    # honest moves, counts and distances: round 2 breaks the schedule.
    inst = gen_adversarial_half(8, 2)
    cfg, rounds = inst.initial, []
    row = inst.spec.row(1)
    potential = analysis.distance_report(inst.initial, row)
    for index in range(1, 5):
        cfg, rt = fresh_round(cfg, inst, 1, index=index)
        distance = analysis.distance(cfg, row, potential.rename_offset, potential.dest).total
        rounds.append(dataclasses.replace(rt, distance=distance))
    return _trace(inst, rounds)


def quiescence_fault() -> TraceData:
    # Summary pretends the target held from the start, yet round 1 moved agents.
    inst = make_p1("RRBB", 2, 2, [[1, 1], [1, 1]])
    result = engine.run(inst)
    return _trace(inst, result.trace, rounds_used=0, terminated=True)


# The checker each fault must fail, and the trace that breaks it.
FAULTS = {
    "order_preserving": order_fault,
    "suffix_property": suffix_fault,
    "no_wraparound": wraparound_fault,
    "distance_monotone": monotone_fault,
    "distance_decrease": decrease_fault,
    "final_condition": final_fault,
    "cooperativeness": cooperativeness_fault,
    "safety": safety_fault,
    "safety[distance]": distance_fault,
    "safety[index]": index_fault,
    "safety[offset]": offset_fault,
    "quiescence": quiescence_fault,
    "summary": summary_fault,
}


def fault_traces() -> dict[str, TraceData]:
    """Every trace of this module: the mutation gate's and ``counts_fault``."""
    return {name: build() for name, build in {**FAULTS, "safety[counts]": counts_fault}.items()}


def fault_verdicts() -> dict[str, InvariantVerdict]:
    """One failing verdict per checker, for the mutation gate: the verdict
    of the checker a fault is named after, from ``verify_trace`` on it."""
    return {name: checker_verdict(build(), name) for name, build in FAULTS.items()}


def checker_verdict(data: TraceData, name: str) -> InvariantVerdict:
    """The verdict of checker ``name`` (or ``name[...]``) in ``verify_trace(data)``."""
    checker = name.split("[")[0]
    return next(v for v in verify.verify_trace(data) if v.name.split("[")[0] == checker)
