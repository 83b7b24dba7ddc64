"""Deliberately corrupted traces, one per checker.

Every builder fabricates a replayable trace (moves always permute
positions, so replay succeeds) that violates exactly the property its
checker guards, and returns that checker's verdict on it.  The test
suite asserts each verdict fails; the same instances pass their checkers
when run honestly, which the unit tests cover separately.
"""

import dataclasses
import json

from ringform import analysis, engine, verify
from ringform.engine import Move, RoundTrace
from ringform.generators import gen_adversarial_half
from ringform.verify import InvariantVerdict

from helpers import check_final, make_p1


def fabricate_round(cfg, moves, index, offset, distance=None):
    """A RoundTrace whose counts honestly reflect its (possibly rogue) moves."""
    after = engine.apply_moves(cfg, tuple(moves))
    trace = RoundTrace(index=index, offset=offset, moves=tuple(moves),
                       counts=after.all_counts(), distance=distance,
                       checks=engine.ROUND_CHECKS)
    return after, trace


def _stalled_rounds(inst, count, distance):
    rounds = []
    offset = 1
    for index in range(1, count + 1):
        rounds.append(RoundTrace(index=index, offset=offset, moves=(),
                                 counts=inst.initial.all_counts(), distance=distance,
                                 checks=()))
        offset = offset % inst.k + 1
    return rounds


def order_fault() -> InvariantVerdict:
    # Two of three blue agents trade places: cyclic blue order breaks.
    inst = make_p1("BBBRRR", 3, 2, [[1, 1, 1], [1, 1, 1]])
    _, rt = fabricate_round(inst.initial, [Move(0, 0, 1), Move(1, 1, 0)], 1, 1, distance=None)
    run = verify.replay(inst, [rt])
    return verify.check_order_preserving(run)


def suffix_fault() -> InvariantVerdict:
    # All blues pushed into the first renamed block: prefix surplus +1.
    inst = make_p1("RRBB", 2, 2, [[1, 1], [1, 1]])
    moves = [Move(2, 2, 0), Move(3, 3, 1), Move(0, 0, 2), Move(1, 1, 3)]
    _, rt = fabricate_round(inst.initial, moves, 1, 1, distance=None)
    run = verify.replay(inst, [rt])
    return verify.check_suffix_property(run)


def wraparound_fault() -> InvariantVerdict:
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
    run = verify.replay(inst, [rt])
    return verify.check_no_wraparound(run)


def monotone_fault() -> InvariantVerdict:
    # Honest run, but the recorded distance jumps upward mid-trace.
    inst = make_p1("RRBB", 2, 2, [[1, 1], [1, 1]])
    result = engine.run(inst)
    tampered = list(result.trace)
    tampered[1] = dataclasses.replace(tampered[1], distance=tampered[0].distance + 5)
    run = verify.replay(inst, tampered)
    return verify.check_distance_monotone(run)


def decrease_fault() -> InvariantVerdict:
    # Positive distance sits still for four rounds.
    inst = make_p1("RRBB", 2, 2, [[1, 1], [1, 1]])
    run = verify.replay(inst, _stalled_rounds(inst, 4, distance=1))
    return verify.check_distance_decrease(run, 2)


def final_fault() -> InvariantVerdict:
    # A result that claims termination while the ring never reached the target.
    inst = make_p1("RRBB", 2, 2, [[1, 1], [1, 1]])
    result = engine.run(inst)
    lying = dataclasses.replace(result, final=inst.initial, terminated=True)
    return check_final(lying, inst)


def cooperativeness_fault() -> InvariantVerdict:
    # A first-class blue agent sits outside its destination block past round 4.
    inst = make_p1("RRBB", 2, 2, [[1, 1], [1, 1]])
    run = verify.replay(inst, _stalled_rounds(inst, 6, distance=1))
    return verify.check_cooperativeness(run)


def safety_fault() -> InvariantVerdict:
    # An exchange between blocks that no window of the round connects.
    inst = make_p1("BRRRBBBR", 4, 2, [[1, 1, 1, 1], [1, 1, 1, 1]])
    moves = [Move(inst.initial.agents[0].id, 0, 4),
             Move(inst.initial.agents[4].id, 4, 0)]
    _, rt = fabricate_round(inst.initial, moves, 1, 1, distance=None)
    run = verify.replay(inst, [rt])
    return verify.check_safety(run)


def counts_fault() -> InvariantVerdict:
    # Honest moves, forged per-block counts.
    inst = make_p1("RRBB", 2, 2, [[1, 1], [1, 1]])
    result = engine.run(inst)
    forged = list(result.trace)
    forged[0] = dataclasses.replace(forged[0], counts=inst.initial.all_counts())
    run = verify.replay(inst, forged)
    return verify.check_safety(run)


def distance_fault() -> InvariantVerdict:
    # Honest moves of a k=8 half-and-half run, recorded distances
    # 16,15,14,12,9,7,5,3,2,1,0 rewritten to 15,14,...,6,0: still falling
    # every round and zero from round 11 on, but not what the moves give.
    inst = gen_adversarial_half(8, 2)
    result = engine.run(inst)
    forged = [15 - i for i in range(10)] + [0] * (len(result.trace) - 10)
    rounds = [dataclasses.replace(rt, distance=d) for rt, d in zip(result.trace, forged)]
    run = verify.replay(inst, rounds)
    return verify.check_safety(run)


def summary_fault() -> InvariantVerdict:
    # Honest moves of a k=8 half-and-half run (11 rounds used), stored with
    # its summary's bound rewritten from 28 to 5.
    records = list(engine.trace_records(engine.run(gen_adversarial_half(8, 2))))
    records[-1]["bound"] = 5
    data = engine.read_trace(json.dumps(record) for record in records)
    return verify.check_summary(verify.replay_trace(data), data.summary)


def index_fault() -> InvariantVerdict:
    # Honest moves of a k=8 half-and-half run, stored with every round
    # record's "round" rewritten to 1.
    records = list(engine.trace_records(engine.run(gen_adversarial_half(8, 2))))
    for record in records:
        if record["type"] == "round":
            record["round"] = 1
    data = engine.read_trace(json.dumps(record) for record in records)
    return verify.check_safety(verify.replay_trace(data))


def offset_fault() -> InvariantVerdict:
    # A k=8 half-and-half run whose every round runs at offset 1, with
    # honest moves, counts and distances: round 2 breaks the schedule.
    inst = gen_adversarial_half(8, 2)
    cfg, rounds = inst.initial, []
    for index in range(1, 5):
        cfg, rt = engine.execute_round(cfg, inst, 1, index=index)
        rounds.append(rt)
    distances = verify.replay(inst, rounds).replayed_distances[1:]
    rounds = [dataclasses.replace(rt, distance=d) for rt, d in zip(rounds, distances)]
    return verify.check_safety(verify.replay(inst, rounds))


def quiescence_fault() -> InvariantVerdict:
    # Summary pretends the target held from the start, yet round 1 moved agents.
    inst = make_p1("RRBB", 2, 2, [[1, 1], [1, 1]])
    result = engine.run(inst)
    run = verify.replay_result(result)
    return verify.check_quiescence(run, 0, True)


def fault_verdicts() -> dict[str, InvariantVerdict]:
    """One failing verdict per checker, for the mutation gate."""
    return {
        "order_preserving": order_fault(),
        "suffix_property": suffix_fault(),
        "no_wraparound": wraparound_fault(),
        "distance_monotone": monotone_fault(),
        "distance_decrease": decrease_fault(),
        "final_condition": final_fault(),
        "cooperativeness": cooperativeness_fault(),
        "safety": safety_fault(),
        "safety[distance]": distance_fault(),
        "safety[index]": index_fault(),
        "safety[offset]": offset_fault(),
        "quiescence": quiescence_fault(),
        "summary": summary_fault(),
    }
