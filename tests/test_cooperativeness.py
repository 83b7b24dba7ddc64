"""Differential tests of the checkers.

``test_single_pass_audit_matches_the_checkers_it_replaced`` compares the
one-pass ``verify_trace`` with ``oracle.verify_trace``, which runs the
checkers as they were when each walked a replayed run of its own, over
the corpus below, the golden runs and every trace of ``faults``;
``test_single_pass_audit_matches_the_checkers_on_odd_k_and_stray_moves``
does the same on odd-k runs with moves out of their window, and
``test_replay_names_the_first_bad_move_in_order`` on rounds that the
replay refuses.

``scan_cooperativeness`` is the cooperativeness checker as first written:
it scans every replayed configuration for the blue agents in renamed
reading order and then walks every rank of every class in every round.
``scan_order_preserving`` is the order checker as first written: it lists
the blue agents of every replayed configuration and compares consecutive
lists up to rotation.  ``scan_suffix_property`` is the suffix checker as
first written: it sums the renamed prefixes of every replayed
configuration.  ``verify`` follows the blue ranks through the moves and
sums the prefixes from each configuration's count rows instead; each pair
must give the same verdict, including which failure they report, on
honest traces and on three kinds of tampered trace.  The suffix checkers
must also agree on the two-colour golden cases and on every two-colour
trace of ``faults``, the runs whose ``applicable_checks`` list
``suffix_property``.
"""

import dataclasses
import io
import random

from ringform import analysis, engine, verify
from ringform.analysis import BLUE
from ringform.core import Configuration, ProblemKind
from ringform.engine import Move, RoundTrace, TraceData
from ringform.generators import gen_adversarial_half, gen_homogeneous, gen_random
from ringform.verify import InvariantVerdict

import faults
import oracle
from helpers import fresh_round, replay, replayed_configs, verdict_of
from test_golden_traces import GOLDEN, golden_run


def scan_cooperativeness(run, partition=None):
    """Reference checker: O(n) per configuration plus every rank per round."""
    name = "cooperativeness"
    inst = run.instance
    if inst.k % 2:
        return InvariantVerdict(name, False, None, "only meaningful for an even block count")
    if partition is None:
        partition = analysis.blue_partition(inst)
    row = inst.spec.row(BLUE)
    offset = analysis.rename_offset(analysis.surplus_profile(inst.initial, row))
    n_blue = inst.initial.colour_totals()[0]
    dest = analysis.destinations(n_blue, analysis.renamed_row(row, offset))

    scans = [oracle.blue_scan(cfg, offset) for cfg in run.configs]
    ids0 = tuple(agent_id for _, agent_id in scans[0])
    for r, scan in enumerate(scans):
        if tuple(agent_id for _, agent_id in scan) != ids0:
            return InvariantVerdict(name, False, r, "blue ranks are not stable")

    blocks = [tuple(block for block, _ in scan) for scan in scans]
    for class_index, ranks in enumerate(partition, start=1):
        active_from = 2 * class_index + 2
        for r in range(active_from, len(run.configs)):
            for rank in ranks:
                before = blocks[r - 1][rank - 1]
                after = blocks[r][rank - 1]
                if before != dest[rank - 1] and after != before - 1:
                    return InvariantVerdict(
                        name, False, r,
                        f"rank {rank} (class {class_index}) stayed in block {before}, "
                        f"destination {dest[rank - 1]}")
    return InvariantVerdict(name, True)


def _cyclically_equal(a, b):
    if len(a) != len(b):
        return False
    if not a:
        return True
    doubled = list(a) + list(a)
    target = list(b)
    return any(doubled[i:i + len(target)] == target for i in range(len(a)))


def scan_order_preserving(run):
    """Reference checker: O(n) per configuration."""
    name = "order_preserving"
    blue_ids = [tuple(a.id for a in cfg.agents if a.colour == BLUE) for cfg in run.configs]
    for r in range(1, len(blue_ids)):
        before, after = blue_ids[r - 1], blue_ids[r]
        if not _cyclically_equal(before, after):
            return InvariantVerdict(name, False, r, f"blue order {before} became {after}")
    return InvariantVerdict(name, True)


def scan_suffix_property(run):
    """Reference checker: O(k) per configuration."""
    name = "suffix_property"
    inst = run.instance
    row = inst.spec.row(BLUE)
    offset = analysis.rename_offset(analysis.surplus_profile(inst.initial, row))
    allowed = 0
    if inst.spec.kind is ProblemKind.P2:
        allowed = inst.initial.colour_totals()[0] - sum(row)
    for r, cfg in enumerate(run.configs):
        surplus = analysis.surplus_profile(cfg, row)
        rotated = analysis.renamed_row(surplus, offset)
        total = sum(surplus)
        prefix = 0
        for j, value in enumerate(rotated, start=1):
            prefix += value
            if prefix > allowed:
                return InvariantVerdict(
                    name, False, r,
                    f"prefix of {j} renamed blocks has surplus {prefix} > {allowed}")
            suffix = total - prefix
            if j < len(rotated) and suffix < 0:
                return InvariantVerdict(
                    name, False, r,
                    f"suffix after {j} renamed blocks has surplus {suffix} < 0")
    return InvariantVerdict(name, True)


def continue_honestly(inst, cfg, rounds, count):
    """Append ``count`` engine rounds, starting from ``cfg`` at the next offset."""
    rounds = list(rounds)
    offset = rounds[-1].offset % inst.k + 1 if rounds else 1
    for _ in range(count):
        cfg, rt = fresh_round(cfg, inst, offset, index=len(rounds) + 1)
        rounds.append(rt)
        offset = offset % inst.k + 1
    return rounds


def dropped_round(inst, result, j):
    """Round ``j`` records no moves; the engine carries on from there."""
    cfg = replayed_configs(inst, result.trace[:j - 1])[-1]
    stalled = RoundTrace(index=j, offset=result.trace[j - 1].offset, moves=(),
                         counts=cfg.all_counts(), distance=None, checks=())
    rounds = list(result.trace[:j - 1]) + [stalled]
    return continue_honestly(inst, cfg, rounds, len(result.trace) - j)


def injected_cycle(inst, result, j, rng):
    """Round ``j`` rotates every agent of one window by one position, then
    the engine carries on from there.

    The window holds a blue agent of a class already active in round j + 1
    when there is one, so the rotation can knock a settled rank off its
    destination; it wraps a red agent round when the window's last slot
    holds one, so the blue order may survive it.
    """
    cfg = replayed_configs(inst, result.trace[:j - 1])[-1]
    offset = result.trace[j - 1].offset
    p = inst.p
    origin = analysis.rename_offset(analysis.surplus_profile(inst.initial, inst.spec.row(BLUE)))
    ids = [agent_id for _, agent_id in oracle.blue_scan(cfg, origin)]
    active = {ids[rank - 1]
              for c, ranks in enumerate(analysis.blue_partition(inst), start=1)
              if 2 * c + 2 <= j + 1 for rank in ranks}
    blocks = {x // p + 1 for x, a in enumerate(cfg.agents) if a.id in active}
    pairs = engine.build_pairing(inst.k, offset).pairs
    lb, rb = rng.choice([w for w in pairs if blocks & set(w)] or pairs)
    slots = list(range((lb - 1) * p, lb * p)) + list(range((rb - 1) * p, rb * p))
    step = 1 if cfg.agents[slots[-1]].colour != BLUE else -1
    moves = [Move(cfg.agents[src].id, src, slots[(t + step) % len(slots)])
             for t, src in enumerate(slots)]
    after, rt = faults.fabricate_round(cfg, moves, j, offset)
    rounds = list(result.trace[:j - 1]) + [rt]
    return continue_honestly(inst, after, rounds, len(result.trace) - j)


def quiet_tail(inst, result, count):
    rounds = list(result.trace)
    offset = rounds[-1].offset if rounds else 0
    for _ in range(count):
        offset = offset % inst.k + 1
        rounds.append(RoundTrace(index=len(rounds) + 1, offset=offset, moves=(),
                                 counts=result.final.all_counts(), distance=None, checks=()))
    return rounds


def corpus():
    """Honest and tampered runs of even-k two-colour instances, seeded."""
    for k in (2, 4, 6, 8):
        for p in (1, 2, 3, 4):
            insts = [gen_random(k, p, 2, seed) for seed in range(12)]
            if p % 2 == 0:
                insts.append(gen_adversarial_half(k, p))
            insts += [gen_homogeneous(k, p, m, 0) for m in range(1, p)]
            for number, inst in enumerate(insts):
                inst, _ = engine.orient_roles(inst)
                rng = random.Random(f"{k}-{p}-{number}")
                result = engine.run(inst)
                yield inst, list(result.trace)
                # A stall matters once a class is active, from round 4 on.
                moving = [rt.index for rt in result.trace if rt.moves and rt.index >= 4]
                for j in rng.sample(moving, min(2, len(moving))):
                    yield inst, dropped_round(inst, result, j)
                # Injections from round 3 on can displace the ranks of class 1,
                # which is active from round 4.
                last = len(result.trace)
                for j in [rng.randint(1, last)] + [rng.randint(min(3, last), last)
                                                   for _ in range(3)]:
                    yield inst, injected_cycle(inst, result, j, rng)
                yield inst, quiet_tail(inst, result, rng.randint(1, 2 * k))


def as_tuple(verdict):
    return verdict.name, verdict.passed, verdict.round, verdict.detail


def test_incremental_checker_matches_the_scan():
    compared = failing = 0
    for inst, rounds in corpus():
        expected = scan_cooperativeness(oracle.replay(inst, rounds))
        assert as_tuple(verdict_of(replay(inst, rounds), "cooperativeness")) \
            == as_tuple(expected), \
            (inst.initial.to_string(), [rt.moves for rt in rounds])
        compared += 1
        failing += not expected.passed
    assert compared >= 1000 and failing >= 100, (compared, failing)


def test_incremental_order_checker_matches_the_scan():
    compared = failing = 0
    for inst, rounds in corpus():
        expected = scan_order_preserving(oracle.replay(inst, rounds))
        assert as_tuple(verdict_of(replay(inst, rounds), "order_preserving")) \
            == as_tuple(expected), \
            (inst.initial.to_string(), [rt.moves for rt in rounds])
        compared += 1
        failing += not expected.passed
    assert compared >= 1000 and failing >= 100, (compared, failing)


def test_order_checker_recounts_descents_once_the_reading_order_breaks():
    # A blue agent moved across the renamed boundary, as some injected cycles
    # move one, breaks the renamed reading order of the ranks but may keep
    # their cyclic order.  The audit then fails ``cooperativeness`` and checks
    # ``order_preserving`` by recounting descents from then on.
    fallback = 0
    for inst, rounds in corpus():
        audit = verify._Audit(inst, ["order_preserving", "cooperativeness"])
        for rt in rounds:
            audit.advance(rt)
        if audit.linear or "order_preserving" in audit.failures:
            continue
        fallback += 1
        run = oracle.replay(inst, rounds)
        assert scan_order_preserving(run).passed
        expected = scan_cooperativeness(run)
        assert expected.detail == "blue ranks are not stable"
        assert [as_tuple(v) for v in audit.settle(0, False)] == \
            [("order_preserving", True, None, ""), as_tuple(expected)]
    assert fallback >= 100, fallback


def test_incremental_checker_matches_the_scan_on_overlapping_classes(monkeypatch):
    # A partition may put a rank in two classes.
    inst, _ = engine.orient_roles(gen_random(6, 4, 2, 1))
    result = engine.run(inst)
    n_blue = inst.initial.colour_totals()[0]
    partition = ((1, 2), (2, 3), tuple(range(1, n_blue + 1)))
    monkeypatch.setattr(analysis, "blue_partition", lambda _: partition)
    for rounds in (list(result.trace), dropped_round(inst, result, 2)):
        assert as_tuple(verdict_of(replay(inst, rounds), "cooperativeness")) == \
            as_tuple(scan_cooperativeness(oracle.replay(inst, rounds), partition))


def test_incremental_checker_reports_the_lowest_failing_rank():
    # With every round stalled, all ranks of class 1 that start off their
    # destination fail together in round 4; the report names the lowest.
    for inst in [gen_adversarial_half(8, 4)] + [gen_random(8, 4, 2, s) for s in range(10)]:
        inst, _ = engine.orient_roles(inst)
        rounds = faults._stalled_rounds(inst, 12, distance=None)
        assert as_tuple(verdict_of(replay(inst, rounds), "cooperativeness")) == \
            as_tuple(scan_cooperativeness(oracle.replay(inst, rounds)))


def test_incremental_suffix_checker_matches_the_scan():
    traces = [(inst, rounds) for inst, rounds in corpus()]
    traces += [(result.instance, result.trace)
               for result, _ in map(golden_run, sorted(GOLDEN))]
    traces += [(data.instance, data.rounds) for data in faults.fault_traces().values()]
    # The suffix property is a two-colour guarantee: P3 and q >= 3 runs never get it.
    traces = [(inst, rounds) for inst, rounds in traces
              if "suffix_property" in verify.applicable_checks(inst)]
    failing = 0
    for inst, rounds in traces:
        expected = scan_suffix_property(oracle.replay(inst, rounds))
        assert as_tuple(verdict_of(replay(inst, rounds), "suffix_property")) \
            == as_tuple(expected), (inst.initial.to_string(), [rt.moves for rt in rounds])
        failing += not expected.passed
    assert len(traces) >= 1500 and failing >= 90, (len(traces), failing)


def recounted_distances(inst, rounds, rng):
    """``rounds`` recording the distance of every replayed configuration,
    one or two of them shifted, zeroed or made negative half the time."""
    row = inst.spec.row(BLUE)
    potential = analysis.distance_report(inst.initial, row)
    distances = [analysis.distance(cfg, row, potential.rename_offset, potential.dest).total
                 for cfg in replayed_configs(inst, rounds)[1:]]
    for _ in range(rng.choice([0, 0, 1, 2])):
        r = rng.randrange(len(distances))
        distances[r] = rng.choice([distances[r] + 1, distances[r] - 1, 0, -1])
    return [dataclasses.replace(rt, distance=d) for rt, d in zip(rounds, distances)]


def audited_traces():
    """The corpus, each trace as it is and recording recounted distances,
    under a summary that may or may not match it; runs cut short by their
    round budget, under their own summaries; the golden runs as stored;
    every trace of ``faults``."""
    rng = random.Random("summaries")
    for inst, rounds in corpus():
        for rounds in (rounds, recounted_distances(inst, rounds, rng) if rounds else rounds):
            used = rng.choice([len(rounds) - inst.k, len(rounds) - inst.k + rng.randint(-2, 2),
                               rng.randint(-3, len(rounds) + 3)])
            summary = {"rounds_used": used, "terminated": rng.random() < 0.8,
                       "bound": analysis.theoretical_bound(inst), "bound_satisfied": True,
                       "initial_distance": analysis.distance_report(inst.initial,
                                                                    inst.spec.row(BLUE)).total}
            yield TraceData(inst, tuple(rounds), summary)
    for k in (4, 6, 8):
        inst, _ = engine.orient_roles(gen_adversarial_half(k, 2))
        result = engine.run(inst, max_rounds=k)
        assert not result.terminated
        *_, summary = engine.trace_items(result)
        yield TraceData(inst, result.trace, summary)
    for name in sorted(GOLDEN):
        yield engine.read_trace(io.StringIO(golden_run(name)[1]))
    yield from faults.fault_traces().values()


def test_single_pass_audit_matches_the_checkers_it_replaced():
    compared = failing = 0
    for data in audited_traces():
        expected = oracle.verify_trace(data)
        assert verify.verify_trace(data) == expected, \
            (data.instance.initial.to_string(), [rt.moves for rt in data.rounds], data.summary)
        compared += 1
        failing += not all(v.passed for v in expected)
    assert compared >= 3000 and failing >= 1000, (compared, failing)


def test_an_instance_that_misses_its_colour_totals_is_the_only_verdict():
    result = engine.run(engine.orient_roles(gen_adversarial_half(4, 2))[0])
    *_, summary = engine.trace_items(result)
    inst = result.instance
    assert inst.initial.to_string() == "RRRRBBBB"
    one_blue_too_many = dataclasses.replace(inst, initial=Configuration.from_string(
        "BRRRBBBB", inst.k, inst.p, inst.q))
    data = TraceData(one_blue_too_many, result.trace, summary)
    expected = [InvariantVerdict("instance", False, None,
                                 "colour 1: have 5, need 4; colour 2: have 3, need 4")]
    assert verify.verify_trace(data) == oracle.verify_trace(data) == expected


def _swap(cfg, x, y):
    """The agents at positions ``x`` and ``y`` trade places."""
    return [Move(cfg.ids[x], x, y), Move(cfg.ids[y], y, x)]


def odd_k_traces():
    """Odd-k two-colour runs, each as it is and with its middle round
    replaced, then carried on honestly: by a swap inside the block the
    round leaves unpaired, by a swap across the boundary between its first
    and second window (the unpaired block for k = 3), and by both in one
    round, in either order.  Each trace comes with the number of its
    tampered round and that round's first move out of its window, both
    None for the honest run."""
    for k in (3, 5, 7):
        for seed in range(3):
            inst, _ = engine.orient_roles(gen_random(k, 3, 2, seed))
            result = engine.run(inst)
            *_, summary = engine.trace_items(result)
            yield TraceData(inst, result.trace, summary), None, None
            j = (len(result.trace) + 1) // 2
            cfg = replayed_configs(inst, result.trace[:j - 1])[-1]
            offset, p = result.trace[j - 1].offset, inst.p
            unpaired = engine.wrap_block(offset - 1, k)
            inside = _swap(cfg, unpaired * p - 2, unpaired * p - 1)
            across = _swap(cfg, engine.wrap_block(offset + 1, k) * p - 1,
                           engine.wrap_block(offset + 2, k) * p - p)
            for moves in (inside, across, across + inside, inside + across):
                after, rt = faults.fabricate_round(cfg, moves, j, offset)
                rounds = list(result.trace[:j - 1]) + [rt]
                rounds = continue_honestly(inst, after, rounds, len(result.trace) - j)
                yield TraceData(inst, tuple(rounds), summary), j, moves[0]


def test_single_pass_audit_matches_the_checkers_on_odd_k_and_stray_moves():
    compared = 0
    for data, j, stray in odd_k_traces():
        verdicts = verify.verify_trace(data)
        assert verdicts == oracle.verify_trace(data), \
            (data.instance.initial.to_string(), [rt.moves for rt in data.rounds])
        safety = verdicts[0]
        assert safety.name == "safety"
        if stray is None:
            assert all(v.passed for v in verdicts), verdicts
        else:
            assert as_tuple(safety) == ("safety", False, j, f"move {stray} leaves its window")
        compared += 1
    assert compared == 3 * 3 * 5


def test_replay_names_the_first_bad_move_in_order():
    # An id mismatch before a move out of the ring, and the other way round:
    # the replay names whichever comes first.
    inst, _ = engine.orient_roles(gen_random(5, 3, 2, 0))
    result = engine.run(inst)
    j = 3
    cfg = replayed_configs(inst, result.trace[:j - 1])[-1]
    n, ids = inst.n, cfg.ids
    *_, summary = engine.trace_items(result)
    wrong_id = Move(ids[1], 0, 1)  # the agent at position 1 does not stand at 0
    outside = Move(ids[1], 1, n)
    back = Move(ids[0], n, 0)
    for moves, error in (([wrong_id, outside, back],
                          f"move {wrong_id} does not match the agent at its source"),
                         ([outside, wrong_id, back], f"move {outside} outside the ring")):
        bad = RoundTrace(index=j, offset=result.trace[j - 1].offset, moves=moves,
                         counts=cfg.all_counts(), distance=None, checks=())
        data = TraceData(inst, (*result.trace[:j - 1], bad, *result.trace[j:]), summary)
        expected = [InvariantVerdict("replay", False, None, f"round {j}: {error}")]
        assert verify.verify_trace(data) == oracle.verify_trace(data) == expected
