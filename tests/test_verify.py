"""Checkers on honest runs, the injected-fault mutation suite, and the oracles."""

import dataclasses
import io
import json

import pytest

from ringform import analysis, core, engine, verify
from ringform.engine import EngineError, Move, RoundTrace
from ringform.generators import gen_adversarial_half, gen_p2_random, gen_p3_random, gen_random
from ringform.verify import InvariantVerdict, TraceError

import faults
import oracle
from helpers import (
    make_p1,
    make_p2,
    oracle_distance,
    replay,
    replay_result,
    replayed_configs,
    verdict_of,
    written_records,
)
from test_golden_traces import GOLDEN, golden_run


RANK_CHECKS = ("order_preserving", "suffix_property", "no_wraparound", "cooperativeness")


def not_applicable(name: str) -> InvariantVerdict:
    """The verdict of a named check that ``applicable_checks`` does not list."""
    return InvariantVerdict(name, False, None, "does not apply to this instance")


@pytest.fixture(scope="module")
def small_run():
    inst = make_p1("RRBB", 2, 2, [[1, 1], [1, 1]])
    result = engine.run(inst)
    return inst, result, replay_result(result)


def test_all_checkers_pass_on_honest_run(small_run):
    inst, result, replayed = small_run
    verdicts = verify.run_checks(replayed, result.rounds_used, result.terminated)
    assert all(v.passed for v in verdicts), [str(v) for v in verdicts]
    names = {v.name for v in verdicts}
    assert "cooperativeness" in names  # even k


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_verify_result_is_verify_trace_of_the_stored_run(name):
    result, text = golden_run(name)
    verdicts = verify.verify_result(result)
    assert verdicts == verify.verify_trace(engine.read_trace(io.StringIO(text)))
    assert verdicts[-1].name == "summary" and all(v.passed for v in verdicts)


def test_verify_result_covers_many_kinds():
    for inst in (gen_random(4, 3, 2, 0), gen_random(5, 3, 2, 1),
                 gen_p2_random(4, 3, 2, 2), gen_random(4, 4, 3, 3)):
        result = engine.run(inst)
        for verdict in verify.verify_result(result):
            assert verdict.passed, str(verdict)


def test_verify_stream_refuses_an_empty_trace_as_iter_trace_does():
    good = list(engine.trace_items(engine.run(gen_adversarial_half(4, 2))))
    with pytest.raises(TraceError, match="^trace has no header record$"):
        verify.verify_stream([])
    with pytest.raises(TraceError, match="^trace has no header record$"):
        list(engine.iter_trace([]))
    # A bare StopIteration would end the map early and drop the verdicts.
    with pytest.raises(TraceError, match="^trace has no header record$"):
        list(map(verify.verify_stream, [good, [], good]))


@pytest.mark.parametrize("first", [{}, 42, "x", "round"])
def test_verify_stream_refuses_a_trace_whose_first_item_is_not_its_instance(first):
    # A stream that starts with a summary, a number, a string or a round has
    # no header instance to audit against.
    items = list(engine.trace_items(engine.run(gen_adversarial_half(4, 2))))
    assert isinstance(items[1], RoundTrace)
    stream = items[1:] if first == "round" else [first]
    kind = "RoundTrace" if first == "round" else type(first).__name__
    with pytest.raises(TraceError, match=f"^trace has no header instance: its first item is of type {kind}$"):
        verify.verify_stream(stream)


def test_each_check_alone_gives_its_verdict_in_the_full_audit():
    traces = [engine.read_trace(io.StringIO(golden_run(name)[1])) for name in sorted(GOLDEN)]
    traces += faults.fault_traces().values()
    for data in traces:
        full = verify.verify_trace(data)
        names = verify.applicable_checks(data.instance)
        assert [v.name.split("[")[0] for v in full] == [*names, "summary"]
        run = verify.replay_trace(data)
        used = data.summary.get("rounds_used", len(data.rounds))
        terminated = data.summary.get("terminated", False)
        alone = [verify.run_checks(run, used, terminated, [name])[0] for name in names]
        assert alone == full[:-1], data.instance.provenance
        assert verify.run_checks(run, used, terminated, names[::-1]) == alone[::-1]


def test_an_audit_builds_only_what_a_named_verdict_reads(monkeypatch):
    many_colour = engine.run(gen_random(5, 4, 3, 2))
    two_colour = engine.run(gen_adversarial_half(8, 2))
    replayed = replay_result(two_colour)

    def refuse(*args):
        raise AssertionError("built for a verdict that is not named")

    # A many-colour audit needs no distance potential and no blue ranks, even
    # when it is asked for the rank verdicts, none of which applies to it.
    monkeypatch.setattr(analysis, "distance_report", refuse)
    monkeypatch.setattr(analysis, "blue_partition", refuse)
    assert all(v.passed for v in verify.verify_result(many_colour))
    assert verify.run_checks(replay_result(many_colour), many_colour.rounds_used, True,
                             RANK_CHECKS) == [not_applicable(name) for name in RANK_CHECKS]
    monkeypatch.undo()
    # Only cooperativeness reads the class partition.
    monkeypatch.setattr(analysis, "blue_partition", refuse)
    for name in verify.applicable_checks(two_colour.instance):
        if name != "cooperativeness":
            assert verdict_of(replayed, name, two_colour.rounds_used, True).passed, name


def test_checkers_are_pure(small_run):
    _, result, replayed = small_run
    first = verify.run_checks(replayed, result.rounds_used, result.terminated)
    second = verify.run_checks(replayed, result.rounds_used, result.terminated)
    assert first == second


# --- mutation suite: every checker must reject its corrupted trace ---------------


def fault(name: str) -> verify.InvariantVerdict:
    return faults.checker_verdict(faults.FAULTS[name](), name)


def test_order_fault_detected():
    verdict = fault("order_preserving")
    assert not verdict.passed and verdict.round == 1


def test_suffix_fault_detected():
    verdict = fault("suffix_property")
    assert not verdict.passed and "prefix" in verdict.detail


def test_wraparound_fault_detected():
    verdict = fault("no_wraparound")
    assert not verdict.passed and "crossed" in verdict.detail


def test_distance_monotone_fault_detected():
    verdict = fault("distance_monotone")
    assert not verdict.passed and "rose" in verdict.detail


def test_distance_decrease_fault_detected():
    verdict = fault("distance_decrease")
    assert not verdict.passed


def test_final_fault_detected():
    verdict = fault("final_condition")
    assert not verdict.passed and "misses the target" in verdict.detail


def test_cooperativeness_fault_detected():
    verdict = fault("cooperativeness")
    assert not verdict.passed and "class 1" in verdict.detail


def test_safety_fault_detected():
    assert not fault("safety").passed
    assert not faults.checker_verdict(faults.counts_fault(), "safety").passed


def test_distance_forgery_detected():
    verdict = fault("safety[distance]")
    assert not verdict.passed and verdict.round == 1
    assert "recorded distance 15" in verdict.detail and "(16)" in verdict.detail


def test_distance_forgery_passes_every_other_checker():
    # The forged trajectory is plausible: only the recomputed distances expose it.
    inst = gen_adversarial_half(8, 2)
    result = engine.run(inst)
    assert [rt.distance for rt in result.trace[:11]] == [16, 15, 14, 12, 9, 7, 5, 3, 2, 1, 0]
    forged = [15 - i for i in range(10)] + [0] * (len(result.trace) - 10)
    rounds = [dataclasses.replace(rt, distance=d) for rt, d in zip(result.trace, forged)]
    verdicts = verify.run_checks(replay(inst, rounds), result.rounds_used, result.terminated)
    assert [v.name for v in verdicts if not v.passed] == ["safety"]


def test_stored_distance_forgery_fails_verify_trace():
    inst = gen_adversarial_half(8, 2)
    buffer = io.StringIO()
    engine.write_trace(engine.run(inst), buffer)
    lines = []
    for line in buffer.getvalue().splitlines():
        record = json.loads(line)
        if record["type"] == "round" and record["round"] <= 10:
            record["distance"] = 16 - record["round"]
        lines.append(json.dumps(record))
    verdicts = verify.verify_trace(engine.read_trace(lines))
    failed = [v for v in verdicts if not v.passed]
    assert [(v.name, v.round) for v in failed] == [("safety", 1)]


def test_round_number_forgery_detected():
    verdict = fault("safety[index]")
    assert (verdict.passed, verdict.round) == (False, 2)
    assert verdict.detail == "recorded round number 1"


def test_offset_off_the_schedule_detected():
    verdict = fault("safety[offset]")
    assert (verdict.passed, verdict.round) == (False, 2)
    assert verdict.detail == "recorded offset 1, the schedule gives 2"


def test_round_number_forgery_fails_only_safety_in_verify_trace():
    records = _stored_records(gen_adversarial_half(8, 2))
    for record in records:
        if record["type"] == "round":
            record["round"] = 1
    verdicts = verify.verify_trace(engine.read_trace(json.dumps(r) for r in records))
    assert [(v.name, v.round) for v in verdicts if not v.passed] == [("safety", 2)]


def test_quiescence_names_the_position_of_the_round():
    inst = make_p1("RRBB", 2, 2, [[1, 1], [1, 1]])
    result = engine.run(inst)
    assert result.trace[0].moves
    renumbered = [dataclasses.replace(rt, index=7) for rt in result.trace]
    quiet = verdict_of(replay(inst, renumbered), "quiescence", 0, True)
    assert (quiet.passed, quiet.round) == (False, 1)


def test_summary_forgery_detected():
    verdict = fault("summary")
    assert not verdict.passed
    assert verdict.detail == "recorded bound 5 disagrees with the replay (28)"


def _stored_records(inst, max_rounds=None):
    oriented, reversed_roles = engine.orient_roles(inst)
    return written_records(engine.run(oriented, max_rounds), reversed_roles=reversed_roles)


def _summary_verdict(records):
    data = engine.read_trace(json.dumps(record) for record in records)
    return verify.verify_trace(data)[-1]


@pytest.mark.parametrize("key, forged, detail", [
    ("rounds_used", 10, "recorded rounds_used 10 disagrees with the replay (11)"),
    ("terminated", False, "recorded terminated False disagrees with the replay (True)"),
    ("bound_satisfied", False, "recorded bound_satisfied False disagrees with the replay (True)"),
    ("bound", 28.0, "recorded bound 28.0 disagrees with the replay (28)"),
    ("initial_distance", 15, "recorded initial_distance 15 disagrees with the replay (16)"),
])
def test_every_summary_field_is_derived_from_the_replay(key, forged, detail):
    records = _stored_records(gen_adversarial_half(8, 2))
    assert _summary_verdict(records) == verify.InvariantVerdict("summary", True)
    record = records[0] if key == "initial_distance" else records[-1]
    record[key] = forged
    assert _summary_verdict(records) == verify.InvariantVerdict("summary", False, None, detail)


def test_summary_check_on_unfinished_and_many_colour_runs():
    # No target within the budget: every round counts and the run did not terminate.
    records = _stored_records(gen_adversarial_half(8, 2), max_rounds=5)
    assert records[-1]["rounds_used"] == 5 and not records[-1]["terminated"]
    assert _summary_verdict(records).passed
    records[-1]["terminated"] = True
    assert "terminated True" in _summary_verdict(records).detail
    # A many-colour run has no distance potential, so no initial distance.
    records = _stored_records(gen_random(5, 4, 3, 2))
    assert records[0]["initial_distance"] is None and _summary_verdict(records).passed
    records[0]["initial_distance"] = 0
    assert not _summary_verdict(records).passed


def test_a_summary_record_cannot_mask_the_header():
    # The header's initial distance is the one audited, whatever the summary record holds.
    records = _stored_records(gen_adversarial_half(8, 2))
    records[0]["initial_distance"] = 999
    records[-1]["initial_distance"] = 16
    records[-1]["reversed"] = True
    data = engine.read_trace(json.dumps(record) for record in records)
    assert (data.summary["initial_distance"], data.summary["reversed"]) == (999, False)
    assert verify.verify_trace(data)[-1] == verify.InvariantVerdict(
        "summary", False, None, "recorded initial_distance 999 disagrees with the replay (16)")


@pytest.mark.parametrize("value", [1, "false", None])
def test_a_header_reversed_that_is_not_a_bool_is_a_trace_error(value):
    records = _stored_records(gen_adversarial_half(8, 2))
    records[0]["reversed"] = value
    with pytest.raises(TraceError, match="header 'reversed' must be true or false") as info:
        engine.read_trace(json.dumps(record) for record in records)
    assert info.value.line == 1


def test_summary_check_counts_trailing_quiet_rounds():
    records = _stored_records(gen_adversarial_half(8, 2))
    del records[-2]  # fewer than k quiet rounds after the target: not terminated
    assert "recorded terminated True" in _summary_verdict(records).detail


def test_verify_trace_rejects_an_instance_the_engine_would_refuse():
    records = _stored_records(gen_adversarial_half(4, 2))
    # Block 4 now needs three agents in a block of two.
    records[0]["instance"] = records[0]["instance"].replace("  1 1 1 1\n", "  1 1 1 2\n", 1)
    verdicts = verify.verify_trace(engine.read_trace(json.dumps(r) for r in records))
    assert len(verdicts) == 1 and verdicts[0].name == "instance" and not verdicts[0].passed


def test_replayed_distances_match_a_recount():
    # safety passes only where every recorded distance is the one replayed from the moves
    for inst in (gen_adversarial_half(8, 2), gen_random(6, 4, 2, 3),
                 gen_p2_random(5, 3, 2, 1, extras=2)):
        result = engine.run(inst)
        assert verdict_of(replay_result(result), "safety").passed
        row = inst.spec.row(1)
        report = analysis.distance_report(inst.initial, row)
        assert [result.initial_distance] + [rt.distance for rt in result.trace] == [
            analysis.distance(cfg, row, report.rename_offset, report.dest).total
            for cfg in replayed_configs(inst, result.trace)]
    many_colour = engine.run(gen_random(4, 4, 3, 1))
    assert verdict_of(replay_result(many_colour), "safety").passed
    assert {rt.distance for rt in many_colour.trace} == {None}


def test_the_audit_recounts_the_final_state(monkeypatch):
    # Stale count rows in the replay would go unseen without the final recount.
    buffer = io.StringIO()
    engine.write_trace(engine.run(gen_adversarial_half(8, 2)), buffer)
    trace = engine.read_trace(io.StringIO(buffer.getvalue()))
    assert all(v.passed for v in verify.verify_trace(trace))
    successor = core.Configuration._successor
    monkeypatch.setattr(core.Configuration, "_successor",
                        lambda self, colours, ids, counts: successor(self, colours, ids,
                                                                     self.all_counts()))
    with pytest.raises(EngineError, match="block counts kept across the replay disagree "
                                          "with a recount"):
        verify.verify_trace(trace)


def test_replay_rejects_offsets_outside_the_ring():
    inst = make_p1("RRBB", 2, 2, [[1, 1], [1, 1]])
    bad = RoundTrace(index=1, offset=3, moves=(), counts=inst.initial.all_counts(),
                     distance=1)
    with pytest.raises(TraceError, match="round 1: offset 3"):
        replay(inst, [bad])


def test_quiescence_fault_detected():
    verdict = fault("quiescence")
    assert not verdict.passed


def test_every_checker_has_a_failing_fault():
    for name, verdict in faults.fault_verdicts().items():
        assert not verdict.passed, name


# --- individual checker edges ------------------------------------------------------


def test_order_checker_accepts_cyclic_rotation():
    # a pure rotation of the blue order is still the same cyclic order
    inst = make_p1("BRBRBR", 3, 2, [[1, 1, 1], [1, 1, 1]])
    moves = tuple(
        Move(inst.initial.agents[src].id, src, (src + 2) % 6) for src in range(6)
    )
    _, rt = faults.fabricate_round(inst.initial, moves, 1, 1)
    run = replay(inst, [rt])
    assert verdict_of(run, "order_preserving").passed


def named_verdicts(inst, names):
    """The verdicts ``names`` of the honest run of ``inst``, in that order."""
    result = engine.run(inst)
    assert result.terminated
    return verify.run_checks(replay_result(result), result.rounds_used, True, names)


def passes(name: str) -> InvariantVerdict:
    return InvariantVerdict(name, True)


def test_distance_checkers_demand_distance_values():
    # Exact two-colour runs get distance_monotone and distance_decrease, P2 runs
    # distance_nonincreasing, and many-colour runs, which track no distance,
    # none; every other name fails before any round is replayed.
    names = ["distance_monotone", "safety", "distance_nonincreasing", "distance_decrease",
             "distance_monotonic", "final_condition"]
    many_colour = [not_applicable("distance_monotone"), passes("safety"),
                   not_applicable("distance_nonincreasing"), not_applicable("distance_decrease"),
                   not_applicable("distance_monotonic"), passes("final_condition")]
    for inst, expected in (
            (gen_random(4, 4, 3, seed=5), many_colour),
            (gen_random(6, 8, 4, seed=1), many_colour),
            (gen_p3_random(4, 6, 3, seed=2), many_colour),
            (gen_random(4, 3, 2, seed=0),
             [passes("distance_monotone"), passes("safety"),
              not_applicable("distance_nonincreasing"), passes("distance_decrease[2]"),
              not_applicable("distance_monotonic"), passes("final_condition")]),
            (gen_random(5, 3, 2, seed=1),
             [passes("distance_monotone"), passes("safety"),
              not_applicable("distance_nonincreasing"), passes("distance_decrease[3]"),
              not_applicable("distance_monotonic"), passes("final_condition")]),
            (gen_p2_random(4, 3, 2, seed=2),
             [not_applicable("distance_monotone"), passes("safety"),
              passes("distance_nonincreasing"), not_applicable("distance_decrease"),
              not_applicable("distance_monotonic"), passes("final_condition")])):
        assert named_verdicts(inst, names) == expected, inst.provenance


def test_cooperativeness_requires_even_k():
    # Cooperativeness applies to exact two-colour runs of even k only, and the
    # other rank verdicts to every two-colour run; a many-colour run gets none.
    names = ["cooperativeness", "safety", "order_preserving", "suffix_property",
             "no_wraparound", "cooperation"]
    for inst, applicable in (
            (gen_random(3, 2, 2, seed=0), names[1:5]),
            (gen_random(5, 3, 2, seed=1), names[1:5]),
            (gen_random(4, 3, 2, seed=0), names[:5]),
            (gen_p2_random(4, 3, 2, seed=2), names[1:5]),
            (gen_p2_random(5, 3, 2, seed=0), names[1:5]),
            (gen_random(4, 6, 3, seed=3), ["safety"]),
            (gen_random(6, 8, 4, seed=1), ["safety"]),
            (gen_p3_random(4, 6, 3, seed=2), ["safety"])):
        expected = [passes(name) if name in applicable else not_applicable(name)
                    for name in names]
        assert named_verdicts(inst, names) == expected, inst.provenance


def test_single_round_windows_can_stall():
    # with the shifting offsets an inactive window can hold the distance for
    # one round, so a one-round decrease demand must fail somewhere
    candidates = [gen_random(4, 3, 2, seed) for seed in range(40)]
    candidates.append(gen_adversarial_half(4, 2))
    found = False
    for inst in candidates:
        oriented, _ = engine.orient_roles(inst)
        result = engine.run(oriented)
        if not oracle.check_distance_decrease(oracle.replay_result(result), 1).passed:
            found = True
            break
    assert found


def test_replay_rejects_inconsistent_moves():
    inst = make_p1("RRBB", 2, 2, [[1, 1], [1, 1]])
    bad = RoundTrace(index=1, offset=1, moves=(Move(0, 0, 2),),
                     counts=inst.initial.all_counts(), distance=0)
    with pytest.raises(TraceError):
        replay(inst, [bad])
    wrong_agent = RoundTrace(index=1, offset=1,
                             moves=(Move(7, 0, 2), Move(2, 2, 0)),
                             counts=inst.initial.all_counts(), distance=0)
    with pytest.raises(TraceError):
        replay(inst, [wrong_agent])


# --- distance oracle ---------------------------------------------------------------


def test_oracle_distance_examples():
    inst = make_p1("RRBB", 2, 2, [[1, 1], [1, 1]])
    assert oracle_distance(inst.initial, inst) == 1
    satisfied = make_p1("BRRB", 2, 2, [[1, 1], [1, 1]])
    assert oracle_distance(satisfied.initial, satisfied) == 0
    half = gen_adversarial_half(4, 2)
    assert oracle_distance(half.initial, half) == 4


def test_oracle_matches_analysis_on_reachable_configurations():
    checked = 0
    for k, p, seed in [(2, 2, 0), (3, 4, 1), (6, 3, 2), (8, 6, 3), (12, 5, 4)]:
        inst = gen_random(k, p, 2, seed)
        result = engine.run(inst)
        row = inst.spec.row(1)
        for cfg in replayed_configs(inst, result.trace):
            assert analysis.distance_report(cfg, row).total == oracle_distance(cfg, inst)
            checked += 1
    assert checked > 50


# --- sequential phase oracle ---------------------------------------------------------


def test_sequential_phase_counts_settles_to_requirements():
    inst = gen_random(5, 4, 3, seed=8)
    final_counts = oracle.sequential_phase_counts(inst)
    assert final_counts == tuple(inst.spec.column(j) for j in range(1, inst.k + 1))


def test_sequential_phase_counts_rejects_other_kinds():
    with pytest.raises(ValueError):
        oracle.sequential_phase_counts(make_p2("BBBR", 2, 2, [[1, 1], [0, 0]]))


def test_the_phase_oracle_step_keeps_frozen_colours_in_place():
    cfg = core.Configuration.from_string("123223", 2, 3, 3)
    # Colour 2 plays blue for this pass, and colour 1 is frozen in place.
    moves = oracle.agent_step_two_colour(oracle.agent_view(cfg, 1), oracle.agent_view(cfg, 2),
                                         2, 1, blue_colour=2, frozen=frozenset({1}))
    after = engine.apply_moves(cfg, moves)
    assert after.to_string() == "122323"  # the frozen 1 keeps its node
    assert after.agents[0].id == 0


def test_final_checker_on_real_result(small_run):
    _, result, replayed = small_run
    final = verdict_of(replayed, "final_condition", result.rounds_used, result.terminated)
    assert final.passed
