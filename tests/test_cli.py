"""End-to-end command-line behaviour: pipelines, exit codes, report shapes."""

import json

import pytest

from ringform import analysis, cli
from ringform.cli import (
    EXIT_INVALID_INSTANCE,
    EXIT_IO_ERROR,
    EXIT_NO_TERMINATION,
    EXIT_OK,
    EXIT_VERIFICATION_FAILED,
    main,
    run_bench,
)
from ringform.core import ValidityReport, parse_instance, validate
from ringform.engine import orient_roles

INVALID_DOC = """\
kind: P1
k: 2
p: 2
q: 2
config: BRRR
requirements:
  1 1
  1 1
"""


def test_gen_run_verify_pipeline(tmp_path, capsys):
    instance_path = tmp_path / "inst.txt"
    trace_path = tmp_path / "trace.jsonl"
    assert main(["gen", "--kind", "random", "--k", "4", "--p", "3",
                 "--seed", "3", "--out", str(instance_path)]) == EXIT_OK
    inst = parse_instance(instance_path.read_text())
    assert validate(inst).valid

    assert main(["run", "--instance", str(instance_path),
                 "--trace", str(trace_path), "--verify"]) == EXIT_OK
    out = capsys.readouterr().out
    summary = json.loads(out.splitlines()[0])
    assert summary["terminated"] and summary["bound_satisfied"]

    assert main(["verify", "--trace", str(trace_path)]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines and all(line.startswith("pass") for line in lines)


def test_gen_writes_to_stdout_without_out(capsys):
    assert main(["gen", "--kind", "adversarial_half", "--k", "4", "--p", "2"]) == EXIT_OK
    doc = capsys.readouterr().out
    assert parse_instance(doc).initial.to_string() == "RRRRBBBB"


def test_gen_refuses_more_colours_than_symbols(capsys):
    for kind in ("random", "p2_random", "p3_random"):
        argv = ["gen", "--kind", kind, "--k", "4", "--p", "40", "--q", "36"]
        assert main(argv) == EXIT_INVALID_INSTANCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: at most 35 colours supported, got q=36\n"


def test_run_rejects_invalid_instance(tmp_path, capsys):
    # Colour totals that miss the target are the instance's only issues.
    issues = ["colour 1: have 1, need 2", "colour 2: have 3, need 2"]
    path = tmp_path / "bad.txt"
    path.write_text(INVALID_DOC)
    assert main(["run", "--instance", str(path)]) == EXIT_INVALID_INSTANCE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "".join(f"invalid: {i}\n" for i in issues)
    assert main(["analyze", "--instance", str(path)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert not report["valid"] and report["issues"] == issues

    # A trace of a valid instance, stored under the invalid one's header.
    valid_path, trace_path = tmp_path / "valid.txt", tmp_path / "trace.jsonl"
    valid_path.write_text(INVALID_DOC.replace("BRRR", "BRRB"))
    assert main(["run", "--instance", str(valid_path), "--trace", str(trace_path)]) == EXIT_OK
    records = [json.loads(line) for line in trace_path.read_text().splitlines()]
    records[0]["instance"] = INVALID_DOC
    trace_path.write_text("".join(json.dumps(record) + "\n" for record in records))
    capsys.readouterr()
    assert main(["verify", "--trace", str(trace_path)]) == EXIT_VERIFICATION_FAILED
    assert capsys.readouterr().out == f"FAIL instance: {'; '.join(issues)}\n"

# Enough colour-1 agents in total, but block 1 needs more than p of them.
INFEASIBLE_P2_DOC = """\
kind: P2
k: 2
p: 3
q: 2
config: BBBBBR
requirements:
  4 1
  0 0
"""


def test_a_p2_requirement_above_the_block_length_is_an_invalid_instance(tmp_path, capsys):
    issue = "block 1: colour 1 requirement 4 exceeds the block length p=3"
    path = tmp_path / "infeasible.txt"
    path.write_text(INFEASIBLE_P2_DOC)
    assert main(["analyze", "--instance", str(path)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert not report["valid"] and report["issues"] == [issue]
    assert main(["run", "--instance", str(path)]) == EXIT_INVALID_INSTANCE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"invalid: {issue}\n"

    # A trace of a feasible instance, stored under the infeasible one's header.
    feasible_path, trace_path = tmp_path / "feasible.txt", tmp_path / "trace.jsonl"
    feasible_path.write_text(INFEASIBLE_P2_DOC.replace("  4 1\n", "  3 1\n"))
    assert main(["run", "--instance", str(feasible_path), "--trace", str(trace_path)]) == EXIT_OK
    records = [json.loads(line) for line in trace_path.read_text().splitlines()]
    records[0]["instance"] = INFEASIBLE_P2_DOC
    trace_path.write_text("".join(json.dumps(record) + "\n" for record in records))
    capsys.readouterr()
    assert main(["verify", "--trace", str(trace_path)]) == EXIT_VERIFICATION_FAILED
    assert capsys.readouterr().out == f"FAIL instance: {issue}\n"


def test_an_instance_the_engine_refuses_is_reported_as_run_reports_it(tmp_path, capsys,
                                                                      monkeypatch):
    # ``run`` validates before it runs; were that skipped, the engine's own
    # refusal reaches ``main`` and is printed in the same ``invalid:`` form.
    issue = "block 1: colour 1 requirement 4 exceeds the block length p=3"
    path = tmp_path / "infeasible.txt"
    path.write_text(INFEASIBLE_P2_DOC)
    monkeypatch.setattr(cli, "validate", lambda inst: ValidityReport(True, ()))
    assert main(["run", "--instance", str(path)]) == EXIT_INVALID_INSTANCE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"invalid: {issue}\n"


def test_run_reports_nontermination_with_zero_budget(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    main(["gen", "--kind", "adversarial_half", "--k", "8", "--p", "2",
          "--out", str(path)])
    assert main(["run", "--instance", str(path), "--max-rounds", "0"]) == EXIT_NO_TERMINATION
    summary = json.loads(capsys.readouterr().out.splitlines()[0])
    assert not summary["terminated"]


def main_err(argv, capsys) -> str:
    """The standard error of a command line that argparse refuses: exit 2
    and nothing on standard output."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    return captured.err


def test_run_rejects_a_negative_round_budget(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    main(["gen", "--kind", "adversarial_half", "--k", "8", "--p", "2", "--out", str(path)])
    run = ["run", "--instance", str(path), "--max-rounds"]
    assert "--max-rounds: must be at least 0, got -1" in main_err(run + ["-1"], capsys)
    assert "--max-rounds: invalid int value: 'x'" in main_err(run + ["x"], capsys)


def test_run_handles_malformed_document(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text("kind: P9\nnope")
    assert main(["run", "--instance", str(path)]) == EXIT_INVALID_INSTANCE
    assert "invalid instance document" in capsys.readouterr().err


def test_missing_file_is_io_error(tmp_path, capsys):
    assert main(["run", "--instance", str(tmp_path / "nowhere.txt")]) == EXIT_IO_ERROR
    assert "i/o error" in capsys.readouterr().err


def test_verify_rejects_tampered_trace(tmp_path, capsys):
    instance_path = tmp_path / "inst.txt"
    trace_path = tmp_path / "trace.jsonl"
    main(["gen", "--kind", "random", "--k", "4", "--p", "2", "--seed", "1",
          "--out", str(instance_path)])
    main(["run", "--instance", str(instance_path), "--trace", str(trace_path)])
    capsys.readouterr()

    lines = trace_path.read_text().splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record.get("type") == "round":
            record["distance"] = 10_000  # distances may never rise
            lines[i] = json.dumps(record)
            break
    trace_path.write_text("\n".join(lines) + "\n")

    assert main(["verify", "--trace", str(trace_path)]) == EXIT_VERIFICATION_FAILED
    assert "FAIL" in capsys.readouterr().out


def _stored_trace(tmp_path, capsys) -> list[str]:
    instance_path = tmp_path / "inst.txt"
    trace_path = tmp_path / "trace.jsonl"
    main(["gen", "--kind", "random", "--k", "4", "--p", "2", "--seed", "1",
          "--out", str(instance_path)])
    main(["run", "--instance", str(instance_path), "--trace", str(trace_path)])
    capsys.readouterr()
    return trace_path.read_text().splitlines()


def _verify_lines(tmp_path, capsys, lines: list[str]) -> tuple[int, str, str]:
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    code = main(["verify", "--trace", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _first_round(lines: list[str]) -> int:
    return next(i for i, line in enumerate(lines) if '"type": "round"' in line)


def test_verify_truncated_json_line_exits_cleanly(tmp_path, capsys):
    lines = _stored_trace(tmp_path, capsys)
    i = _first_round(lines)
    lines[i] = lines[i][:len(lines[i]) // 2]
    code, out, err = _verify_lines(tmp_path, capsys, lines)
    assert code == EXIT_VERIFICATION_FAILED and out == ""
    assert err.splitlines() == [err.strip()] and err.startswith(f"invalid trace: line {i + 1}:")


def test_verify_round_without_offset_exits_cleanly(tmp_path, capsys):
    lines = _stored_trace(tmp_path, capsys)
    i = _first_round(lines)
    record = json.loads(lines[i])
    del record["offset"]
    lines[i] = json.dumps(record)
    code, out, err = _verify_lines(tmp_path, capsys, lines)
    assert code == EXIT_VERIFICATION_FAILED and out == ""
    assert err.strip() == f"invalid trace: line {i + 1}: round record needs an integer 'offset'"


def test_verify_move_of_wrong_arity_exits_cleanly(tmp_path, capsys):
    lines = _stored_trace(tmp_path, capsys)
    i = next(i for i, line in enumerate(lines)
             if json.loads(line).get("moves"))
    record = json.loads(lines[i])
    del record["moves"][-1]
    lines[i] = json.dumps(record)
    code, out, err = _verify_lines(tmp_path, capsys, lines)
    assert code == EXIT_VERIFICATION_FAILED and out == ""
    assert err.startswith(f"invalid trace: line {i + 1}: 'moves' must be")
    assert len(err.splitlines()) == 1


def test_verify_trace_without_header_or_with_unknown_record(tmp_path, capsys):
    lines = _stored_trace(tmp_path, capsys)
    code, _, err = _verify_lines(tmp_path, capsys, lines[1:])
    assert code == EXIT_VERIFICATION_FAILED
    assert err.strip() == "invalid trace: line 1: round record before the header record"
    code, _, err = _verify_lines(tmp_path, capsys, lines[-1:])
    assert code == EXIT_VERIFICATION_FAILED
    assert err.strip() == "invalid trace: trace has no header record"
    code, _, err = _verify_lines(tmp_path, capsys, lines + ['{"type": "footer"}'])
    assert code == EXIT_VERIFICATION_FAILED
    assert err.strip() == f"invalid trace: line {len(lines) + 1}: unknown record type 'footer'"


@pytest.mark.parametrize("fmt", ["ringform-trace-v1", "ringform-trace-v2"])
def test_verify_refuses_an_older_trace_format(fmt, tmp_path, capsys):
    lines = _stored_trace(tmp_path, capsys)
    header = {**json.loads(lines[0]), "format": fmt}
    code, out, err = _verify_lines(tmp_path, capsys, [json.dumps(header)] + lines[1:])
    assert code == EXIT_VERIFICATION_FAILED and out == ""
    assert err.splitlines() == [f"invalid trace: line 1: header format {fmt!r} is not "
                                "'ringform-trace-v3'"]


def test_verify_names_the_header_line_of_an_instance_document_that_does_not_parse(
        tmp_path, capsys):
    # The document's own error names a line of the document, not of the trace
    # file, so the trace error names the header's line and quotes it.
    lines = _stored_trace(tmp_path, capsys)
    header = json.loads(lines[0])
    assert "k: 4\n" in header["instance"]
    for instance, error in (
            (header["instance"].replace("k: 4\n", "k: 3\n"),
             "header instance document: line 6: config length 8 != k*p = 6"),
            (None, "header record needs an instance document")):
        broken = json.dumps({**header, "instance": instance})
        code, out, err = _verify_lines(tmp_path, capsys, [broken] + lines[1:])
        assert (code, out) == (EXIT_VERIFICATION_FAILED, "")
        assert err == f"invalid trace: line 1: {error}\n"


def test_analyze_reports_surplus_and_bound(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    main(["gen", "--kind", "adversarial_half", "--k", "4", "--p", "2",
          "--out", str(path)])
    capsys.readouterr()
    assert main(["analyze", "--instance", str(path)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["valid"]
    assert report["surplus"] == [-1, -1, 1, 1]
    assert report["rename_offset"] == 1
    assert report["distance"] == 4
    assert report["bound"] == 16 and report["bound_proven"]


def test_analyze_reports_the_oriented_instance_that_run_executes(tmp_path, capsys):
    # Colour 2 has the smaller total-to-minimum ratio here, so run swaps the roles.
    path = tmp_path / "inst.txt"
    main(["gen", "--kind", "random", "--k", "8", "--p", "4", "--seed", "0",
          "--out", str(path)])
    capsys.readouterr()
    assert main(["analyze", "--instance", str(path)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert main(["run", "--instance", str(path)]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["reversed"] and report["reversed"]
    assert report["bound"] == summary["bound"] == 42
    oriented, _ = orient_roles(parse_instance(path.read_text()))
    row = oriented.spec.row(1)
    assert report["surplus"] == list(analysis.surplus_profile(oriented.initial, row))
    assert report["distance"] == analysis.distance_report(oriented.initial, row).total


def test_analyze_reports_a_distance_only_where_run_tracks_one(tmp_path, capsys):
    # Exact patterns run the many-colour step even with two colours.
    path = tmp_path / "p3.txt"
    path.write_text("kind: P3\nk: 3\np: 2\nq: 2\nconfig: BRBRRB\npatterns:\n  BR\n  BR\n  RB\n")
    trace_path = tmp_path / "trace.jsonl"
    assert main(["analyze", "--instance", str(path)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] and report["q"] == 2
    assert not {"surplus", "rename_offset", "distance"} & report.keys()
    assert main(["run", "--instance", str(path), "--trace", str(trace_path)]) == EXIT_OK
    header = json.loads(trace_path.read_text().splitlines()[0])
    assert header["initial_distance"] is None


def test_analyze_flags_invalid(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(INVALID_DOC)
    assert main(["analyze", "--instance", str(path)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert not report["valid"]


def test_bench_adversarial_suite(capsys):
    assert main(["bench", "--suite", "adversarial", "--seeds", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "max rounds/bound ratio" in out
    assert "NO" not in out


def test_bench_needs_a_seed(capsys):
    for suite in ("random", "homogeneous", "all"):
        for seeds in ("0", "-2"):
            err = main_err(["bench", "--suite", suite, "--seeds", seeds], capsys)
            assert f"--seeds: must be at least 1, got {seeds}" in err, (suite, seeds)
            assert "unknown suite" not in err
    with pytest.raises(ValueError, match="seeds must be at least 1"):
        run_bench("random", seeds=0)
    with pytest.raises(ValueError, match="unknown suite 'spiral'"):
        run_bench("spiral", seeds=1)


def test_bench_report_rows(tmp_path):
    report = run_bench("adversarial", seeds=1)
    assert report.all_ok()
    assert len(report.rows) == 6  # three block counts, two block lengths
    assert all(row.rounds_used >= row.k // 8 for row in report.rows)
    assert 0 < report.max_ratio <= 1.0


def test_bench_writes_json(tmp_path, capsys):
    out_path = tmp_path / "bench.json"
    assert main(["bench", "--suite", "adversarial", "--seeds", "1",
                 "--out", str(out_path)]) == EXIT_OK
    payload = json.loads(out_path.read_text())
    assert payload["rows"] and payload["max_ratio"] > 0


def test_p2_and_p3_generation_via_cli(tmp_path, capsys):
    p2_path = tmp_path / "p2.txt"
    assert main(["gen", "--kind", "p2_random", "--k", "3", "--p", "3",
                 "--seed", "4", "--extras", "2", "--out", str(p2_path)]) == EXIT_OK
    report = validate(parse_instance(p2_path.read_text()))
    assert report.valid and report.extras == 2

    p3_path = tmp_path / "p3.txt"
    assert main(["gen", "--kind", "p3_random", "--k", "3", "--p", "4", "--q", "3",
                 "--seed", "4", "--out", str(p3_path)]) == EXIT_OK
    assert main(["run", "--instance", str(p3_path), "--verify"]) == EXIT_OK


def test_run_verify_prints_the_verdicts_of_verify(tmp_path, capsys):
    instance_path = tmp_path / "inst.txt"
    trace_path = tmp_path / "trace.jsonl"
    main(["gen", "--kind", "adversarial_half", "--k", "8", "--p", "2",
          "--out", str(instance_path)])
    capsys.readouterr()
    assert main(["run", "--instance", str(instance_path), "--trace", str(trace_path),
                 "--verify"]) == EXIT_OK
    run_lines = capsys.readouterr().out.splitlines()[1:]
    assert main(["verify", "--trace", str(trace_path)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == run_lines
    assert run_lines[-1] == "pass summary"


def test_verify_rejects_renumbered_rounds(tmp_path, capsys):
    lines = _stored_trace(tmp_path, capsys)
    records = [json.loads(line) for line in lines]
    for record in records:
        if record["type"] == "round":
            record["round"] = 1
    code, out, _ = _verify_lines(tmp_path, capsys, [json.dumps(r) for r in records])
    assert code == EXIT_VERIFICATION_FAILED
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL safety round 2: recorded round number 1"]


def test_verify_rejects_a_second_header_or_summary(tmp_path, capsys):
    lines = _stored_trace(tmp_path, capsys)
    code, out, err = _verify_lines(tmp_path, capsys, lines[:1] + lines)
    assert (code, out) == (EXIT_VERIFICATION_FAILED, "")
    assert err.strip() == "invalid trace: line 2: a second header record"
    code, out, err = _verify_lines(tmp_path, capsys, lines + lines[-1:])
    assert (code, out) == (EXIT_VERIFICATION_FAILED, "")
    assert err.strip() == f"invalid trace: line {len(lines) + 1}: a second summary record"


def test_verify_rejects_a_forged_summary(tmp_path, capsys):
    instance_path = tmp_path / "inst.txt"
    trace_path = tmp_path / "trace.jsonl"
    main(["gen", "--kind", "adversarial_half", "--k", "8", "--p", "2",
          "--out", str(instance_path)])
    main(["run", "--instance", str(instance_path), "--trace", str(trace_path)])
    capsys.readouterr()
    lines = trace_path.read_text().splitlines()
    summary = json.loads(lines[-1])
    assert (summary["bound"], summary["rounds_used"]) == (28, 11)
    summary["bound"] = 5
    code, out, _ = _verify_lines(tmp_path, capsys, lines[:-1] + [json.dumps(summary)])
    assert code == EXIT_VERIFICATION_FAILED
    assert "FAIL summary: recorded bound 5 disagrees with the replay (28)" in out.splitlines()


def test_verify_non_utf8_trace_exits_cleanly(tmp_path, capsys):
    path = tmp_path / "binary.jsonl"
    path.write_bytes(b'\xff\xfe{"type": "header"}\n')
    assert main(["verify", "--trace", str(path)]) == EXIT_VERIFICATION_FAILED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "invalid trace: line 1: not UTF-8 text: invalid start byte at byte 0 of the line"]
    lines = _stored_trace(tmp_path, capsys)
    path.write_bytes("\n".join(lines[:2]).encode() + b"\n\x80\n")
    assert main(["verify", "--trace", str(path)]) == EXIT_VERIFICATION_FAILED
    assert capsys.readouterr().err.startswith("invalid trace: line 3: not UTF-8 text")


def test_non_utf8_instance_exits_cleanly(tmp_path, capsys):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"kind: P1\nk: 2\np: 1\nq: 2\nconfig: B\xffR\n")
    for command in ("run", "analyze"):
        assert main([command, "--instance", str(path)]) == EXIT_INVALID_INSTANCE
        err = capsys.readouterr().err
        assert err.splitlines() == ["invalid instance document: line 5: not UTF-8 text: "
                                    "invalid start byte at byte 33 of the file"]


def test_analyze_instance_without_a_bound(tmp_path, capsys):
    # Colour 1 needs nobody in block 2: invalid, and no round bound applies.
    path = tmp_path / "zero.txt"
    path.write_text("kind: P1\nk: 2\np: 1\nq: 2\nconfig: BR\nrequirements:\n  1 0\n  0 1\n")
    assert main(["analyze", "--instance", str(path)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert not report["valid"] and report["bound"] is None and not report["bound_proven"]


def test_verify_deeply_nested_json_exits_cleanly(tmp_path, capsys):
    lines = _stored_trace(tmp_path, capsys)
    code, out, err = _verify_lines(tmp_path, capsys, lines[:1] + ["[" * 100_000])
    assert code == EXIT_VERIFICATION_FAILED and out == ""
    assert err.strip() == "invalid trace: line 2: not a JSON record: nested too deeply"
