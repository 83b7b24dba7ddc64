"""Golden trace digests: the behaviour-preservation gate for engine changes.

Each case runs one fixed instance the way ``ringform run --trace`` does
(exact two-colour instances are role-oriented first) and pins two sha256
digests: one of the ``write_trace`` output, and one of the run that
``read_trace`` decodes from it (each round's index, offset, moves, full
counts and distance, then the summary).  A change that alters any round,
move, count, distance or summary field changes both; a change of the
file format alone changes only the first.  Either change must be
deliberate and its reason recorded in CHANGES.md.  ``ringform run
--trace``, which writes each round as it runs, must write the same bytes
as ``write_trace`` on the whole run, and with ``--verify`` print what the
whole run and ``verify_result`` give.
"""

import contextlib
import hashlib
import io
import json

import pytest

from ringform import analysis, engine, verify
from ringform.cli import EXIT_NO_TERMINATION, EXIT_OK, EXIT_VERIFICATION_FAILED, main
from ringform.core import ProblemKind, serialize_instance
from ringform.generators import (
    gen_adversarial_half,
    gen_homogeneous,
    gen_p2_random,
    gen_p3_random,
    gen_random,
)

from helpers import unpacked

GOLDEN = {
    "p1-even-random-k4-p3-s0": (
        lambda: gen_random(4, 3, 2, 0),
        "5f016b3665f6d82d820afdc50189a4535cb640acf8ed9a237301eb9fdab7cc56",
        "023d7fa354c168681c91988aed1ec3775f2f51dbe429c842e5879cb8791a7939"),
    "p1-even-random-k6-p4-s0-reversed": (
        lambda: gen_random(6, 4, 2, 0),
        "721c627169878e7f78cf9a8b323d57627784c4fc3e986ed853bd6419b8cdb8bf",
        "0f0a304f490ea76d132705d4bc7df2875adc27711c8e6fa62f24539b6deaccd5"),
    "p1-even-random-k8-p5-s2": (
        lambda: gen_random(8, 5, 2, 2),
        "46cd118d87c1def673d7df25c381fe66aa9cc59c806acb2cec404aa1b23403ca",
        "124317433e0ed5b16d66a9794bd088e23e79dc049e9cb9c32d115a341f84e6ac"),
    "p1-even-random-k12-p2-s3": (
        lambda: gen_random(12, 2, 2, 3),
        "ed5bcac005e41f78b386f6658c1119ab47a2798b33546ebc82dde4b13fc61407",
        "947b6de955859c4c0c1b827590c431087772cc87938b28206ab4865370e64e3c"),
    "p1-even-homogeneous-k8-p4-m2": (
        lambda: gen_homogeneous(8, 4, 2, 0),
        "f368f836029abf8a88ff7ccb6619385ba3a51b9c848bec4a3ececc48c3861fa5",
        "4dfe06f96e02fe0e9e00ad3e4cc24b1980e09e26baf65e2bddbd0170a09d0652"),
    "p1-even-adversarial-k8-p2": (
        lambda: gen_adversarial_half(8, 2),
        "b592d34c7c461ed00bd4b4ebc94d85eddebcd4ff30def2e39a6442024b85983a",
        "5023560359ab59a5f2d87fae68d6724df3256528a3f95744758c7e7716e44191"),
    "p1-even-adversarial-k16-p4": (
        lambda: gen_adversarial_half(16, 4),
        "8f2ddd475b46a9a2775711b1e02ee1f1aa310067a0a66ceb0ec696ced3233956",
        "ba938877a90d663bd84787bf942a6df2871d15d52d5dac0230f6fadc1d5842f0"),
    "p1-odd-random-k3-p2-s0": (
        lambda: gen_random(3, 2, 2, 0),
        "4392a29c36812f39b1e5a03796b6d4b674b24a72e42697ded99c33d86ab1ce00",
        "fcc800570d3372e51cb36abf45a94a5f965d78c3c3ece244896c82430cfa4928"),
    "p1-odd-random-k5-p3-s1": (
        lambda: gen_random(5, 3, 2, 1),
        "63c9d62d7ca6789dd8b610cca320d935b39b54c7518f9a339e3702637996bf3a",
        "a046e7548de41036342a5f10990845df4918d07d9146dd337915f295d26572a9"),
    "p1-odd-random-k7-p4-s2": (
        lambda: gen_random(7, 4, 2, 2),
        "a41d4c931216510004d74b8475de1c810734d24578be0d587b4a13c766bd0ffc",
        "b982630218bf58aaccf05c3b9651e96c5f7797a6f9774d5e49de67d8998b4f59"),
    "p1-odd-random-k9-p3-s3": (
        lambda: gen_random(9, 3, 2, 3),
        "82541fcb57dc52732290511051a3d3856216765ece7a4d1534a35202e01ccd20",
        "67f82a0f3db3aefc62f22035f8c60e9baf76b3a4a13e208b159ecb84c4b11231"),
    "p2-random-k4-p3-s0": (
        lambda: gen_p2_random(4, 3, 2, 0),
        "d0437a646f786dc3f69d38aec9412ec0f4317a857b37b68eb517b4e879137add",
        "a4a28a8ff6891ea6ba59e4779f43b242e1742139222a8aaf12b920f50bfcd1e1"),
    "p2-random-k5-p4-s1-e2": (
        lambda: gen_p2_random(5, 4, 2, 1, extras=2),
        "0456adaab3152e0d017a0cc7497f75f8d1c56abebfb6a7fd9c720a6f906f2149",
        "d0be7c441d1badec8455a6897514fb0b0db2d0610b4ba080afcbeb983af45166"),
    "p2-random-k8-p5-s2-e0": (
        lambda: gen_p2_random(8, 5, 2, 2, extras=0),
        "bef787a46168da286d8fdc094d8fe4ed211e853c10afd752f5296810bf398b9f",
        "d9d509739d2e32e6222d14e7bb3c468448091112fe02d94fb07669dd2a990445"),
    "p3-q2-k4-p3-s0": (
        lambda: gen_p3_random(4, 3, 2, 0),
        "0df4fd1eaefc2cf299ad8d4e87eb0db1fa44bc211193e62b515b2f4c28b2c2d2",
        "9886796d4954990e7d5720f610a261b5971919baa6dea72f98e78121637e5916"),
    "p3-q3-k5-p4-s1": (
        lambda: gen_p3_random(5, 4, 3, 1),
        "97e07b4f1045b0ac07a5ebdb44e5fe3775704ddf470d68060faba4116e3482df",
        "321ba679987e61846bbc1960c2a485a5fc5e609de4f9d97a0490e572b86ba4de"),
    "p3-q4-k3-p6-s2": (
        lambda: gen_p3_random(3, 6, 4, 2),
        "f00c0c21c4a4692ae184cf53deabb583492753d22d3ddc0846aad59cb318eed7",
        "3c078635324ccb11ee75ed316827e61a4d6cc51991dae8087d1496854af01c05"),
    "q3-random-k6-p4-s0": (
        lambda: gen_random(6, 4, 3, 0),
        "c98e585008de6d4a18cfd9f5f970f289ae26afc4f5822ffa3cf334613567996c",
        "1e95f8a03ab63726900163384ae8ad8863a7a690618d8fb76b45b1232a077699"),
    "q4-random-k5-p6-s1": (
        lambda: gen_random(5, 6, 4, 1),
        "89ffdc47a24918d2dc40684c348519bda6ab9f724d887f7a1bfafdbc4bc454ab",
        "64d782bcb39207bf0a39486dab111fae280f7f1df2867a712b59f4fb98f90920"),
    "q5-random-k7-p7-s2": (
        lambda: gen_random(7, 7, 5, 2),
        "c2c8ef90557402517ac05cc68ff195c524255a106613feddb4ae4bac35727f8d",
        "f20d76024ac3e2e195984eef654d39f38185a9f7a4511e119b07bc3dacbc77c5"),
}


def whole_run(inst, max_rounds=None) -> tuple[engine.RunResult, str, bool]:
    """The run of ``inst`` as ``ringform run`` executes it, its
    ``write_trace`` output, and whether its colour roles were swapped."""
    inst, reversed_roles = engine.orient_roles(inst)
    result = engine.run(inst, max_rounds)
    buffer = io.StringIO()
    engine.write_trace(result, buffer, reversed_roles=reversed_roles)
    return result, buffer.getvalue(), reversed_roles


def golden_run(name: str) -> tuple[engine.RunResult, str]:
    """The case's run and its ``write_trace`` output."""
    result, text, _ = whole_run(GOLDEN[name][0]())
    return result, text


def decoded_digest(text: str) -> str:
    """sha256 of the run ``read_trace`` decodes from ``text``; it does not
    depend on how the trace file encodes the rounds."""
    data = engine.read_trace(io.StringIO(text))
    rounds = [[rt.index, rt.offset, tuple(rt.moves), rt.counts, rt.distance]
              for rt in data.rounds]
    return hashlib.sha256(json.dumps([rounds, data.summary], sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_digest_is_unchanged(name):
    result, text = golden_run(name)
    assert result.terminated
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name][1]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_decoded_run_digest_is_unchanged(name):
    _, text = golden_run(name)
    assert decoded_digest(text) == GOLDEN[name][2]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_reads_back_as_the_run(name):
    result, text = golden_run(name)
    assert engine.read_trace(io.StringIO(text)).rounds == result.trace
    assert engine.read_trace(io.BytesIO(text.encode())).rounds == result.trace


def test_packed_fields_are_little_endian_int32s_of_the_moves_and_changed_rows():
    _, text = golden_run("q3-random-k6-p4-s0")
    records = [json.loads(line) for line in text.splitlines()]
    data = engine.read_trace(io.StringIO(text))
    before, moved = data.instance.initial.all_counts(), 0
    for record, rt in zip(records[1:-1], data.rounds, strict=True):
        assert unpacked(record["moves"]) == list(rt.moves.flat)
        assert unpacked(record["counts"]) == [
            x for b, (old, row) in enumerate(zip(before, rt.counts), start=1) if old != row
            for x in (b, *row)]
        moved += bool(rt.moves)
        before = rt.counts
    assert moved > 3


def test_golden_cases_cover_every_family():
    insts = [make() for make, *_ in GOLDEN.values()]
    kinds = {(i.spec.kind, i.q) for i in insts}
    assert {(ProblemKind.P1, 2), (ProblemKind.P2, 2), (ProblemKind.P3, 2),
            (ProblemKind.P1, 3), (ProblemKind.P1, 4), (ProblemKind.P1, 5)} <= kinds
    two_colour_p1 = [i for i in insts if i.spec.kind is ProblemKind.P1 and i.q == 2]
    assert {i.k % 2 for i in two_colour_p1} == {0, 1}
    assert any(engine.orient_roles(i)[1] for i in two_colour_p1)


def cli_run(tmp_path, inst, *flags: str) -> tuple[int, str, bytes]:
    """The exit code, standard output and trace file of ``ringform run
    --trace`` on ``inst``."""
    instance_path, trace_path = tmp_path / "inst.txt", tmp_path / "trace.jsonl"
    instance_path.write_text(serialize_instance(inst))
    argv = ["run", "--instance", str(instance_path), "--trace", str(trace_path), *flags]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    return code, out.getvalue(), trace_path.read_bytes()


def whole_run_output(inst, max_rounds=None, verifying=True) -> tuple[int, str, bytes]:
    """What ``cli_run`` gives when the run is made whole first, then written
    by ``write_trace`` and audited by ``verify_result``: the summary line,
    then the verdicts, also of a run that did not terminate."""
    result, text, reversed_roles = whole_run(inst, max_rounds)
    summary = {"terminated": result.terminated, "rounds_used": result.rounds_used,
               "bound": result.bound,
               "bound_satisfied": result.terminated and result.rounds_used <= result.bound,
               "reversed": reversed_roles, "final": result.final.to_string()}
    lines = [json.dumps(summary)]
    code = EXIT_OK
    if verifying:
        verdicts = verify.verify_result(result)
        lines += map(str, verdicts)
        code = EXIT_OK if all(v.passed for v in verdicts) else EXIT_VERIFICATION_FAILED
    if not result.terminated:
        code = EXIT_NO_TERMINATION
    return code, "".join(line + "\n" for line in lines), text.encode()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_trace_streams_the_bytes_of_the_whole_run(name, tmp_path):
    inst = GOLDEN[name][0]()
    expected = whole_run_output(inst, verifying=False)
    assert cli_run(tmp_path, inst) == expected
    assert hashlib.sha256(expected[2]).hexdigest() == GOLDEN[name][1]
    assert cli_run(tmp_path, inst, "--verify") == whole_run_output(inst)


@pytest.mark.parametrize("name", ["p1-even-random-k6-p4-s0-reversed", "p2-random-k5-p4-s1-e2"])
def test_run_trace_computes_the_initial_distance_once(name, tmp_path, monkeypatch):
    # The trace header and the run share one distance report.
    inst = GOLDEN[name][0]()
    expected = whole_run_output(inst, verifying=False)
    reports = []
    report = analysis.distance_report
    monkeypatch.setattr(analysis, "distance_report",
                        lambda *args: reports.append(args) or report(*args))
    assert cli_run(tmp_path, inst) == expected
    assert len(reports) == 1


def test_a_truncated_run_streams_the_bytes_of_the_whole_run(tmp_path):
    inst = GOLDEN["p1-even-adversarial-k16-p4"][0]()
    for flags in ((), ("--verify",)):
        code, out, written = cli_run(tmp_path, inst, "--max-rounds", "5", *flags)
        assert (code, out, written) == whole_run_output(inst, 5, verifying=bool(flags))
        assert code == EXIT_NO_TERMINATION
        # The audit of the rounds that ran is printed, not dropped.
        assert ("FAIL quiescence: run did not terminate" in out.splitlines()) == bool(flags)
        assert written.decode().count('"type": "round"') == 5
        assert json.loads(written.decode().splitlines()[-1])["terminated"] is False
