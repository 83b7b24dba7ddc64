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

GOLDEN = {
    "p1-even-random-k4-p3-s0": (
        lambda: gen_random(4, 3, 2, 0),
        "48bed2701167b972907ac72bc7f05659c2c2928c7c482b14c8f18de262d2dbbf",
        "023d7fa354c168681c91988aed1ec3775f2f51dbe429c842e5879cb8791a7939"),
    "p1-even-random-k6-p4-s0-reversed": (
        lambda: gen_random(6, 4, 2, 0),
        "22e24d0471fe8e52fa3dd1bc4b5389831c59eada042db7d5f645cb0921c8dcbb",
        "0f0a304f490ea76d132705d4bc7df2875adc27711c8e6fa62f24539b6deaccd5"),
    "p1-even-random-k8-p5-s2": (
        lambda: gen_random(8, 5, 2, 2),
        "1bea891e72e4d85257b830478955733827623f83a1ad09e6ab0e1d077ccddbb9",
        "124317433e0ed5b16d66a9794bd088e23e79dc049e9cb9c32d115a341f84e6ac"),
    "p1-even-random-k12-p2-s3": (
        lambda: gen_random(12, 2, 2, 3),
        "58a718e1d26bb7e71d4b6b9d233ba06c505c62df41c8124980b0a9f0432e9537",
        "947b6de955859c4c0c1b827590c431087772cc87938b28206ab4865370e64e3c"),
    "p1-even-homogeneous-k8-p4-m2": (
        lambda: gen_homogeneous(8, 4, 2, 0),
        "7e48201bec26dfaea66541e0758661c841348ee92302c77b6d44e87772b848db",
        "4dfe06f96e02fe0e9e00ad3e4cc24b1980e09e26baf65e2bddbd0170a09d0652"),
    "p1-even-adversarial-k8-p2": (
        lambda: gen_adversarial_half(8, 2),
        "d74f331a7b2ccb3b8773f149b302ccba6168c3624fb0ad00050c1cf4aeed4940",
        "5023560359ab59a5f2d87fae68d6724df3256528a3f95744758c7e7716e44191"),
    "p1-even-adversarial-k16-p4": (
        lambda: gen_adversarial_half(16, 4),
        "eacd07fc0d09d97bbfb3f7299773340696299d0ea27b8676082806c14c40a0ca",
        "ba938877a90d663bd84787bf942a6df2871d15d52d5dac0230f6fadc1d5842f0"),
    "p1-odd-random-k3-p2-s0": (
        lambda: gen_random(3, 2, 2, 0),
        "5ec3bdf5e49055bc21ae980f135b371d9ea70e73130beac406a3d56a42163496",
        "fcc800570d3372e51cb36abf45a94a5f965d78c3c3ece244896c82430cfa4928"),
    "p1-odd-random-k5-p3-s1": (
        lambda: gen_random(5, 3, 2, 1),
        "dffd3447289d9c8a392d6b68c6b2c0c86267fc09bcab17f27ff9fef4c8552754",
        "a046e7548de41036342a5f10990845df4918d07d9146dd337915f295d26572a9"),
    "p1-odd-random-k7-p4-s2": (
        lambda: gen_random(7, 4, 2, 2),
        "51896be50b7b05dae78a020fefa603fc7a377e68d2628b122755eff646343eca",
        "b982630218bf58aaccf05c3b9651e96c5f7797a6f9774d5e49de67d8998b4f59"),
    "p1-odd-random-k9-p3-s3": (
        lambda: gen_random(9, 3, 2, 3),
        "b8ad579a1147c4fbe0d4b7d07379cca23e9543f6f649d27f9690ee622ba91f3c",
        "67f82a0f3db3aefc62f22035f8c60e9baf76b3a4a13e208b159ecb84c4b11231"),
    "p2-random-k4-p3-s0": (
        lambda: gen_p2_random(4, 3, 2, 0),
        "df2777beb6866b0297e33eb6117c3cf85e764df6f695cf6af0748cd3c1040f92",
        "a4a28a8ff6891ea6ba59e4779f43b242e1742139222a8aaf12b920f50bfcd1e1"),
    "p2-random-k5-p4-s1-e2": (
        lambda: gen_p2_random(5, 4, 2, 1, extras=2),
        "27f6d71d5ff437ff393ee3223f8f0621ef2f3aa4dab6fe46d08a76baa3875242",
        "d0be7c441d1badec8455a6897514fb0b0db2d0610b4ba080afcbeb983af45166"),
    "p2-random-k8-p5-s2-e0": (
        lambda: gen_p2_random(8, 5, 2, 2, extras=0),
        "34da302ec29be215aaa710bd0e6cf79db8a6284ead7bdd56e38378235eabaacb",
        "d9d509739d2e32e6222d14e7bb3c468448091112fe02d94fb07669dd2a990445"),
    "p3-q2-k4-p3-s0": (
        lambda: gen_p3_random(4, 3, 2, 0),
        "451a22de7065b04580fd771b58bf76cb67f2bd775781ca990fcfe3c2e0a2d2db",
        "9886796d4954990e7d5720f610a261b5971919baa6dea72f98e78121637e5916"),
    "p3-q3-k5-p4-s1": (
        lambda: gen_p3_random(5, 4, 3, 1),
        "a75d25933ad651161a723b7d8db816f3f86920787206baadb4623dc090054032",
        "321ba679987e61846bbc1960c2a485a5fc5e609de4f9d97a0490e572b86ba4de"),
    "p3-q4-k3-p6-s2": (
        lambda: gen_p3_random(3, 6, 4, 2),
        "fbdf7285aee8ec0c956dead28baa75530c8b0cbe216fb28cc7794367dbb95119",
        "3c078635324ccb11ee75ed316827e61a4d6cc51991dae8087d1496854af01c05"),
    "q3-random-k6-p4-s0": (
        lambda: gen_random(6, 4, 3, 0),
        "5f41c058bf145e876e0e8ee5804eb510baf5a30c81459318498b1bc3d5d8a219",
        "1e95f8a03ab63726900163384ae8ad8863a7a690618d8fb76b45b1232a077699"),
    "q4-random-k5-p6-s1": (
        lambda: gen_random(5, 6, 4, 1),
        "181e0c66e89504f385a1cf103fbab460919cf4b6559b41e202fe26b72f133edb",
        "64d782bcb39207bf0a39486dab111fae280f7f1df2867a712b59f4fb98f90920"),
    "q5-random-k7-p7-s2": (
        lambda: gen_random(7, 7, 5, 2),
        "494c6c30e5f3220d96cec05aee01e85fb4fb35a1e297a289e8bb19b897d6e147",
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
