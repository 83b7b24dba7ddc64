"""Golden trace digests: the behaviour-preservation gate for engine changes.

Each case runs one fixed instance the way ``ringform run --trace`` does
(exact two-colour instances are role-oriented first) and pins two sha256
digests: one of the ``write_trace`` output, and one of the run that
``read_trace`` decodes from it (each round's index, offset, moves, full
counts and distance, then the summary).  A change that alters any round,
move, count, distance or summary field changes both; a change of the
file format alone changes only the first.  Either change must be
deliberate and its reason recorded in CHANGES.md.
"""

import hashlib
import io
import json

import pytest

from ringform import engine
from ringform.core import ProblemKind
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
        "d823badc82a5435a6c3861b54b93d24c5f3c5c9e397dc69c054a179d9d9dc764",
        "023d7fa354c168681c91988aed1ec3775f2f51dbe429c842e5879cb8791a7939"),
    "p1-even-random-k6-p4-s0-reversed": (
        lambda: gen_random(6, 4, 2, 0),
        "37ab3c57f85dc3b394e9e078ae44549c58ab20307bb751c3aa98c4acbc7666d8",
        "0f0a304f490ea76d132705d4bc7df2875adc27711c8e6fa62f24539b6deaccd5"),
    "p1-even-random-k8-p5-s2": (
        lambda: gen_random(8, 5, 2, 2),
        "9148ac28af3e70e96eccf7bd4d0d8b3a571604bbb700d7ae7cfedb5d2b55b730",
        "124317433e0ed5b16d66a9794bd088e23e79dc049e9cb9c32d115a341f84e6ac"),
    "p1-even-random-k12-p2-s3": (
        lambda: gen_random(12, 2, 2, 3),
        "cb6381d950468e29ecc7a632e25835253ebed2141ba2653dabc3b27f61338122",
        "947b6de955859c4c0c1b827590c431087772cc87938b28206ab4865370e64e3c"),
    "p1-even-homogeneous-k8-p4-m2": (
        lambda: gen_homogeneous(8, 4, 2, 0),
        "1f6c5bdd46b87c7bb3e216f328aad4cc5832e57b32b8a4b177c5541c81606a14",
        "4dfe06f96e02fe0e9e00ad3e4cc24b1980e09e26baf65e2bddbd0170a09d0652"),
    "p1-even-adversarial-k8-p2": (
        lambda: gen_adversarial_half(8, 2),
        "3083e7b989ae03f04a5639b408bd86faffc51fec573b81309f2d6e1a7561e5fe",
        "5023560359ab59a5f2d87fae68d6724df3256528a3f95744758c7e7716e44191"),
    "p1-even-adversarial-k16-p4": (
        lambda: gen_adversarial_half(16, 4),
        "e8c2d88846b5f0a1e80205560e5f9eb9536b9cde079b505ac7d95a84fe1bad75",
        "ba938877a90d663bd84787bf942a6df2871d15d52d5dac0230f6fadc1d5842f0"),
    "p1-odd-random-k3-p2-s0": (
        lambda: gen_random(3, 2, 2, 0),
        "20e5c4eb7d729e3929fe50597a9e75caa8ce502a8d6a58d03a36872e1b528ff1",
        "fcc800570d3372e51cb36abf45a94a5f965d78c3c3ece244896c82430cfa4928"),
    "p1-odd-random-k5-p3-s1": (
        lambda: gen_random(5, 3, 2, 1),
        "a6f95ff1f7060ff60495f4c809df31e0982d38e80cbbe27d14807848458b39e5",
        "a046e7548de41036342a5f10990845df4918d07d9146dd337915f295d26572a9"),
    "p1-odd-random-k7-p4-s2": (
        lambda: gen_random(7, 4, 2, 2),
        "44f3c4959944895edcd123eb20ba45493f32a1697e8570b184dcc96d155c27a9",
        "b982630218bf58aaccf05c3b9651e96c5f7797a6f9774d5e49de67d8998b4f59"),
    "p1-odd-random-k9-p3-s3": (
        lambda: gen_random(9, 3, 2, 3),
        "f581b7947aa6acd36310e67f3b983a207e810c782032f84b0e6329d19985c083",
        "67f82a0f3db3aefc62f22035f8c60e9baf76b3a4a13e208b159ecb84c4b11231"),
    "p2-random-k4-p3-s0": (
        lambda: gen_p2_random(4, 3, 2, 0),
        "69217aadf0f2b7f80a9b74d678f5d8979ebebe728e0f1e63ea68fb3cc02b8ec1",
        "a4a28a8ff6891ea6ba59e4779f43b242e1742139222a8aaf12b920f50bfcd1e1"),
    "p2-random-k5-p4-s1-e2": (
        lambda: gen_p2_random(5, 4, 2, 1, extras=2),
        "96c1713556092415cb103532b5592c49e17c1112ed9f8a07228f42c34a31b3ac",
        "d0be7c441d1badec8455a6897514fb0b0db2d0610b4ba080afcbeb983af45166"),
    "p2-random-k8-p5-s2-e0": (
        lambda: gen_p2_random(8, 5, 2, 2, extras=0),
        "667e505340024630f53cc243ef331e14d81be9777e430b1c2042bd35a851629f",
        "d9d509739d2e32e6222d14e7bb3c468448091112fe02d94fb07669dd2a990445"),
    "p3-q2-k4-p3-s0": (
        lambda: gen_p3_random(4, 3, 2, 0),
        "bf55808d718f99f719819f5430374c69dbe21d0bab96ff58c5426c798c50eb0e",
        "9886796d4954990e7d5720f610a261b5971919baa6dea72f98e78121637e5916"),
    "p3-q3-k5-p4-s1": (
        lambda: gen_p3_random(5, 4, 3, 1),
        "96c8bc7b2dceec9d323117c72a7360fe6354528906eae524dd8542541e0988fc",
        "321ba679987e61846bbc1960c2a485a5fc5e609de4f9d97a0490e572b86ba4de"),
    "p3-q4-k3-p6-s2": (
        lambda: gen_p3_random(3, 6, 4, 2),
        "679cf2c816250bf8dfcd0fdc640c6479d0d2e445c68a2809535241ff72260462",
        "3c078635324ccb11ee75ed316827e61a4d6cc51991dae8087d1496854af01c05"),
    "q3-random-k6-p4-s0": (
        lambda: gen_random(6, 4, 3, 0),
        "acf8743703dcfdbce7359a6ee2439af651400c5fa2060bd4c01cf73381fc4179",
        "1e95f8a03ab63726900163384ae8ad8863a7a690618d8fb76b45b1232a077699"),
    "q4-random-k5-p6-s1": (
        lambda: gen_random(5, 6, 4, 1),
        "913ac3ce26bca0fbf884b551743743e8480721b071346ca15b8e38cbce5bc3b5",
        "64d782bcb39207bf0a39486dab111fae280f7f1df2867a712b59f4fb98f90920"),
    "q5-random-k7-p7-s2": (
        lambda: gen_random(7, 7, 5, 2),
        "64f2f962126c453fde986ac2df312464616c5ba526d8e0175ccf863fd12d6cb2",
        "f20d76024ac3e2e195984eef654d39f38185a9f7a4511e119b07bc3dacbc77c5"),
}


def golden_run(name: str) -> tuple[engine.RunResult, str]:
    """The case's run and its ``write_trace`` output."""
    inst = GOLDEN[name][0]()
    reversed_roles = False
    if inst.spec.kind is ProblemKind.P1 and inst.q == 2:
        inst, reversed_roles = engine.orient_roles(inst)
    result = engine.run(inst)
    buffer = io.StringIO()
    engine.write_trace(result, buffer, reversed_roles=reversed_roles)
    return result, buffer.getvalue()


def decoded_digest(text: str) -> str:
    """sha256 of the run ``read_trace`` decodes from ``text``; it does not
    depend on how the trace file encodes the rounds."""
    data = engine.read_trace(io.StringIO(text))
    rounds = [[rt.index, rt.offset, rt.moves, rt.counts, rt.distance] for rt in data.rounds]
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
