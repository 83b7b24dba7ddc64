"""Golden trace digests: the behaviour-preservation gate for engine changes.

Each case runs one fixed instance the way ``ringform run --trace`` does
(exact two-colour instances are role-oriented first) and pins the sha256
of the ``write_trace`` output.  A change that alters any round, move,
count, distance or summary field changes a digest; such a change must be
deliberate and its reason recorded in CHANGES.md.
"""

import hashlib
import io

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
        "e60bc84cb34b15fe2e8ff60d21b584376b99f4b57f326f4862914644a536d77c"),
    "p1-even-random-k6-p4-s0-reversed": (
        lambda: gen_random(6, 4, 2, 0),
        "e2501a0e38198c36a420b11ef942a40d77cd6152117cbe356aed913a0a02a695"),
    "p1-even-random-k8-p5-s2": (
        lambda: gen_random(8, 5, 2, 2),
        "e9c4c44a92161ca0005df7413478c812e4dc64fe788e907027095f2a33d9ceca"),
    "p1-even-random-k12-p2-s3": (
        lambda: gen_random(12, 2, 2, 3),
        "ffe3e93c7ec7045e5ca07a0288721d3d0824cc26e5d1182fb5803eddcda6a5ee"),
    "p1-even-homogeneous-k8-p4-m2": (
        lambda: gen_homogeneous(8, 4, 2, 0),
        "dd358a81fb0657ec053ad0c1d7b1357d95eeffbb9258a96c13662a799295cb88"),
    "p1-even-adversarial-k8-p2": (
        lambda: gen_adversarial_half(8, 2),
        "6bb915fe76d10eb3fc1bc0e686ec2145074653b43eab02e7d3d0d6e1c0c249e6"),
    "p1-even-adversarial-k16-p4": (
        lambda: gen_adversarial_half(16, 4),
        "b3d0295e0ec6418eeacd3bcf3eca0ffd7af0d9070800653f21c8431f061fab92"),
    "p1-odd-random-k3-p2-s0": (
        lambda: gen_random(3, 2, 2, 0),
        "48f26606c2625b05f2099e66afc23b77a81d4e2d066bee735b01df24fa786010"),
    "p1-odd-random-k5-p3-s1": (
        lambda: gen_random(5, 3, 2, 1),
        "9739f24ee6a076c4a47aca6e62a9366862b4480a08ded4104d4cc6b3ae75c6fc"),
    "p1-odd-random-k7-p4-s2": (
        lambda: gen_random(7, 4, 2, 2),
        "d9ba6de6867091e48ec8a6753a97b82953176621cb81039c0e0727b97225b130"),
    "p1-odd-random-k9-p3-s3": (
        lambda: gen_random(9, 3, 2, 3),
        "6e7c66cda5340b772aeaf784b1a9f3fdca0dbc1c728e81b67ed5eabdf4581740"),
    "p2-random-k4-p3-s0": (
        lambda: gen_p2_random(4, 3, 2, 0),
        "9604b810a026770ae0646924e45955ed097884bea5879a073d510121039a3e0a"),
    "p2-random-k5-p4-s1-e2": (
        lambda: gen_p2_random(5, 4, 2, 1, extras=2),
        "55cc93cf1f3025548f559df3f7ce2a4e2498afc34a4eb2a0c99255ef4c23f90d"),
    "p2-random-k8-p5-s2-e0": (
        lambda: gen_p2_random(8, 5, 2, 2, extras=0),
        "bf3d57aa22b6d962fb29e5f06b75588c736b097e66f4aa4530f62fde748d72aa"),
    "p3-q2-k4-p3-s0": (
        lambda: gen_p3_random(4, 3, 2, 0),
        "97b332137ff79174d1a07c98f2a6dc3cbb0f02f1b323a6bd06e713af62fc2c57"),
    "p3-q3-k5-p4-s1": (
        lambda: gen_p3_random(5, 4, 3, 1),
        "124168ef2b79c8850655a6f70317bd184aabb228568dc3518760aa39a5968295"),
    "p3-q4-k3-p6-s2": (
        lambda: gen_p3_random(3, 6, 4, 2),
        "9983e0f69c9b48d2ffb82eb63bc98f11caa8e4f4a7e0b1a256a7f75455225d61"),
    "q3-random-k6-p4-s0": (
        lambda: gen_random(6, 4, 3, 0),
        "5fd3da092b850d172958553b147beaa790ed3300296a7a56787ef69ce2f676a5"),
    "q4-random-k5-p6-s1": (
        lambda: gen_random(5, 6, 4, 1),
        "39be98844172c80b269c948686477f6275004f21cd6cbd0dd28d415185332694"),
    "q5-random-k7-p7-s2": (
        lambda: gen_random(7, 7, 5, 2),
        "d08d3a42cc67949895659cbb056747e033a6252d00fdd2cd47f6fbbae7629745"),
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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_digest_is_unchanged(name):
    result, text = golden_run(name)
    assert result.terminated
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name][1]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_reads_back_as_the_run(name):
    result, text = golden_run(name)
    assert engine.read_trace(io.StringIO(text)).rounds == result.trace
    assert engine.read_trace(io.BytesIO(text.encode())).rounds == result.trace


def test_golden_cases_cover_every_family():
    insts = [make() for make, _ in GOLDEN.values()]
    kinds = {(i.spec.kind, i.q) for i in insts}
    assert {(ProblemKind.P1, 2), (ProblemKind.P2, 2), (ProblemKind.P3, 2),
            (ProblemKind.P1, 3), (ProblemKind.P1, 4), (ProblemKind.P1, 5)} <= kinds
    two_colour_p1 = [i for i in insts if i.spec.kind is ProblemKind.P1 and i.q == 2]
    assert {i.k % 2 for i in two_colour_p1} == {0, 1}
    assert any(engine.orient_roles(i)[1] for i in two_colour_p1)
