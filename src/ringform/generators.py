"""Seeded instance generators: random valid instances for every problem kind,
homogeneous-requirement instances, and the half-red/half-blue family that
forces a round count linear in the block count.

All randomness flows through one ``random.Random(seed)`` per call, so a
given parameter set always yields byte-identical documents; the generator
algorithm is versioned in each instance's provenance line.  ``GENERATORS``
maps each kind to its generator, and ``generate`` builds an instance of a
kind from exactly the parameters that the kind's generator takes.
"""

from __future__ import annotations

import inspect
import random

from .core import Configuration, Instance, RequirementSpec, _check_shape, colour_symbols

GENERATOR_VERSION = "py-mt19937-v1"


class GeneratorError(ValueError):
    """Requested parameters cannot yield a valid instance."""


def _check_geometry(k: int, p: int, q: int) -> None:
    """``core``'s refusal of a ring of k blocks of p nodes in q colours, as a GeneratorError."""
    try:
        _check_shape(k * p, k, p)
        colour_symbols(q)
    except ValueError as exc:
        raise GeneratorError(str(exc)) from None


def _shuffled_configuration(rng: random.Random, totals: list[int],
                            k: int, p: int, q: int) -> Configuration:
    symbols = colour_symbols(q)
    pool = [symbols[i] for i, count in enumerate(totals) for _ in range(count)]
    rng.shuffle(pool)
    return Configuration.from_string("".join(pool), k, p, q)


def gen_random(k: int, p: int, q: int = 2, seed: int = 0) -> Instance:
    """Random exact-count instance: each block demands at least one agent of
    every colour below q, the rest of each block's quota is spread uniformly,
    and the configuration is a uniform shuffle of the implied multiset."""
    _check_geometry(k, p, q)
    if p < q - 1:
        raise GeneratorError(
            f"p={p} cannot host one agent of each of the first {q - 1} colours per block")
    rng = random.Random(seed)
    matrix = [[1] * k for _ in range(q - 1)] + [[0] * k]
    for j in range(k):
        for _ in range(p - (q - 1)):
            matrix[rng.randrange(q)][j] += 1
    spec = RequirementSpec.exact(matrix, p)
    totals = [sum(row) for row in matrix]
    initial = _shuffled_configuration(rng, totals, k, p, q)
    provenance = f"{GENERATOR_VERSION} random k={k} p={p} q={q} seed={seed}"
    return Instance(spec=spec, initial=initial, provenance=provenance)


def gen_p2_random(k: int, p: int, q: int = 2, seed: int = 0,
                  extras: int | None = None) -> Instance:
    """Random lower-bound instance: per-block colour-1 requirements in
    1..p-1 plus ``extras`` surplus colour-1 agents (seeded 0..p when not
    given); remaining agents get uniform colours above 1."""
    _check_geometry(k, p, q)
    rng = random.Random(seed)
    row = [rng.randint(1, max(1, p - 1)) for _ in range(k)]
    slack = k * p - sum(row)
    if extras is None:
        extras = rng.randint(0, min(p, slack))
    if extras < 0:
        raise GeneratorError("extras must be non-negative")
    if extras > k * p - k:
        raise GeneratorError(f"extras {extras} exceed the {k * p - k} sparable positions")
    while slack < extras:  # shrink the largest requirement until the extras fit
        j = max(range(k), key=lambda idx: row[idx])
        row[j] -= 1
        slack += 1
    matrix = [row] + [[0] * k for _ in range(q - 1)]
    spec = RequirementSpec.lower_bound(matrix, p)
    totals = [sum(row) + extras] + [0] * (q - 1)
    for _ in range(k * p - totals[0]):
        totals[rng.randint(2, q) - 1] += 1
    initial = _shuffled_configuration(rng, totals, k, p, q)
    provenance = f"{GENERATOR_VERSION} p2_random k={k} p={p} q={q} seed={seed} extras={extras}"
    return Instance(spec=spec, initial=initial, provenance=provenance)


def gen_p3_random(k: int, p: int, q: int = 2, seed: int = 0) -> Instance:
    """Random exact-pattern instance: every pattern contains every colour."""
    _check_geometry(k, p, q)
    if p < q:
        raise GeneratorError(f"p={p} cannot host one agent of each of {q} colours per pattern")
    rng = random.Random(seed)
    symbols = colour_symbols(q)
    patterns = []
    for _ in range(k):
        cells = list(symbols) + [symbols[rng.randrange(q)] for _ in range(p - q)]
        rng.shuffle(cells)
        patterns.append("".join(cells))
    spec = RequirementSpec.for_patterns(patterns, q)
    totals = list(spec.required_totals())
    initial = _shuffled_configuration(rng, totals, k, p, q)
    provenance = f"{GENERATOR_VERSION} p3_random k={k} p={p} q={q} seed={seed}"
    return Instance(spec=spec, initial=initial, provenance=provenance)


def gen_homogeneous(k: int, p: int, m: int, seed: int = 0) -> Instance:
    """Two-colour instance demanding exactly ``m`` blue agents in every block."""
    _check_geometry(k, p, 2)
    if not 1 <= m <= p - 1:
        raise GeneratorError(f"m={m} must lie in 1..p-1 so both colours appear")
    rng = random.Random(seed)
    spec = RequirementSpec.exact([[m] * k, [p - m] * k], p)
    initial = _shuffled_configuration(rng, [k * m, k * (p - m)], k, p, 2)
    provenance = f"{GENERATOR_VERSION} homogeneous k={k} p={p} m={m} seed={seed}"
    return Instance(spec=spec, initial=initial, provenance=provenance)


def gen_adversarial_half(k: int, p: int) -> Instance:
    """The slow family: half-blue requirements everywhere, all reds packed in
    the first half of the ring and all blues in the second half.  Any
    algorithm in this movement model needs at least k/8 rounds on it."""
    _check_geometry(k, p, 2)
    if k % 2 or p % 2:
        raise GeneratorError(f"k and p must both be even, got k={k}, p={p}")
    half = p // 2
    spec = RequirementSpec.exact([[half] * k, [half] * k], p)
    text = "R" * (k * p // 2) + "B" * (k * p // 2)
    initial = Configuration.from_string(text, k, p, 2)
    provenance = f"{GENERATOR_VERSION} adversarial_half k={k} p={p}"
    return Instance(spec=spec, initial=initial, provenance=provenance)


# Each generator kind, by the name that ``ringform gen --kind`` takes: its
# signature lists the parameters it takes and holds their defaults.
GENERATORS = {"random": gen_random, "p2_random": gen_p2_random, "p3_random": gen_p3_random,
              "homogeneous": gen_homogeneous, "adversarial_half": gen_adversarial_half}


def generate(kind: str, **params: int) -> Instance:
    """The instance that the generator of ``kind`` builds from ``params``;
    GeneratorError, before it generates anything, for an unknown kind or
    for a parameter its generator does not take or requires and lacks."""
    fn = GENERATORS.get(kind)
    if fn is None:
        raise GeneratorError(f"unknown generator kind {kind!r}")
    try:
        inspect.signature(fn).bind(**params)
    except TypeError as exc:
        raise GeneratorError(f"{kind} generator {exc}") from None
    return fn(**params)
