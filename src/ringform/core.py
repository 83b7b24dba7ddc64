"""Domain model for coloured agents on a block-partitioned ring.

The ring has ``n = k * p`` nodes split into ``k`` contiguous blocks of
length ``p`` (blocks are 1-based, ring positions 0-based).  Every node
holds exactly one agent with a colour in ``1..q``.  Three target kinds
are supported:

- ``P1``: block ``j`` must hold exactly ``requirements[i][j]`` agents of
  each colour ``i``.
- ``P2``: block ``j`` must hold at least ``requirements[1][j]`` agents of
  colour 1; no other colour is constrained (the lower-bound problem is
  supported only in this restricted, single-colour form).
- ``P3``: block ``j`` must end up exactly equal to the pattern string
  ``patterns[j]``.

Instances round-trip through a plain-text document format, one
``field: value`` per line with indented rows for the requirement matrix
or pattern list; see ``parse_instance`` and ``serialize_instance``.
"""

from __future__ import annotations

import string
from array import array
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import repeat
from typing import NamedTuple, Sequence

_MANY_COLOUR_SYMBOLS = "123456789" + string.ascii_uppercase
MAX_COLOURS = len(_MANY_COLOUR_SYMBOLS)


class ProblemKind(str, Enum):
    P1 = "P1"  # exact per-block counts
    P2 = "P2"  # lower bound on colour 1 only
    P3 = "P3"  # exact per-block patterns


class InstanceFormatError(ValueError):
    """A malformed instance document, with the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def colour_symbols(q: int) -> str:
    """Alphabet used to render colours 1..q ("B"/"R" when q is 2)."""
    if q < 2:
        raise ValueError(f"need at least two colours, got q={q}")
    if q == 2:
        return "BR"
    if q > MAX_COLOURS:
        raise ValueError(f"at most {MAX_COLOURS} colours supported, got q={q}")
    return _MANY_COLOUR_SYMBOLS[:q]


@dataclass(frozen=True)
class Agent:
    """A coloured agent.

    The id exists only so the harness can audit runs (order preservation,
    rank stability).  No simulation step may branch on it.
    """

    id: int
    colour: int


class BlockView(NamedTuple):
    """Block ``index`` (1-based) of the configuration ``cfg``: a handle, not
    a copy; a window step reads the block through ``cfg``."""

    cfg: Configuration
    index: int


def _check_shape(n: int, k: int, p: int) -> None:
    if k < 2:
        raise ValueError(f"need at least two blocks, got k={k}")
    if p < 1:
        raise ValueError(f"block length must be positive, got p={p}")
    if n != k * p:
        raise ValueError(f"config length {n} != k*p = {k * p}")


@lru_cache(maxsize=None)  # one entry per colour count q
def _translations(q: int) -> tuple[bytes, bytes]:
    """Tables translating the symbols of colours 1..q to colour bytes and back."""
    symbols, values = colour_symbols(q).encode(), bytes(range(1, q + 1))
    return bytes.maketrans(symbols, values), bytes.maketrans(values, symbols)


def _colour_bytes(text: str, q: int) -> bytes:
    """``text``, written in the colour symbols of q colours, as one byte per
    symbol holding its colour 1..q; other characters are not translated."""
    return text.encode().translate(_translations(q)[0])


class Configuration:
    """An assignment of one agent per ring node, held flat: ``colours[x]``
    is the colour of the agent at ring position ``x`` and ``ids[x]`` its id
    (an ``array('i')``).  Neither changes after construction.

    The per-block colour counts are counted once per configuration, on
    first use.  A configuration made by a round step or ``apply_moves`` gets
    them from its predecessor's counts and the moves, and shares the row of
    every block that no agent entered or left.  Every count row passes
    through the row table ``_rows``, a dict from each row value to the one
    tuple that stands for it (``_rows.setdefault(row, row)``): a new
    configuration starts an empty table and each successor shares its
    predecessor's, so the rows of one run, and of a trace read from its
    instance, are one tuple per distinct value.  ``agents`` builds
    :class:`Agent` objects on first use; the engine and the checkers never
    ask for them.
    """

    def __init__(self, agents: Sequence[Agent], k: int, p: int, q: int):
        agents = tuple(agents)
        _check_shape(len(agents), k, p)
        ids = array("i", [a.id for a in agents])
        if len(set(ids)) != len(ids):
            raise ValueError("agent ids must be unique")
        for a in agents:
            if not 1 <= a.colour <= q:
                raise ValueError(f"agent {a.id} has colour {a.colour} outside 1..{q}")
        self.__dict__.update(colours=bytes(a.colour for a in agents), ids=ids, k=k, p=p, q=q,
                             _rows={})

    @classmethod
    def _flat(cls, colours: bytes, ids: array, k: int, p: int, q: int) -> "Configuration":
        """The configuration holding ``colours`` and ``ids``, which the
        caller guarantees to describe a valid configuration."""
        cfg = object.__new__(cls)
        cfg.__dict__.update(colours=colours, ids=ids, k=k, p=p, q=q, _rows={})
        return cfg

    @classmethod
    def from_string(cls, text: str, k: int, p: int, q: int) -> "Configuration":
        """Agent ``x`` at ring position ``x`` with the colour of symbol ``text[x]``."""
        _check_shape(len(text), k, p)
        alphabet = colour_symbols(q)
        if not set(text) <= set(alphabet):
            bad = next(ch for ch in text if ch not in alphabet)
            raise ValueError(f"config symbol {bad!r} outside colour alphabet {alphabet!r}")
        return cls._flat(_colour_bytes(text, q), array("i", range(len(text))), k, p, q)

    def _successor(self, colours: bytes, ids: array,
                   block_counts: tuple[tuple[int, ...], ...]) -> "Configuration":
        """The configuration holding ``colours`` and ``ids``, which permute or
        recolour this configuration's agents into per-block counts
        ``block_counts``.  Skips the O(n) validation of the constructor: only
        the engine's round steps and ``engine._apply`` call it."""
        successor = self._flat(colours, ids, self.k, self.p, self.q)
        successor.__dict__.update(_block_counts=block_counts, _positions=self._positions,
                                  _rows=self._rows)
        return successor

    @cached_property
    def _positions(self) -> tuple[int, ...]:
        """``tuple(range(n))``, handed on to every successor: a step's window
        slices of it then allocate no int object for a ring position."""
        return tuple(range(self.n))

    @cached_property
    def agents(self) -> tuple[Agent, ...]:
        return tuple(map(Agent, self.ids, self.colours))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return (self.colours, self.ids, self.k, self.p, self.q) == \
            (other.colours, other.ids, other.k, other.p, other.q)

    def __hash__(self) -> int:
        return hash((self.colours, self.ids.tobytes(), self.k, self.p, self.q))

    def __repr__(self) -> str:
        return f"Configuration({self.to_string()!r}, k={self.k}, p={self.p}, q={self.q})"

    @property
    def n(self) -> int:
        return self.k * self.p

    def to_string(self) -> str:
        return self.colours.translate(_translations(self.q)[1]).decode()

    def block_view(self, j: int) -> BlockView:
        """Block ``j`` of this configuration; ``j`` must lie in 1..k."""
        if not 1 <= j <= self.k:
            raise ValueError(f"block {j} out of range 1..{self.k}")
        return BlockView(self, j)

    @cached_property
    def _block_counts(self) -> tuple[tuple[int, ...], ...]:
        # One column of per-block counts per colour, counted in C, zipped into rows.
        colours, p, n = self.colours, self.p, self.n
        starts, stops = range(0, n, p), range(p, n + p, p)
        counted = list(zip(*[map(colours.count, repeat(c), starts, stops)
                             for c in range(1, self.q + 1)]))
        return tuple(map(self._rows.setdefault, counted, counted))

    def all_counts(self) -> tuple[tuple[int, ...], ...]:
        return self._block_counts

    def colour_totals(self) -> tuple[int, ...]:
        return tuple(map(sum, zip(*self.all_counts())))


@dataclass(frozen=True)
class RequirementSpec:
    """Target description: exact counts (P1), lower bounds (P2) or patterns (P3).

    ``matrix[i-1][j-1]`` is the count requirement of colour ``i`` in block
    ``j``; for P3 the matrix is derived from the patterns.
    """

    kind: ProblemKind
    q: int
    k: int
    p: int
    matrix: tuple[tuple[int, ...], ...]
    patterns: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.q or not self.k:
            raise ValueError("requirement matrix is empty")
        if len(self.matrix) != self.q:
            raise ValueError(f"requirement matrix has {len(self.matrix)} rows, expected q={self.q}")
        for i, row in enumerate(self.matrix, start=1):
            if len(row) != self.k:
                raise ValueError(f"requirement row {i} has {len(row)} entries, expected k={self.k}")
            for j, value in enumerate(row, start=1):
                if value < 0:
                    raise ValueError(f"requirement for colour {i}, block {j} is negative")
        if self.kind is ProblemKind.P3:
            if self.patterns is None:
                raise ValueError("P3 requires patterns")
            if len(self.patterns) != self.k:
                raise ValueError(f"expected {self.k} patterns, got {len(self.patterns)}")
            alphabet = colour_symbols(self.q)
            for j, pat in enumerate(self.patterns, start=1):
                if len(pat) != self.p:
                    raise ValueError(f"pattern {j} has length {len(pat)}, expected p={self.p}")
                if not set(pat) <= set(alphabet):
                    bad = next(ch for ch in pat if ch not in alphabet)
                    raise ValueError(f"pattern {j} symbol {bad!r} outside colour alphabet {alphabet!r}")
        elif self.patterns is not None:
            raise ValueError(f"{self.kind.value} does not take patterns")

    @classmethod
    def exact(cls, matrix: Sequence[Sequence[int]], p: int) -> "RequirementSpec":
        rows = tuple(tuple(row) for row in matrix)
        return cls(kind=ProblemKind.P1, q=len(rows), k=len(rows[0]) if rows else 0, p=p,
                   matrix=rows)

    @classmethod
    def lower_bound(cls, matrix: Sequence[Sequence[int]], p: int) -> "RequirementSpec":
        rows = tuple(tuple(row) for row in matrix)
        return cls(kind=ProblemKind.P2, q=len(rows), k=len(rows[0]) if rows else 0, p=p,
                   matrix=rows)

    @classmethod
    def for_patterns(cls, patterns: Sequence[str], q: int) -> "RequirementSpec":
        pats = tuple(patterns)
        matrix = tuple(tuple(pat.count(symbol) for pat in pats) for symbol in colour_symbols(q))
        return cls(kind=ProblemKind.P3, q=q, k=len(pats), p=len(pats[0]) if pats else 0,
                   matrix=matrix, patterns=pats)

    def required(self, colour: int, block: int) -> int:
        return self.matrix[colour - 1][block - 1]

    def row(self, colour: int) -> tuple[int, ...]:
        return self.matrix[colour - 1]

    def column(self, block: int) -> tuple[int, ...]:
        return self.columns[block - 1]

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """Every block's required counts, as ``Configuration.all_counts`` lists them."""
        return tuple(zip(*self.matrix))

    @cached_property
    def target_colours(self) -> bytes | None:
        """The patterns as ``Configuration.colours`` holds a ring that
        matches them (P3); None for count targets."""
        return None if self.patterns is None else _colour_bytes("".join(self.patterns), self.q)

    def required_totals(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.matrix)


@dataclass(frozen=True)
class Instance:
    """A requirement spec together with the initial configuration."""

    spec: RequirementSpec
    initial: Configuration
    provenance: str | None = None

    def __post_init__(self):
        for name in ("k", "p", "q"):
            if getattr(self.spec, name) != getattr(self.initial, name):
                raise ValueError(
                    f"{name} disagrees between requirements ({getattr(self.spec, name)}) "
                    f"and configuration ({getattr(self.initial, name)})"
                )

    @property
    def k(self) -> int:
        return self.initial.k

    @property
    def p(self) -> int:
        return self.initial.p

    @property
    def q(self) -> int:
        return self.initial.q

    @property
    def n(self) -> int:
        return self.initial.n


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of semantic validation; invalidity is reported, never raised."""

    valid: bool
    issues: tuple[str, ...]
    extras: int | None = None  # surplus colour-1 agents for P2


def validate(inst: Instance) -> ValidityReport:
    """Check the per-problem count conditions and requirement constraints.

    P1/P3 need every global colour total to equal the required total; P2
    needs at least the required colour-1 total.  Count requirements must be
    positive for colours 1..q-1 (P1), for colour 1 (P2, where they may not
    exceed the block length p either), and for every colour of every
    pattern (P3).  Every condition that fails is one issue; the colour
    totals that miss come first, as ``colour i: have h, need r``.
    """
    spec = inst.spec
    totals = inst.initial.colour_totals()
    required = spec.required_totals()
    extras: int | None = None

    if spec.kind is ProblemKind.P2:
        missed = [1] if totals[0] < required[0] else []
        extras = None if missed else totals[0] - required[0]
    else:
        missed = [i for i in range(1, spec.q + 1) if totals[i - 1] != required[i - 1]]
    issues = [f"colour {i}: have {totals[i - 1]}, need {required[i - 1]}" for i in missed]

    if spec.kind is ProblemKind.P2:
        for i in range(2, spec.q + 1):
            if any(v != 0 for v in spec.row(i)):
                issues.append(f"colour {i}: lower-bound instances may only constrain colour 1")
        for j in range(1, spec.k + 1):
            if spec.required(1, j) < 1:
                issues.append(f"block {j}: colour 1 requirement must be at least 1")
            elif spec.required(1, j) > spec.p:
                issues.append(f"block {j}: colour 1 requirement {spec.required(1, j)} "
                              f"exceeds the block length p={spec.p}")
    elif spec.kind is ProblemKind.P1:
        for j in range(1, spec.k + 1):
            if sum(spec.column(j)) != spec.p:
                issues.append(
                    f"block {j}: requirement column sums to {sum(spec.column(j))}, expected p={spec.p}"
                )
            for i in range(1, spec.q):
                if spec.required(i, j) < 1:
                    issues.append(f"block {j}: colour {i} requirement must be at least 1")
    else:  # P3: every pattern must contain every colour
        for j, pat in enumerate(spec.patterns or (), start=1):
            for i in range(1, spec.q + 1):
                if spec.required(i, j) < 1:
                    issues.append(f"pattern {j}: colour {i} does not occur")

    return ValidityReport(valid=not issues, issues=tuple(issues), extras=extras)


# --- instance document format -------------------------------------------------

_SCALAR_FIELDS = ("kind", "k", "p", "q", "generator", "config")


def parse_instance(text: str) -> Instance:
    """Parse an instance document.

    Structural problems (missing fields, size mismatches, unknown symbols)
    raise :class:`InstanceFormatError` with the offending line; semantic
    validity is a separate concern, see :func:`validate`.
    """
    scalars: dict[str, tuple[str, int]] = {}
    sections: dict[str, list[tuple[str, int]]] = {}
    current: str | None = None

    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line[0] in " \t":
            if current is None:
                raise InstanceFormatError("indented row outside requirements/patterns", no)
            sections[current].append((line.strip(), no))
            continue
        current = None
        key, sep, value = line.partition(":")
        if not sep:
            raise InstanceFormatError("expected 'field: value'", no)
        key, value = key.strip(), value.strip()
        if key in ("requirements", "patterns"):
            if value:
                raise InstanceFormatError(f"{key} rows must follow on indented lines", no)
            if key in sections:
                raise InstanceFormatError(f"duplicate section {key!r}", no)
            sections[key] = []
            current = key
        elif key in _SCALAR_FIELDS:
            if key in scalars:
                raise InstanceFormatError(f"duplicate field {key!r}", no)
            scalars[key] = (value, no)
        else:
            raise InstanceFormatError(f"unknown field {key!r}", no)

    def need(key: str) -> tuple[str, int]:
        if key not in scalars:
            raise InstanceFormatError(f"missing required field {key!r}")
        return scalars[key]

    def need_int(key: str, minimum: int) -> int:
        value, no = need(key)
        try:
            number = int(value)
        except ValueError:
            raise InstanceFormatError(f"{key} must be an integer, got {value!r}", no) from None
        if number < minimum:
            raise InstanceFormatError(f"{key} must be at least {minimum}, got {number}", no)
        return number

    kind_text, kind_line = need("kind")
    try:
        kind = ProblemKind(kind_text)
    except ValueError:
        raise InstanceFormatError(f"kind must be one of P1/P2/P3, got {kind_text!r}", kind_line) from None
    k = need_int("k", 2)
    p = need_int("p", 1)
    q = need_int("q", 2)
    if q > MAX_COLOURS:
        raise InstanceFormatError(f"q must be at most {MAX_COLOURS}, got {q}", scalars["q"][1])

    config_text, config_line = need("config")
    try:
        initial = Configuration.from_string(config_text, k, p, q)
    except ValueError as exc:
        raise InstanceFormatError(str(exc), config_line) from None

    if kind is ProblemKind.P3:
        alphabet = colour_symbols(q)
        if "requirements" in sections:
            raise InstanceFormatError("P3 instances take patterns, not requirements")
        rows = sections.get("patterns")
        if rows is None:
            raise InstanceFormatError("missing patterns section")
        if len(rows) != k:
            raise InstanceFormatError(f"expected {k} patterns, got {len(rows)}")
        patterns = []
        for row, no in rows:
            if len(row) != p:
                raise InstanceFormatError(f"pattern length {len(row)} != p = {p}", no)
            for ch in row:
                if ch not in alphabet:
                    raise InstanceFormatError(f"pattern symbol {ch!r} outside {alphabet!r}", no)
            patterns.append(row)
        spec = RequirementSpec.for_patterns(patterns, q)
    else:
        if "patterns" in sections:
            raise InstanceFormatError(f"{kind.value} instances take requirements, not patterns")
        rows = sections.get("requirements")
        if rows is None:
            raise InstanceFormatError("missing requirements section")
        if len(rows) != q:
            raise InstanceFormatError(f"requirement matrix needs {q} rows, got {len(rows)}")
        matrix = []
        for row, no in rows:
            try:
                values = [int(v) for v in row.split()]
            except ValueError:
                raise InstanceFormatError(f"requirement row is not integers: {row!r}", no) from None
            if len(values) != k:
                raise InstanceFormatError(f"requirement row has {len(values)} entries, expected k={k}", no)
            if any(v < 0 for v in values):
                raise InstanceFormatError("requirement counts must be non-negative", no)
            matrix.append(values)
        builder = RequirementSpec.exact if kind is ProblemKind.P1 else RequirementSpec.lower_bound
        spec = builder(matrix, p)

    provenance = scalars["generator"][0] if "generator" in scalars else None
    return Instance(spec=spec, initial=initial, provenance=provenance)


def serialize_instance(inst: Instance) -> str:
    """Render the canonical document; ``parse_instance`` inverts it exactly."""
    lines = [
        f"kind: {inst.spec.kind.value}",
        f"k: {inst.k}",
        f"p: {inst.p}",
        f"q: {inst.q}",
    ]
    if inst.provenance:
        lines.append(f"generator: {inst.provenance}")
    lines.append(f"config: {inst.initial.to_string()}")
    if inst.spec.kind is ProblemKind.P3:
        lines.append("patterns:")
        lines.extend(f"  {pat}" for pat in inst.spec.patterns or ())
    else:
        lines.append("requirements:")
        lines.extend("  " + " ".join(str(v) for v in row) for row in inst.spec.matrix)
    return "\n".join(lines) + "\n"
