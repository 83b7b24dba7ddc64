"""Round records and the trace file format: its one writer and its reader.

A round's moves are one :class:`MoveSet` and a round is one
:class:`RoundTrace`, the records that ``engine.iter_rounds`` yields,
that ``iter_written`` writes to a JSON-lines trace file and that
``iter_trace`` reads back from one, one line at a time.  This module
depends on ``core`` only: the engine, which runs the rounds, imports
these names from here, and they are also reached as
``engine.RoundTrace``, ``engine.iter_written``, ``engine.read_trace`` and
so on.
"""

from __future__ import annotations

import json
import sys
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, count
from operator import ne
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

from .core import Configuration, Instance, InstanceFormatError, parse_instance, serialize_instance

TRACE_FORMAT = "ringform-trace-v3"
# The summary fields of a run, in the order its trace and ``ringform run`` report them.
SUMMARY_FIELDS = ("terminated", "rounds_used", "bound", "bound_satisfied")


class TraceError(ValueError):
    """A malformed trace file, or recorded moves that cannot be replayed
    from the trace's instance; names the file line when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Move(NamedTuple):
    """One agent's net move in a round: a named tuple, so
    ``Move(7, 2, 5) == (7, 2, 5)``."""

    agent_id: int
    src: int
    dst: int


# A Move of an (agent id, from, to) triple, without Move's keyword handling.
_new_move = partial(tuple.__new__, Move)


class MoveSet(Sequence[Move]):
    """The moves of one round as one ``array('i')`` of flat (agent id, from,
    to) triples, made from an iterable of triples or from such an array: 12
    bytes a move, where a stored Move would be an object that every garbage
    collection visits (CPython never untracks a tuple subclass).  Iterating
    yields Moves; the hot paths read the plain tuples of ``triples()`` or
    the columns ``flat[0::3]`` (ids), ``flat[1::3]`` (from) and ``flat[2::3]``
    (to).  It equals a tuple or list of the same moves."""

    __slots__ = ("flat",)

    def __new__(cls, moves: Iterable[Sequence[int]] | array = ()) -> "MoveSet":
        if type(moves) is cls:
            return moves  # type: ignore[return-value]
        if type(moves) is not array:
            moves = moves if isinstance(moves, (list, tuple)) else list(moves)
            if not set(map(len, moves)) <= {3}:
                raise ValueError("a move is an (agent id, from, to) triple")
            moves = array("i", chain.from_iterable(moves))
        self = object.__new__(cls)
        self.flat = moves
        return self

    def triples(self) -> Iterator[tuple[int, int, int]]:
        it = iter(self.flat)
        return zip(it, it, it)

    def __iter__(self) -> Iterator[Move]:
        return map(_new_move, self.triples())

    def __len__(self) -> int:
        return len(self.flat) // 3

    def __getitem__(self, i):  # type: ignore[override]
        return tuple(self)[i]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MoveSet):
            return self.flat == other.flat
        return isinstance(other, (tuple, list)) and tuple(self) == tuple(other)

    def __repr__(self) -> str:
        return f"MoveSet({list(self)!r})"


@dataclass(frozen=True)
class RoundTrace:
    """One round: ``moves`` is a MoveSet, made from any iterable of triples."""

    index: int
    offset: int
    moves: MoveSet
    counts: tuple[tuple[int, ...], ...]
    distance: int | None
    checks: tuple[tuple[str, bool], ...]

    def __post_init__(self) -> None:
        if type(self.moves) is not MoveSet:
            object.__setattr__(self, "moves", MoveSet(self.moves))


# The checks of every RoundTrace, run or read; no record carries them, since a
# run's moves pass them by construction and apply_moves raises on any that fails.
ROUND_CHECKS = (("collision_free", True), ("within_window", True), ("colours_conserved", True))


@dataclass(frozen=True)
class TraceData:
    """A deserialized trace file: the instance as run, its rounds, the summary."""

    instance: Instance
    rounds: tuple[RoundTrace, ...]
    summary: dict


_INT_OR_NONE = (int, type(None))  # the types of a round's distance; a bool is neither
# What ``json.dumps`` returns for a record, without its per-call argument checks.
_encode = json.JSONEncoder().encode


def iter_written(items: Iterable[Instance | RoundTrace | dict], fp: IO[str],
                 initial_distance: int | None, *, reversed_roles: bool = False
                 ) -> Iterator[Instance | RoundTrace | dict]:
    """Pass on a run's items, as ``engine.iter_rounds`` yields them, each
    once its record is written to ``fp`` as one JSON line: the file is
    written while the run runs, and no record outlives its line.  The
    header records ``initial_distance``, passed in because the header comes
    before the summary that carries it.  A round record's ``moves`` is the
    flat (agent id, from, to) list, and its ``counts`` the flat ``[block,
    count of colour 1, ..., count of colour q, block, ...]`` list of every
    block whose row differs from the configuration the round started from.

    A round line is formatted text, byte for byte the JSON encoding of its
    record: it holds integers, integer lists and null only, and ``str`` of a
    list of ints is that list's JSON with the default separators.  Each
    distinct count row is formatted once per call, and a round whose
    ``counts`` is the previous round's object writes ``[]`` without a
    comparison.  A round before the header, with a round, offset or distance
    that is not an int (a bool is not; the distance may be None), or with
    other than k count rows of q ints (checked once per row value) raises
    ValueError before its line is written.  The header and summary records,
    which hold strings and booleans, are encoded.
    """
    before: tuple[tuple[int, ...], ...] | None = None  # the counts of the last record
    texts: dict[tuple[int, ...], str] = {}  # each count row value written: its text
    for item in items:
        if isinstance(item, RoundTrace):
            counts, distance, parts = item.counts, item.distance, []
            if before is None:
                raise ValueError(f"round {item.index} comes before the header")
            if {type(item.index), type(item.offset)} != {int} or type(distance) not in _INT_OR_NONE:
                raise ValueError(f"round {item.index!r}: round, offset and distance must be ints")
            if len(counts) != len(before):
                raise ValueError(f"round {item.index}: {len(counts)} rows for {len(before)} blocks")
            for b in () if counts is before else compress(count(1), map(ne, before, counts)):
                row = counts[b - 1]
                if (text := texts.get(row)) is None:
                    if len(row) != q:
                        raise ValueError(f"round {item.index}: block {b} has {len(row)} counts "
                                         f"for {q} colours")
                    if not set(map(type, cells := tuple(row))) <= {int}:  # iterates row once
                        raise ValueError(f"round {item.index}: block {b} has counts {row!r}")
                    text = texts[row] = ", ".join(map(str, cells))
                parts.append(f"{b}, {text}")
            line = (f'{{"type": "round", "round": {item.index}, "offset": {item.offset}, '
                    f'"moves": {item.moves.flat.tolist()}, "counts": [{", ".join(parts)}], '
                    f'"distance": {"null" if distance is None else distance}}}')
            before = counts
        elif isinstance(item, Instance):
            line = _encode({"type": "header", "format": TRACE_FORMAT,
                            "instance": serialize_instance(item), "reversed": reversed_roles,
                            "initial_distance": initial_distance})
            before, q = item.initial.all_counts(), item.q
        else:
            line = _encode({"type": "summary", **{key: item[key] for key in SUMMARY_FIELDS}})
        fp.write(line + "\n")
        yield item


def _is_int(value: object) -> bool:
    return type(value) is int


def _patched_counts(before: tuple[tuple[int, ...], ...], flat: list[int], q: int,
                    line: int, rows: dict[tuple[int, ...], tuple[int, ...]]
                    ) -> tuple[tuple[int, ...], ...]:
    """``before`` with every ``block, count of colour 1, ..., count of colour
    q`` row of a round record's flat ``counts`` put in its block's place, as
    the tuple of the row table ``rows`` with its value; the rows of the
    other blocks stay the same objects."""
    if not set(map(type, flat)) <= {int} or len(flat) % (q + 1):
        raise TraceError(f"'counts' rows must be [block, count of colour 1, ..., count of "
                         f"colour {q}] integers", line)
    if not flat:
        return before
    blocks = flat[::q + 1]
    k = len(before)
    if min(blocks) < 1 or max(blocks) > k:
        raise TraceError(f"'counts' names a block outside 1..{k}", line)
    if len(set(blocks)) != len(blocks):
        raise TraceError("'counts' names a block twice", line)
    after = list(before)
    changed = list(zip(*[flat[j::q + 1] for j in range(1, q + 1)]))
    for b, row in zip(blocks, map(rows.setdefault, changed, changed)):
        after[b - 1] = row
    return tuple(after)


def _round_from_record(record: dict, line: int, before: tuple[tuple[int, ...], ...],
                       initial: Configuration) -> RoundTrace:
    """A round record as a RoundTrace; TraceError names ``line`` on any
    malformed field.  Its count rows patch ``before``, the counts of the
    previous round, and every row read is the one of the row table of
    ``initial``, the instance's initial configuration, with its value."""
    for key in ("round", "offset"):
        if not _is_int(record.get(key)):
            raise TraceError(f"round record needs an integer {key!r}", line)
    moves, counts, distance = record.get("moves"), record.get("counts"), record.get("distance")
    # Set-of-types tests run the per-element work in C; bool is not int here.
    if type(moves) is not list or not set(map(type, moves)) <= {int} or len(moves) % 3:
        raise TraceError("'moves' must be a list of agent id, from, to integer triples", line)
    try:
        flat = array("i", moves)
    except OverflowError:
        raise TraceError("'moves' must be integers that fit a C int", line) from None
    if type(counts) is not list:
        raise TraceError("'counts' must be a list of per-block rows", line)
    counts = _patched_counts(before, counts, initial.q, line, initial._rows)
    if distance is not None and not _is_int(distance):
        raise TraceError("'distance' must be an integer or null", line)
    return RoundTrace(index=record["round"], offset=record["offset"], moves=MoveSet(flat),
                      counts=counts, distance=distance, checks=ROUND_CHECKS)


def iter_trace(fp: IO[str] | IO[bytes] | Iterable[str | bytes]
               ) -> Iterator[Instance | RoundTrace | dict]:
    """Parse a JSON-lines trace, given as text lines or as raw byte lines,
    one line at a time: yield the instance of the header record, then every
    round record as a RoundTrace, then the summary.

    Reads ``ringform-trace-v3`` only, whose round records list their moves
    and the count rows that changed as flat integer lists.  Every count row
    it builds is the one of the row table of the header instance's initial
    configuration with its value, the table from which ``apply_moves``
    takes the rows of a replay.  The summary is the summary record, or
    ``{}`` without one, with the header's ``initial_distance`` and
    ``reversed`` in place of any of its own; it comes last wherever its
    record stands in the file.  A byte line that is not UTF-8, a line that
    is not a JSON object (or holds an integer literal longer than Python
    converts), a record of unknown type, a header without an instance
    document, of another format or with a ``reversed`` that is not a
    bool, a malformed round or summary record, a second header or summary,
    a header whose instance document does not parse (quoting the
    document's error), a round record before the header and a missing
    header all raise :class:`TraceError`, with the file line when there is
    one, once the reader reaches that line.
    """
    header: dict | None = None
    summary: dict | None = None
    counts: tuple[tuple[int, ...], ...] = ()  # of the last round
    for no, line in enumerate(fp, start=1):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise TraceError(
                    f"not UTF-8 text: {exc.reason} at byte {exc.start} of the line", no) from None
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"not a JSON record: {exc.msg}", no) from None
        except RecursionError:
            raise TraceError("not a JSON record: nested too deeply", no) from None
        except ValueError:  # what json raises for an integer literal over the digit limit
            raise TraceError(f"not a JSON record: an integer literal of more than "
                             f"{sys.get_int_max_str_digits()} digits", no) from None
        if not isinstance(record, dict):
            raise TraceError("record is not a JSON object", no)
        rtype = record.get("type")
        if rtype == "header":
            if header is not None:
                raise TraceError("a second header record", no)
            if not isinstance(record.get("instance"), str):
                raise TraceError("header record needs an instance document", no)
            if record.get("format") != TRACE_FORMAT:
                raise TraceError(f"header format {record.get('format')!r} is not "
                                 f"{TRACE_FORMAT!r}", no)
            if not isinstance(record.get("reversed", False), bool):
                raise TraceError("header 'reversed' must be true or false", no)
            try:
                instance = parse_instance(record["instance"])
            except InstanceFormatError as exc:
                raise TraceError(f"header instance document: {exc}", no) from None
            header = record
            counts = instance.initial.all_counts()
            yield instance
        elif rtype == "round":
            if header is None:
                raise TraceError("round record before the header record", no)
            rt = _round_from_record(record, no, counts, instance.initial)
            counts = rt.counts
            yield rt
        elif rtype == "summary":
            if summary is not None:
                raise TraceError("a second summary record", no)
            if "rounds_used" in record and not (_is_int(record["rounds_used"])
                                                and record["rounds_used"] >= 0):
                raise TraceError("summary 'rounds_used' must be a non-negative integer", no)
            if "terminated" in record and not isinstance(record["terminated"], bool):
                raise TraceError("summary 'terminated' must be true or false", no)
            summary = record
        else:
            raise TraceError(f"unknown record type {rtype!r}", no)
    if header is None:
        raise TraceError("trace has no header record")
    yield {**(summary or {}), "initial_distance": header.get("initial_distance"),
           "reversed": header.get("reversed", False)}


def read_trace(fp: IO[str] | IO[bytes] | Iterable[str | bytes]) -> TraceData:
    """The whole of a trace that ``iter_trace`` reads, with its errors."""
    instance, *rounds, summary = iter_trace(fp)
    return TraceData(instance=instance, rounds=tuple(rounds), summary=summary)
