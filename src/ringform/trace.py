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
from binascii import a2b_base64, b2a_base64
from dataclasses import InitVar, dataclass
from functools import partial
from itertools import chain, compress, count
from operator import ne
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

from .core import Configuration, Instance, InstanceFormatError, parse_instance, serialize_instance

TRACE_FORMAT = "ringform-trace-v4"
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
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        j = 3 * range(len(self))[i]  # a tuple's negative indices and IndexError
        return _new_move(self.flat[j:j + 3])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MoveSet):
            return self.flat == other.flat
        return isinstance(other, (tuple, list)) and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self.triples()))  # the hash of the tuple of moves it equals

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
    # Ignored: perfbench's traced loop still passes the round checks that a
    # record once carried, and ROADMAP direction 1 deletes this line with that loop.
    checks: InitVar[object] = None

    def __post_init__(self, checks: object) -> None:
        if type(self.moves) is not MoveSet:
            object.__setattr__(self, "moves", MoveSet(self.moves))


@dataclass(frozen=True)
class TraceData:
    """A deserialized trace file: the instance as run, its rounds, the summary."""

    instance: Instance
    rounds: tuple[RoundTrace, ...]
    summary: dict


_INT_OR_NONE = (int, type(None))  # the types of a round's distance; a bool is neither
_C_INT = range(-2 ** 31, 2 ** 31)  # the values of an int32, which a packed count row holds
# A packed field holds little-endian int32s.  An array('i') item is 4 bytes on
# every platform CPython runs on (MoveSet's 12 bytes a move rely on it too), so
# only the byte order can differ, and a big-endian host swaps a copy.
_SWAP = sys.byteorder == "big"


def _packed(ints: array) -> str:
    """The base64 text of the ints of an ``array('i')``, little-endian."""
    if _SWAP:
        ints = ints[:]
        ints.byteswap()
    return b2a_base64(ints, newline=False).decode("ascii")


def _unpacked(text: object, width: int) -> array | None:
    """The ``array('i')`` packed in ``text``, or None unless ``text`` is a str of
    canonical base64 (which encodes back to itself) of whole ``width``-int rows."""
    if type(text) is not str:
        return None
    try:
        raw = a2b_base64(text)  # a binascii.Error, or a ValueError for non-ASCII text
    except ValueError:
        return None
    if len(raw) % (4 * width) or b2a_base64(raw, newline=False) != text.encode("ascii"):
        return None
    ints = array("i", raw)  # the bytes, as frombytes reads them
    if _SWAP:
        ints.byteswap()
    return ints


def iter_written(items: Iterable[Instance | RoundTrace | dict], fp: IO[str],
                 initial_distance: int | None, *, reversed_roles: bool = False
                 ) -> Iterator[Instance | RoundTrace | dict]:
    """Pass on a run's items, as ``engine.iter_rounds`` yields them, each
    once its record is written to ``fp`` as one JSON line: the file is
    written while the run runs, and no record outlives its line.  The
    header records ``initial_distance``, passed in because the header comes
    before the summary that carries it.  A round record's ``moves`` packs
    the flat (agent id, from, to) ints of its MoveSet, and its ``counts``
    the flat ``block, count of colour 1, ..., count of colour q, block,
    ...`` ints of every block whose row differs from the configuration the
    round started from, each as the standard padded base64 of those ints
    as little-endian int32s.

    A round line is formatted text, byte for byte the JSON encoding of its
    record: it holds integers, base64 strings (which JSON does not escape)
    and null only, joined by the default separators.  A round whose
    ``counts`` is the previous round's object writes ``""`` without a
    comparison.  A round before the header, with a round, offset or
    distance that is not an int (a bool is not; the distance may be None),
    with moves that are not an ``array('i')``, or with other than k count
    rows of q int32s (checked once per row value) raises ValueError before
    its line is written.  The header and summary records, which hold
    strings and booleans, are encoded.
    """
    before: tuple[tuple[int, ...], ...] | None = None  # the counts of the last record
    checked: set[tuple[int, ...]] = set()  # each count row value written
    for item in items:
        if isinstance(item, RoundTrace):
            counts, distance, changed = item.counts, item.distance, array("i")
            if before is None:
                raise ValueError(f"round {item.index} comes before the header")
            if {type(item.index), type(item.offset)} != {int} or type(distance) not in _INT_OR_NONE:
                raise ValueError(f"round {item.index!r}: round, offset and distance must be ints")
            if item.moves.flat.typecode != "i":
                raise ValueError(f"round {item.index}: moves must be an array('i')")
            if len(counts) != len(before):
                raise ValueError(f"round {item.index}: {len(counts)} rows for {len(before)} blocks")
            for b in () if counts is before else compress(count(1), map(ne, before, counts)):
                row = counts[b - 1]
                if row not in checked:
                    if len(row) != q:
                        raise ValueError(f"round {item.index}: block {b} has {len(row)} counts "
                                         f"for {q} colours")
                    if not (set(map(type, row)) <= {int} and min(row) in _C_INT
                            and max(row) in _C_INT):
                        raise ValueError(f"round {item.index}: block {b} has counts {row!r}")
                    checked.add(row)
                changed.append(b)
                changed.extend(row)
            line = (f'{{"type": "round", "round": {item.index}, "offset": {item.offset}, '
                    f'"moves": "{_packed(item.moves.flat)}", "counts": "{_packed(changed)}", '
                    f'"distance": {"null" if distance is None else distance}}}')
            before = counts
        elif isinstance(item, Instance):
            line = json.dumps({"type": "header", "format": TRACE_FORMAT,
                               "instance": serialize_instance(item), "reversed": reversed_roles,
                               "initial_distance": initial_distance})
            before, q = item.initial.all_counts(), item.q
        else:
            line = json.dumps({"type": "summary", **{key: item[key] for key in SUMMARY_FIELDS}})
        fp.write(line + "\n")
        yield item


def _patched_counts(before: tuple[tuple[int, ...], ...], flat: array, q: int,
                    line: int, rows: dict[tuple[int, ...], tuple[int, ...]]
                    ) -> tuple[tuple[int, ...], ...]:
    """``before`` with every ``block, count of colour 1, ..., count of colour
    q`` row of a round record's unpacked ``counts`` put in its block's
    place, as the tuple of the row table ``rows`` with its value; the rows
    of the other blocks stay the same objects."""
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
        if type(record.get(key)) is not int:
            raise TraceError(f"round record needs an integer {key!r}", line)
    q, distance = initial.q, record.get("distance")
    if (flat := _unpacked(record.get("moves"), 3)) is None:
        raise TraceError("'moves' must be base64 of little-endian int32 (agent id, from, to) "
                         "triples", line)
    if (changed := _unpacked(record.get("counts"), q + 1)) is None:
        raise TraceError(f"'counts' must be base64 of little-endian int32 (block, count of "
                         f"colour 1, ..., count of colour {q}) rows", line)
    counts = _patched_counts(before, changed, q, line, initial._rows)
    if distance is not None and type(distance) is not int:
        raise TraceError("'distance' must be an integer or null", line)
    return RoundTrace(index=record["round"], offset=record["offset"], moves=MoveSet(flat),
                      counts=counts, distance=distance)


def iter_trace(fp: IO[str] | IO[bytes] | Iterable[str | bytes]
               ) -> Iterator[Instance | RoundTrace | dict]:
    """Parse a JSON-lines trace, given as text lines or as raw byte lines,
    one line at a time: yield the instance of the header record, then every
    round record as a RoundTrace, then the summary.

    Reads ``ringform-trace-v4`` only, whose round records pack their moves
    and the count rows that changed as base64 of little-endian int32s
    (see ``iter_written``).  Every count row it builds is the one of the
    row table of the header instance's initial configuration with its
    value, the table from which ``apply_moves`` takes the rows of a replay.
    The summary is the summary record, or ``{}`` without one, with the
    header's ``initial_distance`` and ``reversed`` in place of any of its
    own; it comes last wherever its record stands in the file.  A byte line
    that is not UTF-8, a line that is not a JSON object (or holds an
    integer literal longer than Python converts), a record of unknown type,
    a header without an instance document, of another format or with a
    ``reversed`` that is not a bool, a malformed round record (a packed
    field that is not the canonical base64 of whole moves or rows among
    them) or summary record, a second header or summary, a header whose
    instance document does not parse (quoting the document's error), a
    round record before the header and a missing header all raise
    :class:`TraceError`, with the file line when there is one, once the
    reader reaches that line.
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
            if "rounds_used" in record and not (type(record["rounds_used"]) is int
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
