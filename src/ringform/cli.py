"""Command-line front door: generate instances, run and verify simulations,
analyze instances, and benchmark round counts against the bounds.

Exit codes are stable contracts: 0 success, 2 invalid instance, 3 no
termination within the round budget, 4 verification failure, 5 I/O error.
``ringform verify`` audits a trace in one pass over the open file: it
reads one line at a time and keeps no round once the checkers have seen
it, so it holds one round record and two configurations at a time.  It
prints the verdicts only once the whole file has been read.  On a
malformed trace file (a line that is not UTF-8 or not a JSON record, a
record of unknown type, a round record with missing or ill-typed fields,
no header, a header of another format or with an instance document that
does not parse, a second header or summary) it prints one ``invalid
trace`` line naming the file line to stderr, nothing to stdout, and
exits 4, wherever in the file that line stands; a round recorded under
the wrong round number fails the ``safety`` verdict, also exit 4.
``ringform run`` keeps no round either: it writes each round's trace
record as soon as the round has run (``engine.iter_rounds`` through
``trace.iter_written``, the one trace writer, given the header's initial
distance from ``engine.initial_potential``, which the run reuses), and
with ``--verify`` the audit reads the same rounds in the same pass, so
``run --trace --verify`` holds at most two rounds at a time.  It prints
the summary, then the verdicts, once the run has ended: the verdicts
that ``verify`` prints for the run's trace, which holds the bytes that
``engine.write_trace`` writes for the run.  A run that did not terminate
within its round budget prints them too, failing ``quiescence`` and
``final_condition``, and exits 3.
``run`` and ``analyze`` on an instance file that is not UTF-8 or not a
well-formed document print one ``invalid instance document`` line to
stderr and exit 2, and ``gen`` prints one ``error:`` line and exits 2 for
a flag that the kind's generator does not take, a missing one or a shape
that no generator builds.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from . import analysis, engine, generators, verify
from .core import (
    Instance,
    InstanceFormatError,
    parse_instance,
    serialize_instance,
    validate,
)

EXIT_OK = 0
EXIT_INVALID_INSTANCE = 2
EXIT_NO_TERMINATION = 3
EXIT_VERIFICATION_FAILED = 4
EXIT_IO_ERROR = 5

# The generator parameters that ``ringform gen`` takes as flags, passed on when given.
GEN_FLAGS = ("k", "p", "q", "seed", "m", "extras")


@dataclass(frozen=True)
class BenchRow:
    instance_id: str
    k: int
    p: int
    q: int
    n_blue: int
    n_blue_min: int
    rounds_used: int
    bound: int
    bound_proven: bool
    ok: bool


def _load_instance(path: str) -> Instance:
    with open(path, "rb") as fp:
        raw = fp.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(
            f"not UTF-8 text: {exc.reason} at byte {exc.start} of the file",
            raw.count(b"\n", 0, exc.start) + 1) from None
    return parse_instance(text)


def cmd_gen(args: argparse.Namespace) -> int:
    params = {name: value for name in GEN_FLAGS if (value := getattr(args, name)) is not None}
    try:
        inst = generators.generate(args.kind, **params)
    except generators.GeneratorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INSTANCE
    text = serialize_instance(inst)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    report = validate(inst)
    if not report.valid:  # before ``orient_roles`` may swap the colours the issues name
        raise engine.InvalidInstanceError(*report.issues)

    oriented, reversed_roles = engine.orient_roles(inst)
    # The run and the trace header share one computation of the initial distance.
    potential = engine.initial_potential(oriented)
    kept: list[dict] = []
    items = _keep_last(engine.iter_rounds(oriented, args.max_rounds, potential=potential), kept)
    with ExitStack() as stack:
        if args.trace:
            fp = stack.enter_context(open(args.trace, "w", encoding="utf-8"))
            items = engine.iter_written(items, fp, None if potential is None else potential.total,
                                        reversed_roles=reversed_roles)
        if args.verify:
            verdicts = verify.verify_stream(items)
        else:
            verdicts = []
            deque(items, maxlen=0)  # runs the rounds, and writes them
    summary = kept[0]

    print(json.dumps({**{key: summary[key] for key in engine.SUMMARY_FIELDS},
                      "reversed": reversed_roles, "final": summary["final"].to_string()}))
    for verdict in verdicts:
        print(verdict)
    if not summary["terminated"]:
        return EXIT_NO_TERMINATION
    if not all(v.passed for v in verdicts):
        return EXIT_VERIFICATION_FAILED
    return EXIT_OK


def _keep_last(items: Iterable[object], kept: list) -> Iterator[object]:
    """Pass ``items`` on, then append the last of them to ``kept``."""
    item = None
    for item in items:
        yield item
    kept.append(item)


def cmd_analyze(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    report = validate(inst)
    if report.valid:  # report on the instance that ``run`` executes
        inst, reversed_roles = engine.orient_roles(inst)
    try:
        bound = analysis.theoretical_bound(inst)
    except ValueError:  # a zero colour-1 minimum, which validate reports as an issue
        bound = None
    out: dict = {
        "kind": inst.spec.kind.value,
        "k": inst.k,
        "p": inst.p,
        "q": inst.q,
        "valid": report.valid,
        "issues": list(report.issues),
        "bound": bound,
        "bound_proven": bound is not None and analysis.bound_is_proven(inst),
    }
    if report.valid:
        out["reversed"] = reversed_roles
    if report.extras is not None:
        out["extras"] = report.extras
    if (potential := engine.initial_potential(inst)) is not None:  # runs that track a distance
        out["surplus"] = list(analysis.surplus_profile(inst.initial, inst.spec.row(1)))
        out["rename_offset"] = potential.rename_offset
        if report.valid:
            out["distance"] = potential.total
    print(json.dumps(out))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    with open(args.trace, "rb") as fp:  # iter_trace decodes each line itself
        verdicts = verify.verify_stream(engine.iter_trace(fp))
    for verdict in verdicts:
        print(verdict)
    return EXIT_OK if all(v.passed for v in verdicts) else EXIT_VERIFICATION_FAILED


# The bench suites: each maps ``seeds`` to its (instance id, instance) pairs.
BENCH_SUITES: dict[str, Callable[[int], Iterable[tuple[str, Instance]]]] = {
    "random": lambda seeds: (
        (f"random-k{k}-p{p}-s{seed}", generators.gen_random(k, p, 2, seed))
        for k in (2, 4, 6, 8, 12, 16) for p in (2, 4, 6) for seed in range(seeds)),
    "homogeneous": lambda seeds: (
        (f"homogeneous-k{k}-p{p}-m{m}-s{seed}", generators.gen_homogeneous(k, p, m, seed))
        for k in (4, 8, 16, 32) for p in (2, 4) for m in sorted({1, p // 2, p - 1})
        for seed in range(seeds)),
    "adversarial": lambda seeds: (
        (f"adversarial-k{k}-p{p}", generators.gen_adversarial_half(k, p))
        for k in (8, 16, 32) for p in (2, 4)),
}


def run_bench(suite: str, seeds: int) -> list[BenchRow]:
    """The rows of one of ``BENCH_SUITES``, or of all of them for ``all``,
    sorted by instance id."""
    if suite not in (*BENCH_SUITES, "all"):
        raise ValueError(f"unknown suite {suite!r}")
    if seeds < 1:
        raise ValueError(f"seeds must be at least 1, got {seeds}")
    rows = []
    for name in BENCH_SUITES if suite == "all" else (suite,):
        for instance_id, inst in BENCH_SUITES[name](seeds):
            oriented, _ = engine.orient_roles(inst)
            result = engine.run(oriented)
            proven = analysis.bound_is_proven(oriented)
            rows.append(BenchRow(
                instance_id=instance_id, k=inst.k, p=inst.p, q=inst.q,
                n_blue=oriented.initial.colour_totals()[0],
                n_blue_min=min(oriented.spec.row(1)),
                rounds_used=result.rounds_used, bound=result.bound, bound_proven=proven,
                ok=result.terminated and (not proven or result.rounds_used <= result.bound),
            ))
    return sorted(rows, key=lambda r: r.instance_id)


def cmd_bench(args: argparse.Namespace) -> int:
    rows = run_bench(args.suite, args.seeds)
    header = f"{'instance':34} {'k':>3} {'p':>3} {'q':>2} {'N1':>5} {'n1*':>4} " \
             f"{'rounds':>7} {'bound':>6} ok"
    print(header)
    for row in rows:
        print(f"{row.instance_id:34} {row.k:>3} {row.p:>3} {row.q:>2} {row.n_blue:>5} "
              f"{row.n_blue_min:>4} {row.rounds_used:>7} {row.bound:>6} "
              f"{'yes' if row.ok else 'NO'}")
    max_ratio = max((r.rounds_used / r.bound for r in rows if r.bound), default=0.0)
    print(f"max rounds/bound ratio: {max_ratio:.3f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            json.dump({"rows": [vars(row) for row in rows], "max_ratio": max_ratio}, fp, indent=2)
    return EXIT_OK if all(row.ok for row in rows) else EXIT_VERIFICATION_FAILED


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """An argparse type: an integer of at least ``minimum``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringform",
        description="Simulate and verify coloured-agent pattern formation on a ring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance document")
    gen.add_argument("--kind", required=True, choices=generators.GENERATORS)
    for name in GEN_FLAGS:  # no defaults here: the generators' signatures hold them
        gen.add_argument(f"--{name}", type=int, required=name in ("k", "p"))
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_gen)

    runp = sub.add_parser("run", help="simulate an instance")
    runp.add_argument("--instance", required=True)
    runp.add_argument("--trace", default=None)
    runp.add_argument("--max-rounds", type=_int_at_least(0), default=None)
    runp.add_argument("--verify", action="store_true")
    runp.set_defaults(func=cmd_run)

    ana = sub.add_parser("analyze", help="report surpluses, renaming, distance, bound")
    ana.add_argument("--instance", required=True)
    ana.set_defaults(func=cmd_analyze)

    ver = sub.add_parser("verify", help="check a stored trace")
    ver.add_argument("--trace", required=True)
    ver.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="tabulate round counts against bounds")
    bench.add_argument("--suite", default="all", choices=[*BENCH_SUITES, "all"])
    bench.add_argument("--seeds", type=_int_at_least(1), default=3)
    bench.add_argument("--out", default=None)
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InstanceFormatError as exc:
        print(f"invalid instance document: {exc}", file=sys.stderr)
        return EXIT_INVALID_INSTANCE
    except engine.InvalidInstanceError as exc:
        for issue in exc.issues:
            print(f"invalid: {issue}", file=sys.stderr)
        return EXIT_INVALID_INSTANCE
    except engine.TraceError as exc:
        print(f"invalid trace: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
