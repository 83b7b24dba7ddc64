"""Quantities behind the termination argument of the two-colour balancer.

Everything here is a pure function of a configuration and a per-block
requirement row for the tracked colour (colour 1 after role orientation,
or the merged lower-bound colour for P2): per-block surpluses, the block
renaming that pins the cumulative surplus at zero, destination blocks,
the distance potential, the class partition of blue agents, and the
round-count bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter, mul
from typing import Sequence

from .core import Configuration, Instance, ProblemKind

BLUE = 1  # the tracked colour; roles are swapped before a run, never here


@dataclass(frozen=True)
class DistanceReport:
    rename_offset: int
    dest: tuple[int, ...]
    blues: tuple[int, ...]  # the blue count of every block, from renamed block 1 on
    total: int


def surplus_profile(cfg: Configuration, requirement_row: Sequence[int]) -> tuple[int, ...]:
    """Surplus of colour 1 per block relative to ``requirement_row``: count
    present minus count required.  Its sum is the whole-ring surplus, 0 for
    exact instances and the extras count for lower-bound ones."""
    if len(requirement_row) != cfg.k:
        raise ValueError(f"requirement row has {len(requirement_row)} entries, expected {cfg.k}")
    return tuple(row[BLUE - 1] - need for row, need in zip(cfg.all_counts(), requirement_row))


def rename_offset(surplus: Sequence[int]) -> int:
    """Block to relabel as block 1 so cumulative surpluses never exceed the total.

    Taking the smallest prefix-sum maximiser ``j`` (scanning from block 1)
    and starting at ``j + 1`` caps every cumulative surplus at 0 for exact
    instances and at the extras count for lower-bound instances.
    """
    prefix = 0
    best_j, best = 1, None
    for j, y in enumerate(surplus, start=1):
        prefix += y
        if best is None or prefix > best:
            best, best_j = prefix, j
    return best_j % len(surplus) + 1


def renamed_row(row: Sequence[int], offset: int) -> tuple[int, ...]:
    return tuple(row[offset - 1:]) + tuple(row[:offset - 1])


def destinations(n_blue: int, requirement_row: Sequence[int]) -> tuple[int, ...]:
    """Destination block per blue rank: the first block whose cumulative
    requirement covers the rank.  Ranks beyond the total requirement (the
    extras of a lower-bound instance) settle in the last block.
    """
    k = len(requirement_row)
    dest = []
    block, covered = 1, requirement_row[0]
    for rank in range(1, n_blue + 1):
        while block < k and covered < rank:
            block += 1
            covered += requirement_row[block - 1]
        dest.append(block if covered >= rank else k)
    return tuple(dest)


def renamed_blues(cfg: Configuration, offset: int) -> tuple[int, ...]:
    """The blue count of every block of ``cfg``, from renamed block 1
    (block ``offset``) on, read from the count rows."""
    return renamed_row(tuple(map(itemgetter(BLUE - 1), cfg.all_counts())), offset)


def distance_total(blues: Sequence[int], n_blue: int, dest_total: int) -> int:
    """The distance potential of a configuration whose renamed blocks hold
    ``blues`` blue agents: every renamed block j times its blue count, less
    ``dest_total``, the sum of the destinations of the ``n_blue`` blue
    ranks.  Raises ValueError when the blue counts do not add up to
    ``n_blue``."""
    if sum(blues) != n_blue:
        raise ValueError(f"{sum(blues)} blue agents but {n_blue} destinations")
    return sum(map(mul, blues, range(1, len(blues) + 1))) - dest_total


def distance(cfg: Configuration, requirement_row: Sequence[int], offset: int,
             dest: Sequence[int]) -> DistanceReport:
    """The distance potential that certifies termination, in renamed coordinates.

    The rank-``i`` blue agent sitting in renamed block ``j`` contributes
    ``j - dest[i]``; ``distance_total`` sums that from the per-block
    counts.  ``dest`` carries ``requirement_row``.  A run or an audit that
    measures many configurations against the same destinations calls
    ``renamed_blues`` and ``distance_total`` with their sum, once taken.
    """
    blues = renamed_blues(cfg, offset)
    return DistanceReport(rename_offset=offset, dest=tuple(dest), blues=blues,
                          total=distance_total(blues, len(dest), sum(dest)))


def distance_report(cfg: Configuration, requirement_row: Sequence[int]) -> DistanceReport:
    """Distance of ``cfg`` with renaming and destinations derived from scratch."""
    offset = rename_offset(surplus_profile(cfg, requirement_row))
    n_blue = cfg.colours.count(BLUE)
    dest = destinations(n_blue, renamed_row(requirement_row, offset))
    return distance(cfg, requirement_row, offset, dest)


def blue_partition(inst: Instance) -> tuple[tuple[int, ...], ...]:
    """Blue ranks 1..N in consecutive classes of the minimum colour-1
    requirement each (the last may be short)."""
    size = min(inst.spec.row(BLUE))
    if size < 1:
        raise ValueError("colour-1 requirement must be positive in every block")
    n_blue = inst.initial.colour_totals()[BLUE - 1]
    return tuple(tuple(range(lo, min(lo + size - 1, n_blue) + 1))
                 for lo in range(1, n_blue + 1, size))


def default_max_rounds(inst: Instance) -> int:
    """The safety cap ``4*n*k + 16`` on a run's rounds, over the proven O(nk) guarantee."""
    return 4 * inst.n * inst.k + 16


def exact_two_colour(inst: Instance) -> bool:
    """P1 with q == 2: oriented roles, the proven bound, every two-colour checker."""
    return inst.spec.kind is ProblemKind.P1 and inst.q == 2


def theoretical_bound(inst: Instance) -> int:
    """Round-count bound reported for a run of this instance.

    Exact two-colour instances with an even block count get the proven
    ``ceil(2*N/n*) + k + 4`` bound (N blue agents total, n* the smallest
    per-block blue requirement).  Odd block counts triple that formula,
    reflecting the slower guaranteed potential drop; this value is a
    heuristic, not proven tight.  Everything else gets the safety cap
    ``default_max_rounds``.
    """
    if exact_two_colour(inst):
        n_blue = inst.initial.colour_totals()[BLUE - 1]
        star = min(inst.spec.row(BLUE))
        if star < 1:
            raise ValueError("colour-1 requirement must be positive in every block")
        base = -(-2 * n_blue // star) + inst.k + 4  # ceil(2N / n*) + k + 4
        return base if inst.k % 2 == 0 else 3 * base
    return default_max_rounds(inst)


def bound_is_proven(inst: Instance) -> bool:
    """True when ``theoretical_bound`` returns the proven exact formula."""
    return exact_two_colour(inst) and inst.k % 2 == 0
