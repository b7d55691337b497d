"""Resolution: the exhaustive chase oracle and the closure-based fast path.

A chase step recomputes, on the current instance, which positions are linked
by the MDs (the merge partition) and assigns every non-uniform block a single
value: one of its current values or a fresh one. An instance is stable when
all blocks are uniform; stable endpoints are the resolved instances, and the
ones changing the fewest positions of the original instance are the minimal
resolved instances (MRIs).

The oracle enumerates chase runs breadth-first and is the ground truth the
fast path is checked against. It is bounded by the cells of the states it
visits (OracleBounds.max_cells), not by the instance's size. It runs on
ChaseSpace, where a state is a flat tuple of values at the slots that
relation.number_slots numbers, the closure's numbering. The merge partition
is rebuilt from memos: each MD's links are kept as an interned link set per
value of the MD's condition columns, read off the state on a miss, and the
merged blocks per tuple of link sets, which merge_partition computes on a
miss. That is the package's one block computation on a state; is_stable
reads the open blocks of an instance's start state through it. A miss
groups tuples by link key, links and merges with the closure's own pieces:
taclosure.group_tids and link_targets, and one dsets.DisjointSet, whose
`linked` classes are both a link set and the merged blocks. States go back
to instances through relation.with_slot_values, as the fast path's MRIs do.
Fresh values are the rungs of one ladder per space, renamed in each
successor by first occurrence. What a step reads off its layout of open
blocks is built once per layout. For one oracle call, the combinations
already expanded are kept per (layout, values outside the open blocks), and
a repeated one is skipped before its successor is built. A step whose open
blocks hold no condition slot has only stable successors, which go straight
to the stable list without being relinked.

The fast path applies when the classifier returns NonInteracting,
SimpleCycle or HitSimpleCycle: the closure partition of the original
instance determines all MRIs in one shot (per block, pick one of its most
frequent values).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from itertools import chain, islice, product
from math import prod
from operator import itemgetter, ne
from typing import Callable, Collection, Iterable, Iterator, Mapping

from .dsets import DisjointSet
from .errors import BoundsExceededError, InputError, NotEligibleError
from .join import tuple_getter
from .mds import MD, Classification, MDSet, classify
from .relation import Instance, Position, number_slots, slot_positions, with_slot_values
from .similarity import SimilaritySpec
from .taclosure import (
    TAPartition,
    group_tids,
    link_conditions,
    link_targets,
    match_keys,
    reads_one_side,
    ta_closure,
)

# How far a fresh value may outgrow the longest stored value. Rungs of the
# fresh ladder grow by the largest edit-distance bound plus one, so without a
# limit a huge bound would make every fresh value a huge string.
FRESH_LADDER_LIMIT = 1024


def merge_partition(
    link_sets: Iterable[tuple[tuple[int, ...], ...]], n: int
) -> list[tuple[int, ...]]:
    """The merged blocks of some link sets over the slots 0..n-1: the
    classes, in sorted order, of the union of their blocks. Each link set
    holds sorted slot blocks of two slots or more, so every class has two or
    more. Each block's classes are merged in one step."""
    classes = DisjointSet(n)
    of, merge = classes.of, classes.merge
    for link_set in link_sets:
        for block in link_set:
            ids = set(map(of.__getitem__, block))
            if len(ids) > 1:
                merge(ids)
    return classes.linked()


def _fresh_params(
    values: Collection[str], sims: Mapping[str, SimilaritySpec]
) -> tuple[str, int, int]:
    """(sentinel char, base length, max edit bound) for building fresh values.

    Fresh values are runs of a sentinel character absent from every instance
    value and every similarity table, with lengths spaced further apart than
    the largest edit-distance bound: equality, table lookup and bounded edit
    distance all fail between a fresh value and anything else. `values` are
    the instance's values, repeats allowed.
    """
    avoid = set("".join(values))
    for spec in sims.values():
        avoid.update("".join(chain.from_iterable(spec.pairs)))
    code = 0x21
    while chr(code) in avoid:
        code += 1
    longest = max(map(len, values), default=1)
    k = max((spec.max_distance for spec in sims.values() if spec.kind == "lev"), default=0)
    return chr(code), longest, k


@dataclass(frozen=True)
class OracleBounds:
    max_values: int = 6  # per-block assignment pool
    max_materialized: int = 1024
    max_cells: int = 10_000_000  # visited states times slots per state

    def __post_init__(self):
        # A negative bound is bad input, not a search that ran out of room.
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise InputError(f"{f.name} must be at least 0")


def _key_groups(
    side: tuple[list[int], int, Callable], values: tuple[str, ...]
) -> dict[tuple[str, ...], list[int]]:
    """{link key: tids in order} for one side of an MD, read off a state."""
    tids, width, project = side
    return group_tids(tids, zip(*[iter(project(values))] * width))


class _Layout:
    """What a chase step reads off one layout of open blocks; built once.

    For a state of n slots, `source` maps a slot to itself, or to n + i
    when the i-th open block holds it; `heads` are (first slot, block
    number), `order` the block numbers in the slot order of their heads,
    and `take` reads a successor off `values + assignment`. `outside`
    projects a state onto the slots that no open block holds. The layout
    `settles` when no open block holds a condition slot.
    """

    __slots__ = (
        "number", "source", "heads", "order", "take", "outside_slots", "outside", "settles",
    )

    def __init__(
        self, number: int, blocks: tuple[tuple[int, ...], ...], n: int, conditions: frozenset[int]
    ):
        self.number = number
        self.source = source = list(range(n))
        for i, block in enumerate(blocks):
            for s in block:
                source[s] = n + i
        self.heads = [(block[0], i) for i, block in enumerate(blocks)]
        self.order = [j for _, j in sorted(self.heads)]
        self.take = itemgetter(*source)
        self.outside_slots = [s for s in range(n) if source[s] == s]
        self.outside = tuple_getter(self.outside_slots)
        self.settles = all(conditions.isdisjoint(block) for block in blocks)


class ChaseSpace:
    """The chase on one instance, with every state a flat tuple of values.

    A chase step changes values, never tids or attributes, so a state is its
    tuple of values at the positions of d in sorted order (its slots). That
    tuple is the visited-set key; fresh values in it are rungs of one ladder
    built per space, so states share them.

    An MD's links depend only on the state's values at the MD's condition
    slots, and a chase step often changes target slots only, so they are
    memoised per MD on that projection. A miss reads each tuple's link key
    off the state, matches the keys with taclosure.match_keys, merges the
    groups' classes over the slots with taclosure.link_targets (the
    closure's kernel), and keeps the MD's blocks of two slots or more as
    its link set, interned by content; no Instance is built. The merged blocks are
    memoised on the projection onto every MD's condition slots and, behind
    that, on the tuple of the MDs' link sets, so a new condition projection
    that links the same way merges nothing.

    What only some callers read is built on first use: `positions` (the
    position at each slot, for messages and tests) and the fresh-value
    parameters of _fresh_params (`_ladder_params`, first needed when a step
    builds a fresh value).
    """

    def __init__(self, d: Instance, mdset: MDSet):
        self.schema = d.schema
        self._d, self._sims = d, mdset.sims
        # Slot i is the i-th position of d in sorted order (number_slots); a
        # relation without tuples has no map in `slots`
        self.slots, start = number_slots(d)
        self.start = tuple(start)  # the state of d
        self._positions: list[Position] | None = None
        self._params: tuple[str, int, int] | None = None
        self._ladder: list[str] = []
        self._rungs: dict[str, int] = {}
        # per MD: the MD, its conditions (link_conditions), and its left and
        # right sides as _key_slots gives them (the right side is None when
        # both sides read the same columns); and the projection onto its
        # condition slots with its memo of link set ids
        self._links: list[tuple[MD, list, tuple, tuple | None]] = []
        self._memos: list[tuple[Callable, dict[tuple, int]]] = []
        conditions: set[int] = set()
        for md in mdset.mds:
            conds = link_conditions(md, d.schema, mdset.sims)
            left = self._key_slots(md.left_rel, [li for li, _, _ in conds])
            right = None if reads_one_side(md, conds) else (
                self._key_slots(md.right_rel, [ri for _, ri, _ in conds])
            )
            slots = {
                i
                for c in md.lhs
                for attr in (c.left, c.right)
                for i in self.slots.get(attr, {}).values()
            }
            conditions |= slots
            self._links.append((md, conds, left, right))
            self._memos.append((tuple_getter(sorted(slots)), {}))
        self._condition_slots = frozenset(conditions)
        self._conditions = tuple_getter(sorted(conditions))
        self._link_ids: dict[tuple[tuple[int, ...], ...], int] = {}
        self._link_sets: list[tuple[tuple[int, ...], ...]] = []
        self._blocks: dict[tuple, list[tuple[int, ...]]] = {}
        self._merged: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        self._layouts: dict[tuple[tuple[int, ...], ...], _Layout] = {}

    # What is built on first use is kept in attributes that __init__ sets to
    # None, not in cached_property: that writes through the instance's
    # __dict__, after which every attribute read on the instance, and the
    # search reads them in its inner loop, is slower (2.6 times in a loop of
    # reads on CPython 3.11).

    @property
    def positions(self) -> list[Position]:
        """positions[i] is the position at slot i."""
        if self._positions is None:
            self._positions = slot_positions(self.slots, len(self.start))
        return self._positions

    def _ladder_params(self) -> tuple[str, int, int]:
        if self._params is None:
            self._params = _fresh_params(self.start, self._sims)
        return self._params

    def _key_slots(self, rel: str, columns: list[int]) -> tuple[list[int], int, Callable]:
        """(tids in order, key width, projection onto every tuple's link-key
        slots, end to end) for one side of an MD."""
        attrs = self.schema.relation(rel).attrs
        maps = [self.slots.get((rel, attrs[c]), {}) for c in columns]
        tids = sorted(maps[0])
        return tids, len(columns), tuple_getter([m[tid] for tid in tids for m in maps])

    def instance(self, values: tuple[str, ...]) -> Instance:
        """The instance of a state."""
        return with_slot_values(self._d, self.slots, values)

    def fresh(self, i: int) -> str:
        """Rung i of the ladder of fresh values; the same object on every call.

        Raises BoundsExceededError instead of building one more than
        FRESH_LADDER_LIMIT characters longer than every stored value.
        """
        ladder = self._ladder
        if i < len(ladder):
            return ladder[i]
        sentinel, base, k = self._ladder_params()
        length = base + (k + 1) * (i + 1)
        if length - base > FRESH_LADDER_LIMIT:
            raise BoundsExceededError(
                f"fresh value {i + 1} needs {length} characters under edit-distance "
                f"bound {k}, limit is {base + FRESH_LADDER_LIMIT}"
            )
        while len(ladder) <= i:
            rung = sentinel * (base + (k + 1) * (len(ladder) + 1))
            self._rungs[rung] = len(ladder)
            ladder.append(rung)
        return ladder[i]

    def link_set(self, i: int, values: tuple[str, ...]) -> tuple[tuple[int, ...], ...]:
        """Sorted slot blocks, of two slots or more, that the i-th MD links on
        a state.

        Every tuple's link key is read off the state, and the keys are
        matched by taclosure.match_keys, as link_groups matches them on an
        instance; no Instance is built.
        """
        md, conds, left, right = self._links[i]
        left_keys = _key_groups(left, values)
        right_keys = left_keys if right is None else _key_groups(right, values)
        classes = DisjointSet(len(values))
        link_targets(classes, match_keys(conds, left_keys, right_keys), md.rhs, self.slots)
        return tuple(classes.linked())

    def _link_id(self, content: tuple[tuple[int, ...], ...]) -> int:
        """Id of a link set, interned by content."""
        lid = self._link_ids.get(content)
        if lid is None:
            lid = self._link_ids[content] = len(self._link_sets)
            self._link_sets.append(content)
        return lid

    def blocks(self, values: tuple[str, ...]) -> list[tuple[int, ...]]:
        """Sorted slot blocks, of two slots or more, that the MDs link on a state."""
        key = self._conditions(values)
        blocks = self._blocks.get(key)
        if blocks is None:
            ids = []
            for i, (project, memo) in enumerate(self._memos):
                md_key = project(values)
                lid = memo.get(md_key)
                if lid is None:
                    lid = memo[md_key] = self._link_id(self.link_set(i, values))
                ids.append(lid)
            ids = tuple(ids)
            blocks = self._merged.get(ids)
            if blocks is None:
                blocks = self._merged[ids] = merge_partition(
                    [self._link_sets[lid] for lid in ids], len(values)
                )
            self._blocks[key] = blocks
        return blocks

    def open_blocks(self, values: tuple[str, ...]) -> list[tuple[tuple[int, ...], tuple[str, ...]]]:
        """(slots, sorted distinct values) of every block whose values differ.

        A state is stable when it has none.
        """
        out = []
        for block in self.blocks(values):
            pool = {values[i] for i in block}
            if len(pool) > 1:
                out.append((block, tuple(sorted(pool))))
        return out

    def _layout(self, open_blocks: list[tuple[tuple[int, ...], tuple[str, ...]]]) -> _Layout:
        blocks = tuple([block for block, _ in open_blocks])
        layout = self._layouts.get(blocks)
        if layout is None:
            layout = self._layouts[blocks] = _Layout(
                len(self._layouts), blocks, len(self.start), self._condition_slots
            )
        return layout

    def settles(self, open_blocks: list[tuple[tuple[int, ...], tuple[str, ...]]]) -> bool:
        """Whether every successor over these open blocks is stable.

        Links read only condition slots. When no open block holds one, a
        successor's condition values are the state's, up to a one-to-one
        renaming of fresh values, which links alike; so the successor has
        the state's blocks, the open ones now holding one value each and
        the others unchanged.
        """
        return self._layout(open_blocks).settles

    def successors(
        self,
        values: tuple[str, ...],
        open_blocks: list[tuple[tuple[int, ...], tuple[str, ...]]],
        expanded: dict[tuple, set[tuple[str, ...]]],
        max_values: int = OracleBounds.max_values,
    ) -> Iterator[tuple[str, ...]]:
        """The chase step: the successors of a state, with fresh values canonized.

        A stable state has none. Otherwise there is one successor per
        combination of block assignments, in product order: each open block
        takes one of its current values or a fresh value seen nowhere else
        (a distinct one per block). Raises BoundsExceededError when a block
        offers more than max_values assignments.

        `expanded` is the memo of one oracle call. It is keyed on (layout
        of the open blocks, values outside them) and holds the raw
        combinations, fresh values not yet renamed, already expanded under
        each key: at most one entry per successor built. A combination
        found there is skipped before it is renamed or built, which is
        exact: an equal layout, equal outside values and an equal raw
        combination give the successor already built.

        When no open block holds a condition slot (`settles`), every
        successor is stable. A successor is linked by `blocks`, whose memo
        misses read each tuple's link key off the state.

        Fresh values introduced along different chase paths are
        interchangeable (mutually dissimilar, dissimilar to everything
        stored), so each successor renames them onto the ladder by first
        occurrence in slot order, which collapses isomorphic states in the
        visited set. The first occurrence of a value is at a head: the
        first slot of an open block, or the first slot of a fresh value
        kept outside the open blocks. So only the heads are read, in slot
        order, to number a combination's fresh values. What a step reads
        off its layout is built once per layout; a state with a fresh value
        outside its open blocks adds that value's slots to it.
        """
        if not open_blocks:
            return
        layout = self._layout(open_blocks)
        rungs = self._rungs
        used = len(rungs.keys() & values)
        pools = []
        for i, (block, pool) in enumerate(open_blocks):
            if len(pool) + 1 > max_values:
                raise BoundsExceededError(
                    f"block at {self.positions[block[0]]} offers "
                    f"{len(pool) + 1} assignments, bound is {max_values}"
                )
            try:
                rung = self.fresh(used + i)
            except BoundsExceededError as exc:
                raise BoundsExceededError(
                    f"a chase step opening {len(open_blocks)} blocks, the first at "
                    f"{self.positions[open_blocks[0][0][0]]}, needs one fresh value per "
                    f"block: {exc}"
                ) from None
            pools.append(pool + (rung,))
        # A successor is read off `values + assignment` by one itemgetter;
        # the assignment holds each block's value, then each fresh value
        # kept outside the open blocks.
        outside = layout.outside(values)
        order, take, kept = layout.order, layout.take, ()
        if used and not rungs.keys().isdisjoint(outside):
            n, heads, source = len(values), layout.heads[:], layout.source[:]
            firsts: dict[str, int] = {}
            for s, v in zip(layout.outside_slots, outside):
                if v in rungs:
                    j = firsts.get(v)
                    if j is None:
                        j = firsts[v] = len(open_blocks) + len(firsts)
                        heads.append((s, j))
                    source[s] = n + j
            order = [j for _, j in sorted(heads)]
            take = itemgetter(*source)
            kept = tuple(firsts)
        seen = expanded.setdefault((layout.number, outside), set())
        ladder = self._ladder
        for combo in product(*pools):
            if combo in seen:
                continue
            seen.add(combo)
            assignment = combo + kept
            renamed: dict[str, str] = {}
            for j in order:
                v = assignment[j]
                if v in rungs and v not in renamed:
                    renamed[v] = ladder[len(renamed)]
            if renamed:
                assignment = tuple([renamed.get(v, v) for v in assignment])
            yield take(values + assignment)


def is_stable(d: Instance, mdset: MDSet) -> bool:
    """Whether every block the MDs link on d holds one value."""
    space = ChaseSpace(d, mdset)
    return not space.open_blocks(space.start)


def stable_states(space: ChaseSpace, bounds: OracleBounds) -> list[tuple[str, ...]]:
    """Every stable state the chase reaches from space.start, breadth-first.

    Each state is expanded once, in the order it was first reached; the
    successors of a step that settles are stable and are not relinked.
    Raises BoundsExceededError when the visited states hold more than
    max_cells cells (states times slots), or a block offers more than
    max_values assignments.
    """
    start = space.start
    width = len(start) or 1  # a state without slots has no successor
    max_states = bounds.max_cells // width
    visited = {start}
    frontier = [start]
    stable: list[tuple[str, ...]] = []
    expanded: dict[tuple, set[tuple[str, ...]]] = {}
    while frontier:
        next_frontier = []
        for values in frontier:
            open_blocks = space.open_blocks(values)
            if not open_blocks:
                stable.append(values)
                continue
            reached = stable if space.settles(open_blocks) else next_frontier
            for succ in space.successors(values, open_blocks, expanded, bounds.max_values):
                if succ in visited:
                    continue
                visited.add(succ)
                if len(visited) > max_states:
                    raise BoundsExceededError(
                        f"chase state space exceeds {max_states} states of {width} "
                        f"cells each, bound is {bounds.max_cells} cells"
                    )
                reached.append(succ)
        frontier = next_frontier
    return stable


def minimal_states(
    d: Instance, mdset: MDSet, bounds: OracleBounds
) -> tuple[ChaseSpace, list[tuple[str, ...]], int]:
    """(chase space of d, the MRIs as its states, their change against d);
    space.instance builds an MRI."""
    space = ChaseSpace(d, mdset)
    stable = stable_states(space, bounds)
    if not stable:
        raise BoundsExceededError("no stable instance")
    changes = [sum(map(ne, space.start, s)) for s in stable]
    min_change = min(changes)
    return space, [s for n, s in zip(changes, stable) if n == min_change], min_change


def enumerate_mris_oracle(
    d: Instance, mdset: MDSet, bounds: OracleBounds | None = None
) -> tuple[list[Instance], int]:
    """Breadth-first enumeration of chase endpoints; returns (MRIs, min change).

    Ground truth by construction: no classification involved. The search
    runs until its frontier is empty, so every reachable stable instance is
    collected, and the ones with the smallest change set against d are
    returned in canonical order. Raises BoundsExceededError instead of
    returning a truncated answer.

    States are deduplicated up to renaming of fresh values, which is sound:
    fresh values are mutually interchangeable, so renamed states have
    isomorphic successors and identical change-set sizes.
    """
    b = bounds or OracleBounds()
    space, winners, min_change = minimal_states(d, mdset, b)
    if len(winners) > b.max_materialized:
        raise BoundsExceededError(
            f"{len(winners)} minimal resolved instances exceed the materialization "
            f"bound {b.max_materialized}"
        )
    return sorted(map(space.instance, winners), key=Instance.key), min_change


@dataclass
class MRIFamily:
    """Implicit representation of all MRIs for a fast-path instance.

    Every MRI assigns each closure block one of its candidate values
    (the block's most frequent values in the base instance); `count` is the
    product of the candidate pool sizes.
    """

    base: Instance
    partition: TAPartition
    candidates: tuple[tuple[str, ...], ...]
    count: int
    min_change: int
    classification: Classification

    def assignment(self, combo: tuple[str, ...]) -> Instance:
        """The instance in which every position of block i holds combo[i]."""
        partition = self.partition
        values = list(map(combo.__getitem__, partition.block_of))
        return with_slot_values(self.base, partition.slots, values)

    def canonical(self) -> Instance:
        """The MRI taking the lexicographically smallest candidate per block."""
        return self.assignment(tuple(pool[0] for pool in self.candidates))

    def materialize(self, limit: int = 1024) -> tuple[list[Instance], bool]:
        """Up to `limit` MRIs, sorted, and whether the family has more."""
        if limit < 0:
            raise InputError("materialize limit must be at least 0")
        truncated = self.count > limit
        combos = islice(product(*self.candidates), min(limit, sys.maxsize))
        instances = sorted((self.assignment(c) for c in combos), key=Instance.key)
        return instances, truncated


def fast_mri_family(d: Instance, mdset: MDSet) -> MRIFamily:
    """One-shot MRI computation for NonInteracting/SimpleCycle/HitSimpleCycle sets."""
    cls = classify(mdset)
    if not cls.fast:
        raise NotEligibleError(
            f"fast resolution applies to NonInteracting, SimpleCycle and "
            f"HitSimpleCycle sets; this set classifies as {cls.label}"
        )
    partition = ta_closure(d, mdset)
    count = prod(map(len, partition.pools))
    return MRIFamily(d, partition, partition.pools, count, partition.min_change, cls)
