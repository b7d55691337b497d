"""Resolution: the exhaustive chase oracle and the closure-based fast path.

A chase step recomputes, on the current instance, which positions are linked
by the MDs (the merge partition) and assigns every non-uniform block a single
value: one of its current values or a fresh one. An instance is stable when
all blocks are uniform; stable endpoints are the resolved instances, and the
ones changing the fewest positions of the original instance are the minimal
resolved instances (MRIs).

The oracle enumerates chase runs breadth-first and is the ground truth the
fast path is checked against. It runs on ChaseSpace, where a state is a flat
tuple of values. The merge partition is rebuilt from memos: each MD's links
are kept as an interned link set per value of the MD's condition columns,
and the merged blocks per tuple of link sets. Fresh values are the rungs of
one ladder per space, renamed in each successor by first occurrence.

The fast path applies when the classifier returns NonInteracting,
SimpleCycle or HitSimpleCycle: the closure partition of the original
instance determines all MRIs in one shot (per block, pick one of its most
frequent values).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from itertools import islice, product
from math import prod
from operator import itemgetter, ne
from typing import Callable, Iterator

from .dsets import DisjointSet
from .errors import BoundsExceededError, InputError, NotEligibleError
from .mds import MD, Classification, MDSet, classify
from .relation import Instance, Position
from .taclosure import TAPartition, link_groups, slot_map, ta_closure, union_groups

# How far a fresh value may outgrow the longest stored value. Rungs of the
# fresh ladder grow by the largest edit-distance bound plus one, so without a
# limit a huge bound would make every fresh value a huge string.
FRESH_LADDER_LIMIT = 1024


@dataclass(frozen=True)
class MergeBlock:
    """A linked set of positions on the current instance."""

    positions: tuple[Position, ...]
    values: tuple[str, ...]  # distinct current values, sorted

    @property
    def uniform(self) -> bool:
        return len(self.values) == 1


def merge_partition(d: Instance, mdset: MDSet) -> list[MergeBlock]:
    """Blocks of positions linked by the MDs on the instance d itself.

    Unlike the closure partition, this reads the current values, not those of
    the original instance. Singleton blocks are kept. The chase computes the
    same blocks, without the singletons, through ChaseSpace.blocks.
    """
    positions = d.positions()
    slots, values = slot_map(d, positions)
    ds: DisjointSet[int] = DisjointSet()
    for md in mdset.mds:
        union_groups(ds, link_groups(md, d, mdset.sims), md.rhs, slots)
    blocks = []
    for group in ds.groups():
        blocks.append(MergeBlock(
            tuple([positions[i] for i in group]),
            tuple(sorted({values[i] for i in group})),
        ))
    return blocks


def modifiable_positions(d: Instance, mdset: MDSet) -> frozenset[Position]:
    """Positions whose value is not yet settled: members of non-uniform blocks."""
    return frozenset(
        p for block in merge_partition(d, mdset) if not block.uniform
        for p in block.positions
    )


def is_stable(d: Instance, mdset: MDSet) -> bool:
    return all(block.uniform for block in merge_partition(d, mdset))


def _fresh_params(instance: Instance, mdset: MDSet) -> tuple[str, int, int]:
    """(sentinel char, base length, max edit bound) for building fresh values.

    Fresh values are runs of a sentinel character absent from every instance
    value and every similarity table, with lengths spaced further apart than
    the largest edit-distance bound: equality, table lookup and bounded edit
    distance all fail between a fresh value and anything else.
    """
    dom = instance.active_domain()
    avoid = set("".join(dom))
    for spec in mdset.sims.values():
        for a, b in spec.pairs:
            avoid.update(a)
            avoid.update(b)
    code = 0x21
    while chr(code) in avoid:
        code += 1
    longest = max((len(v) for v in dom), default=1)
    k = max(
        (spec.max_distance for spec in mdset.sims.values() if spec.kind == "lev"),
        default=0,
    )
    return chr(code), longest, k


@dataclass(frozen=True)
class OracleBounds:
    max_tuples: int = 12
    max_values: int = 6  # per-block assignment pool
    max_materialized: int = 1024
    max_states: int = 200_000

    def __post_init__(self):
        # A negative bound is bad input, not a search that ran out of room.
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise InputError(f"{f.name} must be at least 0")


def _projection(slots: list[int]):
    """Function from a state to its values at the given slots (a memo key)."""
    return itemgetter(*slots) if slots else lambda values: ()


class ChaseSpace:
    """The chase on one instance, with every state a flat tuple of values.

    A chase step changes values, never tids or attributes, so a state is its
    tuple of values at the positions of d in sorted order (its slots). That
    tuple is the visited-set key; fresh values in it are rungs of one ladder
    built per space, so states share them.

    An MD's links depend only on the state's values at the MD's condition
    slots, and a chase step often changes target slots only, so they are
    memoised per MD on that projection. A miss runs link_groups on the
    state's instance, unions the groups over the slots (slot_map numbers
    them, union_groups links them, as in ta_closure), and keeps the MD's
    blocks of two slots or more as its link set, interned by content. The
    merged blocks are memoised on the projection onto every MD's condition
    slots and, behind that, on the tuple of the MDs' link sets, so a new
    condition projection that links the same way merges nothing.
    """

    def __init__(self, d: Instance, mdset: MDSet):
        self.schema = d.schema
        self.sims = mdset.sims
        self.positions = d.positions()
        # per attribute {tid: slot}; a relation without tuples has no map
        self.slots, start = slot_map(d, self.positions)
        self.start = tuple(start)  # the state of d
        self.rows = []
        for rel, table in d.data.items():
            columns = [self.slots.get((rel, a), {}) for a in d.schema.relation(rel).attrs]
            self.rows += [(rel, tid, tuple([c[tid] for c in columns])) for tid in table]
        self.rels = tuple(d.data)
        self.sentinel, self.base, self.k = _fresh_params(d, mdset)
        self._ladder: list[str] = []
        self._rungs: dict[str, int] = {}
        self._links: list[tuple[MD, Callable, dict[tuple, int]]] = []
        conditions: set[int] = set()
        for md in mdset.mds:
            slots = {
                i
                for c in md.lhs
                for attr in (c.left, c.right)
                for i in self.slots.get(attr, {}).values()
            }
            conditions |= slots
            self._links.append((md, _projection(sorted(slots)), {}))
        self._conditions = _projection(sorted(conditions))
        self._link_ids: dict[tuple[tuple[int, ...], ...], int] = {}
        self._link_sets: list[tuple[tuple[int, ...], ...]] = []
        self._blocks: dict[tuple, list[tuple[int, ...]]] = {}
        self._merged: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

    def instance(self, values: tuple[str, ...]) -> Instance:
        data: dict[str, dict[int, tuple[str, ...]]] = {rel: {} for rel in self.rels}
        for rel, tid, slots in self.rows:
            data[rel][tid] = tuple(values[i] for i in slots)
        return Instance(self.schema, data)

    def fresh(self, i: int) -> str:
        """Rung i of the ladder of fresh values; the same object on every call.

        Raises BoundsExceededError instead of building one more than
        FRESH_LADDER_LIMIT characters longer than every stored value.
        """
        ladder = self._ladder
        if i < len(ladder):
            return ladder[i]
        length = self.base + (self.k + 1) * (i + 1)
        if length - self.base > FRESH_LADDER_LIMIT:
            raise BoundsExceededError(
                f"fresh value {i + 1} needs {length} characters under edit-distance "
                f"bound {self.k}, limit is {self.base + FRESH_LADDER_LIMIT}"
            )
        while len(ladder) <= i:
            rung = self.sentinel * (self.base + (self.k + 1) * (len(ladder) + 1))
            self._rungs[rung] = len(ladder)
            ladder.append(rung)
        return ladder[i]

    def _link_set(self, md: MD, instance: Instance) -> int:
        """Id of the interned link set of md on an instance: its blocks."""
        ds: DisjointSet[int] = DisjointSet()
        union_groups(ds, link_groups(md, instance, self.sims), md.rhs, self.slots)
        content = tuple([g for g in ds.groups() if len(g) > 1])
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
            instance = None
            for md, project, memo in self._links:
                md_key = project(values)
                lid = memo.get(md_key)
                if lid is None:
                    if instance is None:
                        instance = self.instance(values)
                    lid = memo[md_key] = self._link_set(md, instance)
                ids.append(lid)
            ids = tuple(ids)
            blocks = self._merged.get(ids)
            if blocks is None:
                ds: DisjointSet[int] = DisjointSet()
                for lid in ids:
                    for first, *rest in self._link_sets[lid]:
                        for i in rest:
                            ds.union(first, i)
                blocks = self._merged[ids] = ds.groups()
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

    def successors(
        self,
        values: tuple[str, ...],
        open_blocks: list[tuple[tuple[int, ...], tuple[str, ...]]],
        max_values: int = OracleBounds.max_values,
    ) -> Iterator[tuple[str, ...]]:
        """The chase step: all successors of a state, with fresh values canonized.

        A stable state has none. Otherwise there is one successor per
        combination of block assignments, in product order: each open block
        takes one of its current values or a fresh value seen nowhere else
        (a distinct one per block). Duplicates are not removed. Raises
        BoundsExceededError when a block offers more than max_values
        assignments.

        Fresh values introduced along different chase paths are
        interchangeable (mutually dissimilar, dissimilar to everything
        stored), so each successor renames them onto the ladder by first
        occurrence in slot order, which collapses isomorphic states in the
        visited set. The first occurrence of a value is at a head: the
        first slot of an open block, or the first slot of a fresh value
        kept outside the open blocks. So only the heads are read, in slot
        order, to number a combination's fresh values.
        """
        if not open_blocks:
            return
        rungs = self._rungs
        used = len({v for v in values if v in rungs})
        pools = []
        for i, (block, pool) in enumerate(open_blocks):
            if len(pool) + 1 > max_values:
                raise BoundsExceededError(
                    f"block at {self.positions[block[0]]} offers "
                    f"{len(pool) + 1} assignments, bound is {max_values}"
                )
            pools.append(pool + (self.fresh(used + i),))
        # A successor is read off `values + assignment` by one itemgetter;
        # the assignment holds each block's value, then each fresh value
        # kept outside the open blocks.
        n = len(values)
        source = list(range(n))
        heads = []
        for i, (block, _) in enumerate(open_blocks):
            heads.append((block[0], i))
            for s in block:
                source[s] = n + i
        kept: dict[str, int] = {}
        for s, v in enumerate(values):
            if source[s] == s and v in rungs:
                j = kept.get(v)
                if j is None:
                    j = kept[v] = len(open_blocks) + len(kept)
                    heads.append((s, j))
                source[s] = n + j
        order = [j for _, j in sorted(heads)]
        kept_values = tuple(kept)
        take = itemgetter(*source)
        ladder = self._ladder
        for combo in product(*pools):
            assignment = combo + kept_values
            renamed: dict[str, str] = {}
            for j in order:
                v = assignment[j]
                if v in rungs and v not in renamed:
                    renamed[v] = ladder[len(renamed)]
            if renamed:
                assignment = tuple([renamed.get(v, v) for v in assignment])
            yield take(values + assignment)


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
    if d.total_tuples > b.max_tuples:
        raise BoundsExceededError(
            f"instance has {d.total_tuples} tuples, oracle bound is {b.max_tuples}"
        )
    space = ChaseSpace(d, mdset)
    start = space.start
    visited = {start}
    frontier = [start]
    stable: list[tuple[str, ...]] = []
    while frontier:
        next_frontier = []
        for values in frontier:
            open_blocks = space.open_blocks(values)
            if not open_blocks:
                stable.append(values)
                continue
            for succ in space.successors(values, open_blocks, b.max_values):
                if succ in visited:
                    continue
                visited.add(succ)
                if len(visited) > b.max_states:
                    raise BoundsExceededError(
                        f"chase state space exceeds {b.max_states} instances"
                    )
                next_frontier.append(succ)
        frontier = next_frontier
    if not stable:
        raise BoundsExceededError("no stable instance")
    changes = [sum(map(ne, start, s)) for s in stable]
    min_change = min(changes)
    winners = [s for n, s in zip(changes, stable) if n == min_change]
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
        changes = {}
        for block, value in zip(self.partition.blocks, combo):
            for pos in block:
                changes[pos] = value
        return self.base.with_values(changes)

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
    candidates = tuple(partition.candidates(i) for i in range(len(partition)))
    count = prod(len(pool) for pool in candidates)
    min_change = sum(partition.min_changes(i) for i in range(len(partition)))
    return MRIFamily(d, partition, candidates, count, min_change, cls)
