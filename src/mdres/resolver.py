"""Resolution: the exhaustive chase oracle and the closure-based fast path.

A chase step recomputes, on the current instance, which positions are linked
by the MDs (the merge partition) and assigns every non-uniform block a single
value. An instance is stable when all blocks are uniform; stable endpoints
are the resolved instances, and the ones changing the fewest positions of
the original instance are the minimal resolved instances (MRIs).

The oracle enumerates chase runs breadth-first and is the ground truth the
fast path is checked against. The fast path applies when the classifier
returns NonInteracting, SimpleCycle or HitSimpleCycle: the closure partition
of the original instance determines all MRIs in one shot (per block, pick
one of its most frequent values).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, product
from math import prod

from .dsets import DisjointSet
from .errors import BoundsExceededError, InputError, NotEligibleError
from .mds import Classification, MDSet, classify
from .relation import Instance, Position, diff_changeset
from .taclosure import TAPartition, link_groups, ta_closure, union_groups

CHOICES = ("values", "values+fresh")


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

    Unlike the closure partition, this is recomputed from the current values
    during every chase step.
    """
    ds: DisjointSet[Position] = DisjointSet()
    for md in mdset.mds:
        union_groups(ds, link_groups(md, d, mdset.sims), md.rhs)
    blocks = []
    for group in ds.groups():
        positions = tuple(sorted(group))
        values = tuple(sorted({d.value(p) for p in positions}))
        blocks.append(MergeBlock(positions, values))
    blocks.sort(key=lambda b: b.positions[0])
    return blocks


def modifiable_positions(d: Instance, mdset: MDSet) -> frozenset[Position]:
    """Positions whose value is not yet settled: members of non-uniform blocks."""
    return frozenset(
        p for block in merge_partition(d, mdset) if not block.uniform
        for p in block.positions
    )


def is_stable(d: Instance, mdset: MDSet) -> bool:
    return all(block.uniform for block in merge_partition(d, mdset))


@dataclass
class ChaseState:
    instance: Instance
    depth: int = 0
    blocks: list[MergeBlock] = field(default_factory=list)

    @classmethod
    def start(cls, d: Instance, mdset: MDSet) -> "ChaseState":
        return cls(d, 0, merge_partition(d, mdset))

    @property
    def stable(self) -> bool:
        return all(block.uniform for block in self.blocks)


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


def _fresh_values(instance: Instance, mdset: MDSet, n: int) -> list[str]:
    sentinel, longest, k = _fresh_params(instance, mdset)
    return [sentinel * (longest + (k + 1) * (i + 1)) for i in range(n)]


def chase_step(state: ChaseState, mdset: MDSet, choice: str = "values") -> list[ChaseState]:
    """All successors of a chase state.

    A stable state has exactly one successor: itself, one step deeper. An
    unstable state has one successor per combination of block assignments;
    with choice "values" each non-uniform block may take any of its current
    values, with "values+fresh" also a fresh value seen nowhere else (one
    distinct fresh value per block).
    """
    if choice not in CHOICES:
        raise InputError(f"unknown choice policy {choice!r} (expected {CHOICES})")
    open_blocks = [b for b in state.blocks if not b.uniform]
    if not open_blocks:
        nxt = ChaseState(state.instance, state.depth + 1, state.blocks)
        return [nxt]
    pools: list[tuple[str, ...]] = [b.values for b in open_blocks]
    if choice == "values+fresh":
        fresh = _fresh_values(state.instance, mdset, len(open_blocks))
        pools = [pool + (fresh[i],) for i, pool in enumerate(pools)]
    successors = []
    for combo in product(*pools):
        changes = {
            pos: value
            for block, value in zip(open_blocks, combo)
            for pos in block.positions
        }
        inst = state.instance.with_values(changes)
        successors.append(ChaseState(inst, state.depth + 1, merge_partition(inst, mdset)))
    return successors


@dataclass(frozen=True)
class OracleBounds:
    max_tuples: int = 12
    max_values: int = 6  # per-block assignment pool
    max_depth: int | None = None  # defaults to 2 * |MDs| + 2
    max_materialized: int = 1024
    max_states: int = 200_000


class _Cells:
    """The fixed cell layout of the oracle's chase states.

    A chase step changes values, never tids or attributes, so every state is
    its tuple of values at the positions of d in sorted order. That tuple is
    the visited-set key, and it is walked in position order when fresh values
    are renamed.
    """

    def __init__(self, d: Instance):
        self.schema = d.schema
        self.positions = d.positions()
        self.slot = {pos: i for i, pos in enumerate(self.positions)}
        self.rows = [
            (rel, tid, tuple(
                self.slot[Position(tid, (rel, attr))]
                for attr in d.schema.relation(rel).attrs
            ))
            for rel, table in d.data.items()
            for tid in table
        ]
        self.rels = tuple(d.data)

    def values(self, instance: Instance) -> tuple[str, ...]:
        return tuple(instance.value(pos) for pos in self.positions)

    def instance(self, values: tuple[str, ...]) -> Instance:
        data: dict[str, dict[int, tuple[str, ...]]] = {rel: {} for rel in self.rels}
        for rel, tid, slots in self.rows:
            data[rel][tid] = tuple(values[i] for i in slots)
        return Instance(self.schema, data)


def _canonize_fresh(values: list[str], sentinel: str, base: int, k: int) -> None:
    """Relabel fresh values, in place, onto a canonical ladder of lengths.

    Fresh values introduced along different chase paths are interchangeable
    (mutually dissimilar, dissimilar to everything stored); renaming them by
    first occurrence in position order collapses isomorphic states in the
    visited set.
    """
    mapping: dict[str, str] = {}
    for i, value in enumerate(values):
        if sentinel in value:
            target = mapping.get(value)
            if target is None:
                target = sentinel * (base + (k + 1) * (len(mapping) + 1))
                mapping[value] = target
            values[i] = target


def enumerate_mris_oracle(
    d: Instance, mdset: MDSet, bounds: OracleBounds | None = None
) -> tuple[list[Instance], int]:
    """Breadth-first enumeration of chase endpoints; returns (MRIs, min change).

    Ground truth by construction: no classification involved. All stable
    instances reachable within the bounds are collected and the ones with the
    smallest change set against d are returned in canonical order. Raises
    BoundsExceededError instead of returning a truncated answer.

    States are deduplicated up to renaming of fresh values, which is sound:
    fresh values are mutually interchangeable, so renamed states have
    isomorphic successors and identical change-set sizes.
    """
    b = bounds or OracleBounds()
    if d.total_tuples > b.max_tuples:
        raise BoundsExceededError(
            f"instance has {d.total_tuples} tuples, oracle bound is {b.max_tuples}"
        )
    max_depth = b.max_depth if b.max_depth is not None else 2 * len(mdset.mds) + 2
    sentinel, base, k = _fresh_params(d, mdset)
    cells = _Cells(d)
    start = cells.values(d)
    visited = {start}
    frontier = [(ChaseState.start(d, mdset), start)]
    stable: list[Instance] = []
    depth = 0
    while frontier:
        next_frontier = []
        for state, values in frontier:
            if state.stable:
                stable.append(state.instance)
                continue
            if depth >= max_depth:
                continue
            open_blocks = [blk for blk in state.blocks if not blk.uniform]
            used = len({v for v in values if sentinel in v})
            pools = []
            for i, blk in enumerate(open_blocks):
                if len(blk.values) + 1 > b.max_values:
                    raise BoundsExceededError(
                        f"block at {blk.positions[0]} offers "
                        f"{len(blk.values) + 1} assignments, bound is {b.max_values}"
                    )
                fresh = sentinel * (base + (k + 1) * (used + i + 1))
                pools.append(blk.values + (fresh,))
            slots = [[cells.slot[pos] for pos in blk.positions] for blk in open_blocks]
            for combo in product(*pools):
                succ = list(values)
                for block_slots, value in zip(slots, combo):
                    for i in block_slots:
                        succ[i] = value
                _canonize_fresh(succ, sentinel, base, k)
                key = tuple(succ)
                if key in visited:
                    continue
                visited.add(key)
                if len(visited) > b.max_states:
                    raise BoundsExceededError(
                        f"chase state space exceeds {b.max_states} instances"
                    )
                inst = cells.instance(key)
                next_frontier.append(
                    (ChaseState(inst, depth + 1, merge_partition(inst, mdset)), key)
                )
        frontier = next_frontier
        depth += 1
    if not stable:
        raise BoundsExceededError(f"no stable instance within depth {max_depth}")
    by_change = [(len(diff_changeset(d, s)), s) for s in stable]
    min_change = min(n for n, _ in by_change)
    mris = sorted((s for n, s in by_change if n == min_change), key=Instance.key)
    if len(mris) > b.max_materialized:
        raise BoundsExceededError(
            f"{len(mris)} minimal resolved instances exceed the materialization "
            f"bound {b.max_materialized}"
        )
    return mris, min_change


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
        truncated = self.count > limit
        combos = islice(product(*self.candidates), limit)
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


def resolved_values(d: Instance, mdset: MDSet, rel: str, attr: str) -> tuple[str, ...]:
    """Values guaranteed to appear in the column rel.attr of every MRI.

    For an unchangeable attribute that is simply the column's content. For a
    changeable one, a value qualifies iff some closure block with a position
    at the attribute has it as its unique most frequent value.
    """
    rschema = d.schema.relation(rel)
    rschema.index(attr)  # validates the attribute
    target = (rel, attr)
    if target not in mdset.changeable:
        return tuple(sorted(set(d.column(rel, attr))))
    cls = classify(mdset)
    if not cls.fast:
        raise NotEligibleError(
            f"resolved values need a fast-path MD set, got {cls.label}"
        )
    partition = ta_closure(d, mdset)
    winners = set()
    for i in partition.blocks_at(target):
        pool = partition.candidates(i)
        if len(pool) == 1:
            winners.add(pool[0])
    return tuple(sorted(winners))
