"""Tuple-attribute closure: which positions are forced to agree.

For every MD m and every MD m' with a directed path to m (including m
itself), each pair of tuples satisfying the conditions of m' links the
target positions of m. The closure of that link relation partitions the
positions of changeable attributes into blocks; positions in one block take
a single value in any resolved instance reachable without extra edits.

Similarities are always evaluated on the original instance here. That is
what makes the fast resolution path a one-shot computation.

The closure numbers the changeable positions once, in sorted order, and
unions those slot numbers; Position tuples are built only for the partition
it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby, repeat
from operator import itemgetter
from typing import Collection, Mapping

from .dsets import DisjointSet
from .errors import InputError
from .join import quote
from .mds import MD, MDSet, previous_set
from .relation import Attr, Instance, Position, Schema
from .similarity import SimilaritySpec, neighbours, similar


def majority(tally: Collection[tuple[str, int]]) -> tuple[str, ...]:
    """The candidates of a closure block or a CQA key group, from its (value,
    count) pairs: the most frequent values, all of them on a tie, sorted."""
    best = max(n for _, n in tally)
    return tuple(sorted(v for v, n in tally if n == best))


@dataclass(frozen=True)
class TAPartition:
    """Partition of the changeable positions, with value frequencies from D.

    Blocks are tuples of positions in sorted order; the block list is sorted
    by each block's first position. Unlinked positions appear as singletons.
    """

    blocks: tuple[tuple[Position, ...], ...]
    counts: tuple[tuple[tuple[str, int], ...], ...]

    # Built on first use: resolve and closure never read it.
    @cached_property
    def block_index(self) -> dict[Attr, dict[int, int]]:
        """Per attribute, {tid: number of the block holding that position}."""
        index: dict[Attr, dict[int, int]] = {}
        for i, block in enumerate(self.blocks):
            for tid, attr in block:
                at = index.get(attr)
                if at is None:
                    at = index[attr] = {}
                at[tid] = i
        return index

    def __len__(self) -> int:
        return len(self.blocks)

    def block_of(self, pos: Position) -> int:
        try:
            return self.block_index[pos.attr][pos.tid]
        except KeyError:
            raise InputError(f"position {pos} is not in the partition") from None

    @cached_property
    def winners(self) -> tuple[str | None, ...]:
        """Each block's unique most frequent value, or None on a tie."""
        return tuple(
            pool[0] if len(pool) == 1 else None
            for pool in map(self.candidates, range(len(self.blocks)))
        )

    def candidates(self, i: int) -> tuple[str, ...]:
        """Most frequent values of block i, sorted."""
        return majority(self.counts[i])

    def min_changes(self, i: int) -> int:
        return len(self.blocks[i]) - max(n for _, n in self.counts[i])

    def as_json(self) -> list[dict]:
        return [
            {
                "positions": [[p.attr[0], p.tid, p.attr[1]] for p in block],
                "values": {v: n for v, n in self.counts[i]},
                "candidates": list(self.candidates(i)),
            }
            for i, block in enumerate(self.blocks)
        ]


def link_conditions(
    md: MD, schema: Schema, sims: Mapping[str, SimilaritySpec]
) -> list[tuple[int, int, SimilaritySpec]]:
    """(left column, right column, spec) per conjunct of md, `=`/`eq` first.

    A link key is a row's values at these columns, in this order.
    """
    eq, rest = [], []
    for c in md.lhs:
        li = schema.relation(c.left[0]).index(c.left[1])
        ri = schema.relation(c.right[0]).index(c.right[1])
        try:
            spec = sims[c.sim]
        except KeyError:
            raise InputError(f"no similarity spec for {c.sim!r}") from None
        (eq if spec.kind == "eq" else rest).append((li, ri, spec))
    return eq + rest


def reads_one_side(md: MD, conds: list[tuple[int, int, SimilaritySpec]]) -> bool:
    """Whether both sides of md read the same columns of one relation."""
    return md.left_rel == md.right_rel and all(li == ri for li, ri, _ in conds)


def link_groups(
    md: MD, instance: Instance, sims: Mapping[str, SimilaritySpec]
) -> list[tuple[list[int], list[int]]]:
    """Groups (left tids, right tids) of tuples satisfying the conditions of md.

    Every cross pair inside a group satisfies the conditions, and every
    satisfying pair lies in exactly one group. Rows are grouped by their
    link keys (`link_conditions`), in tid order, and the groups are matched
    by match_keys. For a self-matched relation the pairs include a tuple
    with itself, and when both sides read the same columns, a group of
    tuples with equal keys has its left and right tids in one list.
    """
    conds = link_conditions(md, instance.schema, sims)
    left: dict[tuple[str, ...], list[int]] = {}
    for tid, row in instance.rows(md.left_rel):
        left.setdefault(tuple([row[li] for li, _, _ in conds]), []).append(tid)
    if reads_one_side(md, conds):
        right = left
    else:
        right = {}
        for tid, row in instance.rows(md.right_rel):
            right.setdefault(tuple([row[ri] for _, ri, _ in conds]), []).append(tid)
    return match_keys(conds, left, right)


def match_keys(
    conds: list[tuple[int, int, SimilaritySpec]],
    left: dict[tuple[str, ...], list[int]],
    right: dict[tuple[str, ...], list[int]],
) -> list[tuple[list[int], list[int]]]:
    """Link groups from the tids of each left and right link key.

    With equality conjuncts only, a left key links the right key equal to
    it. Otherwise right keys are bucketed on the equality part and the
    value of the first `lev`/`table` conjunct, and a left key visits only
    the buckets of that value's `neighbours`; the remaining conjuncts are
    tested with `similar`, once per pair of keys that reach each other.
    When `right` is `left` itself (both sides read the same columns), a
    group of equal keys is one tid list on both sides, which union_groups
    links as a star once.
    """
    probe = sum(spec.kind == "eq" for _, _, spec in conds)  # key index the index answers
    if probe == len(conds):
        return [(ltids, right[key]) for key, ltids in left.items() if key in right]

    specs = [spec for _, _, spec in conds[probe + 1 :]]
    buckets: dict[tuple, list] = {}
    for key, tids in right.items():
        buckets.setdefault((key[:probe], key[probe]), []).append((key[probe + 1 :], tids))
    near = neighbours(conds[probe][2], {key[probe] for key in (*left, *right)})
    groups = []
    for key, ltids in left.items():
        head, rest_left = key[:probe], key[probe + 1 :]
        for value in near[key[probe]]:
            for rest_right, rtids in buckets.get((head, value), ()):
                if not specs or all(
                    similar(spec, a, b)
                    for spec, a, b in zip(specs, rest_left, rest_right)
                ):
                    groups.append((ltids, rtids))
    return groups


def slot_map(
    d: Instance, positions: list[Position]
) -> tuple[dict[Attr, dict[int, int]], list[str]]:
    """Number the positions: slot i is positions[i].

    Returns one map per attribute from tid to slot, and each slot's value.
    """
    slots: dict[Attr, dict[int, int]] = {}
    values: list[str] = []
    columns: dict[Attr, tuple[dict[int, tuple[str, ...]], int]] = {}
    for i, (tid, attr) in enumerate(positions):
        at = slots.get(attr)
        if at is None:
            at = slots[attr] = {}
            rel, name = attr
            columns[attr] = (d.data[rel], d.schema.relation(rel).index(name))
        at[tid] = i
        table, col = columns[attr]
        values.append(table[tid][col])
    return slots, values


def union_groups(
    ds: DisjointSet[int],
    groups: list[tuple[list[int], list[int]]],
    rhs: tuple[tuple[Attr, Attr], ...],
    slots: Mapping[Attr, Mapping[int, int]],
) -> None:
    """Link the target slots of every group as a star.

    For each target pair, the slot of the first left tuple is the hub, and
    the other |L| - 1 left and the |R| right target slots are each unioned
    with it. A complete bipartite link set is connected, so that gives the
    same classes as the |L| * |R| linked pairs. When the right tids are the
    left list itself and the target pair is one attribute with itself, the
    left star already links every right slot. `slots` maps each attribute
    to {tid: slot}.
    """
    union, add = ds.union, ds.add
    for ltids, rtids in groups:
        t1, others = ltids[0], ltids[1:]
        for left, right in rhs:
            lslot, rslot = slots[left], slots[right]
            hub = lslot[t1]
            for t in others:
                union(lslot[t], hub)
            if rtids is ltids and left == right:
                # a tuple linked only to itself keeps its singleton block
                add(hub)
                continue
            for t in rtids:
                union(hub, rslot[t])


def linked_pairs(md: MD, instance: Instance, sims: Mapping[str, SimilaritySpec]):
    """Ordered tuple pairs (left tid, right tid) satisfying the conditions of md.

    The sorted expansion of link_groups. For a self-matched relation the
    pairs range over all ordered pairs, including a tuple with itself. Each
    pair lies in exactly one group, so each left tid's right tids are
    collected from its groups and sorted, with no pair seen twice.
    """
    rights: dict[int, list[int]] = {}
    for ltids, rtids in link_groups(md, instance, sims):
        for t1 in ltids:
            rights.setdefault(t1, []).extend(rtids)
    pairs: list[tuple[int, int]] = []
    for t1 in sorted(rights):
        pairs += zip(repeat(t1), sorted(rights[t1]))
    return pairs


def feeders(mdset: MDSet, mi: MD) -> list[MD]:
    """mi and every MD with a path to it over the same pair of relations.

    In id order. Conditions type-check only against the same pair, so these
    are the MDs whose linked pairs link the targets of mi.
    """
    pair = (mi.left_rel, mi.right_rel)
    return [
        mj for mj in map(mdset.by_id, sorted(previous_set(mdset.graph, mi.mid)))
        if (mj.left_rel, mj.right_rel) == pair
    ]


def ta_closure(d: Instance, mdset: MDSet) -> TAPartition:
    """Compute the closure partition of d under the MD set.

    Slot i is the i-th changeable position in sorted order. The link groups
    of each feeding MD are unioned over slots; a block is the ascending list
    of its slots, so the blocks come out sorted by their first position, and
    the value counts are read off the same lists.
    """
    universe = d.positions(mdset.changeable)
    slots, values = slot_map(d, universe)
    ds: DisjointSet[int] = DisjointSet(range(len(universe)))
    groups: dict[str, list] = {}
    for mi in mdset.mds:
        for mj in feeders(mdset, mi):
            if mj.mid not in groups:
                groups[mj.mid] = link_groups(mj, d, mdset.sims)
            union_groups(ds, groups[mj.mid], mi.rhs, slots)
    find = ds.find
    members: dict[int, list[int]] = {}
    for i in range(len(universe)):
        members.setdefault(find(i), []).append(i)
    blocks, counts = [], []
    for block in members.values():
        tally: dict[str, int] = {}
        for i in block:
            value = values[i]
            tally[value] = tally.get(value, 0) + 1
        blocks.append(tuple([universe[i] for i in block]))
        counts.append(tuple(sorted(tally.items())))
    return TAPartition(tuple(blocks), tuple(counts))


# ---------------------------------------------------------------------------
# Datalog emission

def _attr_const(attr: Attr) -> str:
    return quote(f"{attr[0]}.{attr[1]}")


def emit_datalog(d: Instance, mdset: MDSet) -> str:
    """Render the closure computation as a datalog program.

    Facts: one `rel_<name>(tid, values...)` atom per tuple and one
    `sim('<md>', t1, t2)` atom per linked tuple pair. Rules: one seed rule
    per (target MD, match pair, feeding MD) triple, then the two closure
    rules over `ta`. Evaluating the program reproduces ta_closure: grouping
    the derived `ta` facts yields the same blocks, which the tests check by
    evaluating it with their reference engine, tests/datalog_engine.py.
    """
    lines = ["% tuple-attribute closure program"]
    lines.append("% relation facts")
    for rschema in d.schema.relations:
        for tid, row in d.rows(rschema.name):
            args = ", ".join([str(tid)] + [quote(v) for v in row])
            lines.append(f"rel_{rschema.name}({args}).")
    lines.append("% per-MD similarity facts over tuple ids")
    for md in mdset.mds:
        # one join writes the facts of a left tuple, whose pairs are adjacent
        for t1, run in groupby(linked_pairs(md, d, mdset.sims), itemgetter(0)):
            head = f"sim({quote(md.mid)}, {t1}, "
            t2s = map(str, map(itemgetter(1), run))
            lines.append(head + (").\n" + head).join(t2s) + ").")
    lines.append("% seed rules: conditions of a feeding MD link the targets")
    for mi in mdset.mds:
        left_arity = d.schema.relation(mi.left_rel).arity
        right_arity = d.schema.relation(mi.right_rel).arity
        left_atom = f"rel_{mi.left_rel}(" + ", ".join(
            ["X"] + [f"X{k}" for k in range(1, left_arity + 1)]
        ) + ")"
        right_atom = f"rel_{mi.right_rel}(" + ", ".join(
            ["Y"] + [f"Y{k}" for k in range(1, right_arity + 1)]
        ) + ")"
        for left, right in mi.rhs:
            for mj in feeders(mdset, mi):
                lines.append(
                    f"eqp(X, {_attr_const(left)}, Y, {_attr_const(right)}) :- "
                    f"{left_atom}, {right_atom}, sim({quote(mj.mid)}, X, Y)."
                )
    lines.append("% closure")
    lines.append("ta(X, A, Y, B) :- eqp(X, A, Y, B).")
    lines.append("ta(X, A, Z, C) :- ta(X, A, Y, B), eqp(Y, B, Z, C).")
    return "\n".join(lines) + "\n"
