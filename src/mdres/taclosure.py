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

from dataclasses import dataclass, field
from typing import Mapping

from .dsets import DisjointSet
from .errors import InputError
from .mds import MD, MDSet, previous_set
from .relation import Attr, Instance, Position
from .similarity import SimilaritySpec, neighbours, similar


@dataclass(frozen=True)
class TAPartition:
    """Partition of the changeable positions, with value frequencies from D.

    Blocks are tuples of positions in sorted order; the block list is sorted
    by each block's first position. Unlinked positions appear as singletons.
    """

    blocks: tuple[tuple[Position, ...], ...]
    counts: tuple[tuple[tuple[str, int], ...], ...]
    _block_index: dict[Position, int] = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )
    _attr_index: dict[Attr, tuple[int, ...]] = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )

    def __post_init__(self):
        block_index: dict[Position, int] = {}
        attr_index: dict[Attr, list[int]] = {}
        for i, block in enumerate(self.blocks):
            for p in block:
                block_index[p] = i
            for attr in {p.attr for p in block}:
                attr_index.setdefault(attr, []).append(i)
        object.__setattr__(self, "_block_index", block_index)
        object.__setattr__(
            self, "_attr_index", {a: tuple(ix) for a, ix in attr_index.items()}
        )

    def __len__(self) -> int:
        return len(self.blocks)

    def block_of(self, pos: Position) -> int:
        try:
            return self._block_index[pos]
        except KeyError:
            raise InputError(f"position {pos} is not in the partition") from None

    def blocks_at(self, attr: Attr) -> tuple[int, ...]:
        return self._attr_index.get(attr, ())

    def candidates(self, i: int) -> tuple[str, ...]:
        """Most frequent values of block i, sorted."""
        best = max(n for _, n in self.counts[i])
        return tuple(sorted(v for v, n in self.counts[i] if n == best))

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


def link_groups(
    md: MD, instance: Instance, sims: Mapping[str, SimilaritySpec]
) -> list[tuple[list[int], list[int]]]:
    """Groups (left tids, right tids) of tuples satisfying the conditions of md.

    Every cross pair inside a group satisfies the conditions, and every
    satisfying pair lies in exactly one group. Rows are grouped by their
    condition values (`=`/`eq` conjuncts first). With equality conjuncts
    only, a left key links the right key equal to it. Otherwise right keys
    are bucketed on the equality part and the value of the first `lev`/
    `table` conjunct, and a left key visits only the buckets of that value's
    `neighbours`; the remaining conjuncts are tested with `similar`, once
    per pair of keys that reach each other. For a self-matched relation the
    pairs include a tuple with itself.
    """
    eq, rest = [], []
    for c in md.lhs:
        li = instance.schema.relation(c.left[0]).index(c.left[1])
        ri = instance.schema.relation(c.right[0]).index(c.right[1])
        try:
            spec = sims[c.sim]
        except KeyError:
            raise InputError(f"no similarity spec for {c.sim!r}") from None
        (eq if spec.kind == "eq" else rest).append((li, ri, spec))
    conds = eq + rest

    left: dict[tuple[str, ...], list[int]] = {}
    for tid, row in instance.rows(md.left_rel):
        left.setdefault(tuple([row[li] for li, _, _ in conds]), []).append(tid)
    right: dict[tuple[str, ...], list[int]] = {}
    for tid, row in instance.rows(md.right_rel):
        right.setdefault(tuple([row[ri] for _, ri, _ in conds]), []).append(tid)
    if not rest:
        return [(ltids, right[key]) for key, ltids in left.items() if key in right]

    probe = len(eq)  # key index of the conjunct the index answers
    specs = [spec for _, _, spec in rest[1:]]
    buckets: dict[tuple, list] = {}
    for key, tids in right.items():
        buckets.setdefault((key[:probe], key[probe]), []).append((key[probe + 1 :], tids))
    near = neighbours(rest[0][2], {key[probe] for key in (*left, *right)})
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

    For each target pair, the slot of the first left tuple is the hub and
    the |L| + |R| target slots are each unioned with it. A complete
    bipartite link set is connected, so that gives the same classes as the
    |L| * |R| linked pairs. `slots` maps each attribute to {tid: slot}.
    """
    union = ds.union
    for ltids, rtids in groups:
        t1 = ltids[0]
        for left, right in rhs:
            lslot, rslot = slots[left], slots[right]
            hub = lslot[t1]
            for t in ltids:
                union(lslot[t], hub)
            for t in rtids:
                union(hub, rslot[t])


def linked_pairs(md: MD, instance: Instance, sims: Mapping[str, SimilaritySpec]):
    """Ordered tuple pairs (left tid, right tid) satisfying the conditions of md.

    The sorted expansion of link_groups. For a self-matched relation the
    pairs range over all ordered pairs, including a tuple with itself.
    """
    return sorted(
        (t1, t2)
        for ltids, rtids in link_groups(md, instance, sims)
        for t1 in ltids
        for t2 in rtids
    )


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
    graph = mdset.graph
    groups: dict[str, list] = {}
    for mi in mdset.mds:
        feeders = sorted(previous_set(graph, mi.mid))
        for mj_id in feeders:
            mj = mdset.by_id(mj_id)
            if (mj.left_rel, mj.right_rel) != (mi.left_rel, mi.right_rel):
                continue  # conditions type-check only against the same pair
            if mj_id not in groups:
                groups[mj_id] = link_groups(mj, d, mdset.sims)
            union_groups(ds, groups[mj_id], mi.rhs, slots)
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

def _quote(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def _attr_const(attr: Attr) -> str:
    return _quote(f"{attr[0]}.{attr[1]}")


def emit_datalog(d: Instance, mdset: MDSet) -> str:
    """Render the closure computation as a datalog program.

    Facts: one `rel_<name>(tid, values...)` atom per tuple and one
    `sim('<md>', t1, t2)` atom per linked tuple pair. Rules: one seed rule
    per (target MD, match pair, feeding MD) triple, then the two closure
    rules over `ta`. Evaluating the program reproduces ta_closure: grouping
    the derived `ta` facts yields the same blocks.
    """
    lines = ["% tuple-attribute closure program"]
    lines.append("% relation facts")
    for rschema in d.schema.relations:
        for tid, row in d.rows(rschema.name):
            args = ", ".join([str(tid)] + [_quote(v) for v in row])
            lines.append(f"rel_{rschema.name}({args}).")
    lines.append("% per-MD similarity facts over tuple ids")
    for md in mdset.mds:
        for t1, t2 in sorted(linked_pairs(md, d, mdset.sims)):
            lines.append(f"sim('{md.mid}', {t1}, {t2}).")
    lines.append("% seed rules: conditions of a feeding MD link the targets")
    graph = mdset.graph
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
            for mj_id in sorted(previous_set(graph, mi.mid)):
                mj = mdset.by_id(mj_id)
                if (mj.left_rel, mj.right_rel) != (mi.left_rel, mi.right_rel):
                    continue
                lines.append(
                    f"eqp(X, {_attr_const(left)}, Y, {_attr_const(right)}) :- "
                    f"{left_atom}, {right_atom}, sim('{mj.mid}', X, Y)."
                )
    lines.append("% closure")
    lines.append("ta(X, A, Y, B) :- eqp(X, A, Y, B).")
    lines.append("ta(X, A, Z, C) :- ta(X, A, Y, B), eqp(Y, B, Z, C).")
    return "\n".join(lines) + "\n"


def datalog_partition(d: Instance, mdset: MDSet) -> tuple[tuple[Position, ...], ...]:
    """Evaluate the emitted program and read the partition off the ta facts.

    Used to cross-check ta_closure; the two must agree exactly.
    """
    from .datalog import evaluate, parse_program

    program = parse_program(emit_datalog(d, mdset))
    derived = evaluate(program)
    ds: DisjointSet[Position] = DisjointSet(d.positions(mdset.changeable))
    for t1, a1, t2, a2 in derived.get("ta", set()):
        rel1, attr1 = str(a1).split(".", 1)
        rel2, attr2 = str(a2).split(".", 1)
        ds.union(Position(int(t1), (rel1, attr1)), Position(int(t2), (rel2, attr2)))
    return tuple(sorted(tuple(sorted(g)) for g in ds.groups()))
