"""Tuple-attribute closure: which positions are forced to agree.

For every MD m and every MD m' with a directed path to m (including m
itself), each pair of tuples satisfying the conditions of m' links the
target positions of m. The closure of that link relation partitions the
positions of changeable attributes into blocks; positions in one block take
a single value in any resolved instance reachable without extra edits.

Similarities are always evaluated on the original instance here. That is
what makes the fast resolution path a one-shot computation.

The closure numbers the changeable positions once, in sorted order,
straight off the instance's rows (relation.number_slots, which the chase's
ChaseSpace shares), and merges classes of those slot numbers; no Position
is built unless a caller reads TAPartition.blocks. The chase shares more
than the numbering. Rows are grouped by link key in one loop, `group_tids`,
which the chase runs on a state's values. Linking is one kernel,
`link_targets`, shared with the chase's `resolver.ChaseSpace.link_set`: it
merges the classes of each distinct tid list of the link groups in one
step per target attribute and joins the lists hub to hub, over the
package's one union-find, dsets.DisjointSet, so its work follows the number
of link keys and groups, not the pairs. ta_closure stops at that
union-find: TAPartition holds the slot map, the classes and the slot values,
and builds each further read the first time it is asked for. Every value
read (the rewrite's `slot_winners`; the `pools`, `counts` and `min_change`
that resolve, closure and MRIFamily read) comes from one count of (class,
value) pairs and the package's one majority rule, `majorities`, which
cqa applies to key groups; so answers never lists, sorts or numbers a
block.

Only the datalog program lists pairs. `linked_pairs` gives one run per
left tuple, (left tid, its right tids), and the tuples of one link key
share one right list; `emit_datalog` renders each distinct right list's
texts once and writes a left tuple's `sim` facts with one join, so its
work follows the left tuples and distinct lists, plus the output's length.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Hashable, Iterable, Mapping, Sequence

from .dsets import DisjointSet
from .errors import InputError
from .join import quote, tuple_getter
from .mds import MD, MDSet, previous_set
from .relation import Attr, Instance, Position, Schema, number_slots, slot_positions
from .similarity import SimilaritySpec, neighbours, similar


def majorities(tally: Mapping[tuple[Hashable, str], int]) -> dict[Hashable, list[str]]:
    """The package's one majority rule. From the counts of (group, value)
    pairs, each group's most frequent values: all of them on a tie, sorted.

    A closure block's candidates (TAPartition, whose groups are classes)
    and a key group's candidate values in a column (cqa) both come from it.
    """
    best: dict = {}  # by group: the highest count so far
    tops: dict = {}  # by group: the values that reach it
    for (group, value), n in tally.items():
        top = best.get(group, 0)
        if n > top:
            best[group], tops[group] = n, [value]
        elif n == top:
            tops[group].append(value)
    for at in tops.values():
        if len(at) > 1:
            at.sort()
    return tops


@dataclass(frozen=True, eq=False)
class TAPartition:
    """Partition of the changeable positions, with value frequencies from D.

    ta_closure stops at the union-find, so a partition holds three things:
    `slots`, the numbering of relation.number_slots (per changeable
    attribute of a relation with tuples, {tid: slot}); `classes`, the
    closure's DisjointSet over those slots; and `values`, each slot's value
    in D. Everything else is built on its first read, from those three:

    - `block_slots[i]` is block i, its slots in ascending order, so its
      positions are in sorted order; the blocks are sorted by their first
      position, and unlinked positions are singletons.
    - Every value read comes from one count of (class, value) pairs and
      `majorities` of it: `slot_winners[s]`, the unique most frequent value
      of slot s's block or None on a tie, which is all the rewrite reads;
      `pools[i]`, block i's candidates; `counts[i]`, its (value, count)
      pairs by value; and `min_change`, the changes every MRI makes.
    - `block_of[s]` is the number of the block holding slot s. It, `pools`
      and `counts` number the blocks by one rank map of the classes in
      the order of their first slots, the order of `block_slots`.
    - `blocks` are the blocks as Position tuples, which resolve, closure
      and answers never read.
    """

    slots: Mapping[Attr, Mapping[int, int]]
    classes: DisjointSet
    values: Sequence[str]

    def __len__(self) -> int:
        """The number of blocks: every slot, less the slots each class of two
        or more adds beyond its first."""
        members = self.classes.members
        return len(self.values) - sum(map(len, members.values())) + len(members)

    @cached_property
    def _tally(self) -> Counter:
        """The count of each (class, value) pair."""
        return Counter(zip(self.classes.of, self.values))

    @cached_property
    def _tops(self) -> dict[int, list[str]]:
        """Each class's candidates, by class id."""
        return majorities(self._tally)

    @cached_property
    def _rank(self) -> dict[int, int]:
        """{class id: its block number}, in block order."""
        return {c: i for i, c in enumerate(dict.fromkeys(self.classes.of))}

    @cached_property
    def slot_winners(self) -> list[str | None]:
        """slot_winners[s] is the unique most frequent value of the block
        holding slot s, or None when several values tie for it."""
        winner = {c: top[0] if len(top) == 1 else None for c, top in self._tops.items()}
        return list(map(winner.__getitem__, self.classes.of))

    @cached_property
    def block_slots(self) -> tuple[tuple[int, ...], ...]:
        """Each block's slots in ascending order, blocks by their first slot."""
        return tuple(self.classes.blocks())

    @cached_property
    def counts(self) -> tuple[tuple[tuple[str, int], ...], ...]:
        """Each block's (value, count) pairs, sorted by value."""
        pairs: dict[int, list[tuple[str, int]]] = {}
        for (c, value), n in self._tally.items():
            pairs.setdefault(c, []).append((value, n))
        return tuple([tuple(sorted(pairs[c])) for c in self._rank])

    @cached_property
    def pools(self) -> tuple[tuple[str, ...], ...]:
        """Each block's candidates: its most frequent values, all of them on
        a tie, sorted."""
        tops = self._tops
        return tuple([tuple(tops[c]) for c in self._rank])

    @cached_property
    def block_of(self) -> list[int]:
        """block_of[s] is the number of the block holding slot s."""
        return list(map(self._rank.__getitem__, self.classes.of))

    @cached_property
    def min_change(self) -> int:
        """The changes every MRI makes: the positions of each block that hold
        another value than one of its candidates."""
        tally = self._tally
        return len(self.values) - sum([tally[c, top[0]] for c, top in self._tops.items()])

    @cached_property
    def blocks(self) -> tuple[tuple[Position, ...], ...]:
        """The blocks as tuples of positions."""
        position = slot_positions(self.slots, len(self.values)).__getitem__
        return tuple([tuple(map(position, b)) for b in self.block_slots])


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
    left = _key_tids(instance, md.left_rel, [li for li, _, _ in conds])
    if reads_one_side(md, conds):
        right = left
    else:
        right = _key_tids(instance, md.right_rel, [ri for _, ri, _ in conds])
    return match_keys(conds, left, right)


def _key_tids(
    instance: Instance, rel: str, columns: list[int]
) -> dict[tuple[str, ...], list[int]]:
    """{link key: its tids in ascending order}, a key being a row's values at
    `columns`."""
    table = instance.data.get(rel, {})
    tids = sorted(table)
    return group_tids(tids, map(tuple_getter(columns), map(table.__getitem__, tids)))


def group_tids(
    tids: Iterable[int], keys: Iterable[tuple[str, ...]]
) -> dict[tuple[str, ...], list[int]]:
    """{link key: its tids in the given order}, the i-th tid having the i-th
    key: the one grouping of tuples by link key, over an instance's rows
    (link_groups) or a chase state's values (resolver.ChaseSpace)."""
    groups: dict[tuple[str, ...], list[int]] = {}
    for tid, key in zip(tids, keys):
        at = groups.get(key)
        if at is None:
            groups[key] = [tid]
        else:
            at.append(tid)
    return groups


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
    A key's tid list is one list object in every group of that key, which
    is what lets link_targets star it once. When `right` is `left` itself
    (both sides read the same columns), a group of equal keys is one tid
    list on both sides.
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


def link_targets(
    classes: DisjointSet,
    groups: list[tuple[list[int], list[int]]],
    rhs: tuple[tuple[Attr, Attr], ...],
    slots: Mapping[Attr, Mapping[int, int]],
) -> None:
    """Merge the classes of the target slots that link groups join, over
    `slots` ({tid: slot} per attribute).

    A group (L, R) joins the target slots of L on the left attribute of each
    target pair with those of R on its right attribute. match_keys hands out
    one tid list per link key, and a list sits in every group of its key, so
    each distinct list is starred once per attribute: the classes of its
    slots are merged in one step, and its first slot is its hub. Each group
    then merges the classes of its two hubs once per target pair, unless
    they are one class. That is one step per distinct list and attribute
    plus at most |groups| * |rhs| steps, and the same classes as the
    |L| * |R| linked pairs of every group.
    """
    if not groups:  # a relation without tuples has no slot map
        return
    of, merge = classes.of, classes.merge
    class_of = of.__getitem__
    hubs: dict[Attr, dict[int, int]] = {}  # per attribute {id of a tid list: hub slot}
    for left, right in rhs:
        lhubs, rhubs = hubs.setdefault(left, {}), hubs.setdefault(right, {})
        lslot, rslot = slots[left].__getitem__, slots[right].__getitem__
        for ltids, rtids in groups:
            a = lhubs.get(id(ltids))
            if a is None:
                a = lhubs[id(ltids)] = lslot(ltids[0])
                if len(ltids) > 1:
                    ids = set(map(class_of, map(lslot, ltids)))
                    if len(ids) > 1:
                        merge(ids)
            b = rhubs.get(id(rtids))
            if b is None:
                b = rhubs[id(rtids)] = rslot(rtids[0])
                if len(rtids) > 1:
                    ids = set(map(class_of, map(rslot, rtids)))
                    if len(ids) > 1:
                        merge(ids)
            if a != b and of[a] != of[b]:
                merge({of[a], of[b]})


def linked_pairs(
    md: MD, instance: Instance, sims: Mapping[str, SimilaritySpec]
) -> list[tuple[int, list[int]]]:
    """The tuple pairs satisfying the conditions of md, as one run per left
    tuple that links: (left tid, its right tids ascending), in tid order.

    The sorted expansion of link_groups, left tuple by left tuple. For a
    self-matched relation the pairs range over all ordered pairs, including
    a tuple with itself. match_keys gives every tid of a link key one left
    list, so the right lists of each distinct left list are gathered once
    and their concatenation sorted once; each pair lies in exactly one
    group, so no right tid comes twice. Every tid of that left list gets the
    same right list, and a right list of one group is handed out as is:
    callers share these lists and must not change them.
    """
    gathered: dict[int, tuple[list[int], list[list[int]]]] = {}  # by id of a left list
    for ltids, rtids in link_groups(md, instance, sims):
        at = gathered.get(id(ltids))
        if at is None:
            gathered[id(ltids)] = (ltids, [rtids])
        else:
            at[1].append(rtids)
    runs: dict[int, list[int]] = {}
    for ltids, rlists in gathered.values():
        rights = rlists[0] if len(rlists) == 1 else sorted(chain.from_iterable(rlists))
        runs.update(dict.fromkeys(ltids, rights))
    return sorted(runs.items(), key=itemgetter(0))


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

    The changeable positions are numbered by relation.number_slots. The link
    groups of each feeding MD are built once and merged over the slots by
    one link_targets call, on the target pairs of every MD it feeds. It
    stops there: the partition reads blocks, counts and winners off the
    classes when a caller first asks for them.
    """
    slots, values = number_slots(d, mdset.changeable)
    classes = DisjointSet(len(values))
    targets: dict[str, dict[tuple[Attr, Attr], None]] = {}  # per feeding MD
    for mi in mdset.mds:
        for mj in feeders(mdset, mi):
            targets.setdefault(mj.mid, {}).update(dict.fromkeys(mi.rhs))
    for mid, rhs in targets.items():
        link_targets(classes, link_groups(mdset.by_id(mid), d, mdset.sims), tuple(rhs), slots)
    return TAPartition(slots, classes, values)


# ---------------------------------------------------------------------------
# Datalog emission

def _attr_const(attr: Attr) -> str:
    return quote(f"{attr[0]}.{attr[1]}")


def _relation_facts(lines: list[str], d: Instance, rel: str) -> None:
    """Append one `rel_<rel>(tid, values...)` fact per tuple of rel, in tid
    order.

    join.quote writes a value without a quote as that value between quotes,
    so when no value of the relation holds a quote, a row's values are
    joined between quotes in one step and no value is quoted on its own.
    """
    table = d.data.get(rel, {})
    head = f"rel_{rel}("
    if "'" in "".join(chain.from_iterable(table.values())):
        for tid in sorted(table):
            lines.append(head + ", ".join([str(tid), *map(quote, table[tid])]) + ").")
    else:
        for tid in sorted(table):
            lines.append(f"{head}{tid}, '" + "', '".join(table[tid]) + "').")


def _sim_facts(lines: list[str], md: MD, d: Instance, sims: Mapping[str, SimilaritySpec]) -> None:
    """Append md's `sim` facts, one string per run of linked_pairs.

    The texts of a right list are rendered once and kept only while a later
    left tuple still shares that list.
    """
    runs = linked_pairs(md, d, sims)
    uses = Counter(map(id, map(itemgetter(1), runs)))  # left tuples per right list
    texts: dict[int, list[str]] = {}  # by id of a right list that has uses left
    head = f"sim({quote(md.mid)}, "
    for t1, rights in runs:
        key = id(rights)
        left = uses[key] - 1
        if left:
            uses[key] = left
            rendered = texts.get(key)
            if rendered is None:
                rendered = texts[key] = [f"{t2})." for t2 in rights]
        else:
            rendered = texts.pop(key, None) or [f"{t2})." for t2 in rights]
        start = f"{head}{t1}, "
        lines.append(start + ("\n" + start).join(rendered))


def emit_datalog(d: Instance, mdset: MDSet) -> str:
    """Render the closure computation as a datalog program.

    Facts: one `rel_<name>(tid, values...)` atom per tuple and one
    `sim('<md>', t1, t2)` atom per linked tuple pair. Rules: one seed rule
    per (target MD, match pair, feeding MD) triple, then the two closure
    rules over `ta`. Evaluating the program reproduces ta_closure: grouping
    the derived `ta` facts yields the same blocks, which the tests check by
    evaluating it with their reference engine, tests/datalog_engine.py.

    A row's `rel_` fact is one join over its values. The `sim` facts of a
    left tuple are one join over the texts of its right tids, taken from its
    run of linked_pairs; a right list's texts are rendered once.
    """
    lines = ["% tuple-attribute closure program"]
    lines.append("% relation facts")
    for rschema in d.schema.relations:
        _relation_facts(lines, d, rschema.name)
    lines.append("% per-MD similarity facts over tuple ids")
    for md in mdset.mds:
        _sim_facts(lines, md, d, mdset.sims)
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
