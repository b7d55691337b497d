"""Bridge to key-based consistent query answering.

Resolving a relation whose MDs say "equal keys force equal non-key values"
is the same problem as repairing a relation that violates a key constraint.
The bridge makes that concrete: group tuples by key, keep for every non-key
attribute the most frequent values within each group, and take the cross
product per group as the candidate rows. A repair keeps exactly one
candidate row per key group; the minimal resolved instances, read as row
sets, are exactly these repairs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product
from math import prod
from operator import itemgetter

from .errors import InputError
from .relation import Instance, Schema
from .taclosure import majorities


@dataclass(frozen=True)
class KeyedRelation:
    """A relation with a designated key and its majority candidate rows."""

    schema: Schema  # single-relation schema
    rel: str
    key: tuple[str, ...]
    nonkey: tuple[str, ...]
    # One entry per key group: (key values, candidate rows in schema order).
    groups: tuple[tuple[tuple[str, ...], tuple[tuple[str, ...], ...]], ...]

    @cached_property
    def rows(self) -> tuple[tuple[str, ...], ...]:
        """All candidate rows, sorted; the content of the repaired relation."""
        return tuple(sorted(chain.from_iterable(rows for _, rows in self.groups)))

    @property
    def repair_count(self) -> int:
        return prod(map(len, map(itemgetter(1), self.groups)))

    def to_instance(self) -> Instance:
        """The candidate rows as an instance, with tids 1, 2, ... in row
        order, as load_instance assigns them. The rows are not checked
        again: their values come from an instance that was."""
        return Instance(self.schema, {self.rel: dict(enumerate(self.rows, start=1))})


def build_cqa_instance(d: Instance, rel: str, key: list[str] | tuple[str, ...]) -> KeyedRelation:
    """Compute the candidate rows of rel under the given key.

    Per key group and non-key attribute, the candidates are that attribute's
    most frequent values in the group (taclosure.majorities: ties keep all,
    sorted); candidate rows are the per-group cross product. Groups are in
    key order, and each group's rows in sorted order.
    """
    rschema = d.schema.relation(rel)
    key = tuple(key)
    if not key:
        raise InputError("key must name at least one attribute")
    if len(set(key)) != len(key):
        raise InputError(f"key attributes repeat: {key}")
    for attr in key:
        rschema.index(attr)
    nonkey = tuple(a for a in rschema.attrs if a not in key)
    if not nonkey:
        raise InputError(f"key {key} covers every attribute of {rel}")
    key_idx = [rschema.index(a) for a in key]
    nonkey_idx = [rschema.index(a) for a in nonkey]
    # schema order from (key values + a combination of non-key values)
    order = itemgetter(*map((key_idx + nonkey_idx).index, range(rschema.arity)))
    key_of = itemgetter(*key_idx)  # one key attribute: the value, not a 1-tuple
    columns = [itemgetter(i) for i in nonkey_idx]

    # one tally per non-key column of (key, value) pairs over the whole
    # relation; a key's candidates are its majorities in that tally
    table = d.data.get(rel, {}).values()
    keys = list(map(key_of, table))
    pools = [majorities(Counter(zip(keys, map(column, table)))) for column in columns]
    groups = []
    for k in sorted(pools[0]):  # every key has a pool in every column
        key_values = (k,) if len(key_idx) == 1 else k
        # product order is sorted order: the pools are sorted, and the rows
        # agree on the key and keep the non-key attributes in schema order
        combos = product(*[pool[k] for pool in pools])
        groups.append((key_values, tuple(map(order, map(key_values.__add__, combos)))))
    sub_schema = Schema((rschema,))
    return KeyedRelation(sub_schema, rel, key, nonkey, tuple(groups))

