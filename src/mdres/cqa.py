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
from itertools import product

from .errors import InputError
from .relation import Instance, Schema, load_instance
from .taclosure import majority


@dataclass(frozen=True)
class KeyedRelation:
    """A relation with a designated key and its majority candidate rows."""

    schema: Schema  # single-relation schema
    rel: str
    key: tuple[str, ...]
    nonkey: tuple[str, ...]
    # One entry per key group: (key values, candidate rows in schema order).
    groups: tuple[tuple[tuple[str, ...], tuple[tuple[str, ...], ...]], ...]

    @property
    def rows(self) -> tuple[tuple[str, ...], ...]:
        """All candidate rows, sorted; the content of the repaired relation."""
        return tuple(sorted(row for _, rows in self.groups for row in rows))

    @property
    def repair_count(self) -> int:
        n = 1
        for _, rows in self.groups:
            n *= len(rows)
        return n

    def to_instance(self) -> Instance:
        return load_instance(self.schema, {self.rel: [list(r) for r in self.rows]})


def build_cqa_instance(d: Instance, rel: str, key: list[str] | tuple[str, ...]) -> KeyedRelation:
    """Compute the candidate rows of rel under the given key.

    Per key group and non-key attribute, the candidates are that attribute's
    most frequent values in the group (ties keep all); candidate rows are the
    per-group cross product.
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

    grouped: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
    for _, row in d.rows(rel):
        grouped.setdefault(tuple(row[i] for i in key_idx), []).append(row)

    groups = []
    for key_values in sorted(grouped):
        members = grouped[key_values]
        pools = [majority(Counter(row[i] for row in members).items()) for i in nonkey_idx]
        rows = []
        for combo in product(*pools):
            row = [""] * rschema.arity
            for attr_i, v in zip(key_idx, key_values):
                row[attr_i] = v
            for attr_i, v in zip(nonkey_idx, combo):
                row[attr_i] = v
            rows.append(tuple(row))
        groups.append((key_values, tuple(sorted(rows))))
    sub_schema = Schema((rschema,))
    return KeyedRelation(sub_schema, rel, key, nonkey, tuple(groups))


def enumerate_key_repairs(kr: KeyedRelation) -> list[Instance]:
    """All repairs: one candidate row per key group, as instances."""
    pools = [rows for _, rows in kr.groups]
    repairs = []
    for combo in product(*pools):
        rows = sorted(combo)
        repairs.append(load_instance(kr.schema, {kr.rel: [list(r) for r in rows]}))
    repairs.sort(key=Instance.key)
    return repairs
