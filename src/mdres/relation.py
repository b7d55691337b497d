"""Relational schemas, identified-tuple instances, and change sets.

An instance stores every value as a string; domain tags (`str`, `int`) are
ingest-time validation only. Tuples carry integer identifiers (tids) that are
unique across the whole instance, either read from the data or assigned
densely from 1 in input order. A position is a (tid, attribute) pair and is
the unit in which change sets and the resolution machinery are expressed.
"""

from __future__ import annotations

import csv
import io
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import InputError, ParseError

# An attribute is addressed as (relation name, attribute name).
Attr = tuple[str, str]

DOMAIN_TAGS = ("str", "int")

_INT_RE = re.compile(r"^-?\d+$")
_CANONICAL_INT_RE = re.compile(r"0|-?[1-9][0-9]*")  # what str(int(v)) yields
_IDENT_RE = re.compile(r"^[A-Za-z_]\w*$")


def format_attr(attr: Attr) -> str:
    return f"{attr[0]}[{attr[1]}]"


class Position(NamedTuple):
    """One cell of an instance: tuple id plus (relation, attribute)."""

    tid: int
    attr: Attr

    def __str__(self) -> str:
        return f"(t{self.tid}, {format_attr(self.attr)})"


@dataclass(frozen=True)
class RelationSchema:
    name: str
    attrs: tuple[str, ...]
    tags: tuple[str, ...]
    _index: dict[str, int] = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {attr: i for i, attr in enumerate(self.attrs)}
        )

    def index(self, attr: str) -> int:
        try:
            return self._index[attr]
        except KeyError:
            raise InputError(
                f"relation {self.name} has no attribute {attr!r}"
            ) from None

    @property
    def arity(self) -> int:
        return len(self.attrs)


@dataclass(frozen=True)
class Schema:
    relations: tuple[RelationSchema, ...]
    _by_name: dict[str, RelationSchema] = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )

    def __post_init__(self):
        by_name: dict[str, RelationSchema] = {}
        for rel in self.relations:
            if rel.name in by_name:
                raise InputError(f"duplicate relation {rel.name!r} in schema")
            by_name[rel.name] = rel
        object.__setattr__(self, "_by_name", by_name)

    def relation(self, name: str) -> RelationSchema:
        try:
            return self._by_name[name]
        except KeyError:
            raise InputError(f"unknown relation {name!r}") from None

    def has_relation(self, name: str) -> bool:
        return name in self._by_name

    def has_attr(self, attr: Attr) -> bool:
        rel, name = attr
        return rel in self._by_name and name in self._by_name[rel].attrs

    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.relations)


def parse_schema(text: str) -> Schema:
    """Parse schema text: one `relation R(A:str, B:int)` declaration per line."""
    relations = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = re.match(r"^relation\s+([A-Za-z_]\w*)\s*\((.*)\)$", line)
        if not m:
            raise ParseError(f"cannot parse schema declaration: {line!r}", lineno)
        name, body = m.group(1), m.group(2).strip()
        if not body:
            raise ParseError(f"relation {name} declares no attributes", lineno)
        attrs, tags = [], []
        for part in body.split(","):
            am = re.match(r"^\s*([A-Za-z_]\w*)\s*:\s*(\w+)\s*$", part)
            if not am:
                raise ParseError(f"cannot parse attribute {part.strip()!r}", lineno)
            attr, tag = am.group(1), am.group(2)
            if tag not in DOMAIN_TAGS:
                raise ParseError(
                    f"unknown domain tag {tag!r} (expected one of {DOMAIN_TAGS})",
                    lineno,
                )
            if attr in attrs:
                raise ParseError(f"duplicate attribute {attr!r} in relation {name}", lineno)
            attrs.append(attr)
            tags.append(tag)
        relations.append(RelationSchema(name, tuple(attrs), tuple(tags)))
    if not relations:
        raise ParseError("schema declares no relations")
    return Schema(tuple(relations))


def read_text(path: str | Path, encoding: str = "utf-8") -> str:
    """The contents of a text file; bytes that do not decode raise InputError."""
    try:
        return Path(path).read_text(encoding=encoding)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def load_schema(path: str | Path) -> Schema:
    return parse_schema(read_text(path))


@dataclass(eq=False)
class Instance:
    """A database instance with identified tuples.

    Treated as immutable: updates go through with_values, which returns a
    fresh instance. Values are opaque strings after ingest.
    """

    schema: Schema
    data: dict[str, dict[int, tuple[str, ...]]]

    def tids(self, rel: str) -> tuple[int, ...]:
        return tuple(sorted(self.data.get(rel, {})))

    def row(self, rel: str, tid: int) -> tuple[str, ...]:
        return self.data[rel][tid]

    def rows(self, rel: str) -> Iterator[tuple[int, tuple[str, ...]]]:
        table = self.data.get(rel, {})
        for tid in sorted(table):
            yield tid, table[tid]

    def value(self, pos: Position) -> str:
        rel, attr = pos.attr
        return self.data[rel][pos.tid][self.schema.relation(rel).index(attr)]

    def positions(self, attrs: Iterable[Attr] | None = None) -> list[Position]:
        """All positions, or those at the given attributes, in sorted order."""
        wanted = None if attrs is None else set(attrs)
        out = []
        for rschema in self.schema.relations:
            cols = [(rschema.name, attr) for attr in rschema.attrs]
            if wanted is not None:
                cols = [a for a in cols if a in wanted]
            if cols:
                tids = sorted(self.data.get(rschema.name, {}))
                out += [Position(tid, a) for tid in tids for a in cols]
        out.sort()
        return out

    def column(self, rel: str, attr: str) -> list[str]:
        idx = self.schema.relation(rel).index(attr)
        return [row[idx] for _, row in self.rows(rel)]

    def active_domain(self) -> set[str]:
        dom: set[str] = set()
        for table in self.data.values():
            for row in table.values():
                dom.update(row)
        return dom

    @property
    def total_tuples(self) -> int:
        return sum(len(t) for t in self.data.values())

    def with_values(self, changes: Mapping[Position, str]) -> "Instance":
        data = {rel: dict(table) for rel, table in self.data.items()}
        for pos, value in changes.items():
            rel, attr = pos.attr
            idx = self.schema.relation(rel).index(attr)
            if pos.tid not in data.get(rel, {}):
                raise InputError(f"no tuple t{pos.tid} in relation {rel}")
            row = list(data[rel][pos.tid])
            row[idx] = value
            data[rel][pos.tid] = tuple(row)
        return Instance(self.schema, data)

    def key(self):
        """Canonical hashable form, used for deduplication and ordering."""
        return tuple(
            (rel.name, tuple(sorted(self.data.get(rel.name, {}).items())))
            for rel in self.schema.relations
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self.schema.names() == other.schema.names() and self.key() == other.key()

    def __hash__(self) -> int:
        return hash((self.schema.names(), self.key()))


def _check_value(rel: RelationSchema, rownum: int, attr: str, tag: str, value: str) -> None:
    if value == "":
        raise InputError(
            f"relation {rel.name}, row {rownum}, attribute {attr}: blank value"
        )
    if tag == "int" and not _CANONICAL_INT_RE.fullmatch(value):
        raise InputError(
            f"relation {rel.name}, row {rownum}, attribute {attr}: "
            f"{value!r} is not a canonical integer"
        )


def load_instance(
    schema: Schema,
    rows: Mapping[str, Sequence[Sequence[str]]],
    tids: Mapping[str, Sequence[int]] | None = None,
) -> Instance:
    """Build an instance from per-relation row lists.

    When `tids` supplies identifiers for a relation they are used (and must be
    unique across the instance); otherwise tids are assigned densely starting
    at 1, in input order, relation by relation in schema order.
    """
    tids = tids or {}
    for rel in rows:
        schema.relation(rel)  # raises for unknown names
    for rel in tids:
        schema.relation(rel)
    used: set[int] = set()
    for rel, given in tids.items():
        for tid in given:
            if not isinstance(tid, int) or tid < 1:
                raise InputError(f"relation {rel}: tid {tid!r} is not a positive integer")
            if tid in used:
                raise InputError(f"duplicate tid {tid} (tids are unique across the instance)")
            used.add(tid)
    data: dict[str, dict[int, tuple[str, ...]]] = {r.name: {} for r in schema.relations}
    counter = 1
    for rschema in schema.relations:
        rel_rows = rows.get(rschema.name, [])
        rel_tids = tids.get(rschema.name)
        if rel_tids is not None and len(rel_tids) != len(rel_rows):
            raise InputError(
                f"relation {rschema.name}: {len(rel_tids)} tids for {len(rel_rows)} rows"
            )
        for i, raw in enumerate(rel_rows):
            values = tuple(str(v) for v in raw)
            if len(values) != rschema.arity:
                raise InputError(
                    f"relation {rschema.name}, row {i + 1}: "
                    f"expected {rschema.arity} values, got {len(values)}"
                )
            for attr, tag, value in zip(rschema.attrs, rschema.tags, values):
                _check_value(rschema, i + 1, attr, tag, value)
            if rel_tids is not None:
                tid = rel_tids[i]
            else:
                while counter in used:
                    counter += 1
                tid = counter
                used.add(tid)
            data[rschema.name][tid] = values
    return Instance(schema, data)


def _read_csv(rschema: RelationSchema, text: str, source: str):
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise InputError(f"{source}: empty file (header row required)") from None
    header = [h.strip() for h in header]
    with_tid = bool(header) and header[0] == "#tid"
    expected = (["#tid"] if with_tid else []) + list(rschema.attrs)
    if header != expected:
        raise InputError(
            f"{source}: header {header!r} does not match schema "
            f"(expected {expected!r})"
        )
    rows: list[list[str]] = []
    tids: list[int] = []
    for rownum, record in enumerate(reader, start=1):
        if not record:
            continue
        if with_tid:
            raw_tid, record = record[0], record[1:]
            if not _INT_RE.match(raw_tid.strip()):
                raise InputError(f"{source}, row {rownum}: bad tid {raw_tid!r}")
            try:
                tids.append(int(raw_tid))
            except ValueError:  # more digits than int() converts
                raise InputError(f"{source}, row {rownum}: tid has too many digits") from None
        if len(record) != rschema.arity:
            raise InputError(
                f"{source}, row {rownum}: expected {rschema.arity} values, "
                f"got {len(record)}"
            )
        rows.append(record)
    return rows, (tids if with_tid else None)


def load_csv_dir(schema: Schema, directory: str | Path) -> Instance:
    """Load one `<relation>.csv` per schema relation from a directory."""
    directory = Path(directory)
    rows: dict[str, list[list[str]]] = {}
    tids: dict[str, list[int]] = {}
    for rschema in schema.relations:
        path = directory / f"{rschema.name}.csv"
        if not os.path.isfile(path):
            raise InputError(f"missing data file for relation {rschema.name}: {path}")
        rel_rows, rel_tids = _read_csv(rschema, read_text(path, "utf-8-sig"), str(path))
        rows[rschema.name] = rel_rows
        if rel_tids is not None:
            tids[rschema.name] = rel_tids
    return load_instance(schema, rows, tids or None)


def write_csv_dir(instance: Instance, directory: str | Path) -> list[Path]:
    """Write one `<relation>.csv` per relation, with a #tid column."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for rschema in instance.schema.relations:
        path = directory / f"{rschema.name}.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["#tid", *rschema.attrs])
            for tid, row in instance.rows(rschema.name):
                writer.writerow([tid, *row])
        written.append(path)
    return written


@dataclass(frozen=True)
class ChangeSet:
    """The set of positions on which two correlated instances differ."""

    positions: frozenset[Position]

    def __len__(self) -> int:
        return len(self.positions)

    def __iter__(self) -> Iterator[Position]:
        return iter(sorted(self.positions))

    def __contains__(self, pos: Position) -> bool:
        return pos in self.positions

    def as_json(self) -> list[list]:
        return [[p.attr[0], p.tid, p.attr[1]] for p in sorted(self.positions)]


def diff_changeset(d: Instance, d2: Instance) -> ChangeSet:
    """Positions where d2 differs from d.

    The instances must be correlated: same relations and the same tids in
    each (resolution never adds or removes tuples, only rewrites values).
    """
    if d.schema.names() != d2.schema.names():
        raise InputError("instances have different relations; cannot diff")
    changed = set()
    for rschema in d.schema.relations:
        left, right = d.data.get(rschema.name, {}), d2.data.get(rschema.name, {})
        if set(left) != set(right):
            raise InputError(
                f"relation {rschema.name}: instances are not correlated "
                "(tuple ids differ)"
            )
        for tid, row in left.items():
            other = right[tid]
            for attr, a, b in zip(rschema.attrs, row, other):
                if a != b:
                    changed.add(Position(tid, (rschema.name, attr)))
    return ChangeSet(frozenset(changed))


def instance_as_json(instance: Instance) -> dict[str, list[list]]:
    return {
        rel.name: [[tid, *row] for tid, row in instance.rows(rel.name)]
        for rel in instance.schema.relations
    }
