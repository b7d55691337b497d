"""Relational schemas, identified-tuple instances, and change sets.

An instance stores every value as a string; domain tags (`str`, `int`) are
ingest-time validation only. Tuples carry integer identifiers (tids) that are
unique across the whole instance, either read from the data or assigned
densely from 1 in input order. A position is a (tid, attribute) pair and is
the unit in which change sets and the resolution machinery are expressed.
"""

from __future__ import annotations

import codecs
import csv
import gc
import io
import os
import re
import stat
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain, count, filterfalse, islice
from operator import itemgetter
from pathlib import Path
from typing import Callable, Collection, Iterator, Mapping, NamedTuple, Sequence

from .errors import InputError, ParseError

# An attribute is addressed as (relation name, attribute name).
Attr = tuple[str, str]

DOMAIN_TAGS = ("str", "int")

_INT_RE = re.compile(r"^-?\d+$")
_CANONICAL_INT_RE = re.compile(r"0|-?[1-9][0-9]*")  # what str(int(v)) yields
# A CSV tid of at most this many ASCII digits is read in bulk: far below
# sys.get_int_max_str_digits() (640 at the least), so int() cannot refuse it.
_TID_DIGITS = 18


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


_DECLARATION_RE = re.compile(r"^relation\s+([A-Za-z_]\w*)\s*\((.*)\)$")
_ATTRIBUTE_RE = re.compile(r"^\s*([A-Za-z_]\w*)\s*:\s*(\w+)\s*$")


def parse_schema(text: str) -> Schema:
    """Parse schema text: one `relation R(A:str, B:int)` declaration per line."""
    relations = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _DECLARATION_RE.match(line)
        if not m:
            raise ParseError(f"cannot parse schema declaration: {line!r}", lineno)
        name, body = m.group(1), m.group(2).strip()
        if not body:
            raise ParseError(f"relation {name} declares no attributes", lineno)
        attrs, tags = [], []
        for part in body.split(","):
            am = _ATTRIBUTE_RE.match(part)
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


# Input files are opened by their path string and read with os.read: no
# pathlib object and no stat of the path. O_NONBLOCK lets the read of a
# data file, which must be a regular file, open a FIFO without waiting for
# a writer.
_O_READ = os.O_RDONLY | getattr(os, "O_BINARY", 0) | getattr(os, "O_CLOEXEC", 0)
_O_NONBLOCK = getattr(os, "O_NONBLOCK", 0)


class PathName:
    """A path that opens as given and that messages spell as pathlib does,
    str(Path(path)); the spelling is built only when a message is."""

    __slots__ = ("path",)

    def __init__(self, path: str | Path):
        self.path = path

    def __fspath__(self) -> str:
        return os.fspath(self.path)

    def __str__(self) -> str:
        return str(Path(self.path))


def _file_bytes(path: str | Path | PathName, regular: bool = False) -> bytes | None:
    """The bytes of the file at path, read to its end; None when it cannot
    be opened or read, or, with `regular`, when it is not a regular file."""
    try:
        fd = os.open(path, _O_READ | _O_NONBLOCK if regular else _O_READ)
    except OSError:
        return None
    try:
        st = os.fstat(fd)
        if not stat.S_ISREG(st.st_mode):
            if regular:
                return None
            size = 1 << 16
        else:
            size = st.st_size + 1  # one read takes it all; the next finds the end
        chunks = []
        while chunk := os.read(fd, size):
            chunks.append(chunk)
        return b"".join(chunks)
    except OSError:
        return None
    finally:
        os.close(fd)


def _decode(data: bytes, path: object) -> str:
    """A file's bytes as text mode reads them with encoding utf-8-sig: less a
    leading BOM, with `\r\n` and a lone `\r` read as `\n`. Bad bytes raise
    InputError, which names `path` and counts the offset from the file's
    first byte."""
    bom = codecs.BOM_UTF8
    skip = len(bom) if data.startswith(bom) else 0
    try:
        text = data[skip:].decode("utf-8")
    except UnicodeDecodeError as exc:
        if bom.startswith(data):
            return ""  # text mode waits for the rest of a BOM, and reads "" at the end
        start = skip + exc.start
        raise InputError(f"{path}: not UTF-8 text (byte {start}: {exc.reason})") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def read_text(path: str | Path | PathName) -> str:
    """A UTF-8 text file's contents, less any leading BOM, with newlines
    read as text mode reads them; bad bytes raise InputError."""
    data = _file_bytes(path)
    if data is None:
        # read it as pathlib does: an error names the path as pathlib spells
        # it, and a path that only pathlib reads, such as `file/`, is read
        data = Path(path).read_bytes()
    return _decode(data, path)


def read_data_file(directory: str | Path, name: str) -> tuple[str | None, PathName | Path]:
    """The text of the regular file `name` in `directory`, or None when there
    is none; and its path, which messages spell as Path(directory) / name."""
    path = PathName(os.path.join(directory, name))
    data = _file_bytes(path, regular=True)
    if data is None:  # as pathlib reads it: a stat of the path, then a read
        path = Path(directory) / name
        if not os.path.isfile(path):
            return None, path
        data = path.read_bytes()
    return _decode(data, path), path


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

    def rows(self, rel: str) -> Iterator[tuple[int, tuple[str, ...]]]:
        table = self.data.get(rel, {})
        for tid in sorted(table):
            yield tid, table[tid]

    def value(self, pos: Position) -> str:
        rel, attr = pos.attr
        return self.data[rel][pos.tid][self.schema.relation(rel).index(attr)]

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


def _check_value(tag: str, value: str) -> str | None:
    """What is wrong with one cell, or None."""
    if value == "":
        return "blank value"
    if tag == "int" and not _CANONICAL_INT_RE.fullmatch(value):
        return f"{value!r} is not a canonical integer"
    return None


def _cells_pass(rschema: RelationSchema, table: list[tuple[str, ...]]) -> bool:
    """The cell checks of _check_rows, a column at a time: no blank cell,
    and every cell of an `int` column a canonical integer."""
    if "" in chain.from_iterable(table):
        return False
    return all(
        all(map(_CANONICAL_INT_RE.fullmatch, map(itemgetter(col), table)))
        for col, tag in enumerate(rschema.tags)
        if tag == "int"
    )


def _check_rows(
    rschema: RelationSchema, table: list[tuple[str, ...]], where: Callable[[int], str]
) -> None:
    """Check row by row; raises for the first bad row, named where(i) for row i."""
    for i, values in enumerate(table):
        if len(values) != rschema.arity:
            raise InputError(
                f"{where(i)}: expected {rschema.arity} values, got {len(values)}"
            )
        for attr, tag, value in zip(rschema.attrs, rschema.tags, values):
            if problem := _check_value(tag, value):
                raise InputError(f"{where(i)}, attribute {attr}: {problem}")


def _check_tids(tids: Mapping[str, Sequence[int]]) -> set[int]:
    """Check tid by tid; raises for the first bad tid, else returns them all."""
    used: set[int] = set()
    for rel, given in tids.items():
        for tid in given:
            if isinstance(tid, bool) or not isinstance(tid, int) or tid < 1:
                raise InputError(f"relation {rel}: tid {tid!r} is not a positive integer")
            if tid in used:
                raise InputError(f"duplicate tid {tid} (tids are unique across the instance)")
            used.add(tid)
    return used


def load_instance(
    schema: Schema,
    rows: Mapping[str, Sequence[Sequence[str]]],
    tids: Mapping[str, Sequence[int]] | None = None,
) -> Instance:
    """Build an instance from per-relation row lists.

    When `tids` supplies identifiers for a relation they are used (and must be
    unique across the instance); otherwise tids are assigned densely starting
    at 1, in input order, relation by relation in schema order.

    The input is checked in bulk; only when a bulk check fails do the per-row
    checks run, to find and word the first error.
    """
    return _load(schema, rows, tids, lambda rel, i: f"relation {rel}, row {i + 1}")


def _load(
    schema: Schema,
    rows: Mapping,
    tids: Mapping | None,
    where: Callable[[str, int], str],
    read: bool = False,
) -> Instance:
    """load_instance; a bad row i of relation rel is named where(rel, i).

    With `read`, the rows and tids are as _read_csv returns them: lists of
    tuples of str, each of its relation's width, and lists of ints as long
    as their rows. They are then taken as they are, and only their values
    are checked: blank cells, canonical ints, and tids at least 1 and unique.
    """
    tids = tids or {}
    for rel in rows:
        schema.relation(rel)  # raises for unknown names
    for rel in tids:
        schema.relation(rel)
    # every given tid an int (not a bool), at least 1, and unique
    given = list(chain.from_iterable(tids.values()))
    used = set(given) if read or {*map(type, given)} <= {int} else None
    if used is None or len(used) != len(given) or (given and min(given) < 1):
        used = _check_tids(tids)
    fresh = filterfalse(used.__contains__, count(1))  # the dense tids, in order
    data: dict[str, dict[int, tuple[str, ...]]] = {}
    for rschema in schema.relations:
        table = rows.get(rschema.name, [])
        rel_tids = tids.get(rschema.name)
        if not read:
            if rel_tids is not None and len(rel_tids) != len(table):
                raise InputError(
                    f"relation {rschema.name}: {len(rel_tids)} tids for {len(table)} rows"
                )
            table = list(map(tuple, table))
            if not {*map(type, chain.from_iterable(table))} <= {str}:
                table = [tuple(map(str, row)) for row in table]
        if not (
            (read or {*map(len, table)} <= {rschema.arity}) and _cells_pass(rschema, table)
        ):
            _check_rows(rschema, table, partial(where, rschema.name))
        if rel_tids is None:
            rel_tids = islice(fresh, len(table))
        data[rschema.name] = dict(zip(rel_tids, table))
    return Instance(schema, data)


def _plain_tids(raw: list[str]) -> bool:
    """Every tid is 1 to _TID_DIGITS ASCII digits, so int() takes it as is."""
    joined = "".join(raw)
    lengths = {*map(len, raw)}
    return (
        joined.isascii() and joined.isdigit()
        and 0 not in lengths and max(lengths) <= _TID_DIGITS
    )


def _read_records(
    rschema: RelationSchema, records: list[list[str]], with_tid: bool, source: object
):
    """Read record by record; raises for the first bad record.

    Also reads the tids that _plain_tids does not take but int() does, such
    as ` 7` or `-3` (which load_instance then refuses).
    """
    rows: list[tuple[str, ...]] = []
    tids: list[int] = []
    for rownum, record in enumerate(records, start=1):
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
        rows.append(tuple(record))
    return rows, (tids if with_tid else None)


def _read_csv(rschema: RelationSchema, text: str, source: object):
    """One relation's rows, as tuples of str of the schema's width, and its
    tids, as ints (None without a #tid column).

    The records are checked in bulk; the record-by-record loop runs only when
    a bulk check fails. Messages name the file as str(source).
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise InputError(f"{source}: empty file (header row required)") from None
    except csv.Error as exc:
        raise InputError(f"{source}, header row: {exc}") from None
    header = [h.strip() for h in header]
    with_tid = bool(header) and header[0] == "#tid"
    expected = (["#tid"] if with_tid else []) + list(rschema.attrs)
    if header != expected:
        raise InputError(
            f"{source}: header {header!r} does not match schema "
            f"(expected {expected!r})"
        )
    # The cyclic collector would walk the records and rows over and over as
    # they are built, though none can be in a cycle; pause it, and restore
    # the caller's setting.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _read_bulk(rschema, reader, with_tid, len(expected), source)
    finally:
        if enabled:
            gc.enable()


def _read_bulk(rschema: RelationSchema, reader, with_tid: bool, width: int, source: object):
    """_read_csv after the header: the records, checked in bulk."""
    records: list[list[str]] = []
    try:
        records.extend(reader)
    except csv.Error as exc:  # say, a field over csv.field_size_limit()
        _read_records(rschema, records, with_tid, source)  # an earlier bad row comes first
        raise InputError(f"{source}, row {len(records) + 1}: {exc}") from None
    rows = list(filter(None, records))  # a blank line reads as []
    if rows and {*map(len, rows)} != {width}:
        return _read_records(rschema, records, with_tid, source)
    if not with_tid:
        return list(map(tuple, rows)), None
    raw = list(map(itemgetter(0), rows))
    if rows and not _plain_tids(raw):
        return _read_records(rschema, records, with_tid, source)
    values = map(itemgetter(*range(1, width)), rows)
    if rschema.arity == 1:
        values = zip(values)  # itemgetter(1) gives the cell, not a 1-tuple
    return list(values), list(map(int, raw))


def load_csv_dir(schema: Schema, directory: str | Path) -> Instance:
    """Load one `<relation>.csv` per schema relation from a directory.

    What _read_csv has settled (each row a tuple of str of the right width,
    each tid an int) is not checked again."""
    rows: dict[str, list[tuple[str, ...]]] = {}
    tids: dict[str, list[int]] = {}
    for rschema in schema.relations:
        text, path = read_data_file(directory, f"{rschema.name}.csv")
        if text is None:
            raise InputError(f"missing data file for relation {rschema.name}: {path}")
        rel_rows, rel_tids = _read_csv(rschema, text, path)
        rows[rschema.name] = rel_rows
        if rel_tids is not None:
            tids[rschema.name] = rel_tids
    return _load(schema, rows, tids, partial(_csv_row, directory), read=True)


def _csv_row(directory: str | Path, rel: str, i: int) -> str:
    """Row i of rel's file, numbered as _read_csv numbers records (blank ones too)."""
    path = Path(directory) / f"{rel}.csv"
    records = islice(csv.reader(io.StringIO(read_text(path))), 1, None)  # after the header
    rownums = [n for n, record in enumerate(records, start=1) if record]
    return f"{path}, row {rownums[i]}"


def write_csv_dir(instance: Instance, directory: str | Path) -> list[Path]:
    """Write one `<relation>.csv` per relation, with a #tid column, in tid
    order: the bytes of csv.writer's default dialect, each file in one write."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for rschema in instance.schema.relations:
        path = directory / f"{rschema.name}.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            fh.write(_csv_text(rschema.attrs, instance.data.get(rschema.name, {})))
        written.append(path)
    return written


def _csv_text(attrs: tuple[str, ...], table: Mapping[int, tuple[str, ...]]) -> str:
    """A relation's CSV text, header and `\r\n` line ends included, as
    csv.writer's default dialect writes it.

    Each line's cells are joined as they are. That is the writer's text
    unless a cell holds `,`, `"`, `\r` or `\n`, which it quotes, and then
    the text holds more of those than its separators and line ends; in that
    case one csv.writer writes every row."""
    tids = sorted(table)
    rows = list(map(table.__getitem__, tids))
    lines = [",".join(("#tid", *attrs))]
    lines += [f"{tid},{','.join(row)}" for tid, row in zip(tids, rows)]
    lines.append("")
    text = "\r\n".join(lines)
    ends = len(lines) - 1
    if (
        text.count(",") == ends * len(attrs) and '"' not in text
        and text.count("\r") == ends and text.count("\n") == ends
    ):
        return text
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(("#tid", *attrs))
    writer.writerows(map(tuple.__add__, zip(tids), rows))
    return out.getvalue()


def diff_changeset(d: Instance, d2: Instance) -> frozenset[Position]:
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
    return frozenset(changed)


def number_slots(
    d: Instance, attrs: Collection[Attr] | None = None
) -> tuple[dict[Attr, dict[int, int]], list[str]]:
    """Number the positions of d at `attrs` (every attribute when None):
    slot i is the i-th of them in sorted order, by tid and then attribute
    name. Tids are unique across the instance, so a tuple's positions take
    consecutive slots. No Position is built.

    Returns one map per attribute from tid to slot, and each slot's value.
    A relation without tuples has no map.
    """
    names: dict[str, list[str]] = {}
    width: dict[int, int] = {}  # {tid: slots of its tuple}
    for rel, table in d.data.items():
        wanted = sorted(
            a for a in d.schema.relation(rel).attrs if attrs is None or (rel, a) in attrs
        )
        if wanted and table:
            names[rel] = wanted
            width.update(dict.fromkeys(table, len(wanted)))
    tids = sorted(width)
    firsts = dict(zip(tids, accumulate(map(width.__getitem__, tids), initial=0)))
    slots: dict[Attr, dict[int, int]] = {}
    values: list[str] = [""] * sum(width.values())
    for rel, wanted in names.items():
        table = d.data[rel]
        index = d.schema.relation(rel).index
        for j, a in enumerate(wanted):
            at = slots[(rel, a)] = {tid: firsts[tid] + j for tid in table}
            col = index(a)
            for slot, row in zip(at.values(), table.values()):
                values[slot] = row[col]
    return slots, values


def slot_positions(slots: Mapping[Attr, Mapping[int, int]], n: int) -> list[Position]:
    """positions[s] is the position at slot s, for the n slots that
    number_slots numbered as `slots`."""
    positions: list = [None] * n
    for attr, at in slots.items():
        for tid, slot in at.items():
            positions[slot] = Position(tid, attr)
    return positions


def with_slot_values(
    d: Instance, slots: Mapping[Attr, Mapping[int, int]], values: Sequence[str]
) -> Instance:
    """d with every position that `slots` numbers holding values[slot].

    Each relation with a numbered attribute is rebuilt in one pass: its rows
    are read as columns, each numbered column is read off `values`, and the
    rows are zipped back.
    """
    value_of = values.__getitem__
    changed: dict[str, list[tuple[int, Mapping[int, int]]]] = {}
    for (rel, name), at in slots.items():
        changed.setdefault(rel, []).append((d.schema.relation(rel).index(name), at))
    data = {}
    for rel, table in d.data.items():
        if rel not in changed:
            data[rel] = dict(table)
            continue
        columns = list(zip(*table.values()))
        for col, at in changed[rel]:
            columns[col] = map(value_of, map(at.__getitem__, table))
        data[rel] = dict(zip(table, zip(*columns)))
    return Instance(d.schema, data)


def instance_as_json(instance: Instance) -> dict[str, list[list]]:
    out = {}
    for rel in instance.schema.relations:
        table = instance.data.get(rel.name, {})
        out[rel.name] = [[tid, *table[tid]] for tid in sorted(table)]
    return out
