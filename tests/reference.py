"""Slow, definition-shaped reference implementations.

These deliberately avoid the package's algorithms (union-find, semi-naive
evaluation, block counters) so that agreement is meaningful: each function
walks the defining condition directly, however inefficiently.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import re
from collections import Counter
from pathlib import Path

from mdres import (
    BoundsExceededError,
    InputError,
    Instance,
    MDSet,
    OracleBounds,
    ParseError,
    diff_changeset,
)
from mdres.join import quote
from mdres.query import Const
from mdres.relation import Position
from mdres.resolver import _fresh_params
from mdres.taclosure import emit_datalog


# ---------------------------------------------------------------------------
# Instance helpers that only the tests read

def ref_tids(instance: Instance, rel: str) -> tuple[int, ...]:
    """The tids of rel, ascending."""
    return tuple(sorted(instance.data.get(rel, {})))


def ref_row(instance: Instance, rel: str, tid: int) -> tuple[str, ...]:
    return instance.data[rel][tid]


def ref_column(instance: Instance, rel: str, attr: str) -> list[str]:
    """The values of rel at attr, in tid order."""
    idx = instance.schema.relation(rel).index(attr)
    return [row[idx] for _, row in instance.rows(rel)]


def ref_positions(instance: Instance, attrs=None) -> list[Position]:
    """All positions, or those at the given attributes, in sorted order."""
    wanted = None if attrs is None else set(attrs)
    out = []
    for rschema in instance.schema.relations:
        cols = [(rschema.name, attr) for attr in rschema.attrs]
        if wanted is not None:
            cols = [a for a in cols if a in wanted]
        tids = ref_tids(instance, rschema.name)
        out += [Position(tid, a) for tid in tids for a in cols]
    out.sort()
    return out


def ref_read_text(path) -> str:
    """A file read in text mode by pathlib, encoding utf-8-sig; a bad byte
    raises InputError with its offset in the file, BOM included."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        bom = codecs.BOM_UTF8  # utf-8-sig counts the bytes after it
        start = exc.start + (len(bom) if Path(path).read_bytes().startswith(bom) else 0)
        raise InputError(f"{path}: not UTF-8 text (byte {start}: {exc.reason})") from None


# The lexer of MD text and query text read by a `finditer` loop: one named
# group per token kind, `ident` tried last.
REF_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<impl>:-)
  | (?P<arrow>->)
  | (?P<matcheq>==)
  | (?P<eq>=)
  | (?P<tilde>~)
  | (?P<comma>,)
  | (?P<semi>;)
  | (?P<dot>\.)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<lbrack>\[)
  | (?P<rbrack>\])
  | (?P<number>-?\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<bad>.)
""",
    re.VERBOSE,
)


def ref_tokens(text: str, what: str) -> list[tuple[str, str]]:
    """The (kind, text) tokens of text, less blanks and comments, then the
    end sentinel; ParseError at the first character no token takes."""
    tokens = []
    for m in REF_TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r} in {what}")
        if m.lastgroup not in ("ws", "comment"):
            tokens.append((m.lastgroup, m.group()))
    return tokens + [("end", "end of input")]


def ref_read_csv(rschema, text: str, source: str):
    """One relation's CSV text read record by record: (rows, tids or None)."""
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
            if not re.match(r"^-?\d+$", raw_tid.strip()):
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


def ref_load_instance(schema, rows, tids=None, where=None) -> Instance:
    """An instance built row by row and checked cell by cell; a bool is not
    a tid. Messages name row i of relation rel where(rel, i), by default
    `relation rel, row i + 1`."""
    if where is None:
        where = lambda rel, i: f"relation {rel}, row {i + 1}"  # noqa: E731
    tids = tids or {}
    for rel in rows:
        schema.relation(rel)  # raises for unknown names
    for rel in tids:
        schema.relation(rel)
    used: set[int] = set()
    for rel, given in tids.items():
        for tid in given:
            if isinstance(tid, bool) or not isinstance(tid, int) or tid < 1:
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
            row = where(rschema.name, i)
            if len(values) != rschema.arity:
                raise InputError(
                    f"{row}: expected {rschema.arity} values, got {len(values)}"
                )
            for attr, tag, value in zip(rschema.attrs, rschema.tags, values):
                cell = f"{row}, attribute {attr}"
                if value == "":
                    raise InputError(f"{cell}: blank value")
                if tag == "int" and not re.fullmatch(r"0|-?[1-9][0-9]*", value):
                    raise InputError(f"{cell}: {value!r} is not a canonical integer")
            if rel_tids is not None:
                tid = rel_tids[i]
            else:
                while counter in used:
                    counter += 1
                tid = counter
                used.add(tid)
            data[rschema.name][tid] = values
    return Instance(schema, data)


def ref_levenshtein(a: str, b: str) -> int:
    if not a:
        return len(b)
    if not b:
        return len(a)
    table = {}

    def dist(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        if (i, j) not in table:
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[(i, j)] = min(
                dist(i - 1, j) + 1,
                dist(i, j - 1) + 1,
                dist(i - 1, j - 1) + cost,
            )
        return table[(i, j)]

    return dist(len(a), len(b))


def ref_similar(spec, a: str, b: str) -> bool:
    """A similarity from its definition: equality, the full edit distance
    against the bound, or membership in the (reflexive) table."""
    if spec.kind == "eq":
        return a == b
    if spec.kind == "lev":
        return ref_levenshtein(a, b) <= spec.max_distance
    return a == b or (a, b) in spec.pairs


def ref_verify_transitivity(spec, domain) -> list[tuple[str, str, str]]:
    """Violating triples (x, y, z), x < z, by trying every middle value."""
    values = sorted(set(domain))
    if spec.kind == "eq":
        return []
    violations = []
    for i, x in enumerate(values):
        for z in values[i + 1 :]:
            if ref_similar(spec, x, z):
                continue
            for y in values:
                if y == x or y == z:
                    continue
                if ref_similar(spec, x, y) and ref_similar(spec, y, z):
                    violations.append((x, y, z))
    violations.sort()
    return violations


def _lhs_pairs(md, instance: Instance, sims):
    """Ordered tuple-id pairs satisfying the similarity condition of one MD."""
    left = ref_tids(instance, md.left_rel)
    right = ref_tids(instance, md.right_rel)
    out = []
    for t1, t2 in itertools.product(left, right):
        ok = True
        for conj in md.lhs:
            spec = sims[conj.sim]
            v1 = instance.value(Position(t1, conj.left))
            v2 = instance.value(Position(t2, conj.right))
            if not ref_similar(spec, v1, v2):
                ok = False
                break
        if ok:
            out.append((t1, t2))
    return out


def run_pairs(runs) -> list[tuple[int, int]]:
    """The (left tid, right tid) pairs of linked_pairs' runs, in order,
    after checking the runs' shape: left tids strictly ascending, and each
    right list non-empty and strictly ascending."""
    lefts = [t1 for t1, _ in runs]
    assert all(a < b for a, b in zip(lefts, lefts[1:])), lefts
    pairs = []
    for t1, rights in runs:
        assert rights and all(a < b for a, b in zip(rights, rights[1:])), (t1, rights)
        pairs.extend((t1, t2) for t2 in rights)
    return pairs


def ref_emit_datalog(d: Instance, mdset: MDSet) -> str:
    """The program emit_datalog prints, its facts written one at a time: a
    `rel_` fact per row of Instance.rows, quoting every cell, and a `sim`
    fact per pair of _lhs_pairs. Only the seed-rule and closure lines are
    the package's own text."""
    lines = ["% tuple-attribute closure program", "% relation facts"]
    for rschema in d.schema.relations:
        for tid, row in d.rows(rschema.name):
            args = [str(tid)] + [quote(v) for v in row]
            lines.append(f"rel_{rschema.name}({', '.join(args)}).")
    lines.append("% per-MD similarity facts over tuple ids")
    for md in mdset.mds:
        for t1, t2 in _lhs_pairs(md, d, mdset.sims):
            lines.append(f"sim({quote(md.mid)}, {t1}, {t2}).")
    text = emit_datalog(d, mdset)
    rules = text[text.rindex("\n% seed rules: ") :]
    return "\n".join(lines) + rules


def ref_linked_position_pairs(instance: Instance, mdset: MDSet):
    """All position pairs related by some MD's matching on this instance."""
    pairs = set()
    for md in mdset.mds:
        for t1, t2 in _lhs_pairs(md, instance, mdset.sims):
            for left, right in md.rhs:
                p = Position(t1, left)
                q = Position(t2, right)
                pairs.add((p, q))
                pairs.add((q, p))
    return pairs


def ref_merge_blocks(instance: Instance, mdset: MDSet):
    """(positions, sorted distinct values) of every block of two positions
    or more that the MDs link on the instance, in sorted order.

    The blocks are the connected components of ref_linked_position_pairs,
    found by a plain BFS. A self-pair (an MD over one relation links each
    position with itself) adds no edge.
    """
    adj: dict[Position, set[Position]] = {}
    for p, q in ref_linked_position_pairs(instance, mdset):
        if p != q:
            adj.setdefault(p, set()).add(q)
    seen: set[Position] = set()
    blocks = []
    for start in sorted(adj):
        if start in seen:
            continue
        comp = []
        queue = [start]
        seen.add(start)
        while queue:
            node = queue.pop()
            comp.append(node)
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        blocks.append((
            tuple(sorted(comp)),
            tuple(sorted({instance.value(p) for p in comp})),
        ))
    return sorted(blocks)


def ref_modifiable(instance: Instance, mdset: MDSet) -> frozenset[Position]:
    """Least fixpoint of the recursive modifiability condition.

    A position is modifiable when it is linked to a position holding a
    different value, or to one already known to be modifiable.
    """
    linked = ref_linked_position_pairs(instance, mdset)
    current: set[Position] = set()
    changed = True
    while changed:
        changed = False
        for p, q in linked:
            if p in current:
                continue
            if instance.value(p) != instance.value(q) or q in current:
                current.add(p)
                changed = True
    return frozenset(current)


def ref_stable(instance: Instance, mdset: MDSet) -> bool:
    """Directly: every similarity-satisfying pair already agrees on targets."""
    for md in mdset.mds:
        for t1, t2 in _lhs_pairs(md, instance, mdset.sims):
            for left, right in md.rhs:
                if instance.value(Position(t1, left)) != instance.value(Position(t2, right)):
                    return False
    return True


def ref_ta_blocks(instance: Instance, mdset: MDSet):
    """Tuple-attribute closure as a reachability computation.

    Builds the seed edge set position by position, then takes connected
    components with a plain BFS instead of union-find.
    """
    adj: dict[Position, set[Position]] = {}
    universe = [
        Position(tid, attr)
        for attr in sorted(mdset.changeable)
        for tid in ref_tids(instance, attr[0])
    ]
    for p in universe:
        adj[p] = set()
    reach = ref_reach(mdset.graph.vertices, mdset.graph.edges)
    for target in mdset.mds:
        feeders = {target.mid} | {v for v, ends in reach.items() if target.mid in ends}
        for feeder_id in sorted(feeders):
            feeder = mdset.by_id(feeder_id)
            if (feeder.left_rel, feeder.right_rel) != (target.left_rel, target.right_rel):
                continue
            for t1, t2 in _lhs_pairs(feeder, instance, mdset.sims):
                for left, right in target.rhs:
                    p = Position(t1, left)
                    q = Position(t2, right)
                    adj[p].add(q)
                    adj[q].add(p)
    seen: set[Position] = set()
    blocks = []
    for start in universe:
        if start in seen:
            continue
        comp = []
        queue = [start]
        seen.add(start)
        while queue:
            node = queue.pop()
            comp.append(node)
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        blocks.append(tuple(sorted(comp)))
    return tuple(sorted(blocks))


def ref_partition_json(part) -> list[dict]:
    """The `blocks` that closure and resolve print, as dicts (what
    TAPartition.as_json built before the CLI wrote them from the partition's
    arrays), read off the partition's Position blocks and value counts."""
    out = []
    for block, counts in zip(part.blocks, part.counts):
        best = max(n for _, n in counts)
        out.append({
            "positions": [[p.attr[0], p.tid, p.attr[1]] for p in block],
            "values": dict(counts),
            "candidates": sorted(v for v, n in counts if n == best),
        })
    return out


def ref_closure_text(blocks: list[dict]) -> list[str]:
    """The lines of `closure --format text` for ref_partition_json's blocks."""
    return [
        "block " + " ".join(f"{r}.t{t}.{a}" for r, t, a in block["positions"])
        + " | " + ", ".join(f"{v}:{n}" for v, n in sorted(block["values"].items()))
        for block in blocks
    ]


def ref_reach(vertices, edges) -> dict[str, set[str]]:
    """Each vertex's set of vertices at the end of a path of length >= 1
    from it: the transitive closure of the edges by Warshall's algorithm."""
    reach = {v: {b for a, b in edges if a == v} for v in vertices}
    for k in vertices:
        for i in vertices:
            if k in reach[i]:
                reach[i] |= reach[k]
    return reach


def ref_eval_cq(q, d: Instance) -> set[tuple[str, ...]]:
    """Direct answers by nested loops: every row of each atom is tried
    against every partial binding."""
    results: set[tuple[str, ...]] = set()

    def rec(k: int, binding: dict):
        if k == len(q.atoms):
            results.add(tuple(binding[v.name] for v in q.head))
            return
        atom = q.atoms[k]
        for _, row in d.rows(atom.rel):
            nb = binding
            copied = False
            ok = True
            for term, value in zip(atom.terms, row):
                if isinstance(term, Const):
                    if term.value != value:
                        ok = False
                        break
                else:
                    bound = nb.get(term.name)
                    if bound is None:
                        if not copied:
                            nb = dict(nb)
                            copied = True
                        nb[term.name] = value
                    elif bound != value:
                        ok = False
                        break
            if ok:
                rec(k + 1, nb)

    rec(0, {})
    return results


def ref_certain_answers(query, instances) -> frozenset[tuple[str, ...]]:
    """Intersection of the direct answers over a family of instances."""
    result: frozenset | None = None
    for inst in instances:
        answers = frozenset(ref_eval_cq(query, inst))
        result = answers if result is None else (result & answers)
        if not result:
            break
    return result if result is not None else frozenset()


def ref_write_csv(instance: Instance, rel: str) -> str:
    """The text of rel's exported CSV: a #tid header, then one
    csv.writer.writerow per tuple, in tid order."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["#tid", *instance.schema.relation(rel).attrs])
    for tid, row in instance.rows(rel):
        writer.writerow([tid, *row])
    return out.getvalue()


def ref_cqa_groups(instance: Instance, rel: str, key: tuple[str, ...]):
    """The candidate groups of a keyed relation, group by group: the rows
    sorted on the key and grouped, one Counter per group and non-key
    column, and each group's rows the cross product of its columns'
    most frequent values, in schema order. Groups come in key order."""
    attrs = instance.schema.relation(rel).attrs
    key_idx = [attrs.index(a) for a in key]
    key_of = lambda row: tuple(row[i] for i in key_idx)  # noqa: E731
    table = sorted(instance.data.get(rel, {}).values(), key=key_of)
    groups = []
    for key_values, members in itertools.groupby(table, key_of):
        members = list(members)
        pools = []
        for idx, attr in enumerate(attrs):
            if attr in key:
                pools.append([members[0][idx]])
                continue
            counts = Counter(row[idx] for row in members)
            best = max(counts.values())
            pools.append(sorted(v for v, n in counts.items() if n == best))
        groups.append((key_values, tuple(itertools.product(*pools))))
    return tuple(groups)


def ref_key_repairs(instance: Instance, rel: str, key: tuple[str, ...]):
    """Brute-force majority repairs of a keyed relation, as row sets."""
    attrs = instance.schema.relation(rel).attrs
    key_idx = [attrs.index(a) for a in key]
    nonkey = [a for a in attrs if a not in key]
    groups: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
    for tid in ref_tids(instance, rel):
        row = ref_row(instance, rel, tid)
        groups.setdefault(tuple(row[i] for i in key_idx), []).append(row)
    per_group: list[list[tuple[str, ...]]] = []
    for key_vals in sorted(groups):
        rows = groups[key_vals]
        pools = []
        for attr in attrs:
            idx = attrs.index(attr)
            if attr in key:
                pools.append([rows[0][idx]])
                continue
            counts = Counter(r[idx] for r in rows)
            best = max(counts.values())
            pools.append(sorted(v for v, c in counts.items() if c == best))
        per_group.append([tuple(choice) for choice in itertools.product(*pools)])
    repairs = []
    for combo in itertools.product(*per_group):
        repairs.append(frozenset(combo))
    return sorted(repairs, key=sorted)


# The reference oracle rebuilds and relinks an Instance for every state, so
# it is kept to instances this small.
REF_ORACLE_MAX_TUPLES = 12


class _RefCells:
    """The fixed cell layout of the reference oracle's chase states: the tuple
    of values at the positions of d in sorted order."""

    def __init__(self, d: Instance):
        self.schema = d.schema
        self.positions = ref_positions(d)
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


def ref_successors(values, blocks, sentinel: str, base: int, k: int):
    """Successors of a chase state, in product order, with fresh values renamed.

    `blocks` lists (slots, sorted distinct values) of every open block. Each
    block takes one of its values or a fresh run of the sentinel numbered
    past the state's fresh values; then every fresh value is renamed, slot by
    slot, onto the ladder by first occurrence. A stable state has none.
    """
    if not blocks:
        return []
    used = len({v for v in values if sentinel in v})
    pools = [
        pool + (sentinel * (base + (k + 1) * (used + i + 1)),)
        for i, (_, pool) in enumerate(blocks)
    ]
    out = []
    for combo in itertools.product(*pools):
        succ = list(values)
        for (slots, _), value in zip(blocks, combo):
            for i in slots:
                succ[i] = value
        mapping: dict[str, str] = {}
        for i, value in enumerate(succ):
            if sentinel in value:
                if value not in mapping:
                    mapping[value] = sentinel * (base + (k + 1) * (len(mapping) + 1))
                succ[i] = mapping[value]
        out.append(tuple(succ))
    return out


def ref_enumerate_mris_oracle(
    d: Instance, mdset: MDSet, bounds: OracleBounds | None = None
) -> tuple[list[Instance], int]:
    """The chase oracle with the merge partition recomputed on every state.

    Each unseen state is rebuilt as an Instance and linked by
    ref_merge_blocks, pair by pair from the MDs' definition, with no linker
    or union-find from the package; the change set is diffed instance
    against instance. The bounds are checked in the same order, with the
    same messages, as enumerate_mris_oracle. Past REF_ORACLE_MAX_TUPLES
    tuples it refuses with ValueError: that is a budget on the test's time,
    so a test that passes a larger instance is wrong, not the package.
    """
    if d.total_tuples > REF_ORACLE_MAX_TUPLES:
        raise ValueError(
            f"the reference oracle takes at most {REF_ORACLE_MAX_TUPLES} tuples, "
            f"got {d.total_tuples}"
        )
    b = bounds or OracleBounds()
    sentinel, base, k = _fresh_params(d.active_domain(), mdset.sims)
    cells = _RefCells(d)
    start = cells.values(d)
    width = len(start) or 1
    max_states = b.max_cells // width
    visited = {start}
    frontier = [(d, start)]
    stable: list[Instance] = []
    while frontier:
        next_frontier = []
        for inst, values in frontier:
            open_blocks = [
                (positions, pool)
                for positions, pool in ref_merge_blocks(inst, mdset)
                if len(pool) > 1
            ]
            if not open_blocks:
                stable.append(inst)
                continue
            for positions, pool in open_blocks:
                if len(pool) + 1 > b.max_values:
                    raise BoundsExceededError(
                        f"block at {positions[0]} offers "
                        f"{len(pool) + 1} assignments, bound is {b.max_values}"
                    )
            blocks = [
                ([cells.slot[pos] for pos in positions], pool)
                for positions, pool in open_blocks
            ]
            for key in ref_successors(values, blocks, sentinel, base, k):
                if key in visited:
                    continue
                visited.add(key)
                if len(visited) > max_states:
                    raise BoundsExceededError(
                        f"chase state space exceeds {max_states} states of {width} "
                        f"cells each, bound is {b.max_cells} cells"
                    )
                next_frontier.append((cells.instance(key), key))
        frontier = next_frontier
    if not stable:
        raise BoundsExceededError("no stable instance")
    by_change = [(len(diff_changeset(d, s)), s) for s in stable]
    min_change = min(n for n, _ in by_change)
    mris = sorted((s for n, s in by_change if n == min_change), key=Instance.key)
    if len(mris) > b.max_materialized:
        raise BoundsExceededError(
            f"{len(mris)} minimal resolved instances exceed the materialization "
            f"bound {b.max_materialized}"
        )
    return mris, min_change
