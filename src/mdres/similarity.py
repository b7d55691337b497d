"""Similarity predicates: equality, bounded edit distance, explicit tables.

Each named similarity is reflexive and symmetric by construction (a table's
pairs are closed under symmetry however the spec is built). Whether it is
also transitive matters to the classifier, so every spec carries a
`transitive` verdict, derived by the spec wherever the spec alone decides it:

- eq: transitive, always.
- table: decided when the spec is built. A violation needs two similar
  pairs in the table, so checking the values the table mentions decides the
  question for every domain.
- lev(k): not transitive unless declared so in the sims file. A declared
  lev is the one verdict a domain decides: it stays None until checked, and
  is False when two similar values of the active domain have different
  neighbours. An MD set loaded with a domain checks it the first time the
  classifier asks (`MDSet.transitive`) and keeps the answer.

A `transitive=` that contradicts a derived verdict is an input error.

`similar` answers an edit-distance question with `within_distance`, which
fills only the diagonal band of the DP that can stay within the bound.

`neighbours` answers the same question for a whole set of values at once,
without testing every pair: a table spec reads its adjacency (built once per
spec from its pairs), and an edit-distance spec probes a PASS-JOIN segment
index (Li, Deng, Wang & Feng, PVLDB 2011) and confirms each candidate with
`similar`. The pair linker and the transitivity verdict both read it.
"""

from __future__ import annotations

import csv
import io
import os
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping

from .errors import InputError, ParseError
from .relation import PathName, read_data_file, read_text

KINDS = ("eq", "lev", "table")


@dataclass(frozen=True)
class SimilaritySpec:
    name: str
    kind: str
    max_distance: int = 0
    pairs: frozenset[tuple[str, str]] = frozenset()
    declared_transitive: bool = False
    transitive: bool | None = None  # None = a declared lev not yet checked
    # table: value -> the other values it is paired with, derived from pairs
    adjacency: dict[str, tuple[str, ...]] = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"similarity {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "lev" and self.max_distance < 0:
            raise InputError(f"similarity {self.name!r}: negative distance bound")
        pairs = self.pairs | {(b, a) for a, b in self.pairs}
        adjacency: dict[str, list[str]] = {}
        for a, b in sorted(pairs):
            if a != b:
                adjacency.setdefault(a, []).append(b)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(
            self, "adjacency", {a: tuple(bs) for a, bs in adjacency.items()}
        )
        if self.kind == "lev" and self.declared_transitive:
            return  # the one verdict that needs a domain
        if self.kind == "table":
            verdict = verify_transitivity(self, {v for pair in pairs for v in pair})
        else:
            verdict = self.kind == "eq"
        if self.transitive not in (None, verdict):
            raise InputError(
                f"similarity {self.name!r}: given transitive={self.transitive}, "
                f"but this {self.kind} similarity is {'' if verdict else 'not '}transitive"
            )
        object.__setattr__(self, "transitive", verdict)


# Built-in equality, available in MD conditions as `=`.
EQUALITY = SimilaritySpec(name="=", kind="eq")


def within_distance(a: str, b: str, k: int) -> bool:
    """Whether the edit distance of a and b is at most k, filling at most
    k + 1 cells per row of the Levenshtein DP.

    Every step of an edit path away from the diagonals through the DP's two
    corner cells must be paid back, so a path within k strays at most
    (k - d) // 2 cells beyond them, d being the length difference (Ukkonen,
    1985). Only that band is filled; cells outside it read as k + 1. The
    check stops with False as soon as a whole row exceeds k, because every
    edit path crosses every row.
    """
    if a == b:
        return True
    if len(a) < len(b):
        a, b = b, a
    n, m = len(a), len(b)
    if n - m > k:
        return False
    if k >= n:
        return True  # no two strings this short are further apart
    slack = (k - (n - m)) // 2  # how far the band reaches above the diagonal
    reach = n - m + slack  # and below it
    over = k + 1
    previous = [j if j <= slack else over for j in range(m + 1)]
    current = [over] * (m + 1)
    for i in range(1, n + 1):
        if i <= reach:
            current[0] = best = i
            lo = 1
        else:
            lo = i - reach
            current[lo - 1] = best = over
        left = current[lo - 1]
        ca = a[i - 1]
        for j in range(lo, min(m, i + slack) + 1):
            cell = previous[j - 1] + (ca != b[j - 1])  # substitution
            if previous[j] + 1 < cell:
                cell = previous[j] + 1  # deletion
            if left + 1 < cell:
                cell = left + 1  # insertion
            current[j] = left = cell
            if cell < best:
                best = cell
        if best > k:
            return False
        previous, current = current, previous
    return previous[m] <= k


def similar(spec: SimilaritySpec, a: str, b: str) -> bool:
    if a == b:
        return True
    if spec.kind == "eq":
        return False
    if spec.kind == "lev":
        return within_distance(a, b, spec.max_distance)
    return (a, b) in spec.pairs


def neighbours(spec: SimilaritySpec, values: Iterable[str]) -> dict[str, list[str]]:
    """Map each of the values to those of them similar to it, itself first.

    u is listed under v exactly when similar(spec, v, u). Values are
    compared in pairs only where an index cannot rule the pair out.
    """
    if spec.kind == "eq":
        return {v: [v] for v in values}
    if spec.kind == "table":
        present = set(values)
        adjacency = spec.adjacency
        return {
            v: [v, *filter(present.__contains__, adjacency.get(v, ()))]
            for v in present
        }
    return _lev_neighbours(spec, list(dict.fromkeys(values)))


def _segments(length: int, k: int) -> list[tuple[int, int]]:
    """(start, size) of the k + 1 segments of a string of this length.

    The first segments are one character shorter when the length does not
    divide evenly, as in PASS-JOIN. Called only for length > k, so every
    segment is non-empty.
    """
    size, longer = divmod(length, k + 1)
    out, start = [], 0
    for i in range(k + 1):
        n = size + (i >= k + 1 - longer)
        out.append((start, n))
        start += n
    return out


def _lev_neighbours(spec: SimilaritySpec, values: list[str]) -> dict[str, list[str]]:
    """Neighbour lists under lev <= k, from a PASS-JOIN segment index.

    Values are indexed one at a time, and each probes those indexed before
    it, so every pair is confirmed at most once. An indexed value r of
    length > k is cut into k + 1 segments; k edits can touch at most k of
    them, and a segment that survives sits in s at most k characters from
    where it starts in r. So a probe s looks up, for each segment of each
    length within k of its own, its substrings starting within k of the
    segment's start. An indexed value of length <= k has an empty segment,
    so every value of its length is a candidate. Only lengths present in
    the data are visited, which keeps a huge bound cheap.
    """
    k = spec.max_distance
    near = {v: [v] for v in values}
    lengths = sorted({len(v) for v in values})
    by_length: dict[int, list[str]] = {}
    index: dict[tuple[int, int, str], list[str]] = {}
    cuts: dict[int, list[tuple[int, int]]] = {}
    for s in values:
        n = len(s)
        found: set[str] = set()
        for length in lengths[bisect_left(lengths, n - k) : bisect_right(lengths, n + k)]:
            bucket = by_length.get(length)
            if not bucket:
                continue
            if length <= k:
                found.update(bucket)
                continue
            for start, size in cuts[length]:
                for at in range(max(0, start - k), min(n - size, start + k) + 1):
                    found.update(index.get((length, start, s[at : at + size]), ()))
        for r in found:
            if similar(spec, s, r):
                near[s].append(r)
                near[r].append(s)
        by_length.setdefault(n, []).append(s)
        if n > k:
            if n not in cuts:
                cuts[n] = _segments(n, k)
            for start, size in cuts[n]:
                index.setdefault((n, start, s[start : start + size]), []).append(s)
    return near


def verify_transitivity(spec: SimilaritySpec, domain: Iterable[str]) -> bool:
    """Whether the spec is transitive over the domain.

    A reflexive, symmetric relation is transitive exactly when any two
    similar values have the same neighbours. So each value's neighbour set,
    from `neighbours`, is numbered by its content, and every similar pair
    must get one number: linear in the neighbour lists. The domain is
    sorted first, so the comparisons `neighbours` makes do not depend on
    the iteration order of a set.
    """
    near = neighbours(spec, sorted(set(domain)))
    ids: dict[frozenset[str], int] = {}
    block = {v: ids.setdefault(frozenset(ns), len(ids)) for v, ns in near.items()}
    return all(block[u] == block[v] for v, ns in near.items() for u in ns)


def check_all(
    specs: Mapping[str, SimilaritySpec], domain: Iterable[str]
) -> dict[str, SimilaritySpec]:
    """Every spec with its `transitive` verdict resolved for the domain.

    Only a declared lev is checked against the domain; every other spec
    derived its verdict when it was built.
    """
    values = set(domain)
    return {
        name: replace(spec, transitive=verify_transitivity(spec, values))
        if spec.kind == "lev" and spec.declared_transitive
        else spec
        for name, spec in specs.items()
    }


def load_table(text: str, source: object = "<table>") -> frozenset[tuple[str, str]]:
    """Read `value,value` lines; a table spec closes them under symmetry."""
    pairs = set()
    rownum = 0
    try:
        for rownum, record in enumerate(csv.reader(io.StringIO(text)), start=1):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            if record and record[0].lstrip().startswith("#"):
                continue
            if len(record) != 2:
                raise InputError(f"{source}, row {rownum}: expected two values")
            a, b = record[0], record[1]
            if a == "" or b == "":
                raise InputError(f"{source}, row {rownum}: blank value")
            pairs.add((a, b))
    except csv.Error as exc:  # say, a field over csv.field_size_limit()
        raise InputError(f"{source}, row {rownum + 1}: {exc}") from None
    return frozenset(pairs)


_SIM_LINE = re.compile(r"^sim\s+([A-Za-z_]\w*)\s*=\s*(.+)$")
_LEV_BODY = re.compile(r"^lev\s*<=\s*(\d+)\s*(\[transitive\])?$")
_TABLE_BODY = re.compile(r"^table\s+(\S+)$")


def parse_sims(
    text: str, base_dir: str | Path = "."
) -> dict[str, SimilaritySpec]:
    """Parse a sims file.

    Lines: `sim NAME = eq`, `sim NAME = lev <= K [transitive]`,
    `sim NAME = table FILE` (FILE relative to base_dir). Every spec but a
    declared lev derives its transitivity verdict when it is built; a
    declared lev stays unchecked until check_all sees an active domain, or
    an MD set loaded with one first reads it.
    """
    specs: dict[str, SimilaritySpec] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SIM_LINE.match(line)
        if not m:
            raise ParseError(f"cannot parse similarity declaration: {line!r}", lineno)
        name, body = m.group(1), m.group(2).strip()
        if name in specs:
            raise ParseError(f"duplicate similarity {name!r}", lineno)
        if body == "eq":
            spec = SimilaritySpec(name=name, kind="eq")
        elif lm := _LEV_BODY.match(body):
            if len(lm.group(1)) > 9:
                raise ParseError(f"edit-distance bound {lm.group(1)[:12]}... is too large", lineno)
            spec = SimilaritySpec(
                name=name,
                kind="lev",
                max_distance=int(lm.group(1)),
                declared_transitive=lm.group(2) is not None,
            )
        elif tm := _TABLE_BODY.match(body):
            table, path = read_data_file(base_dir, tm.group(1))
            if table is None:
                raise ParseError(f"similarity {name!r}: no such table file {path}", lineno)
            spec = SimilaritySpec(name=name, kind="table", pairs=load_table(table, path))
        else:
            raise ParseError(f"cannot parse similarity body: {body!r}", lineno)
        specs[name] = spec
    return specs


def load_sims(path: str | Path) -> dict[str, SimilaritySpec]:
    """Parse a sims file; its tables are read from Path(path).parent."""
    text = read_text(PathName(path))  # messages spell the path as Path(path)
    # os.path.dirname names the same directory as Path(path).parent, unless
    # path ends in "/" or "/.", a spelling of the file that only pathlib reads
    head, tail = os.path.split(path)
    return parse_sims(text, head if tail not in ("", ".") else Path(path).parent)
