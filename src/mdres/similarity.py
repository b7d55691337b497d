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

`similar` answers an edit-distance question with `within_distance`. Two
strings of one length that differ in at most k positions are accepted by a
mismatch count that stops at the (k + 1)-th mismatch; any other pair fills
only the diagonal band of the DP that can stay within the bound.

`neighbours` answers the same question for a whole set of values at once,
without testing every pair: a table spec reads its adjacency (built once per
spec from its pairs), and an edit-distance spec probes a PASS-JOIN segment
index (Li, Deng, Wang & Feng, PVLDB 2011) and confirms each candidate with
`similar`. Values are indexed shortest first, so a probe reads only the
lengths within k below its own, and on each of those only the substrings
that the paper's multi-match-aware selection (its Section 4) keeps. The
pair linker and the transitivity verdict both read it.
"""

from __future__ import annotations

import csv
import io
import os
import re
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from itertools import islice
from operator import ne
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
    """Whether the edit distance of a and b is at most k.

    Strings of one length that differ in at most k positions are within k
    substitutions, since Hamming distance bounds edit distance; a C-level
    count of mismatches that stops at the (k + 1)-th accepts them. For
    k < 2 it refuses the others too: an insertion must be paid back by a
    deletion, so the band below is the main diagonal alone, and the count
    is the DP. Any other pair fills at most k + 1 cells per row of the
    Levenshtein DP.

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
    if n == m:
        if next(islice(filter(None, map(ne, a, b)), k, None), None) is None:
            return True  # at most k mismatches
        if k < 2:
            return False  # the band is the main diagonal alone
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
    compared in pairs only where an index cannot rule the pair out;
    equality is lev <= 0 there.
    """
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


def _windows(length: int, k: int, delta: int) -> list[tuple[int, int, int]]:
    """(size, first, last) per segment of an indexed length > k, for a probe
    delta characters longer (0 <= delta <= k): the probe looks for segment i
    (0-based), which starts at p, among its substrings that start at first
    to last.

    This is PASS-JOIN's multi-match-aware selection. Count the edits of an
    alignment within k per segment. Segment by segment, the edits before
    segment j less j start at 0 and end below 0 (k + 1 segments, k edits),
    and fall only at a segment without edits, by one. Where they first fall,
    segment i is intact, with i edits before it and at most k - i after it.
    Those before shift it by at most i characters, and those after make up
    delta to within k - i. Hence first = max(p - i, p + delta - (k - i))
    and last = min(p + i, p + delta + (k - i)): at most
    (k*k - delta*delta) // 2 + k + 1 substrings in all. Each window lies
    inside the probe, because p >= i and k - i non-empty segments follow
    segment i.
    """
    return [
        (size, max(p - i, p + delta - (k - i)), min(p + i, p + delta + (k - i)))
        for i, (p, size) in enumerate(_segments(length, k))
    ]


def _lev_neighbours(spec: SimilaritySpec, values: list[str]) -> dict[str, list[str]]:
    """Neighbour lists under lev <= k, from a PASS-JOIN segment index.

    Values are indexed one at a time, shortest first (a stable sort), and
    each probes those indexed before it, so every pair is confirmed at most
    once and a probe s of length n meets only indexed lengths n - k to n.
    An indexed value r of length > k is cut into k + 1 segments. k edits
    leave one of them intact, so it is a substring of s, and the probe
    looks it up at the starts that `_windows` selects. An indexed value of
    length <= k has an empty segment, so every value of its length is a
    candidate. Only lengths present in the data are visited, which keeps a
    huge bound cheap.
    """
    k = spec.max_distance
    near = {v: [v] for v in values}
    lengths: list[int] = []  # the lengths indexed so far, ascending
    short: dict[int, list[str]] = {}  # length <= k: its values
    segments: dict[int, list[tuple[int, int, dict[str, list[str]]]]] = {}  # else
    windows: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for s in sorted(values, key=len):
        n = len(s)
        found: set[str] = set()
        for length in lengths[bisect_left(lengths, n - k) :]:
            if length <= k:
                found.update(short[length])
                continue
            window = windows.get((n, length))
            if window is None:
                window = windows[n, length] = _windows(length, k, n - length)
            for (size, first, last), (_, _, table) in zip(window, segments[length]):
                for at in range(first, last + 1):
                    hit = table.get(s[at : at + size])
                    if hit:
                        found.update(hit)
        for r in found:
            if similar(spec, s, r):
                near[s].append(r)
                near[r].append(s)
        if not lengths or lengths[-1] != n:
            lengths.append(n)
        if n <= k:
            short.setdefault(n, []).append(s)
            continue
        if n not in segments:
            segments[n] = [(p, size, {}) for p, size in _segments(n, k)]
        for p, size, table in segments[n]:
            table.setdefault(s[p : p + size], []).append(s)
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
