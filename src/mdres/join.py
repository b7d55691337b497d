"""Terms and the one conjunctive join behind every evaluation in the package.

Plain query answers, rewritten answers (the same join over winner views)
and the oracle's per-MRI answers all run through `join`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


def quote(value: str) -> str:
    """A constant as query and datalog text write it: in quotes, with each
    quote inside doubled."""
    return "'" + value.replace("'", "''") + "'"


@dataclass(frozen=True)
class Const:
    value: str  # the tests' datalog engine also makes integer constants

    def __str__(self) -> str:
        return quote(self.value)


def join(
    head: Sequence[Var | Const],
    body: Sequence[Sequence[Var | Const]],
    sources: Sequence[Iterable[tuple]],
) -> list[tuple]:
    """Head tuples of every binding of the body atoms to the given rows.

    `body` holds one term sequence per atom and `sources` one row iterable
    per atom, read once. Atoms are joined in the given order. Each atom's
    rows go into a hash index keyed on the positions whose variables earlier
    atoms bind; rows that miss one of the atom's constants, or disagree on a
    variable repeated inside the atom, are dropped while the index is built.
    A binding is the tuple of variable values in the order the variables are
    first bound, so a lookup reads fixed slots. The bindings are one list,
    extended atom by atom through the atom's index, and the head tuples are
    read off the last list, in the nested-loop order of the atoms' rows.
    Every head variable must occur in the body. A head tuple comes once per
    binding; callers that want a set build one.
    """
    slots: dict[str, int] = {}
    bindings: list[tuple] = [()]
    for terms, rows in zip(body, sources):
        consts, repeats, keyed, lookup = [], [], [], []
        first: dict[str, int] = {}
        for j, term in enumerate(terms):
            if isinstance(term, Const):
                consts.append((j, term.value))
            elif term.name in slots:
                keyed.append(j)
                lookup.append(slots[term.name])
            elif term.name in first:
                repeats.append((j, first[term.name]))
            else:
                first[term.name] = j
        new = tuple(first.values())
        index: dict[tuple, list[tuple]] = {}
        for row in rows:
            if all(row[j] == v for j, v in consts) and all(
                row[j] == row[i] for j, i in repeats
            ):
                key = tuple(row[j] for j in keyed)
                index.setdefault(key, []).append(tuple(row[j] for j in new))
        for name in first:
            slots[name] = len(slots)
        bindings = [
            binding + values
            for binding in bindings
            for values in index.get(tuple(binding[s] for s in lookup), ())
        ]
    out = [(slots[t.name], None) if isinstance(t, Var) else (None, t.value) for t in head]
    return [tuple(c if s is None else binding[s] for s, c in out) for binding in bindings]
