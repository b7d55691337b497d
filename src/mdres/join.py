"""Terms and the one conjunctive join behind every evaluation in the package.

Plain query answers, rewritten answers (the same join over winner views)
and the oracle's per-MRI answers all run through `join`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Callable, Iterable, Sequence


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


def tuple_getter(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """A C-level function from a tuple (a row, a rewrite view's row or a
    chase state) to the tuple of its values at positions, which are not
    negative: one position is read as a one-item slice, and none as the
    empty slice."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (j,) = positions
        return itemgetter(slice(j, j + 1))
    return itemgetter(slice(0, 0))


def join(
    head: Sequence[Var | Const],
    body: Sequence[Sequence[Var | Const]],
    sources: Sequence[Iterable[tuple]],
) -> list[tuple]:
    """Head tuples of every binding of the body atoms to the given rows.

    `body` holds one term sequence per atom and `sources` one row iterable
    per atom, read once. Atoms are joined in the given order. Rows that miss
    one of the atom's constants, or disagree on a variable repeated inside
    the atom, are dropped first; an atom with neither keeps every row
    unchecked. Each atom's rows then go into a hash index keyed on the
    positions whose variables earlier atoms bind. Index keys and lookup keys
    come from `operator.itemgetter` over the row and the binding, so both
    are the bare value when one position is keyed and a tuple otherwise; an
    atom that shares no variable with earlier atoms is a cross product with
    no index. A binding is the tuple of variable values in the order the
    variables are first bound, so a lookup reads fixed slots. The bindings
    are one list, extended atom by atom, and the head tuples are read off
    the last list, in the nested-loop order of the atoms' rows, by one
    `itemgetter` over each binding plus the head's constants. Every head
    variable must occur in the body. A head tuple comes once per binding;
    callers that want a set build one.
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
        if consts or repeats:
            rows = [
                row for row in rows
                if all(row[j] == v for j, v in consts)
                and all(row[j] == row[i] for j, i in repeats)
            ]
        take = tuple_getter(tuple(first.values()))
        for name in first:
            slots[name] = len(slots)
        if keyed:
            key, probe = itemgetter(*keyed), itemgetter(*lookup)
            index: dict = {}
            for row in rows:
                index.setdefault(key(row), []).append(take(row))
            bindings = [
                binding + values
                for binding in bindings
                for values in index.get(probe(binding), ())
            ]
        else:
            matches = list(map(take, rows))
            bindings = [binding + values for binding in bindings for values in matches]
    # head constants are added past the end of each binding and read there
    consts: tuple = ()
    picks = []
    for t in head:
        if isinstance(t, Var):
            picks.append(slots[t.name])
        else:
            picks.append(len(slots) + len(consts))
            consts += (t.value,)
    project = tuple_getter(picks)
    return list(map(project, map(tuple.__add__, bindings, repeat(consts))))
