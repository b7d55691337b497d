"""The package's one union-find: a partition of the items 0..n-1.

DisjointSet keeps each item's class id, one of the class's items, in a list,
and each class of two or more with its members, so a caller reads an item's
class with one list index and merges a whole star of classes at once. A
merge moves the smaller classes into the largest, so an item moves at most
log2(n) times. It is the union kernel of the closure and the chase's link
sets (taclosure.link_targets), merges the chase's link sets
(resolver.merge_partition), and gives the attribute classes of mds, which
number their attributes first.
"""

from __future__ import annotations


class DisjointSet:
    """A partition of the items 0..n-1. `of[s]` is the id of item s's class,
    one of its items; `members` holds the items of every class of two or
    more, by id, in no order."""

    __slots__ = ("of", "members")

    def __init__(self, n: int):
        self.of: list[int] = list(range(n))
        self.members: dict[int, list[int]] = {}

    def merge(self, ids: set[int]) -> None:
        """Merge the classes with these ids, two or more, into one; the
        largest keeps its id."""
        of, members = self.of, self.members
        if members.keys().isdisjoint(ids):  # singletons only
            target = min(ids)
            for s in ids:
                of[s] = target
            members[target] = list(ids)
            return
        target, kept = -1, []
        for c in ids:
            m = members.get(c)
            if m is not None and len(m) > len(kept):
                target, kept = c, m
        for c in ids:
            if c != target:
                m = members.pop(c, None)
                if m is None:
                    of[c] = target
                    kept.append(c)
                else:
                    for s in m:
                        of[s] = target
                    kept += m

    def union(self, a: int, b: int) -> None:
        """Merge the classes of items a and b."""
        of = self.of
        if of[a] != of[b]:
            self.merge({of[a], of[b]})

    def linked(self) -> list[tuple[int, ...]]:
        """The classes of two or more items, as their sorted items, in sorted
        order."""
        return sorted([tuple(sorted(m)) for m in self.members.values()])

    def blocks(self) -> list[tuple[int, ...]]:
        """Every class, singletons included, as its sorted items, in the order
        of their first items."""
        members = self.members
        return [
            tuple(sorted(members[c])) if c in members else (c,)
            for c in dict.fromkeys(self.of)
        ]
