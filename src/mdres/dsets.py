"""Two small disjoint-set structures.

DisjointSet is a union-find over any hashable items, used by the graph and
merge_partition. Union by size; `find` halves paths (Tarjan & van Leeuwen,
JACM 1984): each step points the item at its grandparent and moves there, so
one pass both finds the root and shortens the path.

SlotClasses partitions the slots 0..n-1 and keeps each class's members, so
a caller reads a slot's class with one list index and merges a whole star of
slots at once; it is the union kernel of the closure and the chase's link
sets (taclosure.link_targets). A merge moves the smaller classes into the
largest, so a slot moves at most log2(n) times.
"""

from __future__ import annotations

from typing import Generic, Hashable, Iterable, TypeVar

T = TypeVar("T", bound=Hashable)


class DisjointSet(Generic[T]):
    def __init__(self, items: Iterable[T] = ()):
        self._parent: dict[T, T] = {item: item for item in items}
        self._size: dict[T, int] = dict.fromkeys(self._parent, 1)

    def add(self, item: T) -> None:
        if item not in self._parent:
            self._parent[item] = item
            self._size[item] = 1

    def find(self, item: T) -> T:
        """The root of item's class; an unseen item is added as a singleton."""
        parent = self._parent
        try:
            up = parent[item]
        except KeyError:
            self.add(item)
            return item
        while up != item:
            top = parent[up]
            parent[item] = top  # halving: skip to the grandparent
            item, up = top, parent[top]
        return item

    def union(self, a: T, b: T) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        size = self._size
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        size[ra] += size[rb]

    def groups(self) -> list[tuple[T, ...]]:
        """All classes, including singletons, as sorted tuples in sorted order."""
        by_root: dict[T, list[T]] = {}
        for item in self._parent:
            by_root.setdefault(self.find(item), []).append(item)
        return sorted(tuple(sorted(g)) for g in by_root.values())


class SlotClasses:
    """A partition of the slots 0..n-1. `of[s]` is the id of slot s's class,
    one of its slots; `members` holds the slots of every class of two or
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

    def blocks(self) -> list[tuple[int, ...]]:
        """Every class, singletons included, as its sorted slots, in the order
        of their first slots."""
        members = self.members
        return [
            tuple(sorted(members[c])) if c in members else (c,)
            for c in dict.fromkeys(self.of)
        ]
