"""Tiny union-find used by the graph, closure and resolver modules.

Union by size; `find` halves paths (Tarjan & van Leeuwen, JACM 1984): each
step points the item at its grandparent and moves there, so one pass both
finds the root and shortens the path.
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
