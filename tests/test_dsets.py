"""DisjointSet, and the chase's merge_partition over it, against connected
components by breadth-first search."""

from hypothesis import example, given, settings, strategies as st

from mdres.dsets import DisjointSet
from mdres.resolver import merge_partition


def _components(items, edges):
    """Connected components by breadth-first search."""
    adj = {item: set() for item in items}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, comps = set(), []
    for start in adj:
        if start in seen:
            continue
        comp, frontier = {start}, [start]
        while frontier:
            nxt = [q for p in frontier for q in adj[p] if q not in comp]
            comp.update(nxt)
            frontier = nxt
        seen |= comp
        comps.append(frozenset(comp))
    return comps


@st.composite
def _ops(draw):
    """n, and steps over the items 0..n-1: a union of two items, or a merge
    of the classes of a star of two to five items."""
    n = draw(st.integers(min_value=1, max_value=12))
    item = st.integers(min_value=0, max_value=n - 1)
    step = st.one_of(
        st.tuples(st.just("union"), st.tuples(item, item)),
        st.tuples(st.just("merge"), st.lists(item, min_size=2, max_size=5)),
    )
    return n, draw(st.lists(step, max_size=20))


# Two classes of four merge only after four smaller merges, which random
# runs seldom do.
FOURS = (8, [("union", (0, 1)), ("merge", [2, 3]), ("union", (0, 2)), ("merge", [4, 5, 5]),
             ("union", (6, 7)), ("merge", [6, 4]), ("union", (7, 3)), ("union", (1, 1))])


@settings(max_examples=300, derandomize=True, deadline=None, print_blob=False)
@example(FOURS)
@given(_ops())
def test_disjoint_set_matches_components(case):
    """Unions and star merges, mixed, give the components of their edges.
    After every step `of` names one class per component, one of its items,
    and `members` lists every class of two or more; at the end blocks()
    lists every class by its first item, and linked() the classes of two or
    more in sorted order."""
    n, steps = case
    classes = DisjointSet(n)
    edges = []
    for op, items in steps:
        if op == "union":
            classes.union(*items)
        else:
            ids = {classes.of[s] for s in items}
            if len(ids) > 1:
                classes.merge(ids)
        edges += [(items[0], s) for s in items[1:]]
        comps = _components(range(n), edges)
        for comp in comps:
            (c,) = {classes.of[s] for s in comp}
            assert c in comp
            if len(comp) > 1:
                assert sorted(classes.members[c]) == sorted(comp)
        assert len(classes.members) == sum(len(comp) > 1 for comp in comps)
    comps = sorted(map(sorted, _components(range(n), edges)))
    assert list(map(list, classes.blocks())) == comps
    assert classes.linked() == [tuple(c) for c in comps if len(c) > 1]


@st.composite
def _link_sets(draw):
    """n, and link sets over the slots 0..n-1: each one labels every slot
    with a block or none, and keeps the blocks of two slots or more."""
    n = draw(st.integers(min_value=1, max_value=12))
    link_sets = []
    for labels in draw(st.lists(
        st.lists(st.integers(min_value=-1, max_value=3), min_size=n, max_size=n), max_size=5
    )):
        blocks = [tuple(s for s in range(n) if labels[s] == k) for k in range(4)]
        link_sets.append(tuple(sorted(b for b in blocks if len(b) > 1)))
    return n, link_sets


@settings(max_examples=300, derandomize=True, deadline=None, print_blob=False)
@given(_link_sets())
def test_merge_partition_matches_components(case):
    """The merged blocks of some link sets are the components, of two slots
    or more, of the edges that join each block's slots, sorted."""
    n, link_sets = case
    edges = [(block[0], s) for link_set in link_sets for block in link_set for s in block]
    comps = sorted(map(sorted, _components(range(n), edges)))
    assert merge_partition(link_sets, n) == [tuple(c) for c in comps if len(c) > 1]
