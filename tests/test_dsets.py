"""DisjointSet against connected components of the union edges."""

from hypothesis import example, given, settings, strategies as st

from mdres.dsets import DisjointSet, SlotClasses
from mdres.relation import Position

INTS = st.integers(min_value=0, max_value=11)
POSITIONS = st.builds(
    Position,
    st.integers(min_value=1, max_value=4),
    st.tuples(st.sampled_from("RS"), st.sampled_from("AB")),
)
OPS = st.sampled_from(("union", "find", "same"))


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


# Union by size builds a path of length 3 (7 -> 6 -> 4 -> 0) only after
# merging two classes of four, which random runs seldom do.
DEEP = [("union", 0, 1), ("union", 2, 3), ("union", 0, 2), ("union", 4, 5),
        ("union", 6, 7), ("union", 4, 6), ("union", 0, 4), ("same", 7, 0)]


@settings(max_examples=300, derandomize=True, deadline=None, print_blob=False)
@example(DEEP)
@given(st.one_of(
    st.lists(st.tuples(OPS, INTS, INTS), max_size=40),
    st.lists(st.tuples(OPS, POSITIONS, POSITIONS), max_size=40),
))
def test_disjoint_set_matches_components(ops):
    ds = DisjointSet()
    items, edges = set(), []
    for op, a, b in ops:
        if op == "union":
            ds.union(a, b)
            edges.append((a, b))
            items.update((a, b))
        elif op == "find":
            root = ds.find(a)
            if a not in items:
                assert root == a  # an unseen item is its own singleton
                items.add(a)
            assert root in items
        else:
            comps = _components(items, edges)
            same = any(a in c and b in c for c in comps)
            assert (ds.find(a) == ds.find(b)) == (same or a == b)
            items.update((a, b))
    comps = _components(items, edges)
    assert sorted(map(sorted, ds.groups())) == sorted(map(sorted, comps))
    for comp in comps:
        assert len({ds.find(item) for item in comp}) == 1


@settings(max_examples=300, derandomize=True, deadline=None, print_blob=False)
@given(st.integers(min_value=1, max_value=12).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=5), max_size=12),
)))
def test_slot_classes_match_components(case):
    """Merging the classes of each star of slots gives the components of the
    stars' edges; `of` names one class per component, `members` lists every
    class of two or more, and blocks() lists them all by their first slot."""
    n, stars = case
    classes = SlotClasses(n)
    edges = []
    for star in stars:
        ids = {classes.of[s] for s in star}
        if len(ids) > 1:
            classes.merge(ids)
        edges += [(star[0], s) for s in star[1:]]
    comps = _components(range(n), edges)
    assert sorted(map(sorted, classes.blocks())) == sorted(map(sorted, comps))
    assert [b[0] for b in classes.blocks()] == sorted(min(c) for c in comps)
    for comp in comps:
        (c,) = {classes.of[s] for s in comp}
        assert c in comp
        if len(comp) > 1:
            assert sorted(classes.members[c]) == sorted(comp)
    assert len(classes.members) == sum(len(comp) > 1 for comp in comps)
