import itertools
import random
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdres import (
    BoundsExceededError,
    InputError,
    NotEligibleError,
    OracleBounds,
    classify,
    diff_changeset,
    enumerate_mris_oracle,
    fast_mri_family,
    is_stable,
    merge_partition,
    modifiable_positions,
    parse_mds,
    parse_schema,
    resolved_values,
    similar,
)
from mdres.dsets import DisjointSet
from mdres.relation import Position, load_instance
from mdres.resolver import ChaseSpace, stable_states
from mdres.taclosure import link_groups, union_groups

from conftest import FIXTURES, load_bundle
from generators import (
    dn_instance,
    rand_chain_case,
    rand_hsc_case,
    rand_keyed_case,
    rand_ni_case,
    rand_overlap_chain_case,
)
from reference import (
    ref_enumerate_mris_oracle,
    ref_modifiable,
    ref_stable,
    ref_successors,
)


def test_merge_partition_dup_groups(dup_groups):
    blocks = merge_partition(dup_groups.instance, dup_groups.mdset)
    shaped = [
        (tuple(b.positions), tuple(sorted(b.values)), b.uniform) for b in blocks
    ]
    assert shaped == [
        ((Position(1, ("R", "B")), Position(2, ("R", "B"))), ("c1", "c2"), False),
        ((Position(3, ("R", "B")), Position(4, ("R", "B"))), ("c3", "c4"), False),
    ]


def test_modifiable_positions_cross_relation_chain(hard_chain):
    got = modifiable_positions(hard_chain.instance, hard_chain.mdset)
    assert got == frozenset({
        Position(1, ("R", "B")),
        Position(2, ("S", "F")),
        Position(3, ("R", "B")),
        Position(4, ("S", "F")),
    })
    assert got == ref_modifiable(hard_chain.instance, hard_chain.mdset)


def test_stability(dup_groups):
    assert not is_stable(dup_groups.instance, dup_groups.mdset)
    assert is_stable(dup_groups.variant("D1"), dup_groups.mdset)
    assert is_stable(dup_groups.variant("D2"), dup_groups.mdset)
    assert ref_stable(dup_groups.variant("D1"), dup_groups.mdset)


def _expand(space, values):
    return list(space.successors(values, space.open_blocks(values)))


def test_chase_step_counts_values_only(dup_groups):
    space = ChaseSpace(dup_groups.instance, dup_groups.mdset)
    succ = [
        s for s in _expand(space, space.start)
        if not any(space.sentinel in v for v in s)
    ]
    # two open blocks with two candidate values each
    assert len(succ) == 4
    assert all(is_stable(space.instance(s), dup_groups.mdset) for s in succ)


def test_chase_step_counts_with_fresh(dup_groups):
    space = ChaseSpace(dup_groups.instance, dup_groups.mdset)
    succ = _expand(space, space.start)
    # each block gains one fresh option: (2+1) * (2+1)
    assert len(succ) == 9


def test_chase_step_on_stable_instance_is_empty(dup_groups):
    d1 = dup_groups.variant("D1")
    space = ChaseSpace(d1, dup_groups.mdset)
    assert _expand(space, space.start) == []


def test_fresh_values_dissimilar_everywhere(two_rule_cycle):
    space = ChaseSpace(two_rule_cycle.instance, two_rule_cycle.mdset)
    fresh = [space.fresh(i) for i in range(3)]
    assert len(set(fresh)) == 3
    domain = two_rule_cycle.instance.active_domain()
    spec = two_rule_cycle.sims["s"]
    for v in fresh:
        assert v not in domain
        for other in itertools.chain(domain, (x for x in fresh if x != v)):
            assert not similar(spec, v, other)


def test_oracle_dup_groups_exact(dup_groups):
    mris, min_change = enumerate_mris_oracle(dup_groups.instance, dup_groups.mdset)
    assert min_change == 2
    assert len(mris) == 4
    d1 = dup_groups.variant("D1")
    assert any(mri == d1 for mri in mris)
    diffs = sorted(len(diff_changeset(dup_groups.instance, m)) for m in mris)
    assert diffs == [2, 2, 2, 2]
    for mri in mris:
        assert is_stable(mri, dup_groups.mdset)


def test_oracle_ignores_costlier_fresh_merges(dup_groups):
    # fresh values stabilize too, but they change every block member
    mris, min_change = enumerate_mris_oracle(dup_groups.instance, dup_groups.mdset)
    domain = dup_groups.instance.active_domain()
    for mri in mris:
        assert mri.active_domain() <= domain


def test_oracle_two_rule_cycle(two_rule_cycle):
    mris, min_change = enumerate_mris_oracle(
        two_rule_cycle.instance, two_rule_cycle.mdset
    )
    assert len(mris) == 16
    assert min_change == 6
    for mri in mris:
        a_col = set(mri.column("R", "A"))
        b_col = set(mri.column("R", "B"))
        assert len(a_col) == 1 and len(b_col) == 1


def test_oracle_bounds_enforced(two_rule_cycle):
    with pytest.raises(BoundsExceededError):
        enumerate_mris_oracle(
            two_rule_cycle.instance, two_rule_cycle.mdset,
            bounds=OracleBounds(max_values=2),
        )
    with pytest.raises(BoundsExceededError):
        enumerate_mris_oracle(
            two_rule_cycle.instance, two_rule_cycle.mdset,
            bounds=OracleBounds(max_tuples=3),
        )
    with pytest.raises(BoundsExceededError):
        enumerate_mris_oracle(
            two_rule_cycle.instance, two_rule_cycle.mdset,
            bounds=OracleBounds(max_states=5),
        )


def test_negative_oracle_bounds_are_input_errors(dup_groups):
    for name in ("max_tuples", "max_values", "max_materialized", "max_states"):
        with pytest.raises(InputError, match=f"^{name} must be at least 0$"):
            enumerate_mris_oracle(
                dup_groups.instance, dup_groups.mdset, OracleBounds(**{name: -1})
            )
        assert getattr(OracleBounds(**{name: 0}), name) == 0


def test_oracle_has_no_depth_bound():
    # max_states bounds the search; a depth cut could only truncate it
    assert [f.name for f in fields(OracleBounds)] == [
        "max_tuples", "max_values", "max_materialized", "max_states",
    ]
    _, d, mdset = rand_hsc_case(random.Random(21))
    assert enumerate_mris_oracle(d, mdset)[1] == 7


def _oracle_outcome(oracle, d, mdset, bounds):
    try:
        mris, min_change = oracle(d, mdset, bounds)
    except BoundsExceededError as exc:
        return str(exc)
    return [m.key() for m in mris], min_change


CASES = {
    "ni": rand_ni_case,
    "hsc": rand_hsc_case,
    "chain": rand_chain_case,
    "overlap": rand_overlap_chain_case,
}


@settings(max_examples=100, derandomize=True, deadline=None, print_blob=False)
@given(
    st.sampled_from(sorted(CASES)),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=2, max_value=4),
)
def test_oracle_matches_per_state_reference(kind, seed, states, values):
    _, d, mdset = CASES[kind](random.Random(seed))
    for bounds in (
        None,
        OracleBounds(max_states=states),
        OracleBounds(max_values=values),
    ):
        assert _oracle_outcome(enumerate_mris_oracle, d, mdset, bounds) == (
            _oracle_outcome(ref_enumerate_mris_oracle, d, mdset, bounds)
        ), bounds


@settings(max_examples=100, derandomize=True, deadline=None, print_blob=False)
@given(st.sampled_from(sorted(CASES)), st.integers(min_value=0, max_value=2**32 - 1))
def test_memoised_blocks_match_merge_partition(kind, seed):
    _, d, mdset = CASES[kind](random.Random(seed))
    space = ChaseSpace(d, mdset)
    pending, seen = [space.start], set()
    while pending and len(seen) < 200:
        values = pending.pop()
        if values in seen:
            continue
        seen.add(values)
        expected = [
            tuple(space.slots[p.attr][p.tid] for p in block.positions)
            for block in merge_partition(space.instance(values), mdset)
            if len(block.positions) > 1
        ]
        assert space.blocks(values) == expected
        pending.extend(space.successors(values, space.open_blocks(values), max_values=99))


def _checked_successors(space, mdset, values):
    """The chase step on a state, checked against ref_successors over the
    open blocks of merge_partition; every fresh value must be a ladder rung."""
    got = list(space.successors(values, space.open_blocks(values), max_values=99))
    blocks = [
        (tuple(space.slots[p.attr][p.tid] for p in block.positions), block.values)
        for block in merge_partition(space.instance(values), mdset)
        if not block.uniform
    ]
    assert got == ref_successors(values, blocks, space.sentinel, space.base, space.k)
    for succ in got:
        for v in succ:
            if space.sentinel in v:
                assert v is space.fresh((len(v) - space.base) // (space.k + 1) - 1)
    return got


@settings(max_examples=100, derandomize=True, deadline=None, print_blob=False)
@given(st.sampled_from(sorted(CASES)), st.integers(min_value=0, max_value=2**32 - 1))
def test_successors_match_reference(kind, seed):
    _, d, mdset = CASES[kind](random.Random(seed))
    space = ChaseSpace(d, mdset)
    pending, seen = [space.start], set()
    while pending and len(seen) < 200:
        values = pending.pop()
        if values in seen:
            continue
        seen.add(values)
        pending.extend(_checked_successors(space, mdset, values))


def test_successors_rename_kept_and_shared_rungs():
    # Slots: tid t holds A, B, C at 3(t-1), 3(t-1)+1, 3(t-1)+2. The blocks
    # are {t2.B, t3.B} and {t4.B, t5.B}; t1.B and every C stay outside them.
    schema = parse_schema("relation R(A:str, B:str, C:str)")
    rows = [["c", "p", "u"], ["a", "q", "u"], ["a", "x", "u"],
            ["b", "r", "u"], ["b", "y", "u"]]
    d = load_instance(schema, {"R": rows})
    mdset = parse_mds("R[A] = R[A] -> R[B] == R[B]", schema)
    space = ChaseSpace(d, mdset)
    start = space.start

    def state(fresh):
        values = list(start)
        for slot, rung in fresh.items():
            values[slot] = space.fresh(rung)
        return tuple(values)

    states = [
        # kept rung 0 before the first block, rung 1 only inside the first
        # block, kept rung 2 after it and also in the second block's pool
        state({1: 0, 4: 1, 8: 2, 10: 2}),
        # the same rung in both blocks' pools, a kept rung after both
        state({4: 0, 10: 0, 14: 1}),
        # kept rungs on both sides of the first block, the second block
        # holding the only copy of a rung
        state({1: 0, 5: 1, 13: 2}),
    ]
    for values in states:
        got = _checked_successors(space, mdset, values)
        assert len(got) == 9
    # choosing x for the first block drops rung 1, so the kept rung 2 moves down
    renamed = list(space.successors(states[0], space.open_blocks(states[0])))
    assert renamed[3][8] is space.fresh(1)


def test_oracle_matches_reference_on_fixtures():
    for root in sorted(p for p in FIXTURES.iterdir() if p.is_dir()):
        for mds in sorted(root.glob("mds*.txt")):
            for sims in sorted(root.glob("sims*.txt")) or [None]:
                bundle = load_bundle(root.name, mds.name, sims.name if sims else None)
                label = (root.name, mds.name, sims and sims.name)
                assert _oracle_outcome(
                    enumerate_mris_oracle, bundle.instance, bundle.mdset, None
                ) == _oracle_outcome(
                    ref_enumerate_mris_oracle, bundle.instance, bundle.mdset, None
                ), label


def test_fast_family_matches_oracle_on_fixtures():
    for name in ("dup_groups", "simple_cycle", "two_rule_cycle",
                 "majority_column", "three_rel_join"):
        bundle = load_bundle(name)
        family = fast_mri_family(bundle.instance, bundle.mdset)
        mris, min_change = enumerate_mris_oracle(bundle.instance, bundle.mdset)
        assert family.count == len(mris), name
        assert family.min_change == min_change, name
        materialized, truncated = family.materialize()
        assert not truncated
        assert sorted(m.key() for m in materialized) == sorted(m.key() for m in mris), name


def test_fast_family_canonical_is_smallest(dup_groups):
    family = fast_mri_family(dup_groups.instance, dup_groups.mdset)
    materialized, _ = family.materialize()
    canon = family.canonical()
    assert min(m.key() for m in materialized) == canon.key()


def test_materialize_truncates(dup_groups):
    family = fast_mri_family(dup_groups.instance, dup_groups.mdset)
    materialized, truncated = family.materialize(limit=3)
    assert truncated and len(materialized) == 3
    assert family.materialize(limit=0) == ([], True)
    materialized, truncated = family.materialize(limit=10**20)
    assert not truncated and len(materialized) == family.count
    with pytest.raises(InputError):
        family.materialize(limit=-1)


def test_fast_family_refuses_slow_classes(hard_chain):
    with pytest.raises(NotEligibleError):
        fast_mri_family(hard_chain.instance, hard_chain.mdset)


def test_resolved_values(majority_column):
    d, m = majority_column.instance, majority_column.mdset
    assert resolved_values(d, m, "R", "B") == ("b2",)
    # unchangeable columns resolve to their projection
    assert resolved_values(d, m, "R", "A") == ("a1",)
    assert resolved_values(d, m, "R", "C") == ("c1", "c2", "c3")


def test_resolved_values_empty_on_ties(dup_groups):
    assert resolved_values(dup_groups.instance, dup_groups.mdset, "R", "B") == ()


def test_resolved_values_validates_attr(dup_groups):
    from mdres import InputError

    with pytest.raises(InputError):
        resolved_values(dup_groups.instance, dup_groups.mdset, "R", "Z")


@settings(max_examples=100, derandomize=True, deadline=None, print_blob=False)
@given(
    st.sampled_from(sorted(CASES) + ["keyed"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_resolved_values_are_in_every_oracle_mri(kind, seed):
    schema, d, mdset = {**CASES, "keyed": rand_keyed_case}[kind](random.Random(seed))
    fast = classify(mdset).fast
    mris = enumerate_mris_oracle(d, mdset)[0] if fast else None
    for rschema in schema.relations:
        for attr in rschema.attrs:
            rel = rschema.name
            if (rel, attr) not in mdset.changeable:
                assert resolved_values(d, mdset, rel, attr) == tuple(
                    sorted(set(d.column(rel, attr)))
                )
            elif not fast:
                with pytest.raises(NotEligibleError):
                    resolved_values(d, mdset, rel, attr)
            if fast:
                common = set.intersection(*(set(m.column(rel, attr)) for m in mris))
                assert resolved_values(d, mdset, rel, attr) == tuple(sorted(common))


class _RecordingSpace(ChaseSpace):
    """A ChaseSpace that records each state it expands and each successor
    it yields."""

    def __init__(self, d, mdset):
        super().__init__(d, mdset)
        self.expanded, self.built = [], []

    def successors(self, values, open_blocks, max_values=OracleBounds.max_values, expanded=None):
        self.expanded.append(values)
        for succ in super().successors(values, open_blocks, max_values, expanded):
            self.built.append(succ)
            yield succ


def _plain_search(space, bounds, expanded):
    """Breadth-first search that relinks every state and builds every
    combination: (stable set, number of states visited)."""
    visited = {space.start}
    frontier, stable = [space.start], set()
    while frontier:
        next_frontier = []
        for values in frontier:
            open_blocks = space.open_blocks(values)
            if not open_blocks:
                stable.add(values)
                continue
            expanded.append(values)
            for succ in space.successors(values, open_blocks, bounds.max_values):
                if succ not in visited:
                    visited.add(succ)
                    if len(visited) > bounds.max_states:
                        raise BoundsExceededError(
                            f"chase state space exceeds {bounds.max_states} instances"
                        )
                    next_frontier.append(succ)
        frontier = next_frontier
    return stable, len(visited)


def _package_search(space, bounds):
    stable = stable_states(space, bounds)
    assert len(stable) == len(set(stable))
    return set(stable), len({space.start, *space.built})


def _search_outcome(search, *args):
    try:
        return search(*args)
    except BoundsExceededError as exc:
        return str(exc)


@settings(max_examples=100, derandomize=True, deadline=None, print_blob=False)
@given(
    st.sampled_from(sorted(CASES) + ["dn"]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=300),
)
def test_search_matches_plain_breadth_first_search(kind, seed, states):
    if kind == "dn":
        _, d, mdset = dn_instance(4 + seed % 3)
    else:
        _, d, mdset = CASES[kind](random.Random(seed))
    for bounds in (OracleBounds(), OracleBounds(max_states=states)):
        plain = ChaseSpace(d, mdset)
        plain_expanded = []
        expected = _search_outcome(_plain_search, plain, bounds, plain_expanded)
        space = _RecordingSpace(d, mdset)
        assert _search_outcome(_package_search, space, bounds) == expected, bounds
        assert space.expanded == plain_expanded, bounds


def _condition_slots(space, mdset):
    return {
        space.slots[attr][tid]
        for md in mdset.mds
        for c in md.lhs
        for attr in (c.left, c.right)
        for tid in space.slots.get(attr, {})
    }


@settings(max_examples=100, derandomize=True, deadline=None, print_blob=False)
@given(
    st.sampled_from(["hsc", "chain"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_settling_steps_and_state_keyed_links(kind, seed):
    """A step whose open blocks hold no condition slot reaches only stable
    states; link sets read off a state, fresh values included, equal
    link_groups on the state's instance."""
    _, d, mdset = CASES[kind](random.Random(seed))
    space = ChaseSpace(d, mdset)
    conditions = _condition_slots(space, mdset)
    pending, seen = [space.start], set()
    while pending and len(seen) < 200:
        values = pending.pop()
        if values in seen:
            continue
        seen.add(values)
        open_blocks = space.open_blocks(values)
        succ = list(space.successors(values, open_blocks, max_values=99))
        if open_blocks:
            settles = all(conditions.isdisjoint(block) for block, _ in open_blocks)
            assert space.settles(open_blocks) == settles
            if settles:
                for s in succ:
                    assert space.open_blocks(s) == [], (values, s)
        instance = space.instance(values)
        for i, md in enumerate(mdset.mds):
            ds = DisjointSet()
            union_groups(ds, link_groups(md, instance, mdset.sims), md.rhs, space.slots)
            expected = tuple(g for g in ds.groups() if len(g) > 1)
            assert space.link_set(i, values) == expected, (md.mid, values)
        pending.extend(succ)


def test_settling_step_on_duplicate_pairs(hard_chain):
    # the targets of R[A] = R[A] -> R[B] == R[B] are no condition: one step
    # settles every pair
    _, d, mdset = dn_instance(3)
    space = ChaseSpace(d, mdset)
    open_blocks = space.open_blocks(space.start)
    assert space.settles(open_blocks)
    succ = list(space.successors(space.start, open_blocks))
    assert len(succ) == 27
    assert all(space.open_blocks(s) == [] for s in succ)
    # m1 of the hard chain targets R[B], a condition of m2
    space = ChaseSpace(hard_chain.instance, hard_chain.mdset)
    assert not space.settles(space.open_blocks(space.start))
