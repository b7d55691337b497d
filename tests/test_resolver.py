import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdres import (
    BoundsExceededError,
    InputError,
    NotEligibleError,
    OracleBounds,
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
from mdres.relation import Position, load_instance
from mdres.resolver import ChaseSpace

from conftest import FIXTURES, load_bundle
from generators import (
    rand_chain_case,
    rand_hsc_case,
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
        s for s in _expand(space, space.values(dup_groups.instance))
        if not any(space.sentinel in v for v in s)
    ]
    # two open blocks with two candidate values each
    assert len(succ) == 4
    assert all(is_stable(space.instance(s), dup_groups.mdset) for s in succ)


def test_chase_step_counts_with_fresh(dup_groups):
    space = ChaseSpace(dup_groups.instance, dup_groups.mdset)
    succ = _expand(space, space.values(dup_groups.instance))
    # each block gains one fresh option: (2+1) * (2+1)
    assert len(succ) == 9


def test_chase_step_on_stable_instance_is_empty(dup_groups):
    d1 = dup_groups.variant("D1")
    space = ChaseSpace(d1, dup_groups.mdset)
    assert _expand(space, space.values(d1)) == []


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
    for name in ("max_tuples", "max_values", "max_depth", "max_materialized",
                 "max_states"):
        with pytest.raises(InputError, match=f"^{name} must be at least 0$"):
            enumerate_mris_oracle(
                dup_groups.instance, dup_groups.mdset, OracleBounds(**{name: -1})
            )
        assert getattr(OracleBounds(**{name: 0}), name) == 0
    assert OracleBounds(max_depth=None).max_depth is None


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
    st.integers(min_value=0, max_value=3),
)
def test_oracle_matches_per_state_reference(kind, seed, states, values, depth):
    _, d, mdset = CASES[kind](random.Random(seed))
    for bounds in (
        None,
        OracleBounds(max_states=states),
        OracleBounds(max_values=values),
        OracleBounds(max_depth=depth),
    ):
        assert _oracle_outcome(enumerate_mris_oracle, d, mdset, bounds) == (
            _oracle_outcome(ref_enumerate_mris_oracle, d, mdset, bounds)
        ), bounds


@settings(max_examples=100, derandomize=True, deadline=None, print_blob=False)
@given(st.sampled_from(sorted(CASES)), st.integers(min_value=0, max_value=2**32 - 1))
def test_memoised_blocks_match_merge_partition(kind, seed):
    _, d, mdset = CASES[kind](random.Random(seed))
    space = ChaseSpace(d, mdset)
    pending, seen = [space.values(d)], set()
    while pending and len(seen) < 200:
        values = pending.pop()
        if values in seen:
            continue
        seen.add(values)
        expected = [
            tuple(space.slot[p] for p in block.positions)
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
        (tuple(space.slot[p] for p in block.positions), block.values)
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
    pending, seen = [space.values(d)], set()
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
    start = space.values(d)

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
