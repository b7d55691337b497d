"""Property tests for the structural invariants.

Random structures come from the generators module, driven by a seed that
hypothesis controls; derandomize keeps runs reproducible.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from mdres import (
    build_cqa_instance,
    classify,
    diff_changeset,
    enumerate_mris_oracle,
    fast_mri_family,
    is_stable,
    parse_mds,
    ta_closure,
)
from mdres.relation import Instance, Position, load_instance, parse_schema
from mdres.resolver import ChaseSpace

from generators import (
    rand_chain_case,
    rand_hsc_case,
    rand_keyed_case,
    rand_ni_case,
    rand_overlap_chain_case,
)
from reference import (
    ref_key_repairs,
    ref_linked_position_pairs,
    ref_modifiable,
    ref_stable,
    ref_ta_blocks,
    ref_tids,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
COMMON = dict(derandomize=True, deadline=None, print_blob=False)


def ni_or_hsc(seed):
    rng = random.Random(seed)
    case = rand_ni_case(rng) if rng.random() < 0.5 else rand_hsc_case(rng)
    _, instance, mdset = case
    return instance, mdset


@pytest.mark.parametrize("case", [
    rand_ni_case, rand_hsc_case, rand_chain_case, rand_overlap_chain_case, rand_keyed_case,
], ids=lambda case: case.__name__)
@settings(max_examples=50, **COMMON)
@given(SEEDS)
def test_md_text_round_trip(case, seed):
    """Every generated MD set parses back from its own text, ids stripped."""
    _, _, mdset = case(random.Random(seed))
    text = "; ".join(str(md).split(": ", 1)[1] for md in mdset.mds)
    assert parse_mds(text, mdset.schema, mdset.sims).mds == mdset.mds


@settings(max_examples=50, **COMMON)
@given(SEEDS)
def test_merge_blocks_partition_positions(seed):
    d, mdset = ni_or_hsc(seed)
    part = ta_closure(d, mdset)
    seen = set()
    for block in part.blocks:
        assert block == tuple(sorted(block))
        for pos in block:
            assert pos not in seen
            seen.add(pos)
            assert pos.attr in mdset.changeable
    assert part.blocks == ref_ta_blocks(d, mdset)


@settings(max_examples=50, **COMMON)
@given(SEEDS)
def test_modifiable_fixpoint(seed):
    d, mdset = ni_or_hsc(seed)
    space = ChaseSpace(d, mdset)
    mod = frozenset(
        space.positions[i] for block, _ in space.open_blocks(space.start) for i in block
    )
    assert mod == ref_modifiable(d, mdset)
    # one more application of the defining rule adds nothing
    linked = ref_linked_position_pairs(d, mdset)
    step = {
        p for p, q in linked
        if d.value(p) != d.value(q) or q in mod
    }
    assert frozenset(step) == mod


@settings(max_examples=40, **COMMON)
@given(SEEDS)
def test_oracle_mris_are_stable_and_minimal(seed):
    d, mdset = ni_or_hsc(seed)
    mris, min_change = enumerate_mris_oracle(d, mdset)
    assert mris, "at least one minimal resolved instance exists"
    sizes = []
    for mri in mris:
        assert is_stable(mri, mdset)
        assert ref_stable(mri, mdset)
        diff = diff_changeset(d, mri)
        sizes.append(len(diff))
        for pos in diff:
            assert pos.attr in mdset.changeable
    assert min(sizes) == min_change


@settings(max_examples=40, **COMMON)
@given(SEEDS)
def test_fast_family_agrees_with_oracle(seed):
    d, mdset = ni_or_hsc(seed)
    cls = classify(mdset)
    assert cls.fast, cls.label
    family = fast_mri_family(d, mdset)
    mris, min_change = enumerate_mris_oracle(d, mdset)
    assert family.count == len(mris)
    assert family.min_change == min_change
    got, truncated = family.materialize(limit=4096)
    assert not truncated
    assert sorted(m.key() for m in got) == [m.key() for m in mris]


@settings(max_examples=40, **COMMON)
@given(SEEDS)
def test_closure_invariant_under_tid_relabeling(seed):
    d, mdset = ni_or_hsc(seed)
    part = ta_closure(d, mdset)
    tids = [tid for rel in d.schema.names() for tid in ref_tids(d, rel)]
    rng = random.Random(seed ^ 0x5A5A)
    shuffled = tids[:]
    rng.shuffle(shuffled)
    mapping = dict(zip(tids, shuffled))
    rows = {
        rel: [(mapping[tid], list(row)) for tid, row in d.rows(rel)]
        for rel in d.schema.names()
    }
    relabeled = load_instance(
        d.schema,
        {rel: [r for _, r in sorted(pairs)] for rel, pairs in rows.items()},
        tids={rel: [t for t, _ in sorted(pairs)] for rel, pairs in rows.items()},
    )
    part2 = ta_closure(relabeled, mdset)
    expected = sorted(
        tuple(sorted(Position(mapping[p.tid], p.attr) for p in block))
        for block in part.blocks
    )
    assert list(part2.blocks) == expected


@settings(max_examples=40, **COMMON)
@given(SEEDS)
def test_key_repair_counts(seed):
    rng = random.Random(seed)
    _, d, mdset = rand_keyed_case(rng)
    kr = build_cqa_instance(d, "K", ["Name"])
    repairs = ref_key_repairs(d, "K", ("Name",))
    assert kr.repair_count == len(repairs)
    assert kr.rows == tuple(sorted(frozenset().union(*repairs)))
    for key_values, rows in kr.groups:
        assert rows and all((row[0],) == key_values for row in rows)


def _widened(d, mdset, empty: str | None, rng):
    """d and mdset over the schema plus X(P, Q), a relation no MD reads, with
    one tuple, and d's tids shuffled among its rows; with `empty`, that
    relation of d has no tuples."""
    decls = [
        f"relation {r.name}({', '.join(f'{a}:{t}' for a, t in zip(r.attrs, r.tags))})"
        for r in d.schema.relations
    ]
    schema = parse_schema("\n".join([*decls, "relation X(P:str, Q:str)"]))
    text = "; ".join(str(md).split(": ", 1)[1] for md in mdset.mds)
    rows = {rel: [list(r) for _, r in d.rows(rel)] for rel in d.schema.names()}
    tids = {rel: rng.sample(ref_tids(d, rel), len(ref_tids(d, rel))) for rel in d.schema.names()}
    if empty is not None:
        rows[empty], tids[empty] = [], []
    rows["X"] = [["p", "q"]]
    return load_instance(schema, rows, tids), parse_mds(text, schema, mdset.sims)


@settings(max_examples=60, **COMMON)
@given(SEEDS, st.booleans())
def test_assignment_matches_with_values(seed, empty):
    """MRIFamily.assignment reads each slot's block off block_of and
    rebuilds each relation with relation.with_slot_values; it equals with_values of the same block assignment, also for a relation no
    MD reads and for a changeable relation without tuples."""
    d, mdset = ni_or_hsc(seed)
    rng = random.Random(seed)
    changed = sorted({rel for rel, _ in mdset.changeable})
    d, mdset = _widened(d, mdset, rng.choice(changed) if empty else None, rng)
    family = fast_mri_family(d, mdset)
    for _ in range(3):
        # any value per block, not only its candidates
        combo = tuple(rng.choice([*pool, "z", "x'y"]) for pool in family.candidates)
        changes = {
            pos: value
            for block, value in zip(family.partition.blocks, combo)
            for pos in block
        }
        got, expected = family.assignment(combo), d.with_values(changes)
        assert got.data == expected.data
        assert list(got.data) == list(expected.data)
        assert got == expected
