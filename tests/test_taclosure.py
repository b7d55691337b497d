import random
import string
import time
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

import mdres.similarity
from mdres import (
    emit_datalog,
    load_instance,
    neighbours,
    parse_mds,
    parse_schema,
    ta_closure,
)
from mdres.dsets import DisjointSet
from mdres.mds import MDSet
from mdres.relation import Position
from mdres.resolver import ChaseSpace
from mdres.similarity import SimilaritySpec
from mdres.taclosure import feeders, link_groups, linked_pairs

from conftest import FIXTURES, load_bundle
from datalog_engine import datalog_partition
from generators import (
    rand_dup_case, rand_hsc_case, rand_keyed_case, rand_link_case, rand_ni_case,
)
from reference import (
    _lhs_pairs,
    ref_emit_datalog,
    ref_merge_blocks,
    ref_partition_json,
    ref_positions,
    ref_similar,
    ref_ta_blocks,
    run_pairs,
)


def test_two_rule_cycle_blocks(two_rule_cycle):
    part = ta_closure(two_rule_cycle.instance, two_rule_cycle.mdset)
    assert part.blocks == (
        tuple(Position(t, ("R", "A")) for t in (1, 2, 3, 4)),
        tuple(Position(t, ("R", "B")) for t in (1, 2, 3, 4)),
    )
    assert part.counts == (
        (("a1", 1), ("a2", 1), ("b1", 1), ("b2", 1)),
        (("d1", 1), ("d2", 1), ("e1", 1), ("e2", 1)),
    )
    assert part.min_change == 6


def test_blocks_cover_singletons(majority_column):
    part = ta_closure(majority_column.instance, majority_column.mdset)
    # every changeable position appears even if nothing links it
    assert sum(len(b) for b in part.blocks) == 3
    assert part.pools[0] == ("b2",)


def test_feeding_md_seeds_target_blocks(two_rule_cycle):
    # dropping the feeder must split the closure apart
    schema = two_rule_cycle.schema
    solo = parse_mds("R[A] ~s R[A] -> R[B] == R[B]", schema, two_rule_cycle.sims)
    part = ta_closure(two_rule_cycle.instance, solo)
    assert part.blocks == (
        (Position(1, ("R", "B")), Position(2, ("R", "B"))),
        (Position(3, ("R", "B")), Position(4, ("R", "B"))),
    )


def test_cross_relation_block(three_rel_join):
    part = ta_closure(three_rel_join.instance, three_rel_join.mdset)
    (block,) = part.blocks
    assert set(block) == {
        Position(1, ("R", "B")),
        Position(2, ("R", "B")),
        Position(3, ("S", "F")),
        Position(4, ("U", "I")),
    }
    assert part.pools[0] == ("b1",)


def test_block_index(two_rule_cycle, majority_column):
    part = ta_closure(two_rule_cycle.instance, two_rule_cycle.mdset)
    pos = Position(3, ("R", "A"))
    slot = part.slots[pos.attr][pos.tid]
    assert pos in part.blocks[part.block_of[slot]]
    # both blocks hold four values once each: no slot has a winner
    assert part.slot_winners == [None] * 8
    part = ta_closure(majority_column.instance, majority_column.mdset)
    # R[B] of the three tuples is one block holding b1, b2, b2
    at = part.slots[("R", "B")]
    assert [part.slot_winners[at[tid]] for tid in (1, 2, 3)] == ["b2"] * 3


def test_indexes_match_a_scan_of_blocks():
    cases = [
        (root.name, sims)
        for root in sorted(FIXTURES.iterdir())
        for sims in [p.name for p in sorted(root.glob("sims*.txt"))] or [None]
    ]
    for name, sims in cases:
        bundle = load_bundle(name, sims=sims)
        part = ta_closure(bundle.instance, bundle.mdset)
        assert len(part) == len(part.blocks), (name, sims)
        for pos in ref_positions(bundle.instance):
            owners = [i for i, block in enumerate(part.blocks) if pos in block]
            at = part.slots.get(pos.attr, {})
            if owners:
                assert [part.block_of[at[pos.tid]]] == owners, (name, sims, pos)
                pool = part.pools[owners[0]]
                winner = pool[0] if len(pool) == 1 else None
                assert part.slot_winners[at[pos.tid]] == winner, (name, sims, pos)
            else:
                assert pos.tid not in at, (name, sims, pos)


def _check_slot_winners(inst, mdset) -> tuple[int, int]:
    """Assert that each slot's winner is the single most frequent value of
    its reference block, or None when several share the top count, and that
    each block's pool, counts and the min_change equal a brute-force tally
    of the reference blocks; return the tied and the singleton blocks."""
    part = ta_closure(inst, mdset)
    blocks = ref_ta_blocks(inst, mdset)
    assert len(part.slot_winners) == sum(map(len, blocks))
    assert len(part.pools) == len(part.counts) == len(blocks)
    ties = singletons = change = 0
    for i, block in enumerate(blocks):
        tally = Counter(inst.value(p) for p in block)
        best = max(tally.values())
        top = sorted(v for v, n in tally.items() if n == best)
        ties += len(top) > 1
        singletons += len(block) == 1
        change += len(block) - best
        assert part.pools[i] == tuple(top), block
        assert part.counts[i] == tuple(sorted(tally.items())), block
        for pos in block:
            got = part.slot_winners[part.slots[pos.attr][pos.tid]]
            assert got == (top[0] if len(top) == 1 else None), pos
    assert part.min_change == change
    return ties, singletons


def _winner_case(name, seed):
    rng = random.Random(seed)
    if name == "link":
        return rand_link_case(rng)
    case = {
        "ni": rand_ni_case, "hsc": rand_hsc_case, "dup": rand_dup_case, "keyed": rand_keyed_case,
    }[name](rng)
    return case[1], case[2]


WINNER_CASES = ("ni", "hsc", "dup", "link", "keyed")


@pytest.mark.parametrize("name", WINNER_CASES)
@settings(max_examples=100, derandomize=True, deadline=None, print_blob=False)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_slot_winners_match_the_reference_pools(name, seed):
    _check_slot_winners(*_winner_case(name, seed))


def test_slot_winner_cases_hold_ties_and_singletons():
    """The generators behind the hypothesis test above give tied blocks and
    singleton blocks (rand_dup_case plants groups of two or more, so no
    singletons there), so both of its branches are reached."""
    seen = Counter()
    for name in WINNER_CASES:
        for seed in range(30):
            ties, singletons = _check_slot_winners(*_winner_case(name, seed))
            seen[name, "tie"] += ties
            seen[name, "singleton"] += singletons
    assert all(seen[name, "tie"] for name in WINNER_CASES), seen
    assert all(seen[name, "singleton"] for name in ("ni", "hsc", "link", "keyed")), seen


def test_matches_reachability_reference():
    for name in ("dup_groups", "two_rule_cycle", "three_rel_join",
                 "majority_column", "simple_cycle"):
        bundle = load_bundle(name)
        part = ta_closure(bundle.instance, bundle.mdset)
        assert part.blocks == ref_ta_blocks(bundle.instance, bundle.mdset), name


def test_datalog_partition_agrees():
    for name in ("dup_groups", "two_rule_cycle", "three_rel_join",
                 "majority_column", "simple_cycle"):
        bundle = load_bundle(name)
        part = ta_closure(bundle.instance, bundle.mdset)
        assert datalog_partition(bundle.instance, bundle.mdset) == part.blocks, name


def test_emitted_program_shape(two_rule_cycle):
    text = emit_datalog(two_rule_cycle.instance, two_rule_cycle.mdset)
    lines = [l for l in text.splitlines() if l and not l.startswith("%")]
    facts = [l for l in lines if l.startswith("rel_R(")]
    sims = [l for l in lines if l.startswith("sim(")]
    rules = [l for l in lines if ":-" in l]
    assert len(facts) == 4
    # each MD contributes its similar ordered pairs, self-pairs included
    assert len(sims) == 16
    closure_rules = [r for r in rules if r.startswith("ta(")]
    assert len(closure_rules) == 2
    assert "ta(X, A, Y, B) :- eqp(X, A, Y, B)." in closure_rules[0]


def test_emitted_program_quotes_values():
    schema = parse_schema("relation R(A:str, B:str)")
    inst = load_instance(schema, {"R": [["it's", "x"]]})
    mdset = parse_mds("R[A] = R[A] -> R[B] == R[B]", schema)
    text = emit_datalog(inst, mdset)
    assert "'it''s'" in text
    assert datalog_partition(inst, mdset) == ta_closure(inst, mdset).blocks


def test_partition_json(two_rule_cycle):
    part = ta_closure(two_rule_cycle.instance, two_rule_cycle.mdset)
    payload = ref_partition_json(part)
    assert payload[0]["positions"][0] == ["R", 1, "A"]
    assert payload[0]["values"] == {"a1": 1, "a2": 1, "b1": 1, "b2": 1}


@settings(max_examples=150, derandomize=True, deadline=None, print_blob=False)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_link_groups_match_nested_loop(seed):
    inst, mdset = rand_link_case(random.Random(seed))
    for md in mdset.mds:
        expanded = [
            (t1, t2)
            for ltids, rtids in link_groups(md, inst, mdset.sims)
            for t1 in ltids
            for t2 in rtids
        ]
        assert len(expanded) == len(set(expanded)), md  # one group per pair
        assert sorted(expanded) == _lhs_pairs(md, inst, mdset.sims), md
        assert run_pairs(linked_pairs(md, inst, mdset.sims)) == _lhs_pairs(md, inst, mdset.sims)
    part = ta_closure(inst, mdset)
    ref_blocks = ref_ta_blocks(inst, mdset)
    assert part.blocks == ref_blocks
    assert part.counts == tuple(
        tuple(sorted(Counter(inst.value(p) for p in block).items()))
        for block in ref_blocks
    )
    space = ChaseSpace(inst, mdset)
    assert [tuple(space.positions[i] for i in block) for block in space.blocks(space.start)] == [
        positions for positions, _ in ref_merge_blocks(inst, mdset)
    ]
    for i, md in enumerate(mdset.mds):
        alone = MDSet((md,), mdset.schema, mdset.sims)
        assert [
            tuple(space.positions[s] for s in block)
            for block in space.link_set(i, space.start)
        ] == [positions for positions, _ in ref_merge_blocks(inst, alone)], md


@settings(max_examples=100, derandomize=True, deadline=None, print_blob=False)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_emitted_sim_facts_are_the_linked_pairs_in_order(seed):
    """emit_datalog writes a left tuple's facts with one join; with `lev` and
    table conjuncts a left tid lies in several groups, and its facts must
    still come out once each, in the order of linked_pairs."""
    inst, mdset = rand_link_case(random.Random(seed))
    assume(any(
        len(tids) > len(set(tids))
        for tids in (
            [t for ltids, _ in link_groups(md, inst, mdset.sims) for t in ltids]
            for md in mdset.mds
        )
    ))
    lines = emit_datalog(inst, mdset).splitlines()
    for md in mdset.mds:
        head = f"sim('{md.mid}', "
        assert [line for line in lines if line.startswith(head)] == [
            f"{head}{t1}, {t2})." for t1, t2 in run_pairs(linked_pairs(md, inst, mdset.sims))
        ], md


# Cells that quoting must escape or keep as they are: a quote, a comma, a
# closing parenthesis, a space and non-ASCII letters, next to the pool that
# the generator's similarity tables range over.
DATALOG_VALUES = ("u", "v", "w", "x", "it's", "a,b", "x)", "u v", "é", "'ü'", "ßv")


@settings(max_examples=150, derandomize=True, deadline=None, print_blob=False)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_emitted_program_matches_the_fact_by_fact_reference(seed):
    """emit_datalog, byte for byte, against facts written one per row and
    one per pair of the nested loop. A case draws its cells from a few of
    DATALOG_VALUES, so values repeat across columns, and some cases hold no
    quote at all."""
    rng = random.Random(seed)
    values = tuple(rng.sample(DATALOG_VALUES, rng.randint(2, 6)))
    inst, mdset = rand_link_case(rng, values)
    assert emit_datalog(inst, mdset) == ref_emit_datalog(inst, mdset)


def test_huge_edit_bound_links_everything_without_looping_over_it():
    huge = SimilaritySpec(name="l", kind="lev", max_distance=999_999_999)
    values = ["", "a", "ab", "ba", "abc", "cab", "abcabc"]
    near = neighbours(huge, values)
    assert {v: set(ns) for v, ns in near.items()} == {
        v: {u for u in values if ref_similar(huge, v, u)} for v in values
    } == {v: set(values) for v in values}
    schema = parse_schema("relation R(A:str, B:str)\nrelation S(E:str, F:str)")
    inst = load_instance(schema, {
        "R": [[v, str(i % 2)] for i, v in enumerate(values) if v],
        "S": [["x", "0"], ["b", "1"], ["abcabcabc", "r"]],
    })
    mdset = parse_mds(
        "R[A] ~l R[A] -> R[B] == R[B];\n"
        "R[A] ~l S[E], R[B] = S[F] -> R[B] == S[F];\n"
        "R[B] = S[F], R[A] ~l S[E] -> R[A] == S[E]",
        schema, {"l": huge},
    )
    for md in mdset.mds:
        assert run_pairs(linked_pairs(md, inst, mdset.sims)) == _lhs_pairs(
            md, inst, mdset.sims
        ), md


def test_lev_linking_is_not_quadratic(monkeypatch):
    """2,000 random words under lev <= 1: testing every pair of distinct keys
    makes about 4M edit-distance checks; the neighbour index, a few hundred."""
    rng = random.Random(2000)
    words = set()
    while len(words) < 2000:
        words.add("".join(rng.choice(string.ascii_lowercase) for _ in range(8)))
    schema = parse_schema("relation R(A:str, B:str)")
    inst = load_instance(
        schema, {"R": [[w, str(i % 7)] for i, w in enumerate(sorted(words))]}
    )
    mdset = parse_mds(
        "R[A] ~s R[A] -> R[B] == R[B]", schema,
        {"s": SimilaritySpec(name="s", kind="lev", max_distance=1)},
    )
    calls = 0
    within = mdres.similarity.within_distance

    def counted(a, b, k):
        nonlocal calls
        calls += 1
        return within(a, b, k)

    monkeypatch.setattr(mdres.similarity, "within_distance", counted)
    ta_closure(inst, mdset)
    assert calls < 20_000


def test_unions_follow_keys_and_groups_not_pairs(monkeypatch):
    """K keys, all similar under a complete table, with T tuples each: K^2
    groups whose sides are the same K tid lists. The kernel stars each list
    once and joins the hubs once per group, so the closure and the chase's
    link set each merge at most K*T + 2*K^2*|rhs| class ids; a star per
    group would merge about 2*K^2*T."""
    k, t = 30, 10
    keys = [f"k{i}" for i in range(k)]
    table = SimilaritySpec(
        name="t", kind="table",
        pairs=frozenset((a, b) for a in keys for b in keys if a != b),
    )
    schema = parse_schema("relation R(A:str, B:str)")
    inst = load_instance(
        schema, {"R": [[key, f"{key}v{j}"] for key in keys for j in range(t)]}
    )
    mdset = parse_mds("R[A] ~t R[A] -> R[B] == R[B]", schema, {"t": table})
    merged = 0
    merge = DisjointSet.merge

    def counted(self, ids):
        nonlocal merged
        merged += len(ids)
        return merge(self, ids)

    monkeypatch.setattr(DisjointSet, "merge", counted)
    bound = k * t + 2 * k * k * len(mdset.mds[0].rhs)
    (block,) = ta_closure(inst, mdset).blocks
    assert len(block) == k * t
    assert 0 < merged <= bound
    merged = 0
    space = ChaseSpace(inst, mdset)
    assert [len(b) for b in space.link_set(0, space.start)] == [k * t]
    assert 0 < merged <= bound


def test_feeders_of_a_long_cycle_are_not_cubic():
    # every MD of an n-MD cycle is fed by all n; the graph's neighbour
    # tuples and the id index are built once, so this stays near n^2
    n = 1000
    schema = parse_schema("relation R(" + ", ".join(f"A{i}:str" for i in range(n)) + ")")
    mdset = parse_mds(
        "; ".join(
            f"R[A{i}] = R[A{i}] -> R[A{(i + 1) % n}] == R[A{(i + 1) % n}]"
            for i in range(n)
        ),
        schema,
    )
    start = time.perf_counter()
    for md in mdset.mds:
        assert len(feeders(mdset, md)) == n
    assert time.perf_counter() - start < 10.0
