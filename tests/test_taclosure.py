import random
import string
from collections import Counter

from hypothesis import given, settings, strategies as st

import mdres.similarity
from mdres import (
    emit_datalog,
    load_instance,
    merge_partition,
    neighbours,
    parse_mds,
    parse_schema,
    ta_closure,
)
from mdres.dsets import DisjointSet
from mdres.relation import Position
from mdres.similarity import SimilaritySpec
from mdres.taclosure import datalog_partition, link_groups, linked_pairs

from conftest import load_bundle
from generators import rand_table_sim
from reference import (
    _lhs_pairs,
    ref_linked_position_pairs,
    ref_similar,
    ref_ta_blocks,
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
    assert part.min_changes(0) + part.min_changes(1) == 6


def test_blocks_cover_singletons(majority_column):
    part = ta_closure(majority_column.instance, majority_column.mdset)
    # every changeable position appears even if nothing links it
    assert sum(len(b) for b in part.blocks) == 3
    assert part.candidates(0) == ("b2",)


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
    assert part.candidates(0) == ("b1",)


def test_block_of(two_rule_cycle):
    part = ta_closure(two_rule_cycle.instance, two_rule_cycle.mdset)
    pos = Position(3, ("R", "A"))
    assert pos in part.blocks[part.block_of(pos)]
    assert part.blocks_at(("R", "A")) == (0,)


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
    payload = part.as_json()
    assert payload[0]["positions"][0] == ["R", 1, "A"]
    assert payload[0]["values"] == {"a1": 1, "a2": 1, "b1": 1, "b2": 1}


LINK_SCHEMA = parse_schema(
    "relation R(A:str, B:str, C:str)\nrelation S(E:str, F:str, G:str)"
)
LINK_VALUES = ("u", "v", "w", "x", "uv", "vw", "uvw", "wu")


def _rand_link_case(rng):
    """Instance and MD set mixing `=`, `lev <= k` and table conjuncts."""
    sims = {
        "l": SimilaritySpec(name="l", kind="lev", max_distance=rng.randint(0, 2)),
        "t": rand_table_sim(rng, "t"),
    }
    attrs = {r.name: r.attrs for r in LINK_SCHEMA.relations}
    lines = []
    for _ in range(rng.randint(1, 3)):
        left, right = rng.choice((("R", "R"), ("R", "S"), ("S", "S")))
        conjuncts = []
        for _ in range(rng.randint(1, 3)):
            op = rng.choice(("=", "~l", "~t"))
            conjuncts.append(
                f"{left}[{rng.choice(attrs[left])}] {op} "
                f"{right}[{rng.choice(attrs[right])}]"
            )
        lines.append(
            f"{', '.join(dict.fromkeys(conjuncts))} -> "
            f"{left}[{rng.choice(attrs[left])}] == {right}[{rng.choice(attrs[right])}]"
        )
    mdset = parse_mds(";".join(lines), LINK_SCHEMA, sims)
    rows = {
        rel: [[rng.choice(LINK_VALUES) for _ in range(3)]
              for _ in range(rng.randint(1, 7))]
        for rel in ("R", "S")
    }
    return load_instance(LINK_SCHEMA, rows), mdset


@settings(max_examples=150, derandomize=True, deadline=None, print_blob=False)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_link_groups_match_nested_loop(seed):
    inst, mdset = _rand_link_case(random.Random(seed))
    for md in mdset.mds:
        expanded = [
            (t1, t2)
            for ltids, rtids in link_groups(md, inst, mdset.sims)
            for t1 in ltids
            for t2 in rtids
        ]
        assert len(expanded) == len(set(expanded)), md  # one group per pair
        assert sorted(expanded) == _lhs_pairs(md, inst, mdset.sims), md
        assert linked_pairs(md, inst, mdset.sims) == _lhs_pairs(md, inst, mdset.sims)
    part = ta_closure(inst, mdset)
    ref_blocks = ref_ta_blocks(inst, mdset)
    assert part.blocks == ref_blocks
    assert part.counts == tuple(
        tuple(sorted(Counter(inst.value(p) for p in block).items()))
        for block in ref_blocks
    )
    ds = DisjointSet()
    for p, q in ref_linked_position_pairs(inst, mdset):
        ds.union(p, q)
    expected = sorted(tuple(sorted(g)) for g in ds.groups())
    assert [b.positions for b in merge_partition(inst, mdset)] == expected


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
        assert linked_pairs(md, inst, mdset.sims) == _lhs_pairs(md, inst, mdset.sims), md


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
