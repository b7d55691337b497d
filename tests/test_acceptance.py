"""End-to-end acceptance checks.

Each test pins one headline behavior: the worked examples reproduce
exactly, the fast path matches the exhaustive oracle at scale, and the
randomized equivalence suites hold with zero mismatches inside their
stated time budgets.
"""

import random
import time

from mdres import (
    build_cqa_instance,
    classify,
    diff_changeset,
    enumerate_mris_oracle,
    eval_rewritten,
    fast_mri_family,
    is_stable,
    parse_query,
    resolved_answers,
    rewrite,
    ta_closure,
)
from mdres.relation import Position, load_instance
from mdres.resolver import ChaseSpace

from conftest import load_bundle
from datalog_engine import datalog_partition
from reference import (
    ref_certain_answers,
    ref_key_repairs,
    ref_linked_position_pairs,
    ref_modifiable,
    ref_stable,
    ref_tids,
)
from generators import (
    dn_instance,
    rand_hsc_case,
    rand_keyed_case,
    rand_ni_case,
    rand_ujcq,
)


def ni_or_hsc(seed):
    rng = random.Random(seed)
    case = rand_ni_case(rng) if seed % 2 == 0 else rand_hsc_case(rng)
    return case[1], case[2]


def test_criterion_1_duplicate_groups_resolve_exactly():
    start = time.perf_counter()
    bundle = load_bundle("dup_groups")
    d = bundle.instance

    mris, min_change = enumerate_mris_oracle(d, bundle.mdset)
    assert len(mris) == 4
    assert min_change == 2

    family = fast_mri_family(d, bundle.mdset)
    assert family.count == 4
    assert family.min_change == 2
    materialized, truncated = family.materialize()
    assert not truncated
    assert sorted(m.key() for m in materialized) == [m.key() for m in mris]

    d1 = bundle.variant("D1")
    d2 = bundle.variant("D2")
    s1 = diff_changeset(d, d1)
    assert s1 == {
        Position(2, ("R", "B")), Position(4, ("R", "B")),
    }
    assert len(s1) == 2
    assert len(diff_changeset(d, d2)) == 3
    assert d1.key() in {m.key() for m in mris}

    assert time.perf_counter() - start < 1.0


def test_criterion_2_choice_count_scales_exponentially():
    start = time.perf_counter()
    for n in range(1, 21):
        _, d, mdset = dn_instance(n)
        family = fast_mri_family(d, mdset)
        assert family.count == 2 ** n
        assert family.min_change == n
        if n <= 3:
            mris, min_change = enumerate_mris_oracle(d, mdset)
            assert len(mris) == 2 ** n
            assert min_change == n
            got, truncated = family.materialize(limit=16)
            assert not truncated
            assert sorted(m.key() for m in got) == [m.key() for m in mris]
    assert time.perf_counter() - start < 5.0


def test_criterion_3_cycle_closure_and_empty_answers():
    start = time.perf_counter()
    bundle = load_bundle("two_rule_cycle")
    d = bundle.instance
    mdset = bundle.mdset

    part = ta_closure(d, mdset)
    assert len(part.blocks) == 2
    assert all(len(block) == 4 for block in part.blocks)
    assert datalog_partition(d, mdset) == part.blocks

    family = fast_mri_family(d, mdset)
    assert family.count == 16

    mris, _ = enumerate_mris_oracle(d, mdset)
    for text in ("Q(x) :- R(x, y)", "Q(y) :- R(x, y)"):
        q = parse_query(text, bundle.schema)
        fast = resolved_answers(q, d, mdset, mode="rewrite")
        assert fast.tuples == ()
        assert ref_certain_answers(q, mris) == frozenset()

    assert time.perf_counter() - start < 1.0


def test_criterion_4_majority_rewrite_answers():
    start = time.perf_counter()
    bundle = load_bundle("majority_column")
    d = bundle.instance
    mdset = bundle.mdset
    q = bundle.query("query.txt")

    rq = rewrite(q, mdset)
    assert rq.render() == (
        "Q'(x, y, z) :- exists y' (R(x, y', z) & forall y'' ("
        "#{R(a1', y, c1') : ta(R(x, y', z)[B], R(a1', y, c1')[B])} > "
        "#{R(a1', y'', c1') : ta(R(x, y', z)[B], R(a1', y'', c1')[B]), y'' != y}))"
    )

    ans = eval_rewritten(rq, d)
    assert set(ans.tuples) == {
        ("a1", "b2", "c1"), ("a1", "b2", "c2"), ("a1", "b2", "c3"),
    }

    mris, _ = enumerate_mris_oracle(d, mdset)
    assert ref_certain_answers(q, mris) == set(ans.tuples)

    assert time.perf_counter() - start < 1.0


def test_criterion_5_classifier_corpus():
    verdicts = [
        ("hard_chain", "mds.txt", None, "LinearPairHard"),
        ("hard_chain", "mds_joined.txt", None, "LinearPairEasy"),
        ("overlap_pair", "mds.txt", "sims_eq.txt", "LinearPairEasy"),
        ("overlap_pair", "mds.txt", "sims_table.txt", "LinearPairHard"),
        ("filtered_chain", "mds.txt", None, "LinearPairEasy"),
        ("multi_target_pair", "mds.txt", None, "LinearPairHard"),
        ("bound_pair", "mds.txt", None, "LinearPairEasy"),
        ("simple_cycle", "mds.txt", None, "SimpleCycle"),
    ]
    wrong = []
    for name, mds, sims, expected in verdicts:
        bundle = load_bundle(name, mds=mds, sims=sims)
        got = classify(bundle.mdset).label
        if got != expected:
            wrong.append((name, mds, sims, expected, got))
    assert wrong == []


def test_criterion_6_rewrite_equals_oracle_randomized():
    start = time.perf_counter()
    mismatches = []
    for seed in range(500):
        d, mdset = ni_or_hsc(seed)
        cls = classify(mdset)
        assert cls.fast, (seed, cls.label)
        rng = random.Random(seed + 10_000)
        q = rand_ujcq(rng, d.schema, mdset)
        fast = set(eval_rewritten(rewrite(q, mdset), d).tuples)
        mris, _ = enumerate_mris_oracle(d, mdset)
        slow = ref_certain_answers(q, mris)
        if fast != slow:
            mismatches.append((seed, str(q), sorted(fast), sorted(slow)))
    assert mismatches == []
    assert time.perf_counter() - start < 300.0


def test_criterion_7_key_repair_bridge_randomized():
    start = time.perf_counter()
    for seed in range(200):
        rng = random.Random(seed)
        _, d, mdset = rand_keyed_case(rng)

        mris, _ = enumerate_mris_oracle(d, mdset)
        collapsed = {frozenset(row for _, row in m.rows("K")) for m in mris}
        kr = build_cqa_instance(d, "K", ["Name"])
        repairs = ref_key_repairs(d, "K", ("Name",))
        assert collapsed == set(repairs), seed
        assert kr.repair_count == len(repairs), seed
        assert kr.rows == tuple(sorted(frozenset().union(*repairs))), seed

        q = rand_ujcq(rng, d.schema, mdset)
        resolved = resolved_answers(q, d, mdset)
        consistent = ref_certain_answers(
            q, [load_instance(kr.schema, {"K": sorted(rows)}) for rows in repairs]
        )
        assert set(resolved.tuples) == consistent, (seed, str(q))
    assert time.perf_counter() - start < 120.0


def test_criterion_8_definitional_properties_hold():
    cases = []
    for name in ("dup_groups", "two_rule_cycle", "three_rel_join",
                 "majority_column", "simple_cycle", "conp_regression",
                 "hard_chain", "keyed_majority"):
        bundle = load_bundle(name)
        cases.append((bundle.instance, bundle.mdset))
    for seed in range(200):
        cases.append(ni_or_hsc(seed))

    violations = []
    for i, (d, mdset) in enumerate(cases):
        mris, _ = enumerate_mris_oracle(d, mdset)
        for mri in mris:
            if not (is_stable(mri, mdset) and ref_stable(mri, mdset)):
                violations.append(("unstable mri", i))
            if any(p.attr not in mdset.changeable for p in diff_changeset(d, mri)):
                violations.append(("unchangeable position changed", i))

        space = ChaseSpace(d, mdset)
        mod = frozenset(
            space.positions[i] for block, _ in space.open_blocks(space.start) for i in block
        )
        if mod != ref_modifiable(d, mdset):
            violations.append(("modifiable mismatch", i))
        linked = ref_linked_position_pairs(d, mdset)
        step = frozenset(
            p for p, q in linked if d.value(p) != d.value(q) or q in mod
        )
        if step != mod:
            violations.append(("modifiable not a fixpoint", i))

        part = ta_closure(d, mdset)
        rng = random.Random(i)
        tids = [tid for rel in d.schema.names() for tid in ref_tids(d, rel)]
        shuffled = tids[:]
        rng.shuffle(shuffled)
        mapping = dict(zip(tids, shuffled))
        pairs = {
            rel: sorted((mapping[tid], list(row)) for tid, row in d.rows(rel))
            for rel in d.schema.names()
        }
        relabeled = load_instance(
            d.schema,
            {rel: [r for _, r in ps] for rel, ps in pairs.items()},
            tids={rel: [t for t, _ in ps] for rel, ps in pairs.items()},
        )
        expected = sorted(
            tuple(sorted(Position(mapping[p.tid], p.attr) for p in block))
            for block in part.blocks
        )
        if list(ta_closure(relabeled, mdset).blocks) != expected:
            violations.append(("closure not relabel-invariant", i))

    assert violations == []
