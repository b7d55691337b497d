"""Label corpus for the tractability classifier.

Every verdict here was worked out by hand from the defining conditions
before the classifier existed; the evidence strings pin down WHICH clause
produced each verdict, not just the label.
"""

import pytest

from mdres import classify, parse_mds, parse_schema
from mdres.mds import FAST_LABELS, Conjunct
from mdres.relation import format_attr
from mdres.similarity import SimilaritySpec

from conftest import chain_equivalent_sets, load_bundle


def _ev(cls, needle: str) -> bool:
    return any(needle in line for line in cls.evidence)


def test_non_interacting(dup_groups, three_rel_join):
    for bundle in (dup_groups, three_rel_join):
        cls = classify(bundle.mdset)
        assert cls.label == "NonInteracting"
        assert cls.fast
        assert _ev(cls, "no edges")


def test_simple_cycle_fixtures(two_rule_cycle):
    cls = classify(two_rule_cycle.mdset)
    assert cls.label == "SimpleCycle"
    assert cls.fast
    sc = load_bundle("simple_cycle")
    cls2 = classify(sc.mdset)
    assert cls2.label == "SimpleCycle"
    assert _ev(cls2, "at most one changeable")


def test_hit_simple_cycle_tail():
    schema = parse_schema("relation R(A:str, B:str, C:str, E:str)")
    mdset = parse_mds(
        "R[A] ~s R[A] -> R[B] == R[B];"
        "R[B] ~s R[B] -> R[A] == R[A];"
        "R[C] ~s R[C] -> R[A] == R[A], R[E] == R[E]",
        schema,
        {"s": SimilaritySpec(name="s", kind="lev", max_distance=1)},
    )
    cls = classify(mdset)
    assert cls.label == "HitSimpleCycle"
    assert cls.fast


def test_hard_chain(hard_chain):
    cls = classify(hard_chain.mdset)
    assert cls.label == "LinearPairHard"
    assert not cls.fast
    assert _ev(cls, "no easiness clause holds")
    assert _ev(cls, "targets of m1 and m2 are disjoint")
    # the verdict leans on an assumption about the similarity space
    assert _ev(cls, "unboundedly many mutually dissimilar values")


def test_joined_chain_is_easy():
    bundle = load_bundle("hard_chain", mds="mds_joined.txt")
    cls = classify(bundle.mdset)
    assert cls.label == "LinearPairEasy"
    assert _ev(cls, "(iii)")


def test_overlap_pair_easy_under_equality():
    bundle = load_bundle("overlap_pair", sims="sims_eq.txt")
    cls = classify(bundle.mdset)
    assert cls.label == "LinearPairEasy"
    # bound equivalent sets carry this one; the component clause fails
    assert _ev(cls, "(ii) every equivalent set on R is bound")
    assert _ev(cls, "(ii) every equivalent set on S is bound")


def test_overlap_pair_hard_under_table_sim():
    bundle = load_bundle("overlap_pair", sims="sims_table.txt")
    cls = classify(bundle.mdset)
    assert cls.label == "LinearPairHard"
    assert _ev(cls, "non-transitive similarities break the easiness condition: w")


def test_filtered_chain_easy_via_components():
    bundle = load_bundle("filtered_chain")
    cls = classify(bundle.mdset)
    assert cls.label == "LinearPairEasy"
    assert _ev(cls, "(iii) each condition component of m1 reaches")
    assert _ev(cls, "similarities transitive: s")


def test_table_verdict_needs_no_domain():
    """A non-transitive table breaks the chain's easiness whether or not the
    set has a domain."""
    bundle = load_bundle("filtered_chain")
    text = (bundle.root / "mds.txt").read_text(encoding="utf-8")
    table = SimilaritySpec(name="s", kind="table",
                           pairs=frozenset({("a", "b"), ("b", "c")}))
    for domain in (None, bundle.instance.active_domain):
        mdset = parse_mds(text, bundle.schema, {"s": table}, domain)
        cls = classify(mdset)
        assert cls.label == "LinearPairHard"
        assert _ev(cls, "non-transitive similarities break the easiness condition: s")


def test_direct_eq_spec_is_transitive():
    bundle = load_bundle("bound_pair")
    text = (bundle.root / "mds.txt").read_text(encoding="utf-8")
    mdset = parse_mds(text, bundle.schema, {"u": SimilaritySpec("u", "eq")})
    assert classify(mdset).label == "LinearPairEasy"


def test_multi_target_pair_hard():
    bundle = load_bundle("multi_target_pair")
    cls = classify(bundle.mdset)
    assert cls.label == "LinearPairHard"
    assert _ev(cls, "unbound equivalent sets")


def test_bound_pair_easy_via_equivalent_sets():
    bundle = load_bundle("bound_pair")
    cls = classify(bundle.mdset)
    assert cls.label == "LinearPairEasy"
    assert _ev(cls, "(ii) every equivalent set on R is bound")


@pytest.mark.parametrize(
    "name, mds, sims",
    [
        ("bound_pair", "mds.txt", None),
        ("multi_target_pair", "mds.txt", None),
        ("hard_chain", "mds.txt", None),
        ("hard_chain", "mds_joined.txt", None),
        ("filtered_chain", "mds.txt", None),
        ("overlap_pair", "mds.txt", "sims_eq.txt"),
        ("overlap_pair", "mds.txt", "sims_table.txt"),
    ],
)
def test_chain_verdict_ignores_how_each_condition_is_written(name, mds, sims):
    """Writing every condition and match of a chain the other way round
    changes neither its label and evidence nor its equivalent sets."""
    bundle = load_bundle(name, mds=mds, sims=sims)
    swapped = ";\n".join(
        ", ".join(str(Conjunct(c.right, c.left, c.sim)) for c in md.lhs)
        + " -> "
        + ", ".join(f"{format_attr(b)} == {format_attr(a)}" for a, b in md.rhs)
        for md in bundle.mdset.mds
    )
    mdset = parse_mds(swapped, bundle.schema, bundle.mdset.sims)
    assert classify(mdset) == classify(bundle.mdset)
    assert chain_equivalent_sets(mdset) == chain_equivalent_sets(bundle.mdset)


def test_easy_and_hard_labels_are_not_fast():
    assert "LinearPairEasy" not in FAST_LABELS
    assert "LinearPairHard" not in FAST_LABELS
    assert FAST_LABELS == {"NonInteracting", "SimpleCycle", "HitSimpleCycle"}


def test_same_relation_chain_classified_through_occurrence_sides():
    schema = parse_schema("relation R(A:str, B:str, C:str)")
    mdset = parse_mds(
        "R[A] = R[A] -> R[B] == R[B]; R[B] = R[B] -> R[C] == R[C]", schema
    )
    cls = classify(mdset)
    assert cls.label == "LinearPairHard"
    assert _ev(cls, "R/left") and _ev(cls, "R/right")


def test_overlapping_targets_stay_unknown():
    schema = parse_schema(
        "relation R(A:str, B:str, C:str)\nrelation S(E:str, F:str, G:str)"
    )
    mdset = parse_mds(
        "R[A] = S[E] -> R[B] == S[F], R[C] == S[G];"
        "R[B] = S[F] -> R[C] == S[G]",
        schema,
    )
    cls = classify(mdset)
    assert cls.label == "Unknown"
    assert _ev(cls, "targets overlap")


def test_unchecked_transitivity_stays_unknown():
    lev = SimilaritySpec(name="s", kind="lev", max_distance=1,
                         declared_transitive=True)
    schema = parse_schema(
        "relation R(A:str, C:str, E:str, G:str, I:str)\n"
        "relation S(B:str, F:str, H:str, J:str)"
    )
    mdset = parse_mds(
        "R[A] ~s S[B], R[C] ~s S[B], R[E] ~s S[F] -> R[G] == S[H];"
        "R[G] ~s S[H], R[A] ~s S[B], R[E] ~s S[F] -> R[I] == S[J]",
        schema, {"s": lev},
    )
    cls = classify(mdset)
    assert cls.label == "Unknown"
    assert _ev(cls, "transitivity not yet checked for: s")


def test_cross_relation_pair_chain_unknown():
    schema = parse_schema(
        "relation R(A:str, B:str)\nrelation S(E:str, F:str, G:str)\n"
        "relation T(H:str, I:str)"
    )
    mdset = parse_mds(
        "R[A] = S[E] -> R[B] == S[F]; S[F] = T[H] -> S[G] == T[I]", schema
    )
    cls = classify(mdset)
    assert cls.label == "Unknown"
    assert _ev(cls, "must span the same relations")


def test_longer_paths_unknown():
    schema = parse_schema("relation R(A:str, B:str, C:str, E:str)")
    mdset = parse_mds(
        "R[A] = R[A] -> R[B] == R[B];"
        "R[B] = R[B] -> R[C] == R[C];"
        "R[C] = R[C] -> R[E] == R[E]",
        schema,
    )
    cls = classify(mdset)
    assert cls.label == "Unknown"
    assert _ev(cls, "not a two-MD chain")


def test_unknown_names_a_match_relating_distinct_attributes():
    schema = parse_schema("relation R(A:str, B:str, C:str, E:str)")
    mdset = parse_mds(
        "R[A] = R[A] -> R[B] == R[C];"
        "R[B] = R[B] -> R[E] == R[E];"
        "R[E] = R[E] -> R[A] == R[A]",
        schema,
    )
    cls = classify(mdset)
    assert (cls.label, cls.evidence) == ("Unknown", (
        "no fast structure and not a two-MD chain",
        "match R[B] == R[C] of m1 relates distinct attributes",
    ))


def test_unknown_names_an_md_conditioning_on_two_changeable_attributes():
    schema = parse_schema("relation R(A:str, B:str, C:str, E:str)")
    mdset = parse_mds(
        "R[A] = R[A], R[B] = R[B] -> R[C] == R[C];"
        "R[C] = R[C] -> R[A] == R[A];"
        "R[E] = R[E] -> R[B] == R[B]",
        schema,
    )
    assert mdset.graph.edges == frozenset({("m1", "m2"), ("m2", "m1"), ("m3", "m1")})
    cls = classify(mdset)
    assert (cls.label, cls.evidence) == ("Unknown", (
        "no fast structure and not a two-MD chain",
        "m1 conditions on 2 changeable attributes (R[A], R[B])",
    ))


def test_two_mds_whose_only_edge_is_a_self_loop_are_not_a_chain():
    schema = parse_schema("relation R(A:str, B:str, C:str)")
    mdset = parse_mds("R[A] = R[A] -> R[A] == R[A]; R[B] = R[B] -> R[C] == R[C]", schema)
    assert mdset.graph.edges == frozenset({("m1", "m1")})
    cls = classify(mdset)
    assert (cls.label, cls.evidence) == (
        "Unknown", ("no fast structure and not a two-MD chain",)
    )
