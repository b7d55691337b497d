import pytest
from hypothesis import given, settings, strategies as st

from mdres import (
    InputError,
    MDGraph,
    ParseError,
    build_md_graph,
    eqr_class,
    eqr_classes,
    load_instance,
    parse_mds,
    parse_schema,
    previous_set,
    ta_closure,
)
from mdres.mds import TokenStream
from mdres.relation import Position
from mdres.similarity import SimilaritySpec
from mdres.taclosure import linked_pairs

from conftest import chain_equivalent_sets
from reference import ref_reach, ref_tokens, run_pairs


def sims_for(*names, kind="eq"):
    return {n: SimilaritySpec(name=n, kind=kind) for n in names}


def test_parse_single_md():
    schema = parse_schema("relation R(A:str, B:str)\nrelation S(C:str, E:str)")
    mdset = parse_mds("R[A] = S[C] -> R[B] == S[E]", schema)
    (md,) = mdset.mds
    assert md.mid == "m1"
    assert md.left_rel == "R" and md.right_rel == "S"
    assert md.lhs_attrs == frozenset({("R", "A"), ("S", "C")})
    assert md.rhs_attrs == frozenset({("R", "B"), ("S", "E")})
    assert str(md) == "m1: R[A] = S[C] -> R[B] == S[E]"


def test_parse_normalizes_orientation():
    # relation order is canonical, so both spellings produce the same MD
    schema = parse_schema("relation R(A:str, B:str)\nrelation S(C:str, E:str)")
    a = parse_mds("R[A] = S[C] -> R[B] == S[E]", schema)
    b = parse_mds("S[C] = R[A] -> S[E] == R[B]", schema)
    assert str(a.mds[0]) == str(b.mds[0])


def test_parse_merges_shared_lhs_into_standard_form():
    schema = parse_schema("relation R(A:str, B:str, C:str)")
    mdset = parse_mds(
        "R[A] = R[A] -> R[B] == R[B]; R[A] = R[A] -> R[C] == R[C]", schema
    )
    (md,) = mdset.mds
    assert md.mid == "m1"
    assert md.rhs_attrs == frozenset({("R", "B"), ("R", "C")})


def test_parse_reassigns_ids_in_first_occurrence_order():
    schema = parse_schema("relation R(A:str, B:str, C:str, E:str)")
    mdset = parse_mds(
        "R[A] = R[A] -> R[B] == R[B]; R[C] = R[C] -> R[E] == R[E]", schema
    )
    assert [md.mid for md in mdset.mds] == ["m1", "m2"]
    assert ("R", "B") in mdset.mds[0].rhs_attrs


def test_parse_rejects_unknown_names():
    schema = parse_schema("relation R(A:str, B:str)")
    with pytest.raises(InputError):
        parse_mds("R[A] = R[Z] -> R[B] == R[B]", schema)
    with pytest.raises(InputError):
        parse_mds("T[A] = T[A] -> T[B] == T[B]", schema)
    with pytest.raises(InputError):
        parse_mds("R[A] ~q R[A] -> R[B] == R[B]", schema)
    with pytest.raises(ParseError):
        parse_mds("R[A] -> R[B] == R[B]", schema)


def test_mds_need_a_semicolon_between_them():
    schema = parse_schema("relation R(A:str, B:str)")
    md = "R[A] = R[A] -> R[B] == R[B]"
    with pytest.raises(ParseError, match=r"^expected semi in MD text, got 'R'$"):
        parse_mds(f"{md} R[A] = R[B] -> R[B] == R[B]", schema)
    for text in (md, f"{md};", f"{md};\n{md}", f"{md}; {md};"):
        assert parse_mds(text, schema).mds[0].mid == "m1"


def test_parse_rejects_mixed_domain_tags():
    schema = parse_schema("relation R(A:str, B:int, C:str)")
    with pytest.raises(InputError):
        parse_mds("R[A] = R[B] -> R[C] == R[C]", schema)
    with pytest.raises(InputError):
        parse_mds("R[A] = R[A] -> R[B] == R[C]", schema)


def test_graph_edges_follow_target_to_condition_overlap(hard_chain):
    graph = hard_chain.mdset.graph
    assert graph.vertices == ("m1", "m2")
    assert graph.edges == frozenset({("m1", "m2")})
    assert not graph.edgeless
    assert graph.successors("m1") == ("m2",)
    assert graph.predecessors("m2") == ("m1",)
    assert not graph.on_cycle("m1")


def test_graph_detects_cycles(two_rule_cycle):
    graph = two_rule_cycle.mdset.graph
    assert graph.is_single_cycle()
    assert graph.on_cycle("m1") and graph.on_cycle("m2")


def test_changeable_attrs(hard_chain):
    assert hard_chain.mdset.changeable == frozenset(
        {("R", "B"), ("S", "F"), ("R", "C"), ("S", "G")}
    )


def test_previous_set_includes_self_and_feeders(hard_chain):
    graph = hard_chain.mdset.graph
    assert previous_set(graph, "m1") == frozenset({"m1"})
    assert previous_set(graph, "m2") == frozenset({"m1", "m2"})
    with pytest.raises(InputError):
        previous_set(graph, "m9")


GRAPH_IDS = tuple(f"m{i}" for i in range(1, 9))


def _graphs(n: int):
    """Graphs on the first n ids: any edges, self-loops included; an id
    that no edge names is an isolated MD."""
    ids = GRAPH_IDS[:n]
    return st.tuples(
        st.just(ids), st.frozensets(st.tuples(st.sampled_from(ids), st.sampled_from(ids)))
    )


@settings(max_examples=300, derandomize=True, deadline=None, print_blob=False)
@given(st.integers(1, len(GRAPH_IDS)).flatmap(_graphs))
def test_graph_walk_matches_transitive_closure(graph_parts):
    vertices, edges = graph_parts
    graph = MDGraph(vertices, edges)
    reach = ref_reach(vertices, edges)
    for v in vertices:
        assert graph.on_cycle(v) == (v in reach[v])
        assert previous_set(graph, v) == {v} | {u for u in vertices if v in reach[u]}
    # one cycle through every MD: strongly connected with |E| = |V|, so
    # every MD has exactly one successor and one predecessor
    single = len(edges) == len(vertices) and all(
        reach[v] == set(vertices) for v in vertices
    )
    assert graph.is_single_cycle() == single


def test_on_cycle_walks_once_from_all_predecessors(monkeypatch):
    vertices = GRAPH_IDS
    edges = frozenset((v, "m1") for v in vertices[1:]) | {("m1", "m8")}
    graph = MDGraph(vertices, edges)
    walks = []
    walk = MDGraph._walk_back
    monkeypatch.setattr(
        MDGraph, "_walk_back", lambda self, starts: walks.append(1) or walk(self, starts)
    )
    assert graph.on_cycle("m1")
    assert not graph.on_cycle("m2")
    assert len(walks) == 2


def test_eqr_classes_three_md_closure():
    schema = parse_schema(
        "relation R(A:str, C:str)\n"
        "relation S(B:str, D:str, E:str, G:str, K:str)\n"
        "relation T(F:str, H:str, J:str, L:str, M:str, N:str, P:str)"
    )
    mdset = parse_mds(
        "R[A] ~s1 S[B] -> R[C] == S[D];"
        "S[E] ~s2 T[F], S[G] ~s0 T[H] -> S[D] == T[J], S[K] == T[L];"
        "T[F] ~s3 T[H] -> T[L] == T[M], T[N] == T[P]",
        schema,
        sims_for("s0", "s1", "s2", "s3"),
    )
    assert eqr_classes(mdset) == (
        (("R", "C"), ("S", "D"), ("T", "J")),
        (("S", "K"), ("T", "L"), ("T", "M")),
        (("T", "N"), ("T", "P")),
    )
    assert eqr_class(mdset, ("T", "L")) == (("S", "K"), ("T", "L"), ("T", "M"))
    # unchangeable attributes sit in their own singleton class
    assert eqr_class(mdset, ("R", "A")) == (("R", "A"),)


def test_equivalent_sets_bound_pair():
    schema = parse_schema(
        "relation R(A:str, C:str, F:str, H:str, I:str, M:str)\n"
        "relation S(B:str, D:str, E:str, G:str, N:str)"
    )
    mdset = parse_mds(
        "R[A] ~u S[B] -> R[C] == S[D], R[C] == S[E], R[F] == S[G], R[H] == S[G];"
        "R[F] ~u S[E], R[I] ~u S[E], R[A] ~u S[E], R[F] ~u S[B] -> R[M] == S[N]",
        schema, sims_for("u"),
    )
    assert chain_equivalent_sets(mdset) == [
        ("R", (("R", "A"), ("R", "F"), ("R", "H"), ("R", "I")), True),
        ("S", (("S", "B"), ("S", "D"), ("S", "E")), True),
    ]


def test_equivalent_sets_multi_target_pair():
    schema = parse_schema(
        "relation R(A:str, C:str, E:str, G:str, H:str)\n"
        "relation S(B:str, D:str, F:str, I:str)"
    )
    mdset = parse_mds(
        "R[A] ~t S[B] -> R[C] == S[D], R[E] == S[D];"
        "R[E] ~t S[F], R[G] ~t S[F] -> R[H] == S[I]",
        schema, sims_for("t"),
    )
    assert chain_equivalent_sets(mdset) == [
        ("R", (("R", "C"), ("R", "E"), ("R", "G")), False),
        ("S", (("S", "F"),), False),
    ]


def test_reversed_self_condition_is_a_different_md():
    # On a relation matched with itself the left end of a condition is the
    # first tuple, so R[A] = R[B] and R[B] = R[A] are different conditions:
    # merging the two MDs would drop the Y link the second one makes alone.
    schema = parse_schema(
        "relation R(A:str, B:str, C:str, E:str, X:str, Y:str)"
    )
    first = "R[A] = R[B], R[C] = R[E] -> R[X] == R[X]"
    second = "R[B] = R[A], R[C] = R[E] -> R[Y] == R[Y]"
    mdset = parse_mds(f"{first}; {second}", schema)
    assert [str(md) for md in mdset.mds] == [f"m1: {first}", f"m2: {second}"]
    d = load_instance(schema, {"R": [
        ("1", "2", "3", "9", "x1", "y1"), ("2", "7", "8", "3", "x2", "y2"),
    ]})
    y_link = (Position(1, ("R", "Y")), Position(2, ("R", "Y")))
    assert y_link in ta_closure(d, mdset).blocks
    assert y_link in ta_closure(d, parse_mds(second, schema)).blocks


def test_conditions_merge_only_when_equal_as_written():
    schema = parse_schema("relation R(A:str, B:str, C:str)")
    sims = sims_for("s")
    both = "R[B] ~s R[A], R[A] ~s R[B] -> R[C] == R[C]"
    one = "R[A] ~s R[B] -> R[A] == R[B]"
    mdset = parse_mds(f"{both}; {one}", schema, sims)
    assert [str(md) for md in mdset.mds] == [f"m1: {both}", f"m2: {one}"]
    # the order of the conditions does not matter, only each one's ends
    merged = parse_mds(f"{both}; R[A] ~s R[B], R[B] ~s R[A] -> R[A] == R[B]", schema, sims)
    assert [str(md) for md in merged.mds] == [f"m1: {both}, R[A] == R[B]"]


def test_mirror_image_mds_stay_two_and_link_the_same_pairs():
    schema = parse_schema("relation R(A:str, B:str, C:str)")
    mdset = parse_mds("R[A] = R[B] -> R[C] == R[C]; R[B] = R[A] -> R[C] == R[C]", schema)
    m1, m2 = mdset.mds
    d = load_instance(schema, {"R": [("1", "2", "c1"), ("2", "1", "c2"), ("2", "3", "c3")]})
    assert sorted(run_pairs(linked_pairs(m1, d, mdset.sims))) == sorted(
        (t2, t1) for t1, t2 in run_pairs(linked_pairs(m2, d, mdset.sims))
    )


@pytest.mark.parametrize("text, message", [
    ("R[A] = S[C] -> T[F] == T[F]",
     "an MD relates exactly two relation occurrences, got ['R', 'S', 'T']"),
    ("R[A] = S[C], R[A] = R[B] -> R[B] == S[E]",
     "condition R[A] = R[B] stays inside one relation while the MD spans two"),
    ("S[C] = R[A] -> S[E] == S[C]",
     "match S[E] == S[C] stays inside one relation while the MD spans two"),
])
def test_orientation_errors(text, message):
    schema = parse_schema(
        "relation R(A:str, B:str)\nrelation S(C:str, E:str)\nrelation T(F:str)"
    )
    with pytest.raises(InputError) as err:
        parse_mds(text, schema)
    assert str(err.value) == message


def test_first_bad_md_is_reported_first():
    # each MD is oriented before the next is read
    schema = parse_schema("relation R(A:str, B:str)\nrelation S(C:str, E:str)")
    with pytest.raises(InputError, match="^match R\\[B\\] == R\\[B\\] stays inside"):
        parse_mds("R[A] = S[C] -> R[B] == R[B]; R[A] = R[Z] -> R[B] == R[B]", schema)


# Pieces of MD text and query text, near-misses, and characters no token
# takes or that only Unicode classes take (blanks, digits, letters).
TEXT_PIECES = [
    "R", "S_1", "_x", "abc9", "R[A]", "R[A] = S[C]", " -> ", "==", "=", "~", "~s", ":-",
    "->", "-", ":", ">", ",", ";", ".", "(", ")", "[", "]", "0", "-5", "12", "'", "'it''s'",
    "''", "#", "# note\n", " ", "\n", "\t", "\r\n", "\u00a0", "\x1c", "\x85", "\u0663", "\u00b2",
    "\u2167", "\u00e9", "x\u00e9", "\u00aa", "@", "!", "\"", "Q(x) :- R(x, y)",
    "m1: R[A] ~s R[A] -> R[B] == R[B]",
]


@settings(max_examples=500, derandomize=True, deadline=None, print_blob=False)
@given(st.lists(st.sampled_from(TEXT_PIECES), max_size=12).map("".join),
       st.sampled_from(["MD text", "query"]))
def test_token_stream_matches_ident_last_lexer(text, what):
    def outcome(lex):
        try:
            return lex(text, what)
        except ParseError as exc:
            return str(exc)
    assert outcome(lambda t, w: TokenStream(t, w).tokens) == outcome(ref_tokens)
