import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mdres import (
    NotEligibleError,
    OracleBounds,
    classify,
    enumerate_mris_oracle,
    eval_rewritten,
    fast_mri_family,
    is_ujcq,
    load_instance,
    parse_mds,
    parse_query,
    parse_schema,
    resolved_answers,
    rewrite,
)
from mdres.errors import BoundsExceededError, InputError, ParseError
from mdres.join import Const, Var, join
from mdres.query import Atom, ConjunctiveQuery, _eval_tuples
from mdres.taclosure import TAPartition

from conftest import load_bundle
from datalog_engine import evaluate, parse_program
from generators import (
    PLANTED_QUERY, dn_instance, planted_majority_instance, rand_dup_case, rand_ujcq,
)
from reference import ref_certain_answers, ref_eval_cq


def test_parse_shape(majority_column):
    q = parse_query("Q(x, y, z) :- R(x, y, z).", majority_column.schema)
    assert q.name == "Q"
    assert [v.name for v in q.head] == ["x", "y", "z"]
    assert len(q.atoms) == 1
    assert str(q) == "Q(x, y, z) :- R(x, y, z)"


def test_parse_constants(majority_column):
    # unquoted lower-case identifiers are variables, quoted text is a constant
    q = parse_query("Q(x) :- R(x, 'b2', c1)", majority_column.schema)
    assert str(q) == "Q(x) :- R(x, 'b2', c1)"
    assert _eval_tuples(q, majority_column.instance) == {("a1",)}


def test_parse_numeric_constant():
    q = parse_query("Q(x) :- R(x, 5)", parse_schema("relation R(A:str, B:int)"))
    assert q.atoms[0].terms == (Var("x"), Const("5"))


def test_parse_rejects():
    schema = load_bundle("majority_column").schema
    with pytest.raises(InputError, match="unknown relation"):
        parse_query("Q(x) :- T(x)", schema)
    with pytest.raises(InputError, match="arity"):
        parse_query("Q(x) :- R(x, y)", schema)
    with pytest.raises(InputError, match="head variable"):
        parse_query("Q(w) :- R(x, y, z)", schema)
    with pytest.raises(ParseError, match="lower-case"):
        parse_query("Q(X) :- R(X, y, z)", schema)
    with pytest.raises(ParseError, match="head terms"):
        parse_query("Q('a') :- R(x, y, z)", schema)
    with pytest.raises(ParseError, match="trailing"):
        parse_query("Q(x) :- R(x, y, z). extra", schema)
    for truncated in ("Q(", "Q(x) :- R("):
        with pytest.raises(ParseError, match="got 'end of input'"):
            parse_query(truncated, schema)


@pytest.mark.parametrize("parse, text, message", [
    (parse_mds, "R[A] = R[A] -> R[B] == R[B] 5", "expected semi in MD text, got '5'"),
    (parse_mds, "R[A] = R[A] -> R[B] @ R[B]", "unexpected character '@' in MD text"),
    (parse_query, "Q(x) -> R(x, y, z)", "expected impl in query, got '->'"),
    (parse_query, "Q(x) :- R(x, y, z) @", "unexpected character '@' in query"),
])
def test_both_grammars_word_token_errors_alike(parse, text, message):
    schema = parse_schema("relation R(A:str, B:str, C:str)")
    with pytest.raises(ParseError) as err:
        parse(text, schema)
    assert str(err.value) == message


_ROUND_TRIP_SCHEMA = parse_schema("relation R(A:str, B:str, C:str)\nrelation S(D:str)")
# constant text that the query syntax itself uses, digits, and non-ASCII
_CONST_TEXT = st.text(alphabet="a'#,()- 09\n\u00e9\u5b57", max_size=6) | st.text(max_size=3)
_TERMS = st.sampled_from([Var("x"), Var("y"), Var("z1")]) | st.builds(Const, _CONST_TEXT)
_ATOMS = st.sampled_from(["R", "S"]).flatmap(lambda rel: st.builds(
    Atom, st.just(rel),
    st.tuples(*[_TERMS] * _ROUND_TRIP_SCHEMA.relation(rel).arity),
))


@st.composite
def _queries(draw):
    atoms = draw(st.lists(_ATOMS, min_size=1, max_size=3))
    body_vars = sorted({t.name for a in atoms for t in a.terms if isinstance(t, Var)})
    head = draw(st.lists(st.sampled_from(body_vars), max_size=3)) if body_vars else []
    return ConjunctiveQuery("Q", tuple(map(Var, head)), tuple(atoms))


@settings(max_examples=300, derandomize=True, deadline=None, print_blob=False)
@given(_queries())
@example(ConjunctiveQuery("Q", (Var("x"),), (Atom("R", (Var("x"), Const("it's"), Var("y"))),)))
def test_query_text_round_trip(q):
    assert parse_query(str(q), _ROUND_TRIP_SCHEMA) == q


def test_eval_direct(majority_column):
    d = majority_column.instance
    q = parse_query("Q(x, y, z) :- R(x, y, z)", majority_column.schema)
    assert _eval_tuples(q, d) == {
        ("a1", "b1", "c1"), ("a1", "b2", "c2"), ("a1", "b2", "c3"),
    }
    filt = parse_query("Q(z) :- R(x, 'b2', z)", majority_column.schema)
    assert _eval_tuples(filt, d) == {("c2",), ("c3",)}


def test_eval_boolean(majority_column):
    d = majority_column.instance
    yes = parse_query("Q() :- R(x, 'b1', y)", majority_column.schema)
    no = parse_query("Q() :- R(x, 'b9', y)", majority_column.schema)
    assert _eval_tuples(yes, d) == {()}
    assert _eval_tuples(no, d) == set()


def test_join_safety_verdicts(conp_regression):
    schema = conp_regression.schema
    mdset = conp_regression.mdset
    ok, witness = is_ujcq(parse_query("Q(x) :- R(x, y, z)", schema), mdset)
    assert ok and witness is None
    # the scan reports the first offender in atom order
    q = conp_regression.query("query.txt")
    ok, witness = is_ujcq(q, mdset)
    assert not ok
    assert witness == (
        "variable y occurs 2 times and sits at changeable position R[B] (atom 1)"
    )
    qc = parse_query("Q(x) :- R(x, 'b', z)", schema)
    ok, witness = is_ujcq(qc, mdset)
    assert not ok
    assert witness == "constant 'b' sits at changeable position R[B] (atom 1)"


def test_free_variable_repetition_is_safe(dup_groups):
    q = parse_query("Q(y) :- R(y, y)", dup_groups.schema)
    ok, witness = is_ujcq(q, dup_groups.mdset)
    assert ok and witness is None


def test_rewrite_render_frozen(majority_column):
    q = majority_column.query("query.txt")
    rq = rewrite(q, majority_column.mdset)
    assert rq.render() == (
        "Q'(x, y, z) :- exists y' (R(x, y', z) & forall y'' ("
        "#{R(a1', y, c1') : ta(R(x, y', z)[B], R(a1', y, c1')[B])} > "
        "#{R(a1', y'', c1') : ta(R(x, y', z)[B], R(a1', y'', c1')[B]), y'' != y}))"
    )


def test_rewrite_leaves_clean_atoms_alone(three_rel_join):
    q = three_rel_join.query("query.txt")
    rq = rewrite(q, three_rel_join.mdset)
    by_rel = {ra.original.rel: ra for ra in rq.atoms}
    assert by_rel["S"].primed is None and by_rel["U"].primed is None
    r = by_rel["R"]
    assert [str(t) for t in r.primed.terms] == ["x", "y'", "z"]
    (cond,) = r.conditions
    assert cond.klass == (("R", "B"), ("S", "F"), ("U", "I"))
    rendered = rq.render()
    # one count term per class member on each side of the comparison
    assert rendered.count("#{") == 6
    assert " + #{S(" in rendered and " + #{U(" in rendered


def test_rewrite_primed_names_disambiguated(conp_regression):
    q = parse_query("Q(y) :- R(x, y, y)", conp_regression.schema)
    rq = rewrite(q, conp_regression.mdset)
    (ra,) = rq.atoms
    assert [str(t) for t in ra.primed.terms] == ["x", "y'2", "y'3"]
    assert len(ra.conditions) == 2


def test_rewrite_refuses(hard_chain, conp_regression):
    q = parse_query("Q(x) :- R(x, y, z)", hard_chain.schema)
    with pytest.raises(NotEligibleError, match="LinearPairHard"):
        rewrite(q, hard_chain.mdset)
    with pytest.raises(NotEligibleError, match="not join-safe"):
        rewrite(conp_regression.query("query.txt"), conp_regression.mdset)


def test_rewrite_matches_oracle_on_fixture(majority_column):
    d = majority_column.instance
    mdset = majority_column.mdset
    q = majority_column.query("query.txt")
    ans = eval_rewritten(rewrite(q, mdset), d)
    assert ans.provenance == "rewrite"
    assert ans.tuples == (
        ("a1", "b2", "c1"), ("a1", "b2", "c2"), ("a1", "b2", "c3"),
    )
    mris, _ = enumerate_mris_oracle(d, mdset)
    assert set(ans.tuples) == ref_certain_answers(q, mris)


def test_rewrite_on_cycle_instance(two_rule_cycle):
    d = two_rule_cycle.instance
    mdset = two_rule_cycle.mdset
    for fname in ("q1.txt", "q2.txt"):
        q = two_rule_cycle.query(fname)
        ans = eval_rewritten(rewrite(q, mdset), d)
        assert ans.tuples == ()
        mris, _ = enumerate_mris_oracle(d, mdset)
        assert ref_certain_answers(q, mris) == frozenset()


@settings(max_examples=200, derandomize=True, deadline=None, print_blob=False)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_rewrite_over_deduplicated_views_matches_the_mris(seed):
    """eval_rewritten reads each distinct view row once; its answers are
    still the certain answers over every MRI, on instances of 20-60 tuples
    in planted duplicate groups, which the MRI family reaches at once."""
    rng = random.Random(seed)
    _, d, mdset = rand_dup_case(rng)
    assert classify(mdset).fast
    family = fast_mri_family(d, mdset)
    assume(family.count <= 256)
    q = rand_ujcq(rng, d.schema, mdset)
    mris, truncated = family.materialize(256)
    assert not truncated
    assert set(eval_rewritten(rewrite(q, mdset), d).tuples) == ref_certain_answers(q, mris)


def test_boolean_rewrite_over_a_view_with_repeated_rows():
    # the three k-rows resolve to one row (k, x); the j-rows tie on B, so a
    # head variable there has no certain value, but some value is certain
    schema = parse_schema("relation R(A:str, B:str)")
    d = load_instance(schema, {"R": [
        ["k", "x"], ["k", "x"], ["k", "y"], ["j", "x"], ["j", "y"],
    ]})
    mdset = parse_mds("R[A] = R[A] -> R[B] == R[B]", schema)
    mris, _ = fast_mri_family(d, mdset).materialize()
    assert {row for mri in mris for _, row in mri.rows("R") if row[0] == "k"} == {("k", "x")}
    for text, expected in (
        ("Q() :- R('k', b)", ((),)),
        ("Q() :- R(a, b), R('k', c)", ((),)),
        ("Q() :- R('j', b)", ((),)),
        ("Q(b) :- R(a, b)", (("x",),)),
        ("Q(b) :- R('j', b)", ()),
        ("Q() :- R('m', b)", ()),
    ):
        q = parse_query(text, schema)
        ans = eval_rewritten(rewrite(q, mdset), d)
        assert ans.tuples == expected, text
        assert set(ans.tuples) == ref_certain_answers(q, mris), text


def test_resolved_answers_modes(majority_column):
    d = majority_column.instance
    mdset = majority_column.mdset
    q = majority_column.query("query.txt")
    auto = resolved_answers(q, d, mdset)
    fast = resolved_answers(q, d, mdset, mode="rewrite")
    slow = resolved_answers(q, d, mdset, mode="oracle")
    assert auto.tuples == fast.tuples == slow.tuples
    assert auto.provenance == "rewrite"
    assert slow.provenance == "oracle"
    with pytest.raises(InputError, match="unknown answer mode"):
        resolved_answers(q, d, mdset, mode="chase")


def test_auto_falls_back_to_oracle(conp_regression):
    d = conp_regression.instance
    mdset = conp_regression.mdset
    q = conp_regression.query("query.txt")
    ans = resolved_answers(q, d, mdset)
    assert ans.provenance == "oracle"
    assert ans.ujcq == is_ujcq(q, mdset) and ans.ujcq[0] is False
    # some minimal resolution collapses C to a single value, losing the pair
    assert ans.tuples == ()
    with pytest.raises(NotEligibleError, match="not join-safe for rewriting"):
        resolved_answers(q, d, mdset, mode="rewrite")
    # no caller can hand rewrite a verdict that would answer ((),)
    with pytest.raises(TypeError):
        rewrite(q, mdset, ujcq=(True, None))


def test_rewrite_names_every_reason(hard_chain):
    q = parse_query("Q(x) :- R(x, 'b', z)", hard_chain.schema)
    with pytest.raises(NotEligibleError) as exc:
        rewrite(q, hard_chain.mdset)
    assert str(exc.value) == (
        "query is not join-safe for rewriting: constant 'b' sits at changeable "
        "position R[B] (atom 1); rewriting applies to NonInteracting, "
        "SimpleCycle and HitSimpleCycle sets; this set classifies as "
        "LinearPairHard"
    )
    with pytest.raises(NotEligibleError) as via_answers:
        resolved_answers(q, hard_chain.instance, hard_chain.mdset, mode="rewrite")
    assert str(via_answers.value) == str(exc.value)


def test_auto_reports_both_failures(hard_chain):
    d = hard_chain.instance
    mdset = hard_chain.mdset
    q = parse_query("Q(x) :- R(x, y, z)", hard_chain.schema)
    tight = OracleBounds(max_cells=1)
    with pytest.raises(BoundsExceededError) as exc:
        resolved_answers(q, d, mdset, bounds=tight)
    assert str(exc.value) == (
        "chase state space exceeds 0 states of 12 cells each, bound is 1 cells "
        "(and the rewrite path was not available: rewriting applies to "
        "NonInteracting, SimpleCycle and HitSimpleCycle sets; this set "
        "classifies as LinearPairHard)"
    )


def test_auto_walks_the_paths_in_order(monkeypatch, majority_column):
    """auto takes the first path that does not refuse and names every
    refusal before it in a bound error, or every refusal when all refuse;
    a named mode runs only its path."""
    import mdres.query

    def refuse(reason):
        def path(*args):
            calls.append(reason)
            raise NotEligibleError(reason)
        return path

    def exceed(*args):
        calls.append("exceed")
        raise BoundsExceededError("too big")

    calls = []
    monkeypatch.setattr(mdres.query, "PATHS", {
        "a": refuse("no a"), "b": refuse("no b"), "c": exceed, "d": refuse("no d"),
    })
    q = majority_column.query("query.txt")
    d, mdset = majority_column.instance, majority_column.mdset
    with pytest.raises(BoundsExceededError) as exc:
        resolved_answers(q, d, mdset)
    assert str(exc.value) == (
        "too big (and the a path was not available: no a; "
        "the b path was not available: no b)"
    )
    assert calls == ["no a", "no b", "exceed"]
    calls.clear()
    with pytest.raises(BoundsExceededError, match="^too big$"):
        resolved_answers(q, d, mdset, mode="c")
    with pytest.raises(NotEligibleError, match="^no b$"):
        resolved_answers(q, d, mdset, mode="b")
    assert calls == ["exceed", "no b"]
    monkeypatch.setattr(mdres.query, "PATHS", {"a": refuse("no a"), "d": refuse("no d")})
    with pytest.raises(NotEligibleError) as exc:
        resolved_answers(q, d, mdset)
    assert str(exc.value) == (
        "the a path was not available: no a; the d path was not available: no d"
    )


@pytest.mark.parametrize("n", [7, 11])
def test_oracle_answers_past_the_materialization_bound(n):
    # the query is not join-safe, so auto takes the oracle; at n = 11 the
    # 2,048 MRIs exceed max_materialized, which answers does not read
    _, d, mdset = dn_instance(n)
    q = parse_query("Q(x) :- R(x, y), R(z, y)", mdset.schema)
    answers = resolved_answers(q, d, mdset, bounds=OracleBounds(max_materialized=0))
    mris, truncated = fast_mri_family(d, mdset).materialize(4096)
    assert (len(mris), truncated) == (2 ** n, False)
    assert answers.provenance == "oracle"
    assert set(answers.tuples) == ref_certain_answers(q, mris)
    assert len(answers.tuples) == n


def test_oracle_answers_hold_on_every_mri():
    # each MRI keeps one B value of a pair, a different one in different
    # MRIs, so only the lone tuple's row is certain; the winners are
    # evaluated one at a time, and the first one alone has three rows
    schema = parse_schema("relation R(A:str, B:str)")
    d = load_instance(schema, {"R": [["a1", "c1"], ["a1", "c2"], ["a2", "c3"], ["a2", "c4"],
                                     ["a3", "c5"]]})
    mdset = parse_mds("R[A] = R[A] -> R[B] == R[B]", schema)
    q = parse_query("Q(x, y) :- R(x, y)", schema)
    mris, _ = enumerate_mris_oracle(d, mdset)
    assert len(mris) == 4 and all(len(_eval_tuples(q, m)) == 3 for m in mris)
    answers = resolved_answers(q, d, mdset, "oracle")
    assert set(answers.tuples) == ref_certain_answers(q, mris) == {("a3", "c5")}


def test_answerset_helpers(majority_column):
    q = parse_query("Q(z) :- R(x, y, z)", majority_column.schema)
    ans = resolved_answers(q, majority_column.instance, majority_column.mdset)
    assert ans.provenance == "rewrite"
    assert ("c2",) in ans
    assert len(ans) == 3
    assert ans.as_json() == [["c1"], ["c2"], ["c3"]]


JOIN_SCHEMA = parse_schema("relation R(A:str, B:str)\nrelation S(C:str, D:str, E:str)")
JOIN_VALUES = ("u", "v")
JOIN_TERMS = ("x", "y", "z", "w", "'u'", "'v'")


def _rows(arity):
    return st.lists(
        st.tuples(*[st.sampled_from(JOIN_VALUES)] * arity), max_size=6
    )


@st.composite
def _queries(draw):
    """(head, atoms) with 1-4 atoms; each atom is (relation, terms)."""
    atoms = []
    for _ in range(draw(st.integers(1, 4))):
        rel = draw(st.sampled_from(("R", "S")))
        arity = JOIN_SCHEMA.relation(rel).arity
        atoms.append((rel, tuple(draw(st.sampled_from(JOIN_TERMS)) for _ in range(arity))))
    body_vars = sorted({t for _, terms in atoms for t in terms if "'" not in t})
    head = draw(st.lists(st.sampled_from(body_vars), max_size=3)) if body_vars else []
    return tuple(head), tuple(atoms)


def _body(atoms, rename):
    return ", ".join(f"{rel}({', '.join(map(rename, terms))})" for rel, terms in atoms)


def _datalog_var(term):
    return term if "'" in term else term.upper()


@settings(max_examples=300, derandomize=True, deadline=None, print_blob=False)
@given(_rows(2), _rows(3), _queries())
@example([("u", "v")], [("v", "u", "u")], (("x", "w"), (("R", ("x", "y")), ("S", ("z", "w", "'u'")))))
@example([("u", "u"), ("u", "v")], [], ((), (("R", ("x", "x")),)))
@example([], [("u", "v", "v")], (("x",), (("S", ("x", "y", "z")), ("R", ("x", "y")))))
@example(
    [("u", "v"), ("v", "u")], [("v", "u", "u")],
    (("x", "z"), (("R", ("x", "y")), ("R", ("y", "z")), ("S", ("y", "z", "w")), ("R", ("w", "x")))),
)
def test_eval_cq_matches_nested_loop(r_rows, s_rows, query):
    """_eval_tuples (the oracle path's evaluator) and datalog.evaluate,
    both on the indexed join, give the nested-loop answers: 1-4 atoms,
    constants, repeated variables, cross products, empty relations and
    boolean queries."""
    head, atoms = query
    q = parse_query(f"Q({', '.join(head)}) :- {_body(atoms, str)}", JOIN_SCHEMA)
    d = load_instance(JOIN_SCHEMA, {"R": r_rows, "S": s_rows})
    expected = ref_eval_cq(q, d)
    assert _eval_tuples(q, d) == expected
    # the same rule in datalog; a leading head constant gives boolean queries a head term
    facts = [f"r({a!r}, {b!r})." for a, b in r_rows]
    facts += [f"s({a!r}, {b!r}, {c!r})." for a, b, c in s_rows]
    lowered = [(rel.lower(), terms) for rel, terms in atoms]
    rule = f"q({', '.join(['1', *map(str.upper, head)])}) :- {_body(lowered, _datalog_var)}."
    derived = evaluate(parse_program("\n".join(facts + [rule])))
    assert {row[1:] for row in derived.get("q", set())} == expected


def _nested_join(head, body, sources):
    """join's result by brute force: every combination of rows, in product
    order, kept when it binds each variable to one value."""
    out = []
    for rows in product(*sources):
        env = {}
        if all(
            t.value == v if isinstance(t, Const) else env.setdefault(t.name, v) == v
            for terms, row in zip(body, rows)
            for t, v in zip(terms, row)
        ):
            out.append(tuple(env[t.name] if isinstance(t, Var) else t.value for t in head))
    return out


@settings(max_examples=300, derandomize=True, deadline=None, print_blob=False)
@given(_rows(2), _rows(3), _queries(), st.data())
def test_join_order_and_atom_shuffle(r_rows, s_rows, query, data):
    """join gives the nested-loop tuples in the nested-loop order, and the
    same multiset of tuples whatever the order of the body atoms."""
    head_names, atoms = query
    head = [Var(name) for name in head_names]
    body = [tuple(Const(t[1:-1]) if "'" in t else Var(t) for t in terms) for _, terms in atoms]
    sources = [{"R": r_rows, "S": s_rows}[rel] for rel, _ in atoms]
    got = join(head, body, sources)
    assert got == _nested_join(head, body, sources)
    order = data.draw(st.permutations(range(len(atoms))))
    shuffled = join(head, [body[i] for i in order], [sources[i] for i in order])
    assert Counter(shuffled) == Counter(got)


@settings(max_examples=300, derandomize=True, deadline=None, print_blob=False)
@given(_rows(2), _rows(3), _queries(), st.data())
@example([("u", "v")], [], ((), (("R", ("x", "y")),)), None)
def test_join_with_constant_head_terms(r_rows, s_rows, query, data):
    """Head constants, at any head position, between variables or alone, give
    the nested-loop tuples in the nested-loop order; parse_query heads are
    variables only, so the datalog engine is their one other caller."""
    head_names, atoms = query
    head = [Var(name) for name in head_names]
    if data is None:  # a head of constants only, over a one-row source
        head = [Const("c"), Const("u")]
    else:
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(head)))
            head.insert(at, Const(data.draw(st.sampled_from((*JOIN_VALUES, "c", "it's")))))
    body = [tuple(Const(t[1:-1]) if "'" in t else Var(t) for t in terms) for _, terms in atoms]
    sources = [{"R": r_rows, "S": s_rows}[rel] for rel, _ in atoms]
    assert join(head, body, sources) == _nested_join(head, body, sources)


def test_rewrite_answers_build_no_blocks(majority_column, monkeypatch):
    """The rewrite reads each slot's winner off the closure's classes: it
    never lists, tallies or numbers the blocks."""
    q = majority_column.query("query.txt")
    d, mdset = majority_column.instance, majority_column.mdset
    expected = resolved_answers(q, d, mdset, "rewrite")

    def refuse(self):
        raise AssertionError("the rewrite built a block read")

    for name in ("block_slots", "counts", "pools", "blocks", "block_of", "min_change"):
        monkeypatch.setattr(TAPartition, name, property(refuse))
    got = resolved_answers(q, d, mdset, "rewrite")
    assert got == expected
    assert got.tuples == (("a1", "b2", "c1"), ("a1", "b2", "c2"), ("a1", "b2", "c3"))


def test_rewrite_gives_the_planted_majorities():
    """The small case of CI's "Rewrite at scale" step: each key group of
    three answers with its 2-1 majority value, which the oracle agrees on."""
    schema, d, mdset, planted = planted_majority_instance(40, keys=7)
    q = parse_query(PLANTED_QUERY, schema)
    got = resolved_answers(q, d, mdset, "rewrite")
    assert list(got.tuples) == planted
    kept = {"k0", "k1", "k2"}
    small = load_instance(schema, {
        "R": [row for row in d.data["R"].values() if row[0] in kept],
        "S": list(d.data["S"].values()),
    })
    oracle = resolved_answers(q, small, mdset, "oracle")
    assert list(oracle.tuples) == [a for a in planted if a[0] in kept]
