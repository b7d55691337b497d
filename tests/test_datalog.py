import pytest

from mdres.errors import ParseError

from datalog_engine import evaluate, parse_program


def run(text):
    return evaluate(parse_program(text))


def test_facts_only():
    db = run("edge(a, b). edge(b, c).")
    assert db["edge"] == {("a", "b"), ("b", "c")}


def test_join():
    db = run(
        """
        p(a, b). p(b, c). q(b, x). q(c, y).
        r(X, Z) :- p(X, Y), q(Y, Z).
        """
    )
    assert db["r"] == {("a", "x"), ("b", "y")}


def test_transitive_closure():
    db = run(
        """
        edge(1, 2). edge(2, 3). edge(3, 4).
        tc(X, Y) :- edge(X, Y).
        tc(X, Z) :- tc(X, Y), edge(Y, Z).
        """
    )
    assert db["tc"] == {
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    }


def test_cyclic_closure_terminates():
    db = run(
        """
        edge(a, b). edge(b, a).
        tc(X, Y) :- edge(X, Y).
        tc(X, Z) :- tc(X, Y), edge(Y, Z).
        """
    )
    assert db["tc"] == {("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")}


def test_constants_in_rule_body():
    db = run(
        """
        p(a, 1). p(b, 2).
        one(X) :- p(X, 1).
        """
    )
    assert db["one"] == {("a",)}


def test_repeated_variable_filters():
    db = run(
        """
        p(a, a). p(a, b).
        diag(X) :- p(X, X).
        """
    )
    assert db["diag"] == {("a",)}


def test_anonymous_variables_are_distinct():
    db = run(
        """
        p(a, b). p(c, d).
        first(X) :- p(X, _).
        pair(X, Y) :- p(X, _), p(Y, _).
        """
    )
    assert db["first"] == {("a",), ("c",)}
    assert db["pair"] == {("a", "a"), ("a", "c"), ("c", "a"), ("c", "c")}


def test_quoted_strings():
    db = run(
        """
        name(t1, 'Anna Blake'). name(t2, 'O''Hara').
        who(N) :- name(_, N).
        """
    )
    assert db["who"] == {("Anna Blake",), ("O'Hara",)}


def test_numbers_distinct_from_strings():
    db = run("v(1). v('1'). same(X) :- v(X), v(X).")
    assert db["v"] == {(1,), ("1",)}


def test_uppercase_is_variable_lowercase_constant():
    db = run("p(a). q(X) :- p(X).")
    assert db["q"] == {("a",)}


def test_comments_ignored():
    db = run(
        """
        % facts
        p(a).  % trailing note
        q(X) :- p(X).
        """
    )
    assert db["q"] == {("a",)}


def test_underivable_predicate_absent():
    db = run("p(a). r(X) :- p(X), missing(X).")
    assert db.get("r", set()) == set()
    assert db.get("missing", set()) == set()


def test_unsafe_rule_rejected():
    with pytest.raises(ParseError, match="unsafe"):
        parse_program("p(a). q(X, Y) :- p(X).")


def test_fact_with_variable_rejected():
    with pytest.raises(ParseError, match="variables"):
        parse_program("p(X).")


def test_arity_mismatch_rejected():
    with pytest.raises(ParseError, match="arity"):
        parse_program("p(a). p(a, b).")


def test_missing_dot_rejected():
    with pytest.raises(ParseError):
        parse_program("p(a)")


def test_truncated_atom_rejected():
    for truncated in ("p(", "p(X) :- q("):
        with pytest.raises(ParseError, match="got 'end of input'"):
            parse_program(truncated)


def test_stray_token_rejected():
    with pytest.raises(ParseError):
        parse_program("p(a). -> q(b).")
