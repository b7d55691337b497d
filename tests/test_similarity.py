import random

import pytest
from hypothesis import given, settings, strategies as st

from mdres import (
    InputError,
    ParseError,
    check_all,
    check_transitivity,
    levenshtein,
    parse_sims,
    similar,
    verify_transitivity,
)
from mdres.similarity import EQUALITY, SimilaritySpec, load_table

from generators import VALUE_POOL, rand_table_sim
from reference import ref_levenshtein, ref_verify_transitivity


def test_levenshtein_known_values():
    assert levenshtein("", "") == 0
    assert levenshtein("abc", "abc") == 0
    assert levenshtein("abc", "abd") == 1
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("", "xyz") == 3


def test_levenshtein_matches_recursive_reference():
    rng = random.Random(5)
    for _ in range(200):
        a = "".join(rng.choice("abcd") for _ in range(rng.randrange(7)))
        b = "".join(rng.choice("abcd") for _ in range(rng.randrange(7)))
        assert levenshtein(a, b) == ref_levenshtein(a, b)


def test_similar_kinds():
    lev2 = SimilaritySpec(name="l", kind="lev", max_distance=2)
    assert similar(lev2, "road", "rod")
    assert not similar(lev2, "road", "street")
    table = SimilaritySpec(name="t", kind="table",
                           pairs=frozenset({("a", "b"), ("b", "a")}))
    assert similar(table, "a", "b")
    assert similar(table, "a", "a")  # reflexive even when unlisted
    assert not similar(table, "a", "c")
    assert similar(EQUALITY, "x", "x")
    assert not similar(EQUALITY, "x", "y")


def test_verify_transitivity_table_triple():
    # e relates to both a and i, but a and i stay dissimilar
    pairs = frozenset({("e", "a"), ("a", "e"), ("e", "i"), ("i", "e")})
    spec = SimilaritySpec(name="w", kind="table", pairs=pairs)
    assert verify_transitivity(spec, {"a", "e", "i"}) == [("a", "e", "i")]
    checked = check_transitivity(spec, {"a", "e", "i"})
    assert checked.transitive is False


def test_verify_transitivity_lev_triple():
    lev1 = SimilaritySpec(name="l", kind="lev", max_distance=1,
                          declared_transitive=True)
    assert verify_transitivity(lev1, {"aa", "ab", "bb"}) == [("aa", "ab", "bb")]
    # the declaration is downgraded when the active domain disproves it
    assert check_transitivity(lev1, {"aa", "ab", "bb"}).transitive is False
    assert check_transitivity(lev1, {"aa", "ab"}).transitive is True


@settings(max_examples=150, derandomize=True, deadline=None, print_blob=False)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_verify_transitivity_matches_cubic_reference(seed):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        spec = SimilaritySpec(name="l", kind="lev", max_distance=rng.randint(0, 2))
        domain = {"".join(rng.choice("ab") for _ in range(rng.randint(1, 4)))
                  for _ in range(rng.randint(0, 12))}
    else:
        spec = rand_table_sim(rng)
        domain = set(rng.sample(VALUE_POOL + ("y", "z"), rng.randint(0, 6)))
    assert verify_transitivity(spec, domain) == ref_verify_transitivity(spec, domain)


def test_undeclared_lev_never_upgraded():
    lev1 = SimilaritySpec(name="l", kind="lev", max_distance=1)
    assert check_transitivity(lev1, {"aa"}).transitive is False


def test_check_all_resolves_every_spec():
    specs = {
        "e": EQUALITY,
        "l": SimilaritySpec(name="l", kind="lev", max_distance=1,
                            declared_transitive=True),
    }
    out = check_all(specs, {"p", "q"})
    assert out["e"].transitive is True
    assert out["l"].transitive is True


def test_load_table_symmetric_and_strict():
    pairs = load_table("a,b\n# comment\nc,d\n", "inline")
    assert ("b", "a") in pairs and ("d", "c") in pairs
    with pytest.raises(InputError):
        load_table("a\n", "inline")
    with pytest.raises(InputError):
        load_table("a,\n", "inline")


def test_parse_sims_declarations(tmp_path):
    (tmp_path / "p.csv").write_text("x,y\n", encoding="utf-8")
    (tmp_path / "bom.csv").write_text("\ufeffx,y\n", encoding="utf-8")
    text = (
        "sim e = eq\n"
        "sim l = lev <= 2 [transitive]\n"
        "sim t = table p.csv\n"
        "sim b = table bom.csv\n"
    )
    specs = parse_sims(text, tmp_path)
    assert specs["e"].kind == "eq"
    assert specs["l"].max_distance == 2 and specs["l"].declared_transitive
    assert specs["t"].pairs == frozenset({("x", "y"), ("y", "x")})
    assert specs["b"].pairs == specs["t"].pairs  # a UTF-8 BOM is not a value
    # table verdicts are exact immediately
    assert specs["t"].transitive is True


def test_parse_sims_rejects_bad_lines(tmp_path):
    with pytest.raises(ParseError):
        parse_sims("sim q = fuzzy", tmp_path)
    with pytest.raises(ParseError):
        parse_sims("sim q = eq\nsim q = eq", tmp_path)
    with pytest.raises(ParseError):
        parse_sims("sim q = table missing.csv", tmp_path)
