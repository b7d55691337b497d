import itertools
import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from mdres import (
    InputError,
    ParseError,
    check_all,
    load_instance,
    neighbours,
    parse_mds,
    parse_schema,
    parse_sims,
    similar,
    verify_transitivity,
)
from mdres.similarity import EQUALITY, SimilaritySpec, _windows, load_table, within_distance
from mdres.taclosure import link_groups

from generators import VALUE_POOL, lev_cluster_instance, rand_table_sim
from reference import _lhs_pairs, ref_levenshtein, ref_similar, ref_verify_transitivity


def test_levenshtein_matches_recursive_reference():
    """The least bound the banded check accepts is the edit distance."""
    rng = random.Random(5)
    for _ in range(200):
        a = "".join(rng.choice("abcd") for _ in range(rng.randrange(7)))
        b = "".join(rng.choice("abcd") for _ in range(rng.randrange(7)))
        distance = next(k for k in range(8) if within_distance(a, b, k))
        assert distance == ref_levenshtein(a, b)


class _Reads(str):
    """A string that counts reads of its characters by index."""

    count = 0

    def __getitem__(self, index):
        _Reads.count += 1
        return super().__getitem__(index)


def _rows_until_cut(a: str, b: str, k: int) -> int:
    """Rows of the full edit-distance DP, the longer string (a on ties) down
    the side, up to the first row whose every cell exceeds k."""
    if len(a) < len(b):
        a, b = b, a
    row = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(row[j] + 1, current[j - 1] + 1, row[j - 1] + (ca != cb)))
        row = current
        if min(row) > k:
            return i
    return len(a)


_PAIRS = st.sampled_from(("ab", "abc")).flatmap(
    lambda letters: st.tuples(
        st.text(alphabet=letters, max_size=8), st.text(alphabet=letters, max_size=8)
    )
)


@settings(max_examples=600, derandomize=True, deadline=None, print_blob=False)
@given(_PAIRS, st.integers(min_value=0, max_value=5))
@example(("", ""), 0)
@example(("", "abab"), 3)
@example(("", "abab"), 4)
@example(("abba", ""), 5)
@example(("abcab", "abcab"), 0)
@example(("ab", "ba"), 2)
@example(("abc", "cab"), 5)
@example(("aaaaaaaa", "bbbbbbbb"), 5)
def test_banded_check_matches_full_levenshtein(pair, k):
    a, b = pair
    spec = SimilaritySpec(name="l", kind="lev", max_distance=k)
    assert similar(spec, a, b) == (ref_levenshtein(a, b) <= k)
    # The check fills at most k + 1 band cells per row (one read of the
    # shorter string each, plus one read of the row's own character) and
    # stops after the first row whose every cell exceeds k.
    _Reads.count = 0
    assert within_distance(_Reads(a), _Reads(b), k) == (ref_levenshtein(a, b) <= k)
    assert _Reads.count <= _rows_until_cut(a, b, k) * (k + 2)


class _Iterated(_Reads):
    """A _Reads that also counts the characters read by iteration."""

    iterated = 0

    def __iter__(self):
        for char in str.__iter__(self):
            _Iterated.iterated += 1
            yield char


@settings(max_examples=300, derandomize=True, deadline=None, print_blob=False)
@given(st.text(alphabet="abc", min_size=1, max_size=12), st.integers(0, 5), st.data())
def test_mismatch_count_accepts_substitutions_without_the_dp(a, k, data):
    """Equal lengths within k substitutions: accepted before any DP cell."""
    at = data.draw(st.sets(st.integers(0, len(a) - 1), max_size=k))
    b = "".join("z" if i in at else c for i, c in enumerate(a))
    _Reads.count = 0
    assert within_distance(_Reads(a), _Reads(b), k)
    assert _Reads.count == 0


@pytest.mark.parametrize("k", range(6))
def test_far_pair_of_long_strings_refused_early(k):
    """Two 10^5-character strings that differ in their first k + 1
    positions: the mismatch count stops at the (k + 1)-th mismatch, and the
    DP (k >= 2) stops at row k + 1, where every band cell exceeds k."""
    tail = "ab" * 50_000
    a, b = "x" * (k + 1) + tail[k + 1 :], "y" * (k + 1) + tail[k + 1 :]
    _Reads.count = _Iterated.iterated = 0
    assert not within_distance(_Iterated(a), _Iterated(b), k)
    assert _Iterated.iterated <= 2 * (k + 1)
    assert _Reads.count <= ((k + 1) * (k + 2) if k >= 2 else 0)
    assert within_distance(a, b, k + 1)


def test_windows_select_at_most_the_multi_match_bound():
    """PASS-JOIN's bound on the substrings a probe selects per indexed
    length, with every window inside the probe."""
    for k in range(9):
        for length in range(k + 1, 40):
            for delta in range(k + 1):
                windows = _windows(length, k, delta)
                assert len(windows) == k + 1
                assert all(0 <= first <= last <= length + delta - size
                           for size, first, last in windows), (k, length, delta)
                selected = sum(last - first + 1 for _, first, last in windows)
                assert selected <= (k * k - delta * delta) // 2 + k + 1, (k, length, delta)


def test_banded_check_with_a_huge_bound():
    huge = SimilaritySpec(name="l", kind="lev", max_distance=999_999_999)
    assert similar(huge, "a" * 5000, "b" * 4000)
    _Reads.count = 0
    assert within_distance(_Reads("ab" * 5000), _Reads("b" * 10), 999_999_999)
    assert _Reads.count == 0
    assert not within_distance("a" * 50, "b" * 50, 49)
    assert within_distance("a" * 50, "b" * 50, 50)


def _lev(k: int) -> SimilaritySpec:
    return SimilaritySpec(name="l", kind="lev", max_distance=k)


def _table_case(seed: int):
    rng = random.Random(seed)
    spec = rand_table_sim(rng)
    return spec, rng.sample(VALUE_POOL + ("y", "z"), rng.randint(0, 6))


@st.composite
def _lev_values(draw):
    """Up to 14 texts of up to 14 letters, then a few variants of them at a
    few random edits each, so that values within k of each other are common
    and a match may hinge on one window of one segment."""
    letters = draw(st.sampled_from(("ab", "abc", "abcd")))
    values = draw(st.lists(st.text(alphabet=letters, max_size=14), max_size=14))
    for _ in range(draw(st.integers(0, 6)) if values else 0):
        v = draw(st.sampled_from(values))
        for _ in range(draw(st.integers(1, 4))):
            at = draw(st.integers(0, len(v)))
            new = draw(st.sampled_from(letters + "x"))
            v = draw(st.sampled_from((v[:at] + new + v[at:], v[:at] + v[at + 1 :],
                                      v[:at] + new + v[at + 1 :])))
        values.append(v)
    return values


_LEV_CASES = st.tuples(st.integers(min_value=0, max_value=5).map(_lev), _lev_values())
_TABLE_CASES = st.integers(min_value=0, max_value=2**32 - 1).map(_table_case)


@settings(max_examples=600, derandomize=True, deadline=None, print_blob=False)
@given(st.one_of(_LEV_CASES, _TABLE_CASES))
@example((_lev(1), ["ab", "b"]))  # a segment found k characters before its start
@example((_lev(1), ["b", "ba"]))  # and k characters after it
@example((_lev(2), ["abc", "a", "", "ab", "ba"]))  # values shorter than k + 1
@example((_lev(3), ["abcabc", "cab", "abab", "b", "abcabc"]))  # a repeated value
@example((_lev(0), ["a", "ab", "a"]))
@example((_lev(3), ["abcdefgh", "axbcxdexfgh"]))  # only the last segment, at delta = k
@example((_lev(3), ["abcdefgh", "abcxdexfgxh"]))  # only the first segment
@example((_lev(4), ["abcdefghij", "acefgxhixj"]))  # a middle one, i characters left
def test_neighbours_match_all_pairs(case):
    spec, values = case
    near = neighbours(spec, values)
    assert set(near) == set(values)
    expected = {v: {v} for v in near}
    for v, u in itertools.combinations(expected, 2):  # ref_similar is symmetric
        if ref_similar(spec, v, u):
            expected[v].add(u)
            expected[u].add(v)
    for v, ns in near.items():
        assert ns[0] == v and len(ns) == len(set(ns)), (v, ns)
        assert set(ns) == expected[v], v


def test_planted_lev_clusters_are_isolated():
    """The scale generator's clusters: four values one substitution apart,
    every other value at least two edits away."""
    _, d, mdset = lev_cluster_instance(300, seed=1)
    values = [row[0] for row in d.data["R"].values()]
    near = neighbours(mdset.sims["s"], values)
    assert len(near) == 1200
    assert all(len(ns) == 4 and {u[:5] for u in ns} == {v[:5]} for v, ns in near.items())


def test_similar_kinds():
    lev2 = SimilaritySpec(name="l", kind="lev", max_distance=2)
    assert similar(lev2, "road", "rod")
    assert not similar(lev2, "road", "street")
    table = SimilaritySpec(name="t", kind="table",
                           pairs=frozenset({("a", "b"), ("b", "a")}))
    assert similar(table, "a", "b")
    assert similar(table, "a", "a")  # reflexive even when unlisted
    assert not similar(table, "a", "c")
    one_way = SimilaritySpec(name="t", kind="table", pairs=frozenset({("a", "b")}))
    assert similar(one_way, "b", "a") and one_way.pairs == table.pairs
    assert neighbours(one_way, ["a", "b"]) == {"a": ["a", "b"], "b": ["b", "a"]}
    assert similar(EQUALITY, "x", "x")
    assert not similar(EQUALITY, "x", "y")


def test_verify_transitivity_table_triple():
    # e relates to both a and i, but a and i stay dissimilar
    pairs = frozenset({("e", "a"), ("a", "e"), ("e", "i"), ("i", "e")})
    spec = SimilaritySpec(name="w", kind="table", pairs=pairs)
    assert verify_transitivity(spec, {"a", "e", "i"}) is False
    assert check_all({"w": spec}, {"a", "e", "i"})["w"].transitive is False


def test_verify_transitivity_lev_triple():
    lev1 = SimilaritySpec(name="l", kind="lev", max_distance=1,
                          declared_transitive=True)
    assert verify_transitivity(lev1, {"aa", "ab", "bb"}) is False
    # the declaration is downgraded when the active domain disproves it
    assert check_all({"s": lev1}, {"aa", "ab", "bb"})["s"].transitive is False
    assert check_all({"s": lev1}, {"aa", "ab"})["s"].transitive is True


@settings(max_examples=150, derandomize=True, deadline=None, print_blob=False)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_verify_transitivity_matches_cubic_reference(seed):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        # components of more than three values, cliques and chains all occur
        spec = SimilaritySpec(name="l", kind="lev", max_distance=rng.randint(0, 3))
        domain = {"".join(rng.choice("abc") for _ in range(rng.randint(1, 5)))
                  for _ in range(rng.randint(0, 25))}
    else:
        spec = rand_table_sim(rng)
        domain = set(rng.sample(VALUE_POOL + ("y", "z"), rng.randint(0, 6)))
    assert verify_transitivity(spec, domain) is (not ref_verify_transitivity(spec, domain))


def test_verdict_of_a_1000_value_clique_within_10_s():
    """All 1,000 three-letter words over ten letters are within lev 3 of
    each other: one clique. A pass over each value's pairs of neighbours
    would take a billion steps."""
    words = ["".join(w) for w in itertools.product("abcdefghij", repeat=3)]
    spec = SimilaritySpec(name="c", kind="lev", max_distance=3, declared_transitive=True)
    start = time.perf_counter()
    assert check_all({"s": spec}, words)["s"].transitive is True
    assert time.perf_counter() - start < 10


def test_verdict_of_a_4000_value_star_within_10_s():
    """One hub paired with 4,000 values: the table's verdict, taken when it
    is built, must not list the 8 million pairs of the hub's neighbours."""
    start = time.perf_counter()
    spec = SimilaritySpec(name="h", kind="table",
                          pairs=frozenset(("hub", f"v{i}") for i in range(4000)))
    assert spec.transitive is False
    assert time.perf_counter() - start < 10


def test_undeclared_lev_never_upgraded():
    lev1 = SimilaritySpec(name="l", kind="lev", max_distance=1)
    assert check_all({"s": lev1}, {"aa"})["s"].transitive is False


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
    assert pairs == {("a", "b"), ("c", "d")}
    spec = SimilaritySpec(name="t", kind="table", pairs=pairs)
    assert ("b", "a") in spec.pairs and ("d", "c") in spec.pairs
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


SYM_SCHEMA = parse_schema("relation R(A:str, B:str)\nrelation S(C:str, D:str)")
_RAW_PAIRS = st.sets(st.tuples(st.sampled_from(VALUE_POOL), st.sampled_from(VALUE_POOL)),
                     max_size=8)


@settings(max_examples=150, derandomize=True, deadline=None, print_blob=False)
@given(_RAW_PAIRS, st.lists(st.sampled_from(VALUE_POOL), min_size=1, max_size=6))
@example({("a", "b")}, ["a", "b"])
def test_table_is_symmetric_however_built(raw, column):
    spec = SimilaritySpec(name="t", kind="table", pairs=frozenset(raw))
    values = sorted(set(VALUE_POOL) | set(column) | {v for pair in raw for v in pair})
    for a in values:
        for b in values:
            assert similar(spec, a, b) == similar(spec, b, a), (a, b)
    near = {v: set(ns) for v, ns in neighbours(spec, values).items()}
    for a in values:
        for b in near[a]:
            assert a in near[b], (a, b)
    mdset = parse_mds(
        "R[A] ~t R[A] -> R[B] == R[B]; R[A] ~t S[C] -> R[B] == S[D]",
        SYM_SCHEMA, {"t": spec},
    )
    inst = load_instance(SYM_SCHEMA, {
        "R": [[v, "r"] for v in column],
        "S": [[v, "s"] for v in reversed(column)],
    })
    for md in mdset.mds:
        expanded = sorted(
            (t1, t2)
            for ltids, rtids in link_groups(md, inst, mdset.sims)
            for t1 in ltids
            for t2 in rtids
        )
        assert expanded == _lhs_pairs(md, inst, mdset.sims), md


def _brute_table_verdict(raw) -> bool:
    """The cubic verdict over the values the symmetric closure mentions."""
    closed = frozenset(raw) | {(b, a) for a, b in raw}
    ref = SimpleNamespace(kind="table", pairs=closed)
    return not ref_verify_transitivity(ref, {v for pair in closed for v in pair})


def test_spec_verdicts_match_brute_force(tmp_path):
    rng = random.Random(11)
    domain = ["aa", "ab", "bb", "u", "v"]
    for case in range(60):
        raw = {(rng.choice(VALUE_POOL), rng.choice(VALUE_POOL))
               for _ in range(rng.randint(0, 6))}
        (tmp_path / f"t{case}.csv").write_text(
            "".join(f"{a},{b}\n" for a, b in sorted(raw)), encoding="utf-8"
        )
        parsed = parse_sims(
            f"sim e = eq\nsim l = lev <= 1\nsim d = lev <= 1 [transitive]\n"
            f"sim t = table t{case}.csv\n",
            tmp_path,
        )
        direct = {
            "e": SimilaritySpec(name="e", kind="eq"),
            "l": SimilaritySpec(name="l", kind="lev", max_distance=1),
            "t": SimilaritySpec(name="t", kind="table", pairs=frozenset(raw)),
        }
        expected = {"e": True, "l": False, "t": _brute_table_verdict(raw)}
        for specs in (direct, parsed, check_all(direct, domain), check_all(parsed, domain)):
            assert {n: specs[n].transitive for n in expected} == expected, (case, raw)
        assert parsed["d"].transitive is None
        checked = check_all(parsed, domain)["d"]
        assert checked.transitive is (not ref_verify_transitivity(checked, domain))


def test_contrary_verdict_is_an_input_error():
    lone_pair = frozenset({("a", "b")})
    chain = frozenset({("a", "b"), ("b", "c")})
    contrary = [
        dict(kind="eq", transitive=False),
        dict(kind="lev", max_distance=1, transitive=True),
        dict(kind="table", pairs=chain, transitive=True),
        dict(kind="table", pairs=lone_pair, transitive=False),
    ]
    for kwargs in contrary:
        with pytest.raises(InputError, match="given transitive="):
            SimilaritySpec(name="s", **kwargs)
    # a verdict that agrees is accepted, and a declared lev takes its checked one
    assert SimilaritySpec(name="s", kind="table", pairs=chain, transitive=False)
    declared = SimilaritySpec(name="s", kind="lev", max_distance=1,
                              declared_transitive=True, transitive=False)
    assert declared.transitive is False
