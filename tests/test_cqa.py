import pytest
from hypothesis import assume, given, settings, strategies as st

from mdres import (
    build_cqa_instance,
    enumerate_mris_oracle,
    eval_cq,
    parse_query,
)
from mdres.errors import InputError
from mdres.relation import load_instance, parse_schema

from conftest import load_bundle
from reference import ref_certain_answers, ref_cqa_groups, ref_key_repairs


@pytest.fixture(scope="module")
def keyed():
    return load_bundle("keyed_majority")


def test_groups_frozen(keyed):
    kr = build_cqa_instance(keyed.instance, "Emp", ["Name"])
    assert kr.key == ("Name",)
    assert kr.nonkey == ("Dept", "Salary")
    assert kr.groups == (
        (("ann",), (("ann", "sales", "50"),)),
        (("bob",), (("bob", "hr", "30"),)),
    )
    assert kr.repair_count == 1
    assert kr.rows == (("ann", "sales", "50"), ("bob", "hr", "30"))


def test_tied_group_splits(keyed):
    # keying on Dept leaves a salary tie in the sales group
    kr = build_cqa_instance(keyed.instance, "Emp", ("Dept",))
    by_key = dict(kr.groups)
    assert by_key[("hr",)] == (("bob", "hr", "30"),)
    assert by_key[("ops",)] == (("ann", "ops", "50"),)
    assert by_key[("sales",)] == (
        ("ann", "sales", "40"), ("ann", "sales", "50"),
    )
    assert kr.repair_count == 2


def test_repairs_match_reference(keyed):
    kr = build_cqa_instance(keyed.instance, "Emp", ("Dept",))
    repairs = ref_key_repairs(keyed.instance, "Emp", ("Dept",))
    assert kr.repair_count == len(repairs)
    assert kr.rows == tuple(sorted(frozenset().union(*repairs)))


def test_repairs_are_collapsed_mris(keyed):
    # the MD "same Name forces same Dept and Salary" resolves to exactly the
    # key repairs once duplicate rows are collapsed
    mris, _ = enumerate_mris_oracle(keyed.instance, keyed.mdset)
    collapsed = {frozenset(row for _, row in m.rows("Emp")) for m in mris}
    kr = build_cqa_instance(keyed.instance, "Emp", ["Name"])
    repairs = ref_key_repairs(keyed.instance, "Emp", ("Name",))
    assert collapsed == set(repairs)
    assert kr.repair_count == len(repairs)


def test_consistent_answers_agree(keyed):
    q = parse_query("Q(n) :- Emp(n, 'sales', s)", keyed.schema)
    kr = build_cqa_instance(keyed.instance, "Emp", ["Name"])
    repairs = [
        load_instance(kr.schema, {"Emp": sorted(rows)})
        for rows in ref_key_repairs(keyed.instance, "Emp", ("Name",))
    ]
    assert ref_certain_answers(q, repairs) == frozenset({("ann",)})


def test_to_instance_round_trip(keyed):
    kr = build_cqa_instance(keyed.instance, "Emp", ["Name"])
    inst = kr.to_instance()
    assert tuple(row for _, row in inst.rows("Emp")) == kr.rows
    assert inst.schema.relation("Emp").attrs == ("Name", "Dept", "Salary")


def test_bad_keys_rejected(keyed):
    with pytest.raises(InputError, match="at least one"):
        build_cqa_instance(keyed.instance, "Emp", [])
    with pytest.raises(InputError, match="repeat"):
        build_cqa_instance(keyed.instance, "Emp", ["Name", "Name"])
    with pytest.raises(InputError, match="covers every"):
        build_cqa_instance(keyed.instance, "Emp", ["Name", "Dept", "Salary"])
    with pytest.raises(InputError):
        build_cqa_instance(keyed.instance, "Emp", ["Title"])
    with pytest.raises(InputError):
        build_cqa_instance(keyed.instance, "Staff", ["Name"])


@st.composite
def keyed_anywhere(draw, min_rows=1, singletons=False):
    """A relation T of 3 to 5 attributes keyed on 1 or 2 of them, never the
    first, with each column's values drawn from its own few names so that
    groups collide, ties occur, and a row out of schema order differs.
    With `singletons`, no two rows share a key value."""
    arity = draw(st.integers(3, 5))
    attrs = [f"A{j}" for j in range(arity)]
    key = draw(st.lists(st.sampled_from(attrs[1:]), min_size=1, max_size=2, unique=True))
    schema = parse_schema(f"relation T({', '.join(a + ':str' for a in attrs)})")
    cell = [st.sampled_from([f"{a.lower()}{k}" for k in range(3)]) for a in attrs]
    key_of = (lambda row: tuple(row[attrs.index(a)] for a in key)) if singletons else None
    rows = draw(st.lists(st.tuples(*cell), min_size=min_rows, max_size=12, unique_by=key_of))
    return load_instance(schema, {"T": rows}), tuple(key)


@settings(max_examples=200, derandomize=True, deadline=None, print_blob=False)
@given(keyed_anywhere())
def test_candidates_with_keys_anywhere_match_reference(case):
    d, key = case
    kr = build_cqa_instance(d, "T", key)
    assume(kr.repair_count <= 4096)  # the reference lists every repair
    repairs = ref_key_repairs(d, "T", key)
    assert kr.rows == tuple(sorted(frozenset().union(*repairs)))
    assert kr.repair_count == len(repairs)
    assert all(len(key_values) == len(key) for key_values, _ in kr.groups)


@settings(max_examples=300, derandomize=True, deadline=None, print_blob=False)
@given(st.one_of(keyed_anywhere(), keyed_anywhere(min_rows=0, singletons=True)))
def test_groups_match_the_group_by_group_reference(case):
    d, key = case
    assert build_cqa_instance(d, "T", key).groups == ref_cqa_groups(d, "T", key)


def test_groups_of_an_empty_relation_and_of_single_rows():
    schema = parse_schema("relation T(A:str, B:str, C:str)")
    empty = load_instance(schema, {})
    assert build_cqa_instance(empty, "T", ("B",)).groups == ()
    assert ref_cqa_groups(empty, "T", ("B",)) == ()
    d = load_instance(schema, {"T": [("x", "k2", "y"), ("z", "k1", "w")]})
    kr = build_cqa_instance(d, "T", ("B",))
    assert kr.groups == (
        (("k1",), (("z", "k1", "w"),)),
        (("k2",), (("x", "k2", "y"),)),
    ) == ref_cqa_groups(d, "T", ("B",))
    assert kr.repair_count == 1
