import pytest

from mdres import (
    InputError,
    ParseError,
    diff_changeset,
    load_csv_dir,
    load_instance,
    parse_schema,
    write_csv_dir,
)
from mdres.relation import ChangeSet, Position, instance_as_json


def test_parse_schema_two_relations():
    schema = parse_schema(
        "# people\nrelation R(A:str, B:int)\nrelation S(C:str)\n"
    )
    assert schema.names() == ("R", "S")
    assert schema.relation("R").attrs == ("A", "B")
    assert schema.relation("R").tags == ("str", "int")
    assert schema.has_attr(("S", "C"))
    assert not schema.has_attr(("S", "Z"))


def test_parse_schema_rejects_duplicates():
    with pytest.raises(InputError):
        parse_schema("relation R(A:str)\nrelation R(B:str)")
    with pytest.raises(ParseError):
        parse_schema("relation R(A:str, A:str)")
    with pytest.raises(ParseError):
        parse_schema("relation R(A:float)")


def test_load_instance_assigns_dense_tids():
    schema = parse_schema("relation R(A:str)\nrelation S(B:str)")
    inst = load_instance(schema, {"R": [["x"], ["y"]], "S": [["z"]]})
    # ids are global: S continues after R
    assert inst.tids("R") == (1, 2)
    assert inst.tids("S") == (3,)


def test_load_instance_explicit_tids_must_be_unique():
    schema = parse_schema("relation R(A:str)\nrelation S(B:str)")
    inst = load_instance(
        schema, {"R": [["x"]], "S": [["z"]]}, tids={"R": [7], "S": [2]}
    )
    assert inst.tids("R") == (7,)
    with pytest.raises(InputError):
        load_instance(schema, {"R": [["x"]], "S": [["z"]]},
                      tids={"R": [7], "S": [7]})


def test_int_tagged_values_must_be_canonical():
    schema = parse_schema("relation R(A:int)")
    load_instance(schema, {"R": [["42"], ["-3"]]})
    with pytest.raises(InputError):
        load_instance(schema, {"R": [["042"]]})
    with pytest.raises(InputError):
        load_instance(schema, {"R": [[""]]})


def test_with_values_returns_new_instance():
    schema = parse_schema("relation R(A:str, B:str)")
    inst = load_instance(schema, {"R": [["a", "b"]]})
    pos = Position(1, ("R", "B"))
    other = inst.with_values({pos: "q"})
    assert other.value(pos) == "q"
    assert inst.value(pos) == "b"
    assert other != inst
    assert other == inst.with_values({pos: "q"})


def test_diff_changeset_matches_hand_diffs(dup_groups):
    d = dup_groups.instance
    d1 = dup_groups.variant("D1")
    d2 = dup_groups.variant("D2")
    s1 = diff_changeset(d, d1)
    assert set(s1) == {Position(2, ("R", "B")), Position(4, ("R", "B"))}
    assert len(diff_changeset(d, d2)) == 3


def test_diff_changeset_requires_matching_tids():
    schema = parse_schema("relation R(A:str)")
    a = load_instance(schema, {"R": [["x"]]})
    b = load_instance(schema, {"R": [["x"], ["y"]]})
    with pytest.raises(InputError):
        diff_changeset(a, b)


def test_csv_round_trip(tmp_path, dup_groups):
    paths = write_csv_dir(dup_groups.instance, tmp_path)
    assert [p.name for p in paths] == ["R.csv"]
    back = load_csv_dir(dup_groups.schema, tmp_path)
    assert back == dup_groups.instance
    assert back.tids("R") == dup_groups.instance.tids("R")


def test_csv_utf8_bom_accepted(tmp_path, dup_groups):
    (tmp_path / "R.csv").write_text("\ufeffA,B\na,b\n", encoding="utf-8")
    inst = load_csv_dir(dup_groups.schema, tmp_path)
    assert inst.row("R", 1) == ("a", "b")


def test_csv_header_mismatch_rejected(tmp_path, dup_groups):
    (tmp_path / "R.csv").write_text("#tid,A,Z\n1,a,b\n", encoding="utf-8")
    with pytest.raises(InputError):
        load_csv_dir(dup_groups.schema, tmp_path)


def test_changeset_json_shape():
    cs = ChangeSet(frozenset({Position(2, ("R", "B")), Position(1, ("R", "A"))}))
    assert cs.as_json() == [["R", 1, "A"], ["R", 2, "B"]]


def test_instance_as_json_sorted(dup_groups):
    payload = instance_as_json(dup_groups.instance)
    assert payload["R"][0] == [1, "a1", "c1"]
    assert [row[0] for row in payload["R"]] == [1, 2, 3, 4]
