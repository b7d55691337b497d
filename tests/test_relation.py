import codecs
import csv
import io
import os
import random
import subprocess
import sys
from functools import partial
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mdres.relation
from mdres import (
    InputError,
    ParseError,
    diff_changeset,
    load_csv_dir,
    load_instance,
    parse_schema,
    write_csv_dir,
)
from mdres.relation import Position, _read_csv, instance_as_json, read_text

from reference import (
    ref_load_instance,
    ref_positions,
    ref_read_csv,
    ref_read_text,
    ref_row,
    ref_tids,
    ref_write_csv,
)


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
    assert ref_tids(inst, "R") == (1, 2)
    assert ref_tids(inst, "S") == (3,)


def test_load_instance_explicit_tids_must_be_unique():
    schema = parse_schema("relation R(A:str)\nrelation S(B:str)")
    inst = load_instance(
        schema, {"R": [["x"]], "S": [["z"]]}, tids={"R": [7], "S": [2]}
    )
    assert ref_tids(inst, "R") == (7,)
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
    assert s1 == {Position(2, ("R", "B")), Position(4, ("R", "B"))}
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
    assert ref_tids(back, "R") == ref_tids(dup_groups.instance, "R")


def test_csv_utf8_bom_accepted(tmp_path, dup_groups):
    (tmp_path / "R.csv").write_text("\ufeffA,B\na,b\n", encoding="utf-8")
    inst = load_csv_dir(dup_groups.schema, tmp_path)
    assert ref_row(inst, "R", 1) == ("a", "b")


def test_csv_header_mismatch_rejected(tmp_path, dup_groups):
    (tmp_path / "R.csv").write_text("#tid,A,Z\n1,a,b\n", encoding="utf-8")
    with pytest.raises(InputError):
        load_csv_dir(dup_groups.schema, tmp_path)


def test_instance_as_json_sorted(dup_groups):
    payload = instance_as_json(dup_groups.instance)
    assert payload["R"][0] == [1, "a1", "c1"]
    assert [row[0] for row in payload["R"]] == [1, 2, 3, 4]


def test_load_instance_rejects_bool_tids():
    schema = parse_schema("relation R(A:str)")
    with pytest.raises(InputError, match="^relation R: tid True is not a positive integer$"):
        load_instance(schema, {"R": [["x"]]}, {"R": [True]})


# Bulk ingest against the row-by-row loops it replaced. The schema has an
# int column, so canonical-integer checks run. Most draws are clean, so that
# whole inputs often load; the odd ones reach every check, and some of them
# (a padded or non-ASCII tid, an int value) are accepted the long way round.
INGEST_SCHEMA = parse_schema("relation R(A:str, B:int)\nrelation S(E:str)")
GOOD_CELLS = {"str": ("x", "y", " ", "7"), "int": ("0", "7", "-3", "12")}
ODD_CELLS = ("", "07", "-0", "x", "\u0663", " 1")
GOOD_CSV_TIDS = tuple(map(str, range(1, 200)))
ODD_CSV_TIDS = (
    "0", "00", "007", " 4", "5 ", "+6", "-2", "", "x", "\u0663", "\uff18", "\u00b2",
    "1" * 25, "9" * 5000,
)
ODD_API_VALUES = ("", "07", 7, -1, 0, True, False)
ODD_API_TIDS = (0, -1, True, False, 2.0, "3")


def _mostly(rng, good, odd):
    """A good value, or one time in eight an odd one."""
    return rng.choice(odd if rng.randrange(8) == 0 else good)


def _slip(rng):
    """Usually 0; one time in sixteen a row or tid list is one item off."""
    return rng.choice((-1, 1)) if rng.randrange(16) == 0 else 0


def rand_csv_texts(rng):
    texts = {}
    for rschema in INGEST_SCHEMA.relations:
        with_tid = rng.random() < 0.5
        lines = [",".join((["#tid"] if with_tid else []) + list(rschema.attrs))]
        for _ in range(rng.randrange(7)):
            if rng.randrange(6) == 0:
                lines.append("")
                continue
            tags = (rschema.tags + ("str",))[: rschema.arity + _slip(rng)]
            cells = [_mostly(rng, GOOD_CELLS[tag], ODD_CELLS) for tag in tags]
            if with_tid:
                cells.insert(0, _mostly(rng, GOOD_CSV_TIDS, ODD_CSV_TIDS))
            lines.append(",".join(cells))
        texts[rschema.name] = "\n".join(lines) + "\n"
    return texts


def rand_api_input(rng):
    rows, tids = {}, {}
    for rschema in INGEST_SCHEMA.relations:
        if rng.randrange(5) == 0:
            continue
        n = rng.randrange(5)
        rows[rschema.name] = [
            [_mostly(rng, GOOD_CELLS["int"], ODD_API_VALUES)
             for _ in range(rschema.arity + _slip(rng))]
            for _ in range(n)
        ]
        if rng.random() < 0.5:
            count = max(n + _slip(rng), 0)
            tids[rschema.name] = [_mostly(rng, range(1, 12), ODD_API_TIDS) for _ in range(count)]
    return rows, tids or None


def _outcome(build):
    try:
        inst = build()
    except Exception as exc:
        return type(exc), str(exc)
    return [list(inst.data[rel].items()) for rel in INGEST_SCHEMA.names()]


def _from_csv(read, load, texts):
    rows, tids = {}, {}
    for rschema in INGEST_SCHEMA.relations:
        rel_rows, rel_tids = read(rschema, texts[rschema.name], f"{rschema.name}.csv")
        rows[rschema.name] = rel_rows
        if rel_tids is not None:
            tids[rschema.name] = rel_tids
    return load(INGEST_SCHEMA, rows, tids or None)


def _csv_where(directory, texts):
    """Row i of a relation named as load_csv_dir names it: by its file and
    its record's number after the header, blank records counted."""
    def where(rel, i):
        records = list(csv.reader(io.StringIO(texts[rel])))[1:]
        rownums = [n for n, record in enumerate(records, start=1) if record]
        return f"{directory / f'{rel}.csv'}, row {rownums[i]}"
    return where


@settings(max_examples=1000, derandomize=True, deadline=None, print_blob=False)
@given(st.integers(0, 2**32 - 1))
def test_bulk_ingest_matches_row_loop(tmp_path_factory, seed):
    rng = random.Random(seed)
    texts = rand_csv_texts(rng)
    fast = _outcome(lambda: _from_csv(_read_csv, load_instance, texts))
    slow = _outcome(lambda: _from_csv(ref_read_csv, ref_load_instance, texts))
    assert fast == slow
    # the same texts as files, read the way the CLI reads them
    directory = tmp_path_factory.getbasetemp() / "ingest"
    directory.mkdir(exist_ok=True)
    for rel, text in texts.items():
        (directory / f"{rel}.csv").write_text(text, encoding="utf-8", newline="")
    fast = _outcome(lambda: load_csv_dir(INGEST_SCHEMA, directory))
    slow = _outcome(lambda: _from_csv(
        lambda rschema, text, source: ref_read_csv(rschema, text, directory / source),
        partial(ref_load_instance, where=_csv_where(directory, texts)),
        texts,
    ))
    assert fast == slow
    rows, tids = rand_api_input(rng)
    fast = _outcome(lambda: load_instance(INGEST_SCHEMA, rows, tids))
    slow = _outcome(lambda: ref_load_instance(INGEST_SCHEMA, rows, tids))
    assert fast == slow


def test_clean_csv_checks_no_cell_one_by_one(tmp_path, monkeypatch):
    calls = []
    check = mdres.relation._check_value
    monkeypatch.setattr(
        mdres.relation, "_check_value", lambda *args: calls.append(args) or check(*args)
    )
    rng = random.Random(0)
    lines = ["#tid,A,B"] + [
        f"{i},a{rng.randrange(2000)},{rng.randrange(-99, 99)}" for i in range(1, 10_001)
    ]
    (tmp_path / "R.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (tmp_path / "S.csv").write_text("E\ne1\n\ne2\n", encoding="utf-8")
    inst = load_csv_dir(INGEST_SCHEMA, tmp_path)
    assert len(inst.data["R"]) == 10_000 and ref_tids(inst, "S") == (10_001, 10_002)
    assert calls == []
    # the count is live: a bad cell does go through the per-row check
    (tmp_path / "S.csv").write_text('E\ne1\n\n""\n', encoding="utf-8")
    with pytest.raises(InputError, match="S.csv, row 3, attribute E: blank value$"):
        load_csv_dir(INGEST_SCHEMA, tmp_path)
    assert calls


def test_csv_parse_error_comes_after_earlier_bad_rows(tmp_path):
    (tmp_path / "S.csv").write_text("E\ne1\n", encoding="utf-8")
    long_row = "2,u," + "9" * 140_000 + "\n"
    (tmp_path / "R.csv").write_text("#tid,A,B\n\n1,u\n" + long_row, encoding="utf-8")
    with pytest.raises(InputError, match="R.csv, row 2: expected 2 values, got 1$"):
        load_csv_dir(INGEST_SCHEMA, tmp_path)
    (tmp_path / "R.csv").write_text("#tid,A,B\n\n1,u,7\n" + long_row, encoding="utf-8")
    with pytest.raises(InputError, match="R.csv, row 3: field larger than field limit"):
        load_csv_dir(INGEST_SCHEMA, tmp_path)


# Cell alphabets for the CSV writer: one that csv.writer never quotes, and
# one with every character it quotes for.
PLAIN_CELL_CHARS = "ab x\u00e9\u20ac\U0001f600"
QUOTED_CELL_CHARS = 'ab ,"\r\n\u00e9'


@settings(max_examples=300, derandomize=True, deadline=None, print_blob=False)
@given(st.data())
def test_written_csv_matches_the_row_by_row_writer(tmp_path_factory, data):
    chars = data.draw(st.sampled_from([PLAIN_CELL_CHARS, QUOTED_CELL_CHARS]))
    cell = st.text(st.sampled_from(chars), min_size=1, max_size=4)
    schema = parse_schema("relation R(A:str, B:str)\nrelation S(E:str)")
    rows = {
        "R": data.draw(st.lists(st.tuples(cell, cell), max_size=6)),
        "S": data.draw(st.lists(st.tuples(cell), max_size=3)),
    }
    n = len(rows["R"])
    tids = data.draw(st.lists(st.integers(1, 10**20), min_size=n + len(rows["S"]),
                              max_size=n + len(rows["S"]), unique=True))
    d = load_instance(schema, rows, {"R": tids[:n], "S": tids[n:]})
    directory = tmp_path_factory.getbasetemp() / "written"
    paths = write_csv_dir(d, directory)
    assert paths == [directory / "R.csv", directory / "S.csv"]
    for path, rel in zip(paths, ("R", "S")):
        assert path.read_bytes() == ref_write_csv(d, rel).encode("utf-8")
    # text mode reads a lone \r as \n, so only values without one come back
    if "\r" not in "".join(chain.from_iterable(chain.from_iterable(rows.values()))):
        assert load_csv_dir(schema, directory) == d  # tids included


# Byte pieces of a text file: line breaks of each kind, UTF-8 of one to four
# bytes, pieces of a BOM, and bytes that are never valid UTF-8.
BYTE_PIECES = [
    b"a", b"R,1", b"\n", b"\r", b"\r\n", b"\n\r", "\u00e9".encode(), "\u20ac".encode(),
    "\U0001f600".encode(), codecs.BOM_UTF8, b"\xef", b"\xef\xbb", b"\xbb\xbf", b"\xff",
    b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xf4\x90\x80\x80", b"\x00",
]


@settings(max_examples=500, derandomize=True, deadline=None, print_blob=False)
@given(st.booleans(), st.lists(st.sampled_from(BYTE_PIECES), max_size=10),
       st.integers(0, 40), st.sampled_from([None, b"\xff", b"\x80", b"\xc3", b"\xef\xbb"]))
def test_read_text_matches_text_mode(tmp_path_factory, bom, pieces, at, bad):
    data = b"".join(pieces)
    if bad is not None:  # an invalid byte at a random offset
        data = data[:at] + bad + data[at:]
    if bom:
        data = codecs.BOM_UTF8 + data
    path = tmp_path_factory.getbasetemp() / "read_text.txt"
    path.write_bytes(data)

    def outcome(read):
        try:
            return read(str(path))
        except InputError as exc:
            return "InputError", str(exc)
    assert outcome(read_text) == outcome(ref_read_text)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_fifo_in_place_of_a_data_file_is_missing(tmp_path):
    # in a subprocess, so that a read that waits for a writer fails the test
    os.mkfifo(tmp_path / "R.csv")
    script = (
        "import sys\n"
        "from mdres import InputError, load_csv_dir, parse_schema\n"
        "try:\n"
        "    load_csv_dir(parse_schema('relation R(A:str)'), sys.argv[1])\n"
        "except InputError as exc:\n"
        "    print(exc)\n"
    )
    src = Path(mdres.relation.__file__).resolve().parents[1]
    res = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": str(src)},
    )
    message = f"missing data file for relation R: {tmp_path / 'R.csv'}\n"
    assert (res.returncode, res.stdout) == (0, message)


@settings(max_examples=100, derandomize=True, deadline=None, print_blob=False)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_number_slots_ranks_the_sorted_positions(seed):
    """Slot i is the i-th of the positions at the chosen attributes in
    sorted order, with tids given in any order and relations left empty."""
    rng = random.Random(seed)
    schema = parse_schema(
        "relation S(Z:str, A:int)\nrelation R(C:str, B:str, D:str)\nrelation T(E:str)"
    )
    tids = rng.sample(range(1, 40), 18)
    sizes = [rng.randint(0, 6) for _ in range(3)]
    rows, given_tids = {}, {}
    for rschema, size in zip(schema.relations, sizes):
        rows[rschema.name] = [
            [str(rng.randint(0, 3)) for _ in rschema.attrs] for _ in range(size)
        ]
        given_tids[rschema.name], tids = tids[:size], tids[size:]
    d = load_instance(schema, rows, given_tids)
    every = [(r.name, a) for r in schema.relations for a in r.attrs]
    for attrs in (None, rng.sample(every, rng.randint(0, len(every)))):
        positions = ref_positions(d, attrs)
        slots, values = mdres.relation.number_slots(d, attrs)
        assert [slots[p.attr][p.tid] for p in positions] == list(range(len(positions)))
        assert values == [d.value(p) for p in positions]
        assert set(slots) == {p.attr for p in positions}
