"""Robustness: arbitrary input to the DSL parsers, the CSV loader and the
similarity-table reader raises MDResError (a one-line `error:` on the command
line), never anything else."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdres import (
    InputError,
    MDResError,
    ParseError,
    load_csv_dir,
    parse_mds,
    parse_query,
    parse_schema,
    parse_sims,
)
from mdres.similarity import SimilaritySpec

from datalog_engine import parse_program
from reference import ref_column

SCHEMA = parse_schema("relation R(A:str, B:int)\nrelation S(E:str, F:str)")
SIMS = {"s": SimilaritySpec(name="s", kind="table", pairs=frozenset({("u", "v"), ("v", "u")}))}

# Fragments of every little language, so that generated text gets past the
# first token often enough to reach the deeper error paths.
TOKENS = (
    "relation", "sim", "eq", "lev", "table", "transitive", "[transitive]",
    "R", "S", "A", "B", "E", "F", "Q", "p", "X", "x", "str", "int", "#tid",
    "(", ")", "[", "]", ",", ";", ":", ".", "=", "==", "~", "~s", "->", ":-",
    "<=", "'", "''", '"', "#", "-", "0", "1", "42", " ", "\n", "\r", "\t",
    "﻿", "\x00", "é",
)

fragments = st.lists(st.sampled_from(TOKENS), max_size=24).map("".join)
texts = st.one_of(fragments, st.text(max_size=40))
utf8_texts = st.one_of(
    fragments, st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40)
)


def _only_mdres_errors(parse, *args):
    try:
        parse(*args)
    except MDResError:
        pass


@settings(max_examples=400, derandomize=True, deadline=None, print_blob=False)
@given(texts)
def test_dsl_parsers_raise_only_mdres_errors(tmp_path_factory, text):
    base = tmp_path_factory.getbasetemp()
    _only_mdres_errors(parse_schema, text)
    _only_mdres_errors(parse_mds, text, SCHEMA, SIMS)
    _only_mdres_errors(parse_query, text, SCHEMA)
    _only_mdres_errors(parse_sims, text, base)
    _only_mdres_errors(parse_program, text)


# Arbitrary file bytes, and fields past the csv module's 131,072-character limit.
file_bytes = st.one_of(
    utf8_texts.map(str.encode),
    st.binary(max_size=40),
    st.sampled_from([b"x" * 140_000, b"A,B\nu,v\n" + b"y" * 140_000 + b"\n"]),
)


@settings(max_examples=300, derandomize=True, deadline=None, print_blob=False)
@given(file_bytes)
def test_csv_loader_raises_only_mdres_errors(tmp_path_factory, data):
    directory = tmp_path_factory.mktemp("csv", numbered=True)
    (directory / "R.csv").write_bytes(data)
    (directory / "S.csv").write_bytes(b"#tid,E,F\n9,u,v\n")
    _only_mdres_errors(load_csv_dir, SCHEMA, directory)


@settings(max_examples=300, derandomize=True, deadline=None, print_blob=False)
@given(file_bytes)
def test_table_reader_raises_only_mdres_errors(tmp_path_factory, data):
    directory = tmp_path_factory.mktemp("table", numbered=True)
    (directory / "pairs.csv").write_bytes(data)
    _only_mdres_errors(parse_sims, "sim s = table pairs.csv", directory)


@pytest.mark.parametrize(
    "text", ["sim s = table " + "n" * 300, "sim s = lev <= " + "9" * 5000]
)
def test_sims_declaration_extremes_raise_parse_errors(tmp_path, text):
    with pytest.raises(ParseError):
        parse_sims(text, tmp_path)


def test_csv_huge_integers(tmp_path):
    (tmp_path / "S.csv").write_text("E,F\nu,v\n", encoding="utf-8")
    (tmp_path / "R.csv").write_text("#tid,A,B\n1" + "0" * 5000 + ",u,7\n", encoding="utf-8")
    with pytest.raises(InputError, match="too many digits"):
        load_csv_dir(SCHEMA, tmp_path)
    # a canonical integer value is accepted however long
    (tmp_path / "R.csv").write_text("A,B\nu,1" + "0" * 5000 + "\n", encoding="utf-8")
    assert ref_column(load_csv_dir(SCHEMA, tmp_path), "R", "B") == ["1" + "0" * 5000]
