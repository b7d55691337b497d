import codecs
import csv
import json
import random
import shutil
import subprocess
import sys
from itertools import chain
from math import prod

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import mdres.cli
from mdres import load_instance, parse_mds, parse_schema, ta_closure
from mdres.cli import _dump_json, _is_rows, main
from mdres.relation import instance_as_json, write_csv_dir
from mdres.taclosure import emit_datalog

from conftest import FIXTURES
from generators import LINK_VALUES, dn_instance, rand_link_case
from reference import ref_closure_text, ref_partition_json


def args_for(name, command, *extra, mds="mds.txt", sims=None, query=None):
    root = FIXTURES / name
    argv = [
        command,
        "--schema", str(root / "schema.txt"),
        "--data", str(root / "data"),
        "--mds", str(root / mds),
    ]
    if sims is None and (root / "sims.txt").exists():
        sims = "sims.txt"
    if sims:
        argv += ["--sims", str(root / sims)]
    if query:
        argv += ["--query", str(root / query)]
    argv += list(extra)
    return argv


def invoke(argv):
    return CliRunner().invoke(main, argv)


def test_classify_json():
    res = invoke(args_for("dup_groups", "classify"))
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["label"] == "NonInteracting"
    assert payload["graph"] == {"vertices": ["m1"], "edges": []}
    assert payload["mds"] == ["m1: R[A] = R[A] -> R[B] == R[B]"]
    assert any("no edges" in e for e in payload["evidence"])


def test_classify_text():
    res = invoke(args_for("hard_chain", "classify", "--format", "text"))
    assert res.exit_code == 0, res.output
    lines = res.output.splitlines()
    assert lines[0] == "LinearPairHard"
    assert "  chain: m1 feeds m2" in lines


def test_closure_payload():
    res = invoke(args_for("two_rule_cycle", "closure"))
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert len(payload["blocks"]) == 2
    first = payload["blocks"][0]
    assert first["positions"][0] == ["R", 1, "A"]
    assert first["values"] == {"a1": 1, "a2": 1, "b1": 1, "b2": 1}


def test_resolve_payload():
    res = invoke(args_for("dup_groups", "resolve"))
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["mri_count"] == 4
    assert payload["min_change"] == 2
    assert payload["classification"]["label"] == "NonInteracting"
    assert "materialized" not in payload
    assert payload["canonical"]["R"][0] == [1, "a1", "c1"]


def test_resolve_materialize_truncates():
    res = invoke(args_for("dup_groups", "resolve", "--materialize", "3"))
    payload = json.loads(res.output)
    assert len(payload["materialized"]) == 3
    assert payload["truncated"] is True
    res_all = invoke(args_for("dup_groups", "resolve", "--materialize", "10"))
    payload_all = json.loads(res_all.output)
    assert len(payload_all["materialized"]) == 4
    assert payload_all["truncated"] is False


@pytest.mark.parametrize("value", ["-1", "99999999999999999999"])
def test_materialize_out_of_range_exits_1(value):
    res = invoke(args_for("dup_groups", "resolve", "--materialize", value))
    assert res.exit_code == 1, res.output
    assert res.stderr == (
        f"error: Invalid value for '--materialize': {value} is not in the range "
        f"0<=x<={sys.maxsize}.\n"
    )
    assert res.stdout == ""


def test_oracle_payload():
    res = invoke(args_for("dup_groups", "oracle"))
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["count"] == 4
    assert payload["min_change"] == 2
    assert len(payload["mris"]) == 4


def test_answers_modes_agree():
    base = args_for("majority_column", "answers", query="query.txt")
    auto = json.loads(invoke(base).output)
    assert auto["mode"] == "rewrite"
    assert auto["ujcq"] is True and auto["witness"] is None
    assert auto["answers"] == [
        ["a1", "b2", "c1"], ["a1", "b2", "c2"], ["a1", "b2", "c3"],
    ]
    assert auto["rewritten"].startswith("Q'(x, y, z) :- exists y'")
    slow = json.loads(
        invoke(base + ["--mode", "oracle"]).output
    )
    assert slow["mode"] == "oracle"
    assert slow["answers"] == auto["answers"]


def test_answers_bad_mode_exits_1():
    res = invoke(
        args_for("majority_column", "answers", "--mode", "chase", query="query.txt")
    )
    assert res.exit_code == 1
    assert res.stderr.startswith("error:")


def test_answers_rewrite_refusal_exits_2(tmp_path):
    qfile = tmp_path / "q.txt"
    qfile.write_text("Q(x) :- R(x, y, z)\n")
    res = invoke(
        args_for("hard_chain", "answers", "--mode", "rewrite", "--query", str(qfile))
    )
    assert res.exit_code == 2
    assert res.stderr.startswith("not eligible:")


def test_truncated_query_exits_1(tmp_path):
    qfile = tmp_path / "q.txt"
    qfile.write_text("Q(x) :- R(")
    res = invoke(args_for("majority_column", "answers", "--query", str(qfile)))
    assert res.exit_code == 1
    assert res.stderr == "error: expected a term, got 'end of input'\n"


def test_non_utf8_input_exits_1(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "R.csv").write_bytes(b"A,B\n\xe9t\xe9,c1\n")
    res = invoke(args_for("dup_groups", "classify", "--data", str(data)))
    assert res.exit_code == 1
    assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
    qfile = tmp_path / "q.txt"
    qfile.write_bytes(b"Q(x) :- R(x, \xff)")
    res = invoke(args_for("majority_column", "answers", "--query", str(qfile)))
    assert res.exit_code == 1
    assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1


def test_bad_byte_offset_counts_the_bom(tmp_path):
    qfile = tmp_path / "q.txt"
    for bom, offset in ((b"", 4), (codecs.BOM_UTF8, 7)):
        qfile.write_bytes(bom + b"E\nab\xffc")
        res = invoke(args_for("majority_column", "answers", "--query", str(qfile)))
        assert res.exit_code == 1 and res.stdout == ""
        assert res.stderr == (
            f"error: {qfile}: not UTF-8 text (byte {offset}: invalid start byte)\n"
        )


def test_bad_value_and_bad_record_on_one_line_share_a_row_number(tmp_path):
    # the blank line is record 2, so the bad line is record 3 either way
    data = tmp_path / "data"
    data.mkdir()
    for line, problem in (('2,a1,""', ", attribute B: blank value"),
                          ("2,a1", ": expected 2 values, got 1")):
        (data / "R.csv").write_text(f"#tid,A,B\n1,a1,c1\n\n{line}\n", encoding="utf-8")
        res = invoke(args_for("dup_groups", "resolve", "--data", str(data)))
        assert res.exit_code == 1 and res.stdout == ""
        assert res.stderr == f"error: {data / 'R.csv'}, row 3{problem}\n"


@pytest.mark.parametrize("name", ["schema.txt", "mds.txt", "sims.txt", "q1.txt"])
def test_input_file_may_start_with_a_bom(tmp_path, name):
    root = tmp_path / "two_rule_cycle"
    shutil.copytree(FIXTURES / "two_rule_cycle", root)
    argv = [
        "answers",
        "--schema", str(root / "schema.txt"),
        "--data", str(root / "data"),
        "--mds", str(root / "mds.txt"),
        "--sims", str(root / "sims.txt"),
        "--query", str(root / "q1.txt"),
    ]
    plain = invoke(argv)
    assert plain.exit_code == 0, plain.output
    path = root / name
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    res = invoke(argv)
    assert res.exit_code == 0, res.output
    assert res.stdout == plain.stdout


def test_overlong_csv_field_exits_1(tmp_path):
    # csv refuses a field over 131,072 characters; that is an input error
    data = tmp_path / "data"
    data.mkdir()
    (data / "R.csv").write_text("#tid,A,B\n1," + "a" * 200_000 + ",b\n", encoding="utf-8")
    res = invoke(args_for("dup_groups", "resolve", "--data", str(data)))
    assert res.exit_code == 1 and res.stdout == ""
    assert res.stderr == (
        f"error: {data / 'R.csv'}, row 1: field larger than field limit (131072)\n"
    )
    (tmp_path / "sims.txt").write_text("sim s = table s_pairs.csv\n", encoding="utf-8")
    (tmp_path / "s_pairs.csv").write_text("a1,a2\nb1," + "b" * 200_000 + "\n", encoding="utf-8")
    res = invoke(args_for("two_rule_cycle", "classify", "--sims", str(tmp_path / "sims.txt")))
    assert res.exit_code == 1 and res.stdout == ""
    assert res.stderr == (
        f"error: {tmp_path / 's_pairs.csv'}, row 2: field larger than field limit (131072)\n"
    )


def test_answers_computes_verdicts_once(monkeypatch):
    import mdres.query

    calls = []
    for name in ("classify", "is_ujcq", "rewrite"):
        for module in (mdres.cli, mdres.query):
            original = getattr(module, name, None)
            if original is not None:
                def counted(*args, _original=original, _name=name, **kwargs):
                    calls.append(_name)
                    return _original(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)
    res = invoke(args_for("majority_column", "answers", query="query.txt"))
    assert res.exit_code == 0
    assert sorted(calls) == ["classify", "is_ujcq", "rewrite"]


def test_transitivity_verdict_is_taken_only_by_chain_classification(
    monkeypatch, tmp_path
):
    import mdres.similarity

    calls = []
    original = mdres.similarity.verify_transitivity

    def counted(*args, **kwargs):
        calls.append(args[0].name)
        return original(*args, **kwargs)

    monkeypatch.setattr(mdres.similarity, "verify_transitivity", counted)
    single = tmp_path / "single.txt"
    single.write_text("R[A] ~s S[B] -> R[G] == S[H]\n", encoding="utf-8")
    for command in ("resolve", "emit-datalog", "closure", "oracle", "classify"):
        res = invoke(args_for("filtered_chain", command, mds=str(single)))
        assert res.exit_code == 0, res.output
    assert calls == []
    declared = tmp_path / "sims.txt"
    declared.write_text("sim p = lev <= 1 [transitive]\n", encoding="utf-8")
    hit = tmp_path / "hit.txt"
    hit.write_text(
        "R[A] ~p R[A] -> R[C] == R[C];\n"
        "R[C] ~p R[C] -> R[A] == R[A];\n"
        "R[F] ~p R[F] -> R[A] == R[A];\n",
        encoding="utf-8",
    )
    for mds, label in (("mds.txt", "SimpleCycle"), (str(hit), "HitSimpleCycle")):
        for command in ("classify", "resolve"):
            res = invoke(args_for("simple_cycle", command, mds=mds, sims=str(declared)))
            assert res.exit_code == 0, res.output
        assert json.loads(res.output)["classification"]["label"] == label
    assert calls == []

    res = invoke(args_for("filtered_chain", "classify", "--format", "text"))
    assert res.exit_code == 0, res.output
    assert res.output.splitlines()[0] == "LinearPairEasy"
    assert calls == ["s"]
    res = invoke(args_for("filtered_chain", "resolve"))
    assert res.exit_code == 2
    assert "classifies as LinearPairEasy" in res.stderr
    assert calls == ["s", "s"]


def test_huge_edit_bound_refused_before_fresh_values(tmp_path):
    (tmp_path / "data").mkdir()
    (tmp_path / "schema.txt").write_text("relation R(A:str, B:str)\n", encoding="utf-8")
    (tmp_path / "data" / "R.csv").write_text("A,B\na1,b1\na2,b2\n", encoding="utf-8")
    (tmp_path / "mds.txt").write_text("R[A] ~s R[A] -> R[B] == R[B]\n", encoding="utf-8")
    (tmp_path / "sims.txt").write_text("sim s = lev <= 999999999\n", encoding="utf-8")
    res = invoke([
        "oracle",
        "--schema", str(tmp_path / "schema.txt"),
        "--data", str(tmp_path / "data"),
        "--mds", str(tmp_path / "mds.txt"),
        "--sims", str(tmp_path / "sims.txt"),
    ])
    assert res.exit_code == 3
    assert res.stderr.startswith("bounds exceeded:") and res.stderr.count("\n") == 1
    assert "edit-distance bound 999999999" in res.stderr


def test_oracle_bounds_exit_3():
    res = invoke(args_for("dup_groups", "oracle", "--max-values", "2"))
    assert (res.exit_code, res.stdout) == (3, "")
    assert res.stderr == (
        "bounds exceeded: block at (t1, R[B]) offers 3 assignments, bound is 2\n"
    )


def test_answers_through_the_oracle_past_twelve_tuples(tmp_path):
    # 14 tuples and 128 MRIs; the query is not join-safe, so auto takes the
    # oracle, which has no size bound
    _, d, _ = dn_instance(7)
    write_csv_dir(d, tmp_path / "data")
    (tmp_path / "schema.txt").write_text("relation R(A:str, B:str)\n", encoding="utf-8")
    (tmp_path / "mds.txt").write_text("R[A] = R[A] -> R[B] == R[B]\n", encoding="utf-8")
    (tmp_path / "q.txt").write_text("Q(x) :- R(x, y), R(z, y)\n", encoding="utf-8")
    res = invoke([
        "answers", "--schema", str(tmp_path / "schema.txt"), "--data", str(tmp_path / "data"),
        "--mds", str(tmp_path / "mds.txt"), "--query", str(tmp_path / "q.txt"),
    ])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["mode"] == "oracle"
    assert payload["answers"] == [[f"a{i}"] for i in range(1, 8)]


@pytest.mark.parametrize("option, value, commands", [
    ("--max-values", "-3", ("oracle", "answers")),
    ("--max-materialized", "-2", ("oracle",)),
])
def test_negative_oracle_bound_exits_1(option, value, commands):
    argvs = {
        "oracle": args_for("dup_groups", "oracle", option, value),
        "answers": args_for("majority_column", "answers", "--mode", "oracle", option, value,
                            query="query.txt"),
    }
    for argv in map(argvs.get, commands):
        res = invoke(argv)
        assert res.exit_code == 1, res.output
        assert res.stderr == (
            f"error: Invalid value for '{option}': {value} is not in the range x>=0.\n"
        )
        assert res.stdout == ""


def test_missing_input_exits_1(tmp_path):
    res = invoke(args_for("dup_groups", "classify", "--mds", "absent.txt"))
    assert res.exit_code == 1
    assert res.stderr.startswith("error:")
    res2 = invoke(["classify", "--schema", str(FIXTURES / "dup_groups/schema.txt")])
    assert res2.exit_code == 1 and res2.stdout == ""
    assert res2.stderr == "error: Missing option '--data'.\n"


def test_removed_threads_option_is_a_usage_error():
    res = invoke(args_for("dup_groups", "classify", "--threads", "2"))
    assert res.exit_code == 1 and res.stdout == ""
    assert res.stderr == "error: No such option '--threads'.\n"


@pytest.mark.parametrize("command, option, value", [
    ("cqa-export", "--mds", "mds.txt"),
    ("cqa-export", "--sims", "sims.txt"),
    ("oracle", "--max-depth", "1"),
    ("oracle", "--max-tuples", "3"),
    ("answers", "--max-tuples", "3"),
    ("answers", "--max-materialized", "5"),
])
def test_options_nothing_reads_are_usage_errors(command, option, value):
    # the oracle has no size bound, and answers builds one MRI at a time
    hint = " Did you mean '--max-values'?" if option.startswith("--max-") else ""
    root = FIXTURES / "keyed_majority"
    res = invoke([
        command, "--schema", str(root / "schema.txt"), "--data", str(root / "data"),
        option, value,
    ])
    assert res.exit_code == 1
    assert res.stderr == f"error: No such option '{option}'.{hint}\n"
    assert res.stdout == ""


CONTRACT_ROOT = FIXTURES / "majority_column"
CONTRACT_VALUES = {
    "--schema": str(CONTRACT_ROOT / "schema.txt"),
    "--data": str(CONTRACT_ROOT / "data"),
    "--mds": str(CONTRACT_ROOT / "mds.txt"),
    "--query": str(CONTRACT_ROOT / "query.txt"),
    "--relation": "R",
    "--key": "A",
}
INPUTS = ("--schema", "--data", "--mds")
ORACLE_BOUNDS = dict.fromkeys(("--max-values", "--max-materialized"), "x>=0")
# command: (required options, {integer option: its range}, takes --format)
CONTRACT = {
    "classify": (INPUTS, {}, True),
    "closure": (INPUTS, {}, True),
    "resolve": (INPUTS, {"--materialize": f"0<=x<={sys.maxsize}"}, True),
    "oracle": (INPUTS, ORACLE_BOUNDS, True),
    "answers": ((*INPUTS, "--query"), {"--max-values": "x>=0"}, True),
    "emit-datalog": (INPUTS, {}, False),
    "cqa-export": (("--schema", "--data", "--relation", "--key"), {}, True),
}


def _valid_argv(command):
    return [command, *chain.from_iterable((o, CONTRACT_VALUES[o]) for o in CONTRACT[command][0])]


def _usage_errors():
    """pytest.param(argv, stderr message) for each usage error of each command."""
    cases = []
    for command, (required, integers, formats) in CONTRACT.items():
        valid = _valid_argv(command)
        case = [("unknown", valid + ["--no-such"], "No such option '--no-such'.")]
        for option in required:
            i = valid.index(option)
            case.append((f"no{option}", valid[:i] + valid[i + 2:], f"Missing option '{option}'."))
        for option, limit in integers.items():
            for value, problem in (("x", "'x' is not a valid integer range"),
                                   ("-1", f"-1 is not in the range {limit}")):
                case.append((f"{option}={value}", valid + [option, value],
                             f"Invalid value for '{option}': {problem}."))
        if formats:
            case.append(("--format=xml", valid + ["--format", "xml"],
                         "Invalid value for '--format': 'xml' is not one of 'json', 'text'."))
        cases += [pytest.param(argv, msg, id=f"{command}:{label}") for label, argv, msg in case]
    return cases


@pytest.mark.parametrize("command", CONTRACT)
def test_contract_base_invocation_runs(command):
    res = invoke(_valid_argv(command))
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("argv, message", [
    *_usage_errors(),
    pytest.param([], "Missing command.", id="bare"),
    pytest.param(["merge"], "No such command 'merge'.", id="unknown-command"),
    pytest.param([*_valid_argv("classify"), "a\nb"], "Got unexpected extra argument (a\\nb)",
                 id="extra-argument"),
])
def test_usage_error_is_one_line_input_error(argv, message):
    res = invoke(argv)
    assert (res.exit_code, res.stdout, res.stderr) == (1, "", f"error: {message}\n")


def test_unknown_answer_mode_exits_1():
    res = invoke(args_for("majority_column", "answers", "--mode", "x", query="query.txt"))
    assert res.exit_code == 1
    assert res.stderr == (
        "error: Invalid value for '--mode': 'x' is not one of 'auto', 'rewrite', 'oracle'.\n"
    )
    assert res.stdout == ""


def test_emit_datalog_raw_text():
    res = invoke(args_for("two_rule_cycle", "emit-datalog"))
    assert res.exit_code == 0, res.output
    assert res.output.startswith("%")
    assert "ta(X, A, Y, B) :- eqp(X, A, Y, B)." in res.output
    assert not res.output.rstrip("\n").endswith("}")  # raw program, not JSON


def test_text_output_keeps_ansi_escapes(tmp_path):
    """stdout is written as computed: click.echo would strip the escape
    sequences in these values whenever stdout is not a terminal."""
    red = "x\x1b[31my"
    schema = parse_schema("relation R(A:str, B:str)")
    mdset = parse_mds("R[A] = R[A] -> R[B] == R[B]", schema)
    d = load_instance(schema, {"R": [[red, red], [red, "b"]]})
    write_csv_dir(d, tmp_path / "data")
    (tmp_path / "schema.txt").write_text("relation R(A:str, B:str)\n", encoding="utf-8")
    (tmp_path / "mds.txt").write_text("R[A] = R[A] -> R[B] == R[B]\n", encoding="utf-8")
    (tmp_path / "query.txt").write_text("Q(x) :- R(x, y)\n", encoding="utf-8")
    base = ["--schema", str(tmp_path / "schema.txt"), "--data", str(tmp_path / "data"),
            "--mds", str(tmp_path / "mds.txt")]
    program = emit_datalog(d, mdset)
    assert red in program
    res = invoke(["emit-datalog", *base])
    assert (res.exit_code, res.stdout) == (0, program)
    proc = subprocess.run(
        [sys.executable, "-m", "mdres.cli", "emit-datalog", *base],
        capture_output=True, encoding="utf-8",
    )
    assert (proc.returncode, proc.stdout) == (0, program)
    res = invoke(["answers", *base, "--query", str(tmp_path / "query.txt"),
                  "--format", "text"])
    assert res.exit_code == 0 and red in res.stdout.splitlines(), res.output
    res = invoke(["closure", *base, "--format", "text"])
    assert res.exit_code == 0 and f" | b:1, {red}:1" in res.stdout, res.output


def test_cqa_export(tmp_path):
    root = FIXTURES / "keyed_majority"
    res = invoke([
        "cqa-export", "--schema", str(root / "schema.txt"), "--data", str(root / "data"),
        "--relation", "Emp", "--key", "Name", "--out", str(tmp_path),
    ])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["relation"] == "Emp"
    assert payload["key"] == ["Name"]
    assert payload["nonkey"] == ["Dept", "Salary"]
    assert payload["repair_count"] == 1
    exported = (tmp_path / "Emp.csv").read_text()
    assert exported.splitlines()[0] == "#tid,Name,Dept,Salary"


def test_cqa_export_refuses_to_overwrite_its_input(tmp_path):
    data = tmp_path / "data"
    shutil.copytree(FIXTURES / "keyed_majority" / "data", data)
    before = (data / "Emp.csv").read_bytes()
    (tmp_path / "link").symlink_to(data, target_is_directory=True)
    for out in (data, tmp_path / "link", f"{data}/./"):
        res = invoke([
            "cqa-export", "--schema", str(FIXTURES / "keyed_majority" / "schema.txt"),
            "--data", str(data), "--relation", "Emp", "--key", "Name", "--out", str(out),
        ])
        assert (res.exit_code, res.stdout) == (1, "")
        assert res.stderr == f"error: --out would overwrite the input file {data / 'Emp.csv'}\n"
        assert (data / "Emp.csv").read_bytes() == before
    # another directory is written as before
    res = invoke([
        "cqa-export", "--schema", str(FIXTURES / "keyed_majority" / "schema.txt"),
        "--data", str(data), "--relation", "Emp", "--key", "Name", "--out", str(tmp_path),
    ])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "Emp.csv").read_bytes() == (
        b"#tid,Name,Dept,Salary\r\n1,ann,sales,50\r\n2,bob,hr,30\r\n"
    )


@pytest.mark.parametrize("broken", ["missing", "bad row"])
def test_cqa_export_checks_every_relation(tmp_path, broken):
    """cqa-export loads and checks every relation of the schema, not only
    --relation: a missing or bad S.csv exits 1 with one error line, and
    nothing is written."""
    data = tmp_path / "data"
    shutil.copytree(FIXTURES / "hard_chain" / "data", data)
    if broken == "missing":
        (data / "S.csv").unlink()
        message = f"error: missing data file for relation S: {data / 'S.csv'}\n"
    else:
        with (data / "S.csv").open("a", encoding="utf-8") as fh:
            fh.write("6,c,g\n")
        message = f"error: {data / 'S.csv'}, row 3: expected 3 values, got 2\n"
    out = tmp_path / "out"
    res = invoke([
        "cqa-export", "--schema", str(FIXTURES / "hard_chain" / "schema.txt"),
        "--data", str(data), "--relation", "R", "--key", "A", "--out", str(out),
    ])
    assert (res.exit_code, res.stdout, res.stderr) == (1, "", message)
    assert not out.exists()


class _LiftedDigitLimit:
    """Lift int's str conversion limit (Python 3.11, 3.10.7 and later) for
    the reference side of a test, and put it back."""

    def __enter__(self):
        self.limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        if self.limit is not None:
            sys.set_int_max_str_digits(0)

    def __exit__(self, *exc):
        if self.limit is not None:
            sys.set_int_max_str_digits(self.limit)


def test_huge_counts_are_exact_in_both_formats(tmp_path):
    """15,000 tied duplicate pairs give 2^15000 MRIs and key repairs, 4,516
    digits, past the 4,300 digits int converts by default: resolve and
    cqa-export print them exactly, in JSON that is json.dumps's bytes."""
    _, d, _ = dn_instance(15000)
    write_csv_dir(d, tmp_path / "data")
    (tmp_path / "schema.txt").write_text("relation R(A:str, B:str)\n")
    (tmp_path / "mds.txt").write_text("R[A] = R[A] -> R[B] == R[B]\n")
    inputs = ["--schema", str(tmp_path / "schema.txt"), "--data", str(tmp_path / "data")]
    commands = {
        "resolve": ["--mds", str(tmp_path / "mds.txt")],
        "cqa-export": ["--relation", "R", "--key", "A"],
    }
    out = {}
    for command, extra in commands.items():
        for fmt in ("json", "text"):
            res = invoke([command, *inputs, *extra, "--format", fmt])
            assert res.exit_code == 0, res.output
            out[command, fmt] = res.stdout
    with _LiftedDigitLimit():
        digits = str(2**15000)
        for command, field in (("resolve", "mri_count"), ("cqa-export", "repair_count")):
            payload = json.loads(out[command, "json"])
            assert payload[field] == 2**15000
            assert out[command, "json"] == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert len(digits) == 4516
    assert out["resolve", "text"] == f"label NonInteracting\nmri_count {digits}\nmin_change 15000\n"
    assert out["cqa-export", "text"] == f"R key=A groups=15000 rows=30000 repairs={digits}\n"


@pytest.mark.parametrize("n", [0, -7, 10**4299, -(10**4299), 10**4300, -(2**15000)],
                         ids=["0", "-7", "4300 digits", "-4300 digits", "4301 digits", "-2^15000"])
def test_int_text_has_no_digit_limit(n):
    with _LiftedDigitLimit():
        expected = str(n)
    assert mdres.cli._int_text(n) == expected


def test_json_output_deterministic():
    for cmd, extra in (("classify", ()), ("resolve", ("--materialize", "2"))):
        a = invoke(args_for("two_rule_cycle", cmd, *extra)).output
        b = invoke(args_for("two_rule_cycle", cmd, *extra)).output
        assert a == b


JSON_STRINGS = st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\ud800\U0001f600'),
    st.characters(),
))
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(min_value=2**64, max_value=2**80),
        st.integers(max_value=-(2**64)),
        JSON_STRINGS,
    ),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(JSON_STRINGS, kids, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, derandomize=True, deadline=None, print_blob=False)
@given(JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    assert _dump_json(value) == json.dumps(value, indent=2, sort_keys=True)


ROW_CELLS = st.one_of(
    st.text(st.one_of(st.sampled_from('\x00][,"\\\xe9\ud800\U0001f600'), st.characters())),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**80),
    st.integers(max_value=-(2**64)),
)
ROWS = st.lists(st.lists(ROW_CELLS, min_size=1, max_size=4), min_size=1, max_size=5)


@st.composite
def near_miss_rows(draw):
    """A row list with one flaw that sends it down the general path."""
    rows = draw(ROWS)
    i = draw(st.integers(0, len(rows) - 1))
    flaw = draw(st.sampled_from(["bool", "none", "nested", "tuple", "empty"]))
    if flaw == "tuple":
        rows[i] = tuple(rows[i])
    elif flaw == "empty":
        rows[i] = []
    else:
        cell = {"bool": draw(st.booleans()), "none": None, "nested": [draw(ROW_CELLS)]}[flaw]
        rows[i].insert(draw(st.integers(0, len(rows[i]))), cell)
    return rows


@st.composite
def nested(draw, values):
    """A value from `values`, 0 to 3 levels deep in dicts and lists."""
    value = draw(values)
    for _ in range(draw(st.integers(0, 3))):
        siblings = draw(st.lists(st.one_of(st.none(), st.booleans(), ROW_CELLS, ROWS), max_size=2))
        if draw(st.booleans()):
            value = [*siblings[:1], value, *siblings[1:]]
        else:
            keys = draw(st.lists(JSON_STRINGS, min_size=len(siblings) + 1,
                                 max_size=len(siblings) + 1, unique=True))
            value = dict(zip(keys, [value, *siblings]))
    return value


@settings(max_examples=300, derandomize=True, deadline=None, print_blob=False)
@given(st.one_of(nested(ROWS), nested(near_miss_rows())))
def test_json_row_lists_match_json_dumps(value):
    assert _dump_json(value) == json.dumps(value, indent=2, sort_keys=True)


@settings(max_examples=100, derandomize=True, deadline=None, print_blob=False)
@given(ROWS, near_miss_rows())
def test_row_branch_takes_exactly_row_lists(rows, near_miss):
    assert _is_rows(rows)
    assert not _is_rows(near_miss)


def test_json_writer_without_the_c_encoder(monkeypatch):
    value = {"rows": [["a]\x00[b", 1], ["c", -(2**70)]], "x": [[True]]}
    monkeypatch.setattr(mdres.cli, "_row_encoder", None)
    assert not _is_rows(value["rows"])
    assert _dump_json(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [{1: "a"}, [{"a": {None: 1}}], {True: 1}, {(1, 2): []}])
def test_json_writer_refuses_non_str_keys(value):
    with pytest.raises(TypeError):
        _dump_json(value)


# Cells that JSON escapes or that look like its punctuation, and values
# that the text form prints as they are.
MARKED_VALUES = ('u', 'uv', 'v"w', "w'", "[x]", "{x}", "a,b", "a: 1", "\x00", "\\",
                 "\u00e9", "\u2028", "\U0001f600", " ")


@settings(max_examples=120, derandomize=True, deadline=None, print_blob=False)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_block_writer_matches_json_dumps(seed, marked):
    """closure and resolve write `blocks` straight from the partition; the
    bytes equal json.dumps of the reference dicts, in both payloads, and the
    text form equals the reference lines."""
    inst, mdset = rand_link_case(random.Random(seed), MARKED_VALUES if marked else LINK_VALUES)
    part = ta_closure(inst, mdset)
    blocks = ref_partition_json(part)
    closure = {"changeable": sorted([r, a] for r, a in mdset.changeable), "blocks": part}
    resolve = {
        "classification": {"label": "NonInteracting", "evidence": []},
        "mri_count": prod(map(len, part.pools)),
        "min_change": 0,
        "blocks": part,
        "canonical": instance_as_json(inst),
    }
    for payload in (closure, resolve):
        assert _dump_json(payload) == json.dumps(
            {**payload, "blocks": blocks}, indent=2, sort_keys=True
        )
    assert mdres.cli._render_text("closure", closure).split("\n") == ref_closure_text(blocks)


def test_block_writer_on_a_partition_without_blocks():
    schema = parse_schema("relation R(A:str, B:str)")
    d = load_instance(schema, {"R": []})
    part = ta_closure(d, parse_mds("R[A] = R[A] -> R[B] == R[B]", schema))
    assert _dump_json({"blocks": part}) == '{\n  "blocks": []\n}'
    assert mdres.cli._render_text("closure", {"blocks": part}) == ""


SCALE_MARKS = ["", "]", "[", ",", '"', "],[", '"]', "\u00e9", "\u2028", "\U0001f600", "\\"]


def _write_join_case(root, r_rows, s_rows):
    """An R(K, N, C), S(C, P) case whose MDs make N and P changeable."""
    (root / "data").mkdir(parents=True)
    (root / "schema.txt").write_text("relation R(K:str, N:str, C:str)\nrelation S(C:str, P:str)\n")
    (root / "mds.txt").write_text("R[K] = R[K] -> R[N] == R[N];\nS[C] = S[C] -> S[P] == S[P];\n")
    (root / "query.txt").write_text("Q(k, x, p) :- R(k, x, c), S(c, p)\n")
    for name, header, rows in (("R", ["K", "N", "C"], r_rows), ("S", ["C", "P"], s_rows)):
        with open(root / "data" / f"{name}.csv", "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([header, *rows])


def _scale_rows(rng, n_r, n_s):
    def value(prefix, n):
        return f"{prefix}{rng.randrange(n)}{rng.choice(SCALE_MARKS)}"

    s_keys = sorted({value("c", n_s // 3) for _ in range(n_s)})
    s_rows = [[rng.choice(s_keys), value("p", 3)] for _ in range(n_s)]
    r_rows = [[value("k", n_r // 4), value("n", 3), rng.choice(s_keys)] for _ in range(n_r)]
    return r_rows, s_rows


def test_cli_json_bytes_at_scale(tmp_path):
    # enough rows, with brackets, commas, quotes and non-ASCII in the values,
    # that every row list of every payload runs through the row branch
    rng = random.Random(15)
    big, small = tmp_path / "big", tmp_path / "small"
    _write_join_case(big, *_scale_rows(rng, 300, 120))
    r_rows, s_rows = _scale_rows(rng, 8, 4)
    _write_join_case(small, r_rows, s_rows)

    def inputs(root):
        return ["--schema", str(root / "schema.txt"), "--data", str(root / "data")]

    runs = [
        ["closure", *inputs(big), "--mds", str(big / "mds.txt")],
        ["resolve", *inputs(big), "--mds", str(big / "mds.txt"), "--materialize", "2"],
        ["answers", *inputs(big), "--mds", str(big / "mds.txt"),
         "--query", str(big / "query.txt")],
        ["cqa-export", *inputs(big), "--relation", "R", "--key", "K",
         "--out", str(tmp_path / "out")],
        ["oracle", *inputs(small), "--mds", str(small / "mds.txt")],
    ]
    for argv in runs:
        res = invoke(argv)
        assert res.exit_code == 0, (argv[0], res.output)
        payload = json.loads(res.output)
        assert res.output == json.dumps(payload, indent=2, sort_keys=True) + "\n", argv[0]
    assert len(payload["mris"]) >= 1


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mdres.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for cmd in ("classify", "closure", "resolve", "oracle",
                "answers", "emit-datalog", "cqa-export"):
        assert cmd in proc.stdout


def test_answers_text_format():
    res = invoke(
        args_for("majority_column", "answers", "--format", "text", query="query.txt")
    )
    assert res.exit_code == 0, res.output
    lines = res.output.splitlines()
    assert "a1\tb2\tc1" in lines


def test_cqa_export_text(tmp_path):
    root = FIXTURES / "keyed_majority"
    res = invoke([
        "cqa-export", "--schema", str(root / "schema.txt"), "--data", str(root / "data"),
        "--relation", "Emp", "--key", "Name", "--out", str(tmp_path), "--format", "text",
    ])
    assert res.exit_code == 0, res.output
    assert res.output == "Emp key=Name groups=2 rows=2 repairs=1\n"


def test_missing_data_file_exits_1(tmp_path):
    argv = args_for("dup_groups", "classify")
    argv[argv.index("--data") + 1] = str(tmp_path)
    res = invoke(argv)
    assert (res.exit_code, res.stdout) == (1, "")
    assert res.stderr == f"error: missing data file for relation R: {tmp_path / 'R.csv'}\n"


def test_oracle_materialization_bound_exits_3():
    res = invoke(args_for("dup_groups", "oracle", "--max-materialized", "1"))
    assert (res.exit_code, res.stdout) == (3, "")
    assert res.stderr == (
        "bounds exceeded: 4 minimal resolved instances exceed the materialization "
        "bound 1\n"
    )


@pytest.fixture
def cycle_dir(tmp_path, monkeypatch):
    """two_rule_cycle copied to ./c, with the working directory at its parent."""
    shutil.copytree(FIXTURES / "two_rule_cycle", tmp_path / "c")
    monkeypatch.chdir(tmp_path)
    return tmp_path / "c"


def _cycle_argv(**paths):
    given = {"schema": "c/schema.txt", "data": "c/data", "mds": "c/mds.txt",
             "sims": "c/sims.txt", **paths}
    return ["classify"] + [arg for k, v in given.items() for arg in (f"--{k}", v)]


# Messages spell a path of a data file, a sims file or a table file as
# pathlib does, whatever spelling was given; an unreadable --schema, --mds or
# --sims file is named by the OS error, also as pathlib spells it.
@pytest.mark.parametrize("paths, message", [
    ({"data": "./c"}, "missing data file for relation R: c/R.csv"),
    ({"data": "c/"}, "missing data file for relation R: c/R.csv"),
    ({"data": "c//"}, "missing data file for relation R: c/R.csv"),
    ({"data": "./c//data/../"}, "missing data file for relation R: c/data/../R.csv"),
    ({"schema": "./c//nope.txt"}, "[Errno 2] No such file or directory: 'c/nope.txt'"),
    ({"mds": "./c//nope.txt"}, "[Errno 2] No such file or directory: 'c/nope.txt'"),
    ({"sims": "./c//nope.txt"}, "[Errno 2] No such file or directory: 'c/nope.txt'"),
    ({"schema": ""}, "[Errno 21] Is a directory: '.'"),
    ({"mds": "./c/data/"}, "[Errno 21] Is a directory: 'c/data'"),
])
def test_input_paths_in_messages_as_pathlib_spells_them(cycle_dir, paths, message):
    res = invoke(_cycle_argv(**paths))
    assert (res.exit_code, res.stdout, res.stderr) == (1, "", f"error: {message}\n")


def test_data_file_that_is_a_directory_is_missing(cycle_dir):
    (cycle_dir / "data" / "R.csv").unlink()
    (cycle_dir / "data" / "R.csv").mkdir()
    res = invoke(_cycle_argv(data="./c//data/"))
    assert (res.exit_code, res.stdout) == (1, "")
    assert res.stderr == "error: missing data file for relation R: c/data/R.csv\n"


def test_missing_table_file_is_named_from_the_sims_directory(cycle_dir):
    (cycle_dir / "sims.txt").write_text("sim s = table ./t//nope.csv\n", encoding="utf-8")
    res = invoke(_cycle_argv(sims="./c//sims.txt"))
    assert (res.exit_code, res.stdout) == (1, "")
    assert res.stderr == "error: line 1: similarity 's': no such table file c/t/nope.csv\n"


def test_bad_input_named_as_given_or_as_pathlib_spells_it(cycle_dir):
    # the files read as a directory's data, or by name from a sims file, and
    # the sims file itself are spelled as pathlib does; --schema and --mds are
    # named as given
    rows = (cycle_dir / "data" / "R.csv").read_bytes()
    (cycle_dir / "data" / "R.csv").write_bytes(rows + b"5,a1\n")
    res = invoke(_cycle_argv(data="./c//data/"))
    assert res.stderr == "error: c/data/R.csv, row 5: expected 2 values, got 1\n"
    (cycle_dir / "data" / "R.csv").write_bytes(rows + b"5,a\xff,b\n")
    res = invoke(_cycle_argv(data="./c//data/"))
    assert res.stderr == "error: c/data/R.csv: not UTF-8 text (byte 44: invalid start byte)\n"
    (cycle_dir / "data" / "R.csv").write_bytes(rows)
    (cycle_dir / "s_pairs.csv").write_bytes(b"a1,a2\r\nb1\r\n")
    res = invoke(_cycle_argv(sims="./c//sims.txt"))
    assert res.stderr == "error: c/s_pairs.csv, row 2: expected two values\n"
    shutil.copy(FIXTURES / "two_rule_cycle" / "s_pairs.csv", cycle_dir)
    for option in ("schema", "mds", "sims"):
        (cycle_dir / f"{option}.txt").write_bytes(b"\xef\xbb\xbfx\xc3(")
        res = invoke(_cycle_argv(**{option: f"./c//{option}.txt"}))
        shown = "c/sims.txt" if option == "sims" else "./c//" + f"{option}.txt"
        assert res.stderr == f"error: {shown}: not UTF-8 text (byte 4: invalid continuation byte)\n"
        shutil.copy(FIXTURES / "two_rule_cycle" / f"{option}.txt", cycle_dir)


def test_sims_path_that_only_pathlib_reads(cycle_dir):
    # pathlib reads `c/sims.txt/` as c/sims.txt, so its tables are read from c
    plain = invoke(_cycle_argv())
    assert plain.exit_code == 0, plain.output
    res = invoke(_cycle_argv(sims="c/sims.txt/"))
    assert (res.exit_code, res.stdout) == (0, plain.stdout)
    res = invoke(_cycle_argv(sims="c/sims.txt/."))
    assert (res.exit_code, res.stdout) == (0, plain.stdout)
