import json
import subprocess
import sys

import pytest
from click.testing import CliRunner

import mdres.cli
from mdres.cli import main

from conftest import FIXTURES


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
    assert res.stderr == f"error: --materialize must be between 0 and {sys.maxsize}\n"
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
    res = invoke(args_for("dup_groups", "oracle", "--max-tuples", "2"))
    assert res.exit_code == 3
    assert res.stderr.startswith("bounds exceeded:")


@pytest.mark.parametrize("option, value", [
    ("--max-tuples", "-1"),
    ("--max-values", "-3"),
    ("--max-depth", "-1"),
    ("--max-materialized", "-2"),
])
def test_negative_oracle_bound_exits_1(option, value):
    for argv in (
        args_for("dup_groups", "oracle", option, value),
        args_for("majority_column", "answers", "--mode", "oracle", option, value,
                 query="query.txt"),
    ):
        res = invoke(argv)
        assert res.exit_code == 1, res.output
        assert res.stderr == f"error: {option} must be at least 0\n"
        assert res.stdout == ""


def test_missing_input_exits_1(tmp_path):
    res = invoke(args_for("dup_groups", "classify", "--mds", "absent.txt"))
    assert res.exit_code == 1
    assert res.stderr.startswith("error:")
    res2 = invoke(["classify", "--schema", str(FIXTURES / "dup_groups/schema.txt")])
    assert res2.exit_code == 1
    assert "--data is required" in res2.stderr


def test_removed_threads_option_is_a_usage_error():
    res = invoke(args_for("dup_groups", "classify", "--threads", "2"))
    assert res.exit_code == 2
    assert "No such option" in res.stderr


def test_emit_datalog_raw_text():
    res = invoke(args_for("two_rule_cycle", "emit-datalog"))
    assert res.exit_code == 0, res.output
    assert res.output.startswith("%")
    assert "ta(X, A, Y, B) :- eqp(X, A, Y, B)." in res.output
    assert not res.output.rstrip("\n").endswith("}")  # raw program, not JSON


def test_cqa_export(tmp_path):
    argv = args_for(
        "keyed_majority", "cqa-export",
        "--relation", "Emp", "--key", "Name", "--out", str(tmp_path),
    )
    res = invoke(argv)
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["relation"] == "Emp"
    assert payload["key"] == ["Name"]
    assert payload["nonkey"] == ["Dept", "Salary"]
    assert payload["repair_count"] == 1
    exported = (tmp_path / "Emp.csv").read_text()
    assert exported.splitlines()[0] == "#tid,Name,Dept,Salary"


def test_json_output_deterministic():
    for cmd, extra in (("classify", ()), ("resolve", ("--materialize", "2"))):
        a = invoke(args_for("two_rule_cycle", cmd, *extra)).output
        b = invoke(args_for("two_rule_cycle", cmd, *extra)).output
        assert a == b


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
