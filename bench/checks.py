"""Output checks for the benchmark ops.

`check(op, exit_code, stdout, cache)` returns None when the output is right
and a one-line reason otherwise. Checks run outside the timed region. The oracle
check loads the case through the mdres library, so `run.py` must have put
the checkout's `src/` on the import path first.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from workloads import Op


def check(op: Op, exit_code: int, stdout: str, cache: dict) -> str | None:
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        return _CHECKS[op.kind](op.expect, stdout, cache)
    except Exception as exc:  # a wrong output fails its op; the run goes on
        return f"malformed output: {type(exc).__name__}: {exc}"


def _resolve(expect: dict, stdout: str, cache: dict) -> str | None:
    p = json.loads(stdout)
    got = {
        "label": p["classification"]["label"],
        "mri_count": p["mri_count"],
        "min_change": p["min_change"],
    }
    if "blocks" in expect:
        got["blocks"] = sorted(sorted(pos[1] for pos in b["positions"]) for b in p["blocks"])
    wrong = [k for k in got if got[k] != expect[k]]
    return f"resolve: wrong {', '.join(wrong)}" if wrong else None


def _answers(expect: dict, stdout: str, cache: dict) -> str | None:
    p = json.loads(stdout)
    if p["mode"] != "rewrite":
        return f"answers: mode {p['mode']!r}, expected 'rewrite'"
    if p["answers"] != expect["answers"]:
        return f"answers: {len(p['answers'])} rows, expected {len(expect['answers'])}"
    return None


def _cqa_export(expect: dict, stdout: str, cache: dict) -> str | None:
    p = json.loads(stdout)
    if (p["groups"], p["rows"], p["repair_count"]) != (
        expect["groups"], len(expect["rows"]), expect["repair_count"]
    ):
        return "cqa-export: wrong groups, rows or repair_count"
    with open(expect["out"], encoding="utf-8", newline="") as fh:
        written = [row[1:] for row in csv.reader(fh)][1:]
    if written != expect["rows"]:
        return "cqa-export: exported rows differ from the planted candidates"
    return None


def _classify(expect: dict, stdout: str, cache: dict) -> str | None:
    label = json.loads(stdout)["label"]
    return None if label == expect["label"] else f"classify: label {label!r}"


def _emit_datalog(expect: dict, stdout: str, cache: dict) -> str | None:
    lines = stdout.splitlines()
    sims = sum(line.startswith("sim(") for line in lines)
    rels = sum(line.startswith("rel_") for line in lines)
    if (sims, rels) != (expect["sim_facts"], expect["tuples"]):
        return f"emit-datalog: {sims} sim facts and {rels} tuples"
    return None


def _oracle(expect: dict, stdout: str, cache: dict) -> str | None:
    """Every MRI is stable and exactly min_change away from the input; on a
    fast-path MD set the MRIs are exactly those of fast_mri_family.

    Outputs are byte-stable, so a verdict is cached per (case, output).
    """
    key = (expect["data"], stdout)
    if key not in cache:
        cache[key] = _oracle_verdict(expect, stdout)
    return cache[key]


def _oracle_verdict(expect: dict, stdout: str) -> str | None:
    from mdres import (
        check_all, classify, diff_changeset, fast_mri_family, is_stable,
        load_csv_dir, load_instance, load_schema, load_sims, parse_mds,
    )
    from mdres.relation import instance_as_json

    schema = load_schema(expect["schema"])
    d = load_csv_dir(schema, expect["data"])
    sims = load_sims(expect["sims"]) if "sims" in expect else {}
    mdset = parse_mds(
        Path(expect["mds"]).read_text(encoding="utf-8"), schema,
        check_all(sims, d.active_domain()),
    )
    p = json.loads(stdout)
    if p["count"] != len(p["mris"]) or not p["mris"]:
        return "oracle: count does not match the MRI list"
    for mri_json in p["mris"]:
        mri = load_instance(
            schema,
            {rel: [row[1:] for row in rows] for rel, rows in mri_json.items()},
            {rel: [row[0] for row in rows] for rel, rows in mri_json.items()},
        )
        if not is_stable(mri, mdset):
            return "oracle: an MRI is not stable"
        if len(diff_changeset(d, mri)) != p["min_change"]:
            return "oracle: an MRI is not min_change away from the input"
    if classify(mdset).fast:
        family = fast_mri_family(d, mdset)
        mris, _ = family.materialize(family.count)
        if p["min_change"] != family.min_change or p["mris"] != [
            instance_as_json(m) for m in mris
        ]:
            return "oracle: MRIs differ from fast_mri_family"
    return None


_CHECKS = {
    "resolve": _resolve,
    "answers": _answers,
    "cqa_export": _cqa_export,
    "classify": _classify,
    "emit_datalog": _emit_datalog,
    "oracle": _oracle,
}
