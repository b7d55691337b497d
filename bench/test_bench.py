"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 -m pytest -q bench/test_bench.py

They take about a minute: the count test runs every workload twice.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

CLI_MAIN = bench.import_cli()


def _read_all(base: Path) -> dict[str, bytes]:
    return {str(p.relative_to(base)): p.read_bytes() for p in sorted(base.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name, tmp_path):
    for sub, seed in (("a", 5), ("b", 5), ("c", 6)):
        workloads.build(name, seed, tmp_path / sub).write()
    first = _read_all(tmp_path / "a")
    assert first and first == _read_all(tmp_path / "b")
    assert first != _read_all(tmp_path / "c")


def test_oracle_workload_has_enough_cases_for_p95():
    wl = workloads.build("oracle_chase", 1, Path("unused"))
    # at least ten cases lie beyond the 95th percentile
    assert len(wl.ops) * 0.05 >= 10


def test_corrupted_output_counts_as_failed(tmp_path, monkeypatch):
    import mdres.cli

    wl = workloads.build("eq_join", 3, tmp_path)
    wl.write()
    emit = mdres.cli._emit

    def corrupt(command, cfg, payload):
        if command == "resolve":
            payload = dict(payload, mri_count=payload["mri_count"] + 1)
        emit(command, cfg, payload)

    monkeypatch.setattr(mdres.cli, "_emit", corrupt)
    runner = bench.Runner(CLI_MAIN, wl.ops)
    runner.round(traced=False)
    assert (runner.attempted, runner.failed) == (3, 1)
    assert "resolve" in next(iter(runner.errors))


def test_unexpected_exit_code_counts_as_failed(tmp_path):
    wl = workloads.build("eq_join", 3, tmp_path)
    wl.write()
    resolve = wl.ops[0]
    # the oracle refuses an instance this large with exit code 3
    bounded = workloads.Op("resolve", ["oracle", *resolve.args[1:]], resolve.expect)
    runner = bench.Runner(CLI_MAIN, [bounded])
    runner.round(traced=False)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "exit code 3" in next(iter(runner.errors))


def test_tracer_restores_every_function(tmp_path):
    import mdres

    modules = {n: dict(vars(m)) for n, m in sys.modules.items() if n.startswith("mdres")}
    wl = workloads.build("oracle_chase", 2, tmp_path)
    wl.write()
    tracer = Tracer()
    runner = bench.Runner(CLI_MAIN, wl.ops[:20], tracer)
    runner.round(traced=True)
    assert runner.failed == 0
    assert tracer.counts["resolver.oracle_calls"] == 20
    assert not tracer._patches
    for name, before in modules.items():
        after = vars(sys.modules[name])
        assert all(after[k] is v for k, v in before.items()), name
    assert mdres.relation.Instance.value.__qualname__ == "Instance.value"


def _run(name: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def _units(result: dict) -> dict[str, str]:
    return {k: v["unit"] for k, v in result["metrics"].items()}


def test_end_to_end_metrics_match_the_declaration():
    result = _run("eq_join", 11, 0)
    assert result["correct"] and result["attempted"] > 0
    assert _units(result) == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counts_repeat_exactly_across_runs(name):
    first, second = _run(name, 11, 1), _run(name, 11, 1)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert _units(result) == _declared("per_layer")
    counts = {
        k: v["value"] for k, v in first["metrics"].items() if v["unit"] in ("count", "ratio")
    }
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    assert counts["taclosure.pairs_compared"] > 0


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the runner exits non-zero
    without printing a result."""
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eq_join", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
