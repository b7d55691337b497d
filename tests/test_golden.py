"""Golden CLI output over the fixture sweep.

Every fixture runs each of its MD files (`mds*.txt`) against each of its
similarity files (`sims*.txt`), or without one when it has none, through
classify, closure, resolve --materialize 4, oracle and emit-datalog, plus
answers where it has a query.txt; each run once in json and once in text,
except emit-datalog, which prints datalog text and takes no --format.
`golden_cli.json` holds [exit code, stdout, stderr] per run, keyed by the
command line with paths relative to the repository root, and the test
compares every run byte for byte. The test never writes the file; to record
it again after a deliberate change of output, run

    python3 tests/test_golden.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
COMMANDS = (
    ("classify",),
    ("closure",),
    ("resolve", "--materialize", "4"),
    ("oracle",),
    ("emit-datalog",),
)


def sweep() -> list[list[str]]:
    """Every command line of the sweep, with paths relative to ROOT."""
    runs = []
    for fixture in sorted((ROOT / "fixtures").iterdir()):
        rel = fixture.relative_to(ROOT).as_posix()
        commands = list(COMMANDS)
        if (fixture / "query.txt").is_file():
            commands.append(("answers", "--query", f"{rel}/query.txt"))
        sims_files = sorted(p.name for p in fixture.glob("sims*.txt")) or [None]
        for mds in sorted(p.name for p in fixture.glob("mds*.txt")):
            for sims in sims_files:
                common = [
                    "--schema", f"{rel}/schema.txt",
                    "--data", f"{rel}/data",
                    "--mds", f"{rel}/{mds}",
                ]
                if sims:
                    common += ["--sims", f"{rel}/{sims}"]
                for command, *extra in commands:
                    if command == "emit-datalog":  # datalog text, no --format
                        runs.append([command, *common])
                        continue
                    for fmt in ("json", "text"):
                        runs.append([command, *common, *extra, "--format", fmt])
    return runs


def run_cli(argv: list[str]) -> list:
    """[exit code, stdout, stderr] of one in-process CLI run from ROOT."""
    from mdres.cli import main

    result = CliRunner().invoke(main, argv)
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    return [result.exit_code, result.stdout, result.stderr]


def record() -> dict[str, list]:
    return {" ".join(argv): run_cli(argv) for argv in sweep()}


def test_golden_file_covers_the_sweep():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(" ".join(argv) for argv in sweep())


@pytest.mark.parametrize("argv", sweep(), ids=" ".join)
def test_cli_output_matches_golden(argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run_cli(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    recorded = record()
    GOLDEN.write_text(
        json.dumps(recorded, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(recorded)} runs to {GOLDEN.relative_to(ROOT)}")
