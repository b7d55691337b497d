#!/usr/bin/env python3
"""mdres benchmark runner.

Run from the root of a checkout:

    python3 bench/run.py --workload eq_join --seed 1 --seconds 20 --trace 0

The runner builds the workload's inputs from the seed, sets up
SETUP_REPEATS times, then runs the workload's ops as a closed loop with one
client, in rounds (a round runs every op once, in order), until --seconds
have passed. Every op is an `mdres` command invoked in-process through
click's CliRunner on `mdres.cli.main`, so option parsing, exit codes and
JSON rendering are timed; every output is checked after its round.

Timings are reported in `ref` units: each op's time is divided by the mean
time of the two runs of a fixed pure-Python reference loop that bracket it,
and a figure is the median of those ratios. This cancels most of the drift
in the speed of a shared machine, which can change within seconds.

With --trace 0 the last line of stdout is the end-to-end result. With
--trace 1 rounds alternate between untraced and traced, the last line
carries the per-layer metrics of the traced rounds, and the spans are
written to bench/out/. Inputs live in bench/_work/ and are removed at exit.
"""

from __future__ import annotations

import os
import sys

# String hashing is randomised per process, and it moves the cost of every
# dict and set of strings; fix it so runs differ only by their inputs.
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})

import time  # noqa: E402

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from weakref import WeakKeyDictionary  # noqa: E402

from click import _compat  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from checks import check  # noqa: E402
from tracing import OP_SPAN, Tracer  # noqa: E402

SETUP_REPEATS = 5
REF_AFTER_S = 0.25  # run the reference loop once this much op time has passed
REF_SHARE = 0.1  # ...for at least this share of that op time
REF_ITERATIONS = 40_000
REF_CELLS = 6_000

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics in the result line: self times (seconds per round) of the
# layers every workload runs, and counts per round. Self times of the other
# spans are printed above the result line.
LAYER_TIMES = {
    "relation.load_s": ("relation.load",),
    "similarity.check_s": ("similarity.check", "similarity.transitivity"),
    "mds.parse_s": ("mds.parse",),
    "taclosure.linked_pairs_s": ("taclosure.linked_pairs",),
    "cli.run_s": ("cli.run",),
    "cli.render_s": ("cli.render",),
    "bench.invoke_s": (OP_SPAN,),
}
LAYER_COUNTS = (
    "relation.rows",
    "relation.value_calls",
    "relation.with_values_calls",
    "similarity.similar_calls",
    "similarity.domain_values",
    "similarity.transitivity_calls",
    "mds.classify_calls",
    "taclosure.linked_pairs_calls",
    "taclosure.pairs_compared",
    "taclosure.pairs_linked",
    "taclosure.closure_calls",
    "taclosure.blocks",
    "taclosure.max_block",
    "taclosure.emit_datalog_calls",
    "dsets.unions",
    "resolver.fast_family_calls",
    "resolver.oracle_calls",
    "resolver.merge_partition_calls",
    "resolver.mris",
    "query.rewrite_calls",
    "query.answers",
    "cqa.build_calls",
    "cli.output_bytes",
)


class _Cell:
    def __init__(self, row: int, col: int, value: str):
        self.row = row
        self.col = col
        self.value = value


def _scaled(a: int, b: int, *, by: int = 1) -> int:
    return a + b * by


def reference_loop() -> float:
    """A fixed basket of pure-Python work; returns its wall time.

    A slowdown of a shared machine hits some kinds of work harder than
    others, so the basket mixes the kinds the program does: dict updates,
    small objects grouped under tuple keys and sorted, and function calls.
    """
    t = perf_counter()
    table: dict[int, int] = {}
    for i in range(REF_ITERATIONS):
        key = (i * 2654435761) % 5003
        table[key] = table.get(key, 0) + (key & 7)
    sorted(table.items())
    cells = [_Cell(i // 7, i % 7, "v%d" % (i % 331)) for i in range(REF_CELLS)]
    groups: dict[tuple[int, str], list[int]] = {}
    for c in cells:
        groups.setdefault((c.col, c.value), []).append(c.row)
    sorted((c.value, c.row, c.col) for c in cells)
    acc = 0
    for i in range(REF_ITERATIONS):
        acc = _scaled(acc, i & 3, by=2)
    return perf_counter() - t


def import_cli():
    """Import mdres from this checkout's src/, never from an installed copy."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import mdres.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import mdres from {src}: {exc}")
    if src not in Path(mdres.cli.__file__).resolve().parents:
        raise SystemExit(f"error: mdres was imported from {mdres.cli.__file__}, not {src}")
    return mdres.cli.main


def _forget_click_streams() -> None:
    """Empty click's per-stream text-wrapper caches.

    CliRunner swaps in fresh streams on every call, and click caches a
    wrapper per stream in a WeakKeyDictionary whose values keep their keys
    alive, so every call's output would stay in memory and the peak RSS
    would grow with the number of rounds. A real CLI process makes one call.
    """
    for name in ("_default_text_stdin", "_default_text_stdout", "_default_text_stderr"):
        for cell in getattr(getattr(_compat, name, None), "__closure__", None) or ():
            if isinstance(cell.cell_contents, WeakKeyDictionary):
                cell.cell_contents.clear()


class Runner:
    """Runs ops through CliRunner and keeps every sample and verdict."""

    def __init__(self, main, ops: list[workloads.Op], tracer: Tracer | None = None):
        from click.testing import CliRunner

        self.main = main
        self.ops = ops
        self.tracer = tracer
        self.cli = CliRunner()
        self.times: list[list[float]] = [[] for _ in ops]
        self.ratios: list[list[float]] = [[] for _ in ops]
        self.refs: list[float] = []
        self.round_op_times: list[float] = []
        self.traced_round_op_times: list[float] = []
        self.layer_rounds: list[tuple[dict, Counter]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self._cache: dict = {}
        self._pending: list[tuple[int, float]] = []  # untraced ops since the last reference
        self._since_ref = 0.0

    def invoke(self, op: workloads.Op) -> tuple[float, int, str]:
        t = perf_counter()
        res = self.cli.invoke(self.main, op.args)
        dt = perf_counter() - t
        _forget_click_streams()
        return dt, res.exit_code, res.stdout

    def judge(self, op: workloads.Op, exit_code: int, stdout: str) -> None:
        self.attempted += 1
        error = check(op, exit_code, stdout, self._cache)
        if error:
            self.failed += 1
            self.errors[f"{op.label or op.kind}: {error}"] += 1

    def round(self, traced: bool) -> None:
        gc.collect()
        tr = self.tracer if traced else None
        if tr:
            tr.counts.clear()
            first = len(tr.spans)
            tr.install()
        outputs = []
        op_time = 0.0
        try:
            for i, op in enumerate(self.ops):
                if tr:
                    tr.op_id += 1
                    span = tr.begin(OP_SPAN)
                dt, code, out = self.invoke(op)
                if tr:
                    tr.end(span)
                    tr.counts["cli.output_bytes"] += len(out.encode())
                else:
                    self.times[i].append(dt)
                    self._pending.append((i, dt))
                outputs.append((code, out))
                op_time += dt
                self._since_ref += dt
                if self._since_ref >= REF_AFTER_S:
                    self.reference()
        finally:
            if tr:
                tr.uninstall()
        if tr:
            self.traced_round_op_times.append(op_time)
            self.layer_rounds.append((tr.self_times(first), Counter(tr.counts)))
        else:
            self.round_op_times.append(op_time)
        for op, (code, out) in zip(self.ops, outputs):
            self.judge(op, code, out)

    def reference(self) -> None:
        """Time the reference loop and turn the ops run since the previous
        reference into ratios.

        The machine's speed changes within seconds, so each op is divided by
        the mean of the two reference times that bracket it rather than by a
        run-wide figure. The loop repeats until it has run for REF_SHARE of
        the op time it brackets, so that a long op gets a steadier reference.
        """
        spent, loops = 0.0, 0
        while loops == 0 or spent < REF_SHARE * self._since_ref:
            spent += reference_loop()
            loops += 1
        ref = spent / loops
        if self._pending:
            bracket = (self.refs[-1] + ref) / 2 if self.refs else ref
            for i, dt in self._pending:
                self.ratios[i].append(dt / bracket)
            self._pending.clear()
        self.refs.append(ref)
        self._since_ref = 0.0

    def measure(self, seconds: float) -> None:
        """Whole rounds until the next one would overrun `seconds`."""
        self.reference()
        start = perf_counter()
        walls: list[float] = []
        minimum = 2 if self.tracer else 1
        while len(walls) < minimum or (
            perf_counter() - start + statistics.median(walls) <= seconds
        ):
            t = perf_counter()
            self.round(traced=self.tracer is not None and len(walls) % 2 == 1)
            walls.append(perf_counter() - t)
        self.reference()


def setup(name: str, seed: int, work: Path, main) -> tuple[workloads.Workload, list[float], Runner]:
    """Generate, write and warm up SETUP_REPEATS times.

    Every set-up writes the same files into the same directory, which is
    deleted at exit. Creating and deleting thousands of small files slows
    some disks for minutes, so fresh copies would make the set-up time of
    one run depend on the runs before it.
    """
    times = []
    wl = None
    warm = None
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t = perf_counter()
        wl = workloads.build(name, seed, work)
        wl.write()
        warm = warm or Runner(main, wl.ops)
        code_out = warm.invoke(wl.ops[0])[1:]
        times.append(perf_counter() - t)
        warm.judge(wl.ops[0], *code_out)
    return wl, times, warm


def quantile95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20)[18] if len(values) >= 2 else values[0]


def end_to_end(runner: Runner, setup_s: float) -> dict[str, float]:
    per_op = [statistics.median(r) for r in runner.ratios]
    return {
        "run_ref": sum(per_op),
        "op_ref_p50": statistics.median(per_op),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(runner: Runner) -> tuple[dict[str, float], dict[str, float], bool]:
    """(result metrics, self time of every span name, counts repeat exactly)."""
    rounds = runner.layer_rounds
    names = sorted({n for times, _ in rounds for n in times})
    spans = {n: statistics.median(times.get(n, 0.0) for times, _ in rounds) for n in names}
    counts = rounds[0][1]
    steady = all(c == counts for _, c in rounds)
    metrics: dict[str, float] = {}
    for metric, span_names in LAYER_TIMES.items():
        metrics[metric] = sum(spans.get(n, 0.0) for n in span_names)
    for name in LAYER_COUNTS:
        metrics[name] = counts.get(name, 0)
    compared = counts.get("taclosure.pairs_compared", 0)
    metrics["taclosure.link_yield"] = (
        counts.get("taclosure.pairs_linked", 0) / compared if compared else 0.0
    )
    untraced = statistics.median(runner.round_op_times)
    traced = statistics.median(runner.traced_round_op_times)
    metrics["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    return metrics, spans, steady


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_ref") or "_ref_" in metric:
        return "ref"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith("link_yield"):
        return "ratio"
    return "count"


def report(args, runner: Runner, setup_times: list[float], import_s: float) -> dict:
    ref = statistics.median(runner.refs)
    print(f"env python={platform.python_version()} nproc={os.cpu_count()} "
          f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"reference loop: {ref:.6f} s median (n={len(runner.refs)})")
    print(f"setup: import {import_s:.4f} s + median of {SETUP_REPEATS} "
          f"(generate, write, warm-up op) {statistics.median(setup_times):.4f} s")
    rounds = len(runner.round_op_times)
    print(f"rounds: {rounds} untraced, {len(runner.traced_round_op_times)} traced; "
          f"{len(runner.ops)} ops per round")
    by_kind: dict[str, list[tuple[float, float]]] = {}
    for op, ratios, times in zip(runner.ops, runner.ratios, runner.times):
        if ratios:
            by_kind.setdefault(op.kind, []).append(
                (statistics.median(ratios), statistics.median(times))
            )
    for kind, meds in by_kind.items():
        n = sum(len(r) for o, r in zip(runner.ops, runner.ratios) if o.kind == kind)
        ratios = [r for r, _ in meds]
        secs = [t for _, t in meds]
        if len(meds) == 1:
            print(f"op {kind}_ref {ratios[0]:.4f} ref ({secs[0]:.6f} s, n={n})")
        else:
            print(f"op {kind}_ref_p50 {statistics.median(ratios):.4f} ref "
                  f"({statistics.median(secs):.6f} s), {kind}_ref_p95 "
                  f"{quantile95(ratios):.4f} ref ({quantile95(secs):.6f} s); "
                  f"{len(meds)} {kind} ops, each the median of its samples (n={n})")
    error_rate = runner.failed / runner.attempted
    print(f"error_rate {error_rate:.6f} ({runner.failed} of {runner.attempted} ops failed)")
    for error, n in runner.errors.most_common(5):
        print(f"  failed x{n}: {error}", file=sys.stderr)

    setup_s = import_s + statistics.median(setup_times)
    if args.trace:
        metrics, spans, steady = per_layer(runner)
        samples = {name: len(runner.layer_rounds) for name in metrics}
        total = statistics.median(runner.traced_round_op_times)
        print(f"traced op time per round {total:.6f} s; self time per span "
              f"(median over traced rounds):")
        for name, secs in sorted(spans.items(), key=lambda kv: -kv[1]):
            print(f"  {name:28s} {secs:10.6f} s  {100 * secs / total:6.2f}%")
        print(f"  {'sum':28s} {sum(spans.values()):10.6f} s")
        if not steady:
            print("warning: counts differ between traced rounds", file=sys.stderr)
    else:
        metrics = end_to_end(runner, setup_s)
        samples = {
            "run_ref": sum(len(r) for r in runner.ratios),
            "op_ref_p50": len(runner.ops),
            "setup_s": SETUP_REPEATS,
            "peak_rss_mb": 1,
        }
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {unit_of(name)} (n={samples[name]})")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def write_spans(tracer: Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli_main = import_cli()
    import_s = perf_counter() - START
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl, setup_times, warm = setup(args.workload, args.seed, work, cli_main)
        tracer = Tracer() if args.trace else None
        runner = Runner(cli_main, wl.ops, tracer)
        runner.attempted, runner.failed, runner.errors = warm.attempted, warm.failed, warm.errors
        runner.measure(args.seconds)
        result = report(args, runner, setup_times, import_s)
        if tracer:
            write_spans(tracer, HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
