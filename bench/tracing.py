"""Per-layer tracing from outside the program.

`Tracer.install()` replaces the public functions of each mdres module by
wrappers, in every module namespace that imported them (so both
`mdres.taclosure.linked_pairs` and `mdres.resolver.linked_pairs` are
covered), and `uninstall()` puts the originals back. A span wrapper records
(name, start, end, parent, op id) in memory and counts its calls as
`<span>_calls`; hot functions get a counting wrapper only, because a span
per call would cost more than the call. The program itself is not
modified.

A span's self time is its duration minus the time covered by its child
spans, so the self times of one op add up to the op's traced time.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

OP_SPAN = "bench.invoke"  # one whole CLI invocation, CliRunner and click included


def _total_tuples(result, args) -> int:
    return result.total_tuples


def _distinct(result, args) -> int:
    return len(set(args[1]))


def _length(result, args) -> int:
    return len(result)


def _mris(result, args) -> int:
    return len(result[0])


def _blocks(result, args) -> int:
    return len(result.blocks)


# (module, function) -> (span name, optional (counter, increment from result and args)).
# A layer is the part of the span name before the dot.
SPANS = {
    ("relation", "load_schema"): ("relation.load", None),
    ("relation", "load_csv_dir"): ("relation.load", ("relation.rows", _total_tuples)),
    ("relation", "write_csv_dir"): ("relation.write", None),
    ("similarity", "load_sims"): ("similarity.check", None),
    ("similarity", "check_all"): ("similarity.check", ("similarity.domain_values", _distinct)),
    ("similarity", "verify_transitivity"): ("similarity.transitivity", None),
    ("mds", "parse_mds"): ("mds.parse", None),
    ("mds", "classify"): ("mds.classify", None),
    ("taclosure", "linked_pairs"): ("taclosure.linked_pairs", ("taclosure.pairs_linked", _length)),
    ("taclosure", "ta_closure"): ("taclosure.closure", ("taclosure.blocks", _blocks)),
    ("taclosure", "emit_datalog"): ("taclosure.emit_datalog", None),
    ("resolver", "fast_mri_family"): ("resolver.fast_family", None),
    ("resolver", "enumerate_mris_oracle"): ("resolver.oracle", ("resolver.mris", _mris)),
    ("resolver", "merge_partition"): ("resolver.merge_partition", None),
    ("query", "parse_query"): ("query.parse", None),
    ("query", "rewrite"): ("query.rewrite", None),
    ("query", "eval_rewritten"): ("query.eval_rewritten", None),
    ("query", "resolved_answers"): ("query.answers", ("query.answers", _length)),
    ("cqa", "build_cqa_instance"): ("cqa.build", None),
    ("cli", "run"): ("cli.run", None),
    ("cli", "_emit"): ("cli.render", None),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._in_linker = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, perf_counter(), None, parent, self.op_id))
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        t = perf_counter()
        self._stack.pop()
        name, start, _, parent, op = self.spans[idx]
        self.spans[idx] = (name, start, t, parent, op)

    def _span(self, name: str, after, fn):
        linker = name == "taclosure.linked_pairs"
        closure = name == "taclosure.closure"
        counts = self.counts

        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            if linker:
                self._in_linker += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                if linker:
                    self._in_linker -= 1
                self.end(idx)
            counts[name + "_calls"] += 1
            if after:
                counts[after[0]] += after[1](result, args)
            if closure and result.blocks:
                largest = max(len(b) for b in result.blocks)
                counts["taclosure.max_block"] = max(counts["taclosure.max_block"], largest)
            return result

        return wrapper

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        import mdres.dsets
        import mdres.relation

        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("mdres")]
        for (modname, fname), (span, after) in SPANS.items():
            original = getattr(sys.modules[f"mdres.{modname}"], fname)
            self._replace(modules, original, self._span(span, after, original))
        self._replace(modules, sys.modules["mdres.similarity"].similar, self._similar())
        self._count_method(mdres.relation.Instance, "value", "relation.value_calls")
        self._count_method(mdres.relation.Instance, "with_values", "relation.with_values_calls")
        self._count_method(mdres.dsets.DisjointSet, "union", "dsets.unions")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _replace(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _count_method(self, cls, attr: str, counter: str) -> None:
        original = cls.__dict__[attr]
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def _similar(self):
        original = sys.modules["mdres.similarity"].similar
        counts = self.counts

        def similar(spec, a, b):
            counts["similarity.similar_calls"] += 1
            if self._in_linker:
                counts["taclosure.pairs_compared"] += 1
            return original(spec, a, b)

        return similar

    # -- analysis --------------------------------------------------------

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Self time per span name over the spans recorded from index `first`."""
        spans = self.spans
        covered: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in spans[first:]:
            if parent >= first:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i in range(first, len(spans)):
            name, start, end, _, _ = spans[i]
            out[name] += end - start - covered[i]
        return dict(out)
