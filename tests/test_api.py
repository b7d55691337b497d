"""The public surface: exported names resolve, every function the bench
tracer wraps by name and every name the bench reads from mdres still
exists, so a rename fails here first, no private name is left that nothing
reads, and no package module is left that only the tests import."""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mdres

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"


def test_all_names_resolve():
    for name in mdres.__all__:
        assert hasattr(mdres, name), name


def test_no_public_callable_takes_a_verdict():
    """The join-safety verdict and the classification are computed by the
    code that owns them, never passed in by a caller. (AnswerSet's `ujcq`
    field records the verdict its answers were computed under.)"""
    for name in mdres.__all__:
        obj = getattr(mdres, name)
        if inspect.isfunction(obj):
            assert not {"ujcq", "cls"} & set(inspect.signature(obj).parameters), name


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_functions_exist():
    tracing = _load_tracing()
    for module, function in tracing.SPANS:
        assert hasattr(importlib.import_module(f"mdres.{module}"), function), (
            f"mdres.{module}.{function}"
        )


def test_merge_partition_counter_reads_chase_work(dup_groups):
    """The bench's merge_partition counter counts the chase's merges: one
    for a stability check, and as many on each of two equal oracle calls."""
    tracer = _load_tracing().Tracer()
    counter = "resolver.merge_partition_calls"
    tracer.install()
    try:
        assert mdres.is_stable(dup_groups.variant("D1"), dup_groups.mdset)
        assert tracer.counts[counter] == 1
        tracer.counts.clear()
        mdres.enumerate_mris_oracle(dup_groups.instance, dup_groups.mdset)
        first = tracer.counts[counter]
        mdres.enumerate_mris_oracle(dup_groups.instance, dup_groups.mdset)
        assert tracer.counts[counter] == 2 * first > 0
    finally:
        tracer.uninstall()


def _dotted(node: ast.expr) -> str | None:
    """`a.b.c` for a chain of attribute reads on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def _bench_names() -> list[tuple[str, str | None]]:
    """What the bench tracer and checker read from mdres by name, as
    (dotted name, attribute that must sit in that class's own __dict__)."""
    names = []
    for path in (TRACING, ROOT / "bench" / "checks.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mdres"):
                names += [(f"{node.module}.{a.name}", None) for a in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Subscript):
                module = node.value.slice  # sys.modules["mdres.x"].name
                if isinstance(module, ast.Constant) and str(module.value).startswith("mdres"):
                    names.append((f"{module.value}.{node.attr}", None))
            elif isinstance(node, ast.Call) and _dotted(node.func) == "self._count_method":
                owner, attr = node.args[:2]
                names.append((_dotted(owner), attr.value))
    return list(dict.fromkeys(names))


def _resolve(dotted: str):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part)
        return obj
    raise ModuleNotFoundError(dotted)


BENCH_NAMES = _bench_names()


@pytest.mark.parametrize(
    "dotted, own_attr", BENCH_NAMES,
    ids=[f"{d}.{a}" if a else d for d, a in BENCH_NAMES],
)
def test_bench_names_resolve(dotted, own_attr):
    """Tracer.install and the bench checker fail on a name that is gone,
    even one that only the tests call."""
    obj = _resolve(dotted)
    if own_attr is not None:
        assert own_attr in vars(obj), f"{dotted}.{own_attr}"


def test_bench_name_scan_finds_what_the_tracer_patches():
    assert {
        ("mdres.relation.Instance", "value"),
        ("mdres.relation.Instance", "with_values"),
        ("mdres.dsets.DisjointSet", "union"),
        ("mdres.similarity.similar", None),
        ("mdres.check_all", None),
        ("mdres.relation.instance_as_json", None),
    } <= set(BENCH_NAMES)


def test_every_module_is_loaded_by_the_package_and_cli():
    """Test-only code lives under tests/, not in the package."""
    package = ROOT / "src" / "mdres"
    code = "import sys, mdres, mdres.cli; print(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    loaded = set(proc.stdout.split())
    modules = {f"mdres.{path.stem}" for path in package.glob("*.py") if path.stem != "__init__"}
    assert sorted(modules - loaded) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_definitions(tree: ast.Module) -> set[str]:
    """`_name`s (not dunders) a module defines at module or class level, and
    `self.name` for each attribute a private class assigns on `self`."""
    names = set()
    classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    for body in [tree.body] + [c.body for c in classes]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    names = {n for n in names if _is_private(n)}
    for c in classes:
        if _is_private(c.name):
            names.update(
                f"self.{node.attr}" for node in ast.walk(c)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"
            )
    return names


def _reads(tree: ast.Module) -> set[str]:
    """Names read: loaded names, attributes, import aliases, string constants.

    An attribute read `x.name` also reads `self.name`; an attribute that is
    only assigned is not read. The bench tracer names the functions it wraps
    in strings.
    """
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            reads.update((node.attr, f"self.{node.attr}"))
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
            reads.update((node.target.attr, f"self.{node.target.attr}"))
        elif isinstance(node, ast.alias):
            reads.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads.add(node.value)
    return reads


def test_no_unread_private_names():
    package = ROOT / "src" / "mdres"
    defined, reads = {}, set()
    for folder in (package, ROOT / "tests", ROOT / "bench"):
        for path in sorted(folder.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            reads |= _reads(tree)
            if folder == package:
                for name in _private_definitions(tree):
                    defined.setdefault(name, path.name)
    unread = sorted(f"{path}:{name}" for name, path in defined.items() if name not in reads)
    assert unread == []


def test_readme_library_example_runs(monkeypatch):
    """The README's `## Library` block runs from the repository root, and
    each `expr  # value` line evaluates to the value in its comment."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines = code.splitlines()
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(code).body:
        source = ast.get_source_segment(code, stmt)
        if isinstance(stmt, ast.Expr):
            comment = lines[stmt.end_lineno - 1].rsplit("#", 1)[1]
            assert eval(source, namespace) == ast.literal_eval(comment.strip()), source
            checked += 1
        else:
            exec(source, namespace)
    assert checked == 3
