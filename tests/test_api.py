"""The public surface: exported names resolve, every function the bench
tracer wraps by name still exists, so a rename fails here first, no
private name is left that nothing reads, and no package module is left
that only the tests import."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import mdres

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"


def test_all_names_resolve():
    for name in mdres.__all__:
        assert hasattr(mdres, name), name


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, function in tracing.SPANS:
        assert hasattr(importlib.import_module(f"mdres.{module}"), function), (
            f"mdres.{module}.{function}"
        )


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


def _private_definitions(tree: ast.Module) -> set[str]:
    """`_name`s (not dunders) a module defines at module or class level."""
    names = set()
    scopes = [tree.body] + [n.body for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    for body in scopes:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _reads(tree: ast.Module) -> set[str]:
    """Names read: loaded names, attributes, import aliases, string constants.

    The bench tracer names the functions it wraps in strings.
    """
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
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
