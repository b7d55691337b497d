"""The public surface: exported names resolve, and every function the bench
tracer wraps by name still exists, so a rename fails here first."""

import importlib
import importlib.util
from pathlib import Path

import mdres

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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
