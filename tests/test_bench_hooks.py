"""The benchmark in ``bench/`` reaches into the package by name: the tracer
wraps module attributes and the workloads import functions directly. A
refactor that renames or drops one of them must fail here, not silently
leave a layer untraced.
"""
import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_by_path(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if hasattr(module, attr):
        return True
    # ``from dualsift import cli`` names a submodule of the package
    return hasattr(module, "__path__") and importlib.util.find_spec(f"{module_name}.{attr}") is not None


def test_every_traced_target_resolves():
    tracing = _load_by_path("tracing")
    assert tracing.TARGETS
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.TARGETS
               if not _resolves(f"dualsift.{module}", attr)]
    assert missing == []


def test_every_name_the_workloads_import_resolves():
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dualsift")
                for alias in node.names]
    assert ("dualsift.classifier", "save_classifier_checkpoint") in imported
    assert ("dualsift.classifier", "load_classifier_checkpoint") in imported
    missing = [f"{module}.{name}" for module, name in imported if not _resolves(module, name)]
    assert missing == []
