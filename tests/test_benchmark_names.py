"""The package names that the benchmark's tracer and workloads reach.

``benchmark/tracer.py`` wraps the functions and classes named in its span
tables, and ``benchmark/workloads.py`` calls package functions by
attribute, so deleting one of those names from the package breaks traced
and benchmark runs.  Both files are only parsed here, never imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"

# The workloads' local names for the package and its modules.
WORKLOAD_MODULES = {"sk": "", "ch": "channels", "verify": "verify"}


def module_constant(path: Path, name: str):
    """The literal value of the module-level assignment to ``name``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


def workload_names() -> list[tuple[str, str]]:
    """(module, name) for every ``sk.name``, ``ch.name`` and ``verify.name`` in the workloads."""
    tree = ast.parse((BENCHMARK / "workloads.py").read_text())
    found = {
        (WORKLOAD_MODULES[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in WORKLOAD_MODULES
    }
    return sorted(found)


def resolve(module: str, name: str):
    return getattr(importlib.import_module(f"skewcoh.{module}" if module else "skewcoh"), name)


TRACED = [
    (module, name)
    for module, name, _ in module_constant(BENCHMARK / "tracer.py", "FUNCTION_SPANS")
    + module_constant(BENCHMARK / "tracer.py", "VALIDATION_SPANS")
]


@pytest.mark.parametrize("module, name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_traced_name_resolves(module, name):
    assert callable(resolve(module, name))


def test_workload_names_resolve():
    names = workload_names()
    # The scan sees the calls of the numeric workload's three kinds of operation.
    assert {
        ("channels", "channel_as_kraus"),
        ("channels", "predicted_coefficients"),
        ("channels", "apply_product_channel"),
        ("", "bd_coherence"),
        ("", "xz_coherence_a1"),
        ("", "xz_coherence_sum"),
        ("verify", "run_suites"),
    } <= set(names)
    for module, name in names:
        assert callable(resolve(module, name)), f"{module or 'skewcoh'}.{name}"
    assert isinstance(resolve("verify", "ALL_SUITES"), dict)
