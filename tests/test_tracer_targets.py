"""The traced benchmark wraps package functions by name (``TARGETS`` in
``perfbench/tracer.py``), so a renamed or removed one breaks only its traced
mode.  This reads that table from the source, without importing the tracer,
and checks every name against the package."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_targets() -> dict[str, tuple[str, ...]]:
    """The literal value of the tracer's module-level ``TARGETS``."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", "") == "TARGETS":
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no TARGETS")


def test_every_traced_target_is_a_package_function():
    targets = tracer_targets()
    assert targets
    missing = [
        f"mpdag.{module}.{name}"
        for module, names in targets.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"mpdag.{module}"), name, None))
    ]
    assert missing == []
