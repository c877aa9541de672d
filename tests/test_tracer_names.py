"""The benchmark tracer's targets exist in womcode.

``perfbench/tracer.py`` names the functions it wraps as (module, attribute
path) pairs, so a renamed womcode function would otherwise show only in a
traced benchmark run.  The pairs are read from the tracer's source with
``ast.literal_eval``; the tracer itself is not imported.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_constant(name: str):
    """The literal value of the tracer's module-level ``name = ...``."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {TRACER}")


def test_spanned_and_counted_names_resolve():
    targets = [*tracer_constant("SPANNED"), tracer_constant("COUNTED")]
    assert len(targets) > 1
    for module, path in targets:
        owner = importlib.import_module(f"womcode.{module}")
        for part in path.split("."):
            assert hasattr(owner, part), f"womcode.{module}.{path} does not exist"
            owner = getattr(owner, part)
        assert callable(owner), f"womcode.{module}.{path} is not callable"
