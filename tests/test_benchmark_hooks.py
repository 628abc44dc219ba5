"""The benchmark's tracer wraps cslrad functions by module attribute.

``perfbench/proc.py``'s ``install_targets`` names each one as
``tracer.span(module, "attr", ...)`` or ``tracer.count(module, "attr", ...)``.
A traced run fails when one of those names is gone, so renaming or
removing such a function must show here first.
"""

import ast
import importlib
from pathlib import Path

PROC = Path(__file__).resolve().parents[1] / "perfbench" / "proc.py"


def tracer_targets():
    """(module, attr) of every tracer.span/count call in install_targets."""
    tree = ast.parse(PROC.read_text(encoding="utf-8"))
    install = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "install_targets")
    targets = []
    for node in ast.walk(install):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("span", "count")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "tracer"):
            module, attr = node.args[:2]
            targets.append((module.id, attr.value))
    return targets


def test_install_targets_name_existing_cslrad_attributes():
    targets = tracer_targets()
    assert len(targets) >= 10
    missing = [f"{module}.{attr}" for module, attr in targets
               if not hasattr(importlib.import_module(f"cslrad.{module}"), attr)]
    assert missing == []

