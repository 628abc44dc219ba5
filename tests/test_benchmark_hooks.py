"""The benchmark's tracer wraps cslrad functions by module attribute.

``perfbench/proc.py``'s ``install_targets`` names each one as
``tracer.span(module, "attr", ...)`` or ``tracer.count(module, "attr", ...)``.
A traced run fails when one of those names is gone, so renaming or
removing such a function must show here first.  A short traced run of
each workload checks the rest of what makes ``run.py --trace 1`` exit 3.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PROC = ROOT / "perfbench" / "proc.py"


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



BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_benchmark_run_reports_every_per_layer_metric(workload):
    # run.py exits 3 when a per-layer metric has no figure or the run
    # overruns its budget; a short traced run shows both
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    missing = [m["name"] for m in BENCHMARK["per_layer"]
               if m["name"] not in result["metrics"]]
    assert missing == []
