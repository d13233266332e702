"""The library names the benchmark workloads call must keep resolving.

perfbench/workloads.py is read, never imported or changed: its smoke test
runs for half a minute and sits outside the default suite, so a deleted
name would otherwise go unnoticed until the benchmark runs.
"""

import ast
import importlib
import pathlib

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def used_names():
    """(module, attribute) for every ``<gauss_steer module>.<attr>`` in the file."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    modules = {"gauss_steer": "gauss_steer"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "gauss_steer":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"gauss_steer.{alias.name}"
    return sorted(
        {
            (modules[node.value.id], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        }
    )


def test_workload_names_resolve():
    names = used_names()
    # the parse found calls into every module the workloads screen
    for mod in ("channels", "superchannels", "quantifier", "jsonio"):
        assert any(m == f"gauss_steer.{mod}" for m, _ in names), mod
    missing = [
        f"{mod}.{attr}"
        for mod, attr in names
        if not hasattr(importlib.import_module(mod), attr)
    ]
    assert not missing, f"perfbench/workloads.py calls missing names: {missing}"
