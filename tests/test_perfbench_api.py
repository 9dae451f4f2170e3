"""The benchmark under perfbench/ calls only names that modelspace defines.

The files are read, never edited: spans.py is imported for its TARGETS
table, and workloads.py is parsed for the ``ms.<name>`` and
``cli.<name>`` attributes it uses.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import modelspace
from modelspace import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes_of(tree: ast.AST, owner: str) -> set[str]:
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == owner
    }


def test_span_targets_resolve():
    targets = _load_spans().TARGETS
    assert targets
    missing = []
    for module, attr, method, _ in targets:
        owner = getattr(importlib.import_module(f"modelspace.{module}"), attr, None)
        if method is not None and owner is not None:
            # a method is wrapped where the class's own namespace defines it
            owner = vars(owner).get(method)
        if not callable(owner):
            missing.append(".".join(filter(None, (module, attr, method))))
    assert missing == []


def test_workload_names_resolve():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    used = {"ms": _attributes_of(tree, "ms"), "cli": _attributes_of(tree, "cli")}
    assert used["ms"] and used["cli"]
    missing = [f"ms.{name}" for name in sorted(used["ms"]) if not hasattr(modelspace, name)]
    missing += [f"cli.{name}" for name in sorted(used["cli"]) if not hasattr(cli, name)]
    assert missing == []
