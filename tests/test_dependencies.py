import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _requirement_names(key):
    # the names in one `key = [...]` list of pyproject.toml; a regex, since
    # tomllib is not in the standard library before Python 3.11
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(rf"^{key} = \[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    assert block, key
    return {re.match(r"[A-Za-z0-9_.-]+", req).group() for req in re.findall(r'"([^"]+)"', block[1])}


def _imported_packages(path):
    # top-level names of every absolute import in the module, function bodies included
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_runtime_dependencies_are_numpy_alone():
    assert _requirement_names("dependencies") == {"numpy"}
    assert "scipy" in _requirement_names("test")


def test_source_imports_only_declared_dependencies():
    sources = sorted((ROOT / "src" / "modelspace").glob("*.py"))
    assert sources
    declared = _requirement_names("dependencies")
    for path in sources:
        third_party = _imported_packages(path) - set(sys.stdlib_module_names) - {"modelspace"}
        assert third_party <= declared, (path.name, third_party - declared)


def _defined_names(path):
    # the names a module defines at its top level: functions, classes and assignments
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_source_takes_private_names_from_their_defining_module():
    # a private name that one module of the package takes from a sibling, by
    # `from .sibling import _name` or as `sibling._name` after `from . import
    # sibling`, is defined in that sibling, not passed on by a re-export
    package = ROOT / "src" / "modelspace"
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used, siblings = [], set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    used += [(node.module, alias.name) for alias in node.names]
                else:
                    siblings.update(alias.asname or alias.name for alias in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in siblings:
                    used.append((node.value.id, node.attr))
        for module, name in used:
            if name.startswith("_"):
                assert name in _defined_names(package / f"{module}.py"), (path.name, module, name)
