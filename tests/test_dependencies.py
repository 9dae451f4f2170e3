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
