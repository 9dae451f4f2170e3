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


def _node_names(node):
    # the names one top-level statement defines: a function, class or assignment
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def _defined_names(path):
    # the names a module defines at its top level
    return set().union(*map(_node_names, ast.parse(path.read_text(encoding="utf-8")).body))


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


def _mentions(node, name):
    # whether node reads `name` as a plain name, an attribute or an imported alias
    return any(
        (isinstance(sub, ast.Name) and sub.id == name)
        or (isinstance(sub, ast.Attribute) and sub.attr == name)
        or (isinstance(sub, ast.alias) and sub.name == name)
        for sub in ast.walk(node)
    )


def test_every_private_source_name_is_used_in_source():
    # a private top-level name of src/modelspace that no source module uses
    # outside its own definition serves only the tests, and belongs there
    paths = sorted((ROOT / "src" / "modelspace").glob("*.py"))
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in paths]
    tops = [node for tree in trees for node in tree.body]
    for path, tree in zip(paths, trees):
        for node in tree.body:
            for name in _node_names(node):
                if name.startswith("_") and not name.startswith("__"):
                    assert any(_mentions(other, name) for other in tops if other is not node), (
                        path.name, name)


def _functions(tree):
    # (qualified name, node) of every top-level function and method of a module
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{node.name}.{sub.name}", sub


def _callee(call):
    # the name a call calls, plainly or as an attribute
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _points_checked(node, names):
    # whether node reads its parameter z, and only ever as an argument of a
    # call to one of the names
    passed = {id(arg) for sub in ast.walk(node) if isinstance(sub, ast.Call)
              and _callee(sub) in names for arg in sub.args + [kw.value for kw in sub.keywords]}
    uses = [sub for sub in ast.walk(node) if isinstance(sub, ast.Name) and sub.id == "z"]
    return bool(uses) and all(id(sub) in passed for sub in uses)


def test_every_point_evaluator_checks_the_closed_disk():
    # every public function or method of blaschke and interp with a parameter
    # z hands z only to _at_points, which refuses points outside the closed
    # disk, or to a public evaluator that does: a new evaluator, or a branch
    # of one, cannot take its points another way
    pending = {}
    for module in ("blaschke", "interp"):
        source = (ROOT / "src" / "modelspace" / f"{module}.py").read_text(encoding="utf-8")
        for qualname, node in _functions(ast.parse(source)):
            public = not node.name.startswith("_") or node.name.endswith("__")
            if public and "z" in [arg.arg for arg in node.args.args + node.args.kwonlyargs]:
                pending[qualname] = node
    assert {"blaschke_factor", "eval_product", "sublevel_indicator", "cauchy_eval",
            "InterpolantRepresentation.__call__"} <= set(pending)
    checked = {"_at_points"}
    while pending:
        passed = [name for name, node in pending.items() if _points_checked(node, checked)]
        assert passed, sorted(pending)
        for name in passed:
            checked.add(pending.pop(name).name)


def _readme_code_names():
    # identifiers in the README's inline code spans, fenced blocks left out
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.DOTALL))
    return {name for span in spans for name in re.findall(r"[A-Za-z_]\w*", span)}


def _benchmark_names():
    # the ms.<name> attributes of perfbench/workloads.py and the attributes of
    # the TARGETS table in perfbench/spans.py, both parsed, never imported
    bench = ROOT / "perfbench"
    workloads = ast.parse((bench / "workloads.py").read_text(encoding="utf-8"))
    names = {node.attr for node in ast.walk(workloads) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "ms"}
    for node in ast.parse((bench / "spans.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and _node_names(node) == {"TARGETS"}:
            names.update(target.elts[1].value for target in node.value.elts)
    return names


def test_every_exported_name_has_a_user():
    # a name that modelspace/__init__.py imports is used in src/ outside its
    # own definition, run by the benchmark, or named in the README: a public
    # name that only its own tests reach is surface without a user
    package = ROOT / "src" / "modelspace"
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    tops = [node for path in sorted(package.glob("*.py")) if path.name != "__init__.py"
            for node in ast.parse(path.read_text(encoding="utf-8")).body]
    documented = _benchmark_names() | _readme_code_names()
    unused = sorted(
        name for name in exported - documented
        if not any(_mentions(node, name) for node in tops if name not in _node_names(node))
    )
    assert unused == []


def test_one_function_states_the_pairing_rule():
    # the refusal of differing zero and value counts is worded once in src/, in
    # core._require_paired, which every pair routine calls
    message = "value/zero sequence lengths differ"

    def count(node):
        return sum(isinstance(sub, ast.Constant) and sub.value == message for sub in ast.walk(node))

    owners, total = [], 0
    for path in sorted((ROOT / "src" / "modelspace").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        total += count(tree)
        for name, node in _functions(tree):
            owners += [f"{path.stem}.{name}"] * count(node)
    assert owners == ["core._require_paired"] and total == 1


def _is_chunk_step(node):
    # max(1, a // b): the step a chunked loop takes through its rows
    return (isinstance(node, ast.Call) and _callee(node) == "max" and len(node.args) == 2
            and isinstance(node.args[0], ast.Constant) and node.args[0].value == 1
            and isinstance(node.args[1], ast.BinOp) and isinstance(node.args[1].op, ast.FloorDiv))


def test_core_alone_sets_the_working_set_budget():
    # core holds CHUNK_ENTRIES and _chunks, the one rule that splits a large
    # temporary into chunks; no other src/ module computes a chunk step, and a
    # name that another module steps a loop by (range's third argument) is
    # bound from CHUNK_ENTRIES, as blaschke.POINT_BLOCK is
    package = ROOT / "src" / "modelspace"
    core = ast.parse((package / "core.py").read_text(encoding="utf-8"))
    assert {"CHUNK_ENTRIES", "_chunks"} <= _defined_names(package / "core.py")
    assert sum(map(_is_chunk_step, ast.walk(core))) == 1
    bound_from_budget = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "core.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(map(_is_chunk_step, ast.walk(tree))), path.name
        for node in tree.body:
            if isinstance(node, ast.Assign) and _mentions(node.value, "CHUNK_ENTRIES"):
                bound_from_budget |= _node_names(node)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _callee(node) == "range" and len(node.args) == 3:
                step = node.args[2]
                literal = isinstance(step, ast.Constant) and step.value <= 2
                assert literal or (isinstance(step, ast.Name) and step.id in bound_from_budget), (
                    path.name, ast.unparse(step))
    assert bound_from_budget == {"POINT_BLOCK"}
