"""Package surface: every exported name resolves, test builders stay out,
no source or test file imports a name it never uses, and no private
function or class in the package is left without a reference."""

import ast
import dataclasses
import importlib
import pathlib
import pkgutil

import pytest

import shadowgeom
from shadowgeom.tolerances import Tolerances

MODULES = ["shadowgeom"] + sorted(
    f"shadowgeom.{info.name}" for info in pkgutil.iter_modules(shadowgeom.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_shape_builders_live_in_the_tests_only():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("shadowgeom.shapes")


ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/shadowgeom/*.py")) + sorted(ROOT.glob("tests/*.py"))


def _unused_imports(tree) -> list:
    """Names bound by an import and never read; `__future__` and
    `__all__` names are exempt."""
    bound, exported = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {ast.literal_eval(e) for e in node.value.elts}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in bound.items()
                  if name not in read and name not in exported)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def _is_abstract(body) -> bool:
    """A body that is a single `raise NotImplementedError`."""
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def _unused_parameters(tree) -> list:
    """Function and lambda parameters their body never reads.

    `self` and `cls`, abstract bodies, and the `cmd_*` handlers (which
    share one signature for dispatch) are exempt.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Lambda):
            body, name = [node.body], "lambda"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("cmd_") or _is_abstract(node.body):
                continue
            body, name = node.body, node.name
        else:
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [
            p for p in (a.vararg, a.kwarg) if p is not None]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        found += [f"line {node.lineno}: {name}({p.arg})" for p in params
                  if p.arg not in ("self", "cls") and p.arg not in read]
    return found


PACKAGE_SOURCES = sorted(ROOT.glob("src/shadowgeom/*.py"))


@pytest.mark.parametrize("path", PACKAGE_SOURCES,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_parameters(path):
    assert _unused_parameters(ast.parse(path.read_text(encoding="utf-8"))) == []


def _private_definitions(tree) -> dict:
    """Private (`_name`, not dunder) functions, methods and classes."""
    return {node.name: node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def test_every_private_definition_is_referenced():
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE_SOURCES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert [f"{path.name}:{line}: {name}" for path, tree in trees.items()
            for name, line in _private_definitions(tree).items() if name not in read] == []


def test_every_tolerance_has_a_reader():
    # a Tolerances field that no module outside tolerances.py reads is a
    # setting that changes nothing
    read = {node.attr for path in PACKAGE_SOURCES if path.name != "tolerances.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)}
    assert [f.name for f in dataclasses.fields(Tolerances) if f.name not in read] == []


def test_rank_rule_and_svd_live_in_geometry_only():
    # the rank tolerance and the SVD are read in one module, so a change to
    # the rank rule is made in one place
    found = []
    for path in PACKAGE_SOURCES:
        if path.name == "geometry.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("rank_tol", "svd"):
                found.append(f"{path.name}:{node.lineno}: .{node.attr}")
            elif isinstance(node, ast.ImportFrom):
                found += [f"{path.name}:{node.lineno}: import {a.name}"
                          for a in node.names if a.name == "svd"]
    assert found == []


def test_reports_serialize_through_one_path():
    # reporting._plain is the one serializer: no other module calls an
    # `as_dict` view, and the report types whose JSON is their fields keep none
    field_reports = {"ResidualEntry", "Precondition", "TheoremReport", "ObstructionReport"}
    found = []
    for path in PACKAGE_SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (path.name != "reporting.py" and isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "as_dict"):
                found.append(f"{path.name}:{node.lineno}: .as_dict()")
            elif isinstance(node, ast.ClassDef) and node.name in field_reports:
                found += [f"{path.name}:{item.lineno}: {node.name}.as_dict"
                          for item in node.body
                          if isinstance(item, ast.FunctionDef) and item.name == "as_dict"]
    assert found == []


def test_cli_writes_through_run_only():
    # one writer: only `run` builds the report envelope, serializes it and
    # writes stdout or `--out`; commands return their results
    tree = ast.parse((ROOT / "src" / "shadowgeom" / "cli.py").read_text(encoding="utf-8"))
    writers = {"_run_report", "canonical_json", "_atomic_write", "sys.stdout.write"}
    run = next(node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "run")
    in_run = {id(node) for node in ast.walk(run)}
    found = [f"line {node.lineno}: {ast.unparse(node.func)}" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and ast.unparse(node.func) in writers
             and id(node) not in in_run]
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert found == []
    assert names & {"_emit", "_HANDLERS"} == set()


def _own_nodes(fn):
    """The nodes of fn's body outside the functions and classes it defines."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            stack += ast.iter_child_nodes(node)


def _call_graph(tree) -> dict:
    """Qualified function name -> the functions its own body names (calls
    them, or passes them on), resolved as Python resolves the name: the
    function's nested definitions, then its enclosing functions', then the
    module's; in a method, `self.name` is a method of its class."""
    module = {node.name: node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    todo = [(node, node.name, module, {}) for node in tree.body
            if isinstance(node, ast.FunctionDef)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        methods = {node.name: f"{cls.name}.{node.name}" for node in cls.body
                   if isinstance(node, ast.FunctionDef)}
        todo += [(node, methods[node.name], module, methods) for node in cls.body
                 if isinstance(node, ast.FunctionDef)]
    graph = {}
    while todo:
        fn, name, outer, methods = todo.pop()
        inner = [node for node in _own_nodes(fn) if isinstance(node, ast.FunctionDef)]
        scope = {**outer, **{node.name: f"{name}.{node.name}" for node in inner}}
        edges = graph.setdefault(name, set())
        for node in _own_nodes(fn):
            if isinstance(node, ast.Name) and node.id in scope:
                edges.add(scope[node.id])
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "self" and node.attr in methods):
                edges.add(methods[node.attr])
        todo += [(node, f"{name}.{node.name}", scope, methods) for node in inner]
    return graph


def _self_reaching(graph) -> list:
    found = []
    for start in graph:
        seen, stack = set(), list(graph[start])
        while stack and start not in seen:
            name = stack.pop()
            if name not in seen:
                seen.add(name)
                stack += graph.get(name, ())
        if start in seen:
            found.append(start)
    return sorted(found)


def test_expression_walks_do_not_recurse():
    # lowering, printing and rebuilding a chart go through expr._walk's
    # explicit stack; only the parser recurses, and it caps its nesting
    probe = ast.parse("def f(n):\n    return g(n)\n\n\ndef g(n):\n    return f\n\n\n"
                      "def h():\n    def a():\n        return b()\n\n"
                      "    def b():\n        return a()\n    return a()\n\n\n"
                      "class C:\n    def m(self):\n        return self.m()\n")
    assert _self_reaching(_call_graph(probe)) == ["C.m", "f", "g", "h.a", "h.b"]
    tree = ast.parse((ROOT / "src" / "shadowgeom" / "expr.py").read_text(encoding="utf-8"))
    found = _self_reaching(_call_graph(tree))
    assert "_Parser.factor" in found
    assert [name for name in found if not name.startswith("_Parser.")] == []
