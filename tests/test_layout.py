"""Structural checks over the source of ``actriv``: ``formats`` is a leaf
module under the rest, it holds the only code that opens or writes files,
the ball is built and loaded by one child rule, the certificate path reads
the one canonical-rotation rule, ball membership is one ``Ball`` query,
only ``cli.main`` exits, every name the benchmark's tracer wraps exists,
and every public name is used outside the tests."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import actriv

PACKAGE = Path(actriv.__file__).parent
TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
FORMATS_IMPORTS = {"notation", "presentations", "words"}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def parse(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


def actriv_imports(tree):
    """Names of the ``actriv`` modules a module imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.split(".")[0] == "actriv":
                parts = node.module.split(".")
                if len(parts) > 1:
                    found.add(parts[1])
                else:
                    found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "actriv" and len(parts) > 1:
                    found.add(parts[1])
    return found


def open_mode(call):
    """The mode of an ``open(...)`` call: second argument or ``mode=``."""
    if len(call.args) > 1:
        return call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    return ast.Constant("r")


def writes(tree):
    """Lines of the module that open a file for writing or call os.replace."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = open_mode(node)
            if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
                lines.append(node.lineno)
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in ("replace", "rename")
            and isinstance(func.value, ast.Name)
            and func.value.id == "os"
        ):
            lines.append(node.lineno)
    return sorted(lines)


def names_in(tree, function):
    """Names that the top-level ``function`` calls, and every name it
    refers to, as a plain name or an attribute."""
    (node,) = [
        n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function
    ]
    calls, refs = set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        if isinstance(sub, ast.Call):
            func = sub.func
            calls.add(getattr(func, "id", getattr(func, "attr", None)))
    return calls, refs


def scopes_naming(tree, name):
    """Top-level functions and classes of the module that refer to
    ``name``, as a plain name or an attribute; ``<module>`` stands for a
    reference outside all of them."""
    found = set()
    for node in tree.body:
        refs = {
            getattr(sub, "id", getattr(sub, "attr", None)) for sub in ast.walk(node)
        }
        if name in refs:
            found.add(getattr(node, "name", "<module>"))
    return found


def modules():
    return sorted(path.stem for path in PACKAGE.glob("*.py"))


def test_formats_is_a_leaf():
    assert actriv_imports(parse("formats")) <= FORMATS_IMPORTS


def test_only_formats_writes_files():
    found = {
        name: writes(parse(name)) for name in modules() if name != "formats"
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert writes(parse("formats"))


def test_only_formats_opens_files():
    """Every file is read through ``formats``, so one line rule (comments,
    blank lines, ``path:line``) holds for every input."""
    found = {}
    for name in modules():
        if name != "formats":
            tree = parse(name)
            found[name] = scopes_naming(tree, "open") | scopes_naming(tree, "open_text")
    assert {name: scopes for name, scopes in found.items() if scopes} == {}
    assert scopes_naming(parse("formats"), "open")


def test_checks_see_violations():
    tree = ast.parse(
        "import os\nfrom . import ball\nfrom actriv.solver import x\n"
        "open(p, 'w')\nopen(p, mode='a')\nopen(p, m)\nopen(p)\nos.replace(a, b)\n"
    )
    assert actriv_imports(tree) == {"ball", "solver"}
    assert writes(tree) == [4, 5, 6, 8]
    tree = ast.parse("def f(k):\n    g(k)\n    return m.h(map(w.canonical_rep, k))\n")
    assert names_in(tree, "f") == (
        {"g", "h", "map"},
        {"g", "k", "h", "m", "map", "canonical_rep", "w"},
    )
    tree = ast.parse(
        "raise SystemExit(1)\ndef f():\n    raise builtins.SystemExit\n"
        "class C:\n    def m(self):\n        raise SystemExit\n"
        "def g():\n    return 0\n"
    )
    assert scopes_naming(tree, "SystemExit") == {"<module>", "f", "C"}
    tree = ast.parse(
        "def f():\n    return f()\n"
        "class C:\n    def m(self):\n        pass\n"
        "    def n(self):\n        return self.m()\n"
        "def _g():\n    pass\n"
    )
    assert unused_public_names({"a": tree}, ["a"]) == ["a.f", "a.C", "a.C.n"]
    assert unused_public_names({"a": tree, "b": ast.parse("a.f(C)")}, ["a"]) == [
        "a.C.n"
    ]


@pytest.mark.parametrize("function", ["build_ball", "load_ball"])
def test_one_child_rule(function):
    """``build_ball`` and ``load_ball`` derive a child only through
    ``ball._child``, so a loaded ball is the ball that was built."""
    calls, refs = names_in(parse("ball"), function)
    assert "_child" in calls
    assert not refs & {"apply_to_relators", "canonical_rep"}


def test_one_rotation_rule():
    """``words.canonical_rotation`` alone says which rotation of a relator,
    or of its inverse, is canonical; the certificate path reads it and
    searches for no rotation itself."""
    tree = parse("ball")
    calls, _ = names_in(tree, "_moves_to_canonical")
    assert "canonical_rotation" in calls
    names = {
        getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
        for node in ast.walk(tree)
    }
    assert not names & {"is_cyclically_reduced", "invert_word"}


def test_one_class_query():
    """Ball membership is asked of ``Ball``; only the solver's per-run memo
    ``_in_ball`` pairs a canonical key with the members itself."""
    found = {}
    for name in modules():
        tree = parse(name)
        found[name] = scopes_naming(tree, "canonical_relators") & scopes_naming(
            tree, "members"
        )
    assert {name: scopes for name, scopes in found.items() if scopes} == {
        "ball": {"Ball"},
        "solver": {"_in_ball"},
    }


def test_one_exit():
    """The library raises; ``cli.main`` alone turns an error into an exit."""
    found = {name: scopes_naming(parse(name), "SystemExit") for name in modules()}
    assert {name: scopes for name, scopes in found.items() if scopes} == {
        "cli": {"main"}
    }


def test_tracer_targets_exist(monkeypatch):
    """``bench/tracing.py`` wraps library names by attribute; a rename
    there would otherwise only surface as a broken ``--trace 1`` run."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for target in tracing.TARGETS:
        assert callable(target.get()), target.label


def public_definitions(tree):
    """Each public top-level function and class of the module, and each
    public method of its classes, as ``(qualified name, node)``."""
    for node in tree.body:
        if not isinstance(node, DEFINITIONS) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, DEFINITIONS) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def references(tree):
    """``(name, line)`` of each plain name and attribute in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unused_public_names(sources, checked):
    """Public names of the ``checked`` modules that no module of
    ``sources`` (name -> tree) refers to outside their own definition.
    Names are matched as written, so a method counts as used wherever an
    attribute of its name is."""
    used = {}
    for source, tree in sources.items():
        for name, line in references(tree):
            used.setdefault(name, []).append((source, line))
    unused = []
    for module in checked:
        for qualified, node in public_definitions(sources[module]):
            if not any(
                source != module or not node.lineno <= line <= node.end_lineno
                for source, line in used.get(node.name, [])
            ):
                unused.append(f"{module}.{qualified}")
    return unused


def test_every_public_name_is_used():
    """Each public function, class and method of ``actriv`` is used by the
    library itself or by the benchmark, not only by the tests."""
    sources = {name: parse(name) for name in modules()}
    for path in sorted(TRACING.parent.glob("*.py")):
        sources[f"bench/{path.name}"] = ast.parse(path.read_text(encoding="utf-8"))
    assert unused_public_names(sources, modules()) == []
