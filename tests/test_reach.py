"""The package defines only what its own code or the scripts reach, and
no module imports a name it does not use.

A top-level function or class of a module under src/connramsey, or a
method or property of such a class other than a dunder, that nothing in
src (outside its own definition and the package's re-exports in
__init__.py) or in scripts/ refers to serves only the tests: a function
belongs in tests/oracles.py, and a member's expression is written out
where a test reads it.  References are read from the syntax tree: names,
attribute names and imported names; docstrings and comments do not
count.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "connramsey"


def referenced_names(tree):
    """How often the code of tree names each identifier."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rpartition(".")[2]] += 1
    return names


def definitions(tree):
    """(qualified name, node) for the top-level functions and classes of
    a module and the non-dunder methods and properties of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{node.name}.{member.name}", member


def unreached_definitions():
    modules = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    scripts = [ast.parse(path.read_text()) for path in sorted((ROOT / "scripts").glob("*.py"))]
    total = Counter()
    for tree in [*modules.values(), *scripts]:
        total.update(referenced_names(tree))
    return [
        f"{module}.{name}"
        for module, tree in modules.items()
        for name, node in definitions(tree)
        if total[node.name] == referenced_names(node)[node.name]
    ]


def test_every_definition_is_reached_from_src_or_scripts():
    assert unreached_definitions() == []


def unused_imports(path):
    """Names that the module at path imports and never loads; the
    `__future__` switches are not names."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in imported.items()
        if name not in loaded
    ]


def test_no_unused_imports():
    # The imports of the package's __init__.py are its public names.
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    for folder in ("tests", "scripts"):
        paths += sorted((ROOT / folder).glob("*.py"))
    assert [hit for path in paths for hit in unused_imports(path)] == []
