"""Checks on the library source itself."""

import ast
import pathlib

import parahoric

PACKAGE = pathlib.Path(parahoric.__file__).parent


def test_no_assert_statements():
    # invariants are explicit raises of InvariantViolation, which also run
    # under python -O; an assert would vanish there
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def _unused_imports(path):
    """Imported names of one module that are never referenced and not in __all__."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [
        f"{path.name}:{node.lineno} {name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
        for name in [alias.asname or alias.name.split(".")[0]]
        if name not in used
    ]


def test_no_unused_imports():
    offenders = [
        line
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for line in _unused_imports(path)
    ]
    assert offenders == []


def test_no_unreferenced_private_definitions():
    # a module-level _helper, or a _method of a class, that no module of the
    # package names any more is dead code left behind by a refactor
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    referenced = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    offenders = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for top in tree.body
        for node in [top, *(top.body if isinstance(top, ast.ClassDef) else [])]
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
        and node.name not in referenced
    ]
    assert offenders == []
