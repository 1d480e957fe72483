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
