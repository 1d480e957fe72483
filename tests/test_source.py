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
