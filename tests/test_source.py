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


def test_no_module_imports_dataclasses():
    # dataclasses brings inspect into every process; the records are
    # NamedTuples and slotted classes instead
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "dataclasses" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses")
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


# The unchecked bodies of the validation boundary.  The library calls them
# across modules on purpose, with data it built or checked already, to skip
# the argument checks that their public entry points keep.
TRUSTED_BODIES = {"_trusted", "_chi_mult", "_chi_normalize", "_dominant_conjugate", "_orbit_size"}


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _defined_names(tree):
    """The names a module defines: functions, classes and assignments at
    module or class level, and the attributes its methods set on ``self``."""
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    }
    for scope in [tree, *(node for node in tree.body if isinstance(node, ast.ClassDef))]:
        for node in scope.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def test_no_private_access_across_modules():
    # a module that needs another's _name reaches past its public interface;
    # it gets a public name instead, unless it is one of the trusted bodies
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = _defined_names(tree) | TRUSTED_BODIES
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                offenders += [
                    f"{path.name}:{node.lineno} import {alias.name}"
                    for alias in node.names
                    if _private(alias.name) and alias.name not in TRUSTED_BODIES
                ]
            elif (
                isinstance(node, ast.Attribute)
                and _private(node.attr)
                and node.attr not in own
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            ):
                offenders.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert offenders == []


def _owners(match):
    """``(module, function, line)`` for each node of the package that
    ``match`` accepts, the function being the innermost one around it."""
    found = []

    def visit(node, path, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if match(node):
            found.append((path.name, owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, path, owner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, None)
    return found


def test_roots_are_reflected_only_to_build_rows():
    # a walk of the Weyl group on roots runs on root indices, through the
    # rows of RootDatum.reflection_row; coordinate reflections are left to
    # building those rows and to Weyl orbits of weights
    allowed = {"reflection_row", "weyl_orbit"}
    offenders = [
        f"{module}:{line} in {owner}"
        for module, owner, line in _owners(lambda node: isinstance(node, ast.Attribute) and node.attr == "reflect")
        if owner not in allowed
    ]
    assert offenders == []


def test_records_skip_their_constructor_only_through_trusted():
    # ReadOnly._trusted is the one way to build a record without its
    # __init__ checks; build_root_datum copies a memoized datum's structure
    # onto a new datum the same way
    bypasses = _owners(
        lambda node: isinstance(node, ast.Attribute) and node.attr == "__new__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"
    )
    assert [(module, owner) for module, owner, _ in bypasses] == [
        ("rootdata.py", "_trusted"),
        ("rootdata.py", "build_root_datum"),
    ]
