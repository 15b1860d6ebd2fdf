import ast
import sys
from pathlib import Path

import quadpartitions
from quadpartitions import errors

PACKAGE = Path(quadpartitions.__file__).parent


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements; invariant checks must raise instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_export_lists_name_only_what_is_there():
    # Each module exports only names it defines, and the package re-exports
    # only names its modules export, so a deleted name cannot linger in a list.
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        defined, exported = set(), []
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                defined.update(names)
                if names == ["__all__"]:
                    exported = ast.literal_eval(node.value)
        assert [name for name in exported if name not in defined] == [], path.name
    for name in quadpartitions.__all__:
        if name == "__version__":
            continue
        module = sys.modules[getattr(quadpartitions, name).__module__]
        if module is not errors:
            assert name in module.__all__, name


def test_only_errors_reads_the_cost_budget():
    # errors.check_budget is the one reader of BUDGET_MS: a module that
    # imported the name would compare with its own copy, which patching
    # errors.BUDGET_MS does not reach.  Comments and docstrings may name it.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, field, None) for field in ("id", "attr", "name", "asname")}
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and "BUDGET_MS" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
