import ast
from pathlib import Path

import quadpartitions

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
