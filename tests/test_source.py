"""Properties of the package source itself."""

import ast
from pathlib import Path

import snakeword

SOURCE = Path(snakeword.__file__).parent


def test_no_assert_statements():
    """Invariants raise ``InvariantError``, because ``python -O`` strips
    ``assert`` statements."""
    paths = sorted(SOURCE.glob("*.py"))
    assert len(paths) >= 9, paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
