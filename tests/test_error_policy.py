"""Every contract violation raises a typed ``EntmonoError`` (README, aim 3).

``EntmonoError`` is itself a ``ValueError``, so a bare ``raise ValueError``
in the package is an error that callers and the CLI cannot tell apart from
an unrelated crash; it belongs in a subclass from ``entmono.errors``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "entmono"


def test_no_bare_value_errors_are_raised():
    bare = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    bare.append(f"{path.name}:{node.lineno}")
    assert not bare, "raise ValueError at:\n" + "\n".join(bare)
