"""Every threshold in the package is a named constant (README, "Tolerances").

A small float literal inside a function is a threshold with no name and,
most likely, no scale; it belongs in a module- or class-level assignment,
where the module's docstring or comment states what it is relative to.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "entmono"


def _named(tree: ast.Module) -> set[int]:
    """ids of the nodes inside module- or class-level assignments."""
    named, bodies = set(), [tree.body]
    while bodies:
        for stmt in bodies.pop():
            if isinstance(stmt, ast.ClassDef):
                bodies.append(stmt.body)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                named.update(id(node) for node in ast.walk(stmt))
    return named


def test_small_float_literals_are_named_constants():
    bare = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        named = _named(tree)
        bare += [f"{path.name}:{node.lineno}: {node.value!r}" for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and isinstance(node.value, float)
                 and 0 < abs(node.value) < 1e-3 and id(node) not in named]
    assert not bare, "unnamed thresholds:\n" + "\n".join(bare)
