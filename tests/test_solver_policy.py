"""The solver keeps one eigen step and one contraction path.

``monotones.py`` reaches ``numpy.linalg.eigh`` only inside ``_top_eigvecs``,
the party step that every frame update goes through, and never reaches
``numpy.einsum`` or ``numpy.tensordot``: its contractions are the matmuls
of ``_run``.  A reference counts as well as a call, under any import alias.
"""

import ast
from pathlib import Path

MONOTONES = Path(__file__).resolve().parents[1] / "src" / "entmono" / "monotones.py"
EIGEN_STEP = "_top_eigvecs"
EIGH = "numpy.linalg.eigh"
FORBIDDEN = {"numpy.einsum", "numpy.tensordot"}


def _aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> the numpy module or function it binds."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    local = alias.asname or alias.name.split(".")[0]
                    names[local] = alias.name if alias.asname else "numpy"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def _resolve(node: ast.AST, names: dict[str, str]) -> str | None:
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in names:
        return ".".join([names[node.id]] + attrs[::-1])
    return None


def _violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    names = _aliases(tree)
    bad = []

    def visit(node: ast.AST, functions: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions += (node.name,)
        target = _resolve(node, names) if isinstance(node, (ast.Attribute, ast.Name)) else None
        if target in FORBIDDEN or (target == EIGH and EIGEN_STEP not in functions):
            bad.append(f"{path.name}:{node.lineno}: {target}")
        for child in ast.iter_child_nodes(node):
            visit(child, functions)

    visit(tree, ())
    return bad


def test_the_solver_has_one_eigen_step_and_no_einsum():
    assert not _violations(MONOTONES)
    source = ast.parse(MONOTONES.read_text())
    step = next(n for n in source.body if isinstance(n, ast.FunctionDef) and n.name == EIGEN_STEP)
    names = _aliases(source)
    assert any(_resolve(n, names) == EIGH for n in ast.walk(step))  # the check is not vacuous


def test_the_check_sees_planted_violations(tmp_path):
    planted = tmp_path / "m.py"
    planted.write_text(
        "import numpy as np\n"
        "import numpy.linalg as la\n"
        "from numpy import einsum as es\n"
        "from numpy.linalg import eigh\n"
        "\n"
        "def _top_eigvecs(m):\n"
        "    return np.linalg.eigh(m)\n"
        "\n"
        "def other(m):\n"
        "    w = np.linalg.eigh(m)\n"
        "    x = la.eigh(m)\n"
        "    y = eigh(m)\n"
        "    z = np.einsum('ij->', m)\n"
        "    t = np.tensordot(m, m, 1)\n"
        "    u = es('i->', m)\n"
        "    step = np.linalg.eigh\n"
        "    return np.linalg.eigvalsh(m) @ m\n")
    lines = sorted(int(v.split(":")[1]) for v in _violations(planted))
    assert lines == [10, 11, 12, 13, 14, 15, 16]
