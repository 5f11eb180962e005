"""The solver keeps one eigen step and one contraction path.

``monotones.py`` reaches ``numpy.linalg.eigh`` only inside ``_top_eigvecs``,
the party step that every frame update goes through, and never reaches
``numpy.einsum`` or ``numpy.tensordot``: its contractions are the matmuls
of ``_run``.  A reference counts as well as a call, under any import alias.
Every kind of operation that ``_run`` executes is one that some solve or
``objective`` still compiles, so an unreachable kind goes with its branch.

Both conversion verdicts of ``locc.py`` read one table: ``_class_rows`` is
the only function that profiles the states or confirms a low side, and
``_confirm_low_side`` the only one that escalates a solve.  The trust rule
lives in ``locc.py`` alone, so ``monotones.py`` defines no trust helper.

One rule decides which parties a rank vector leaves to sweep, and so
which monotones are Schmidt sums: ``monotones._swept_parties``, read only
by ``solve_E`` and ``locc._rank_classes``.
"""

import ast
from pathlib import Path

import numpy as np

from entmono import catalog, monotones

SRC = Path(__file__).resolve().parents[1] / "src" / "entmono"
MONOTONES = SRC / "monotones.py"
LOCC = SRC / "locc.py"
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


def _op_kinds() -> list[str]:
    """The op-kind constants of ``monotones.py``: the names it binds to ``range(n)``."""
    for node in ast.parse(MONOTONES.read_text()).body:
        if (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple)
                and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", None) == "range"):
            return [name.id for name in node.targets[0].elts]
    return []


def test_every_op_kind_runs(monkeypatch):
    kinds = _op_kinds()
    assert kinds  # the check is not vacuous
    ran = set()
    run = monotones._run

    def recorded(schedule, frames, gap_tol):
        ran.update(op[0] for op in schedule.ops)
        return run(schedule, frames, gap_tol)

    monkeypatch.setattr(monotones, "_run", recorded)
    cfg = monotones.SolverConfig(restarts=2, seed=1)
    for spec, ks in [("haar:2x2x2:1", (1, 1, 1)), ("haar:3x3x3:1", (2, 2, 1)),
                     ("haar:4x4x4:1", (4, 1, 2))]:
        monotones.solve_E(catalog.resolve_state(spec), ks, cfg)
    e0 = np.eye(2, dtype=complex)[:, :1]
    monotones.objective(catalog.resolve_state("w"), (e0, e0, np.eye(2)))
    assert [k for k in kinds if getattr(monotones, k) not in ran] == []


VERDICT_CALLERS = {
    "_profile": {"_class_rows"},
    "_confirm_low_side": {"_class_rows"},
    "escalate": {"_confirm_low_side"},
}


def _referrers(path: Path, names) -> dict[str, set[str]]:
    """Name -> the innermost functions (or ``<module>``) that refer to it."""
    found = {name: set() for name in names}

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Name) and node.id in found:
            found[node.id].add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return found


def _trust_helpers(path: Path) -> list[str]:
    return [node.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and "trust" in node.name]


def test_the_verdicts_have_one_row_path():
    assert _referrers(LOCC, VERDICT_CALLERS) == VERDICT_CALLERS
    assert _trust_helpers(MONOTONES) == []
    assert _trust_helpers(LOCC)  # the check is not vacuous


def test_the_check_sees_a_second_row_path(tmp_path):
    planted = tmp_path / "m.py"
    planted.write_text(
        "def _class_rows():\n"
        "    return _profile(), _confirm_low_side()\n"
        "\n"
        "def _confirm_low_side():\n"
        "    return escalate()\n"
        "\n"
        "def slocc_bound():\n"
        "    values = _profile()\n"
        "    return [escalate for _ in values]\n"
        "\n"
        "def result_is_trusted(result, cfg):\n"
        "    return True\n"
        "\n"
        "profile = _confirm_low_side\n")
    assert _referrers(planted, VERDICT_CALLERS) == {
        "_profile": {"_class_rows", "slocc_bound"},
        "_confirm_low_side": {"_class_rows", "<module>"},
        "escalate": {"_confirm_low_side", "slocc_bound"},
    }
    assert _trust_helpers(planted) == ["result_is_trusted"]


SWEEP_RULE = "_swept_parties"
SWEEP_RULE_READERS = {"monotones.py": {"solve_E"}, "locc.py": {"import", "_rank_classes"}}


def _rule_readers(paths) -> dict[str, set[str]]:
    """Module file -> where it reaches the rule: the innermost functions (or
    ``<module>``) that name it or read it as an attribute, and ``import``
    (``import as <name>`` under another name) for each import of it."""
    readers = {}
    for path in paths:
        found = set()

        def visit(node: ast.AST, function: str) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if (isinstance(node, ast.Name) and node.id == SWEEP_RULE
                    or isinstance(node, ast.Attribute) and node.attr == SWEEP_RULE):
                found.add(function)
            if isinstance(node, ast.alias) and node.name == SWEEP_RULE:
                found.add("import" if node.asname in (None, SWEEP_RULE)
                          else f"import as {node.asname}")
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
        if found:
            readers[path.name] = found
    return readers


def test_one_rule_picks_the_swept_parties():
    assert _rule_readers(sorted(SRC.glob("*.py"))) == SWEEP_RULE_READERS
    assert callable(getattr(monotones, SWEEP_RULE))  # the check is not vacuous


def test_the_check_sees_a_second_sweep_rule(tmp_path):
    (tmp_path / "monotones.py").write_text(
        "def solve_E(dims, ks):\n"
        "    return _swept_parties(dims, ks)\n")
    (tmp_path / "locc.py").write_text(
        "from .monotones import _swept_parties\n"
        "\n"
        "def _rank_classes(dims, ks):\n"
        "    return _swept_parties(dims, ks)\n"
        "\n"
        "def _profile(dims, ks):\n"
        "    _, restricted = _swept_parties(dims, ks)\n"
        "    return restricted\n")
    (tmp_path / "oracle.py").write_text(
        "from . import monotones\n"
        "from .monotones import _swept_parties as rule\n"
        "\n"
        "SKIP = monotones._swept_parties\n"
        "\n"
        "def sample_E(dims, ks):\n"
        "    return rule(dims, ks)\n")
    assert _rule_readers(sorted(tmp_path.glob("*.py"))) == {
        "monotones.py": {"solve_E"},
        "locc.py": {"import", "_rank_classes", "_profile"},
        "oracle.py": {"import as rule", "<module>"},
    }
