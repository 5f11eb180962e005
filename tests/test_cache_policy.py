"""Every memo cache in the package has a bounded size.

A ``functools.lru_cache`` states its ``maxsize`` as a positive integer,
so the memory it can hold is fixed by its line; ``functools.cache`` never
evicts and is kept to functions without arguments, which hold one value.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "entmono"


def _functools_names(tree: ast.Module) -> dict[str, str]:
    """Local name -> functools attribute, for ``from functools import ...``."""
    return {alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "functools"
            for alias in node.names}


def _functools_attr(node: ast.AST, imported: dict[str, str]) -> str | None:
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "functools"):
        return node.attr
    if isinstance(node, ast.Name):
        return imported.get(node.id)
    return None


def _bounded(call: ast.Call) -> bool:
    sizes = [k.value for k in call.keywords if k.arg == "maxsize"] + call.args[:1]
    return (len(sizes) == 1 and isinstance(sizes[0], ast.Constant)
            and type(sizes[0].value) is int and sizes[0].value > 0)


def _takes_no_arguments(fn: ast.FunctionDef) -> bool:
    a = fn.args
    return not (a.posonlyargs or a.args or a.kwonlyargs or a.vararg or a.kwarg)


def _unbounded_caches(src: Path) -> list[str]:
    bad = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = _functools_names(tree)
        parent = {id(child): node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            name = _functools_attr(node, imported)
            up = parent.get(id(node))
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if name == "lru_cache":
                if not (isinstance(up, ast.Call) and up.func is node and _bounded(up)):
                    bad.append(f"{where}: lru_cache without a positive integer maxsize")
            elif name == "cache":
                if not (isinstance(up, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and node in up.decorator_list and _takes_no_arguments(up)):
                    bad.append(f"{where}: functools.cache on a function with arguments")
    return bad


def test_memo_caches_are_bounded():
    bad = _unbounded_caches(SRC)
    assert not bad, "unbounded caches:\n" + "\n".join(bad)


def test_the_check_sees_an_unbounded_cache(tmp_path):
    (tmp_path / "m.py").write_text(
        "import functools\nfrom functools import cache, lru_cache\n\n"
        "@functools.lru_cache(maxsize=None)\ndef a(x): return x\n\n"
        "@lru_cache\ndef b(x): return x\n\n"
        "@cache\ndef c(x): return x\n\n"
        "@functools.cache\ndef d(): return 1\n\n"
        "@functools.lru_cache(maxsize=8)\ndef e(x): return x\n")
    lines = sorted(int(line.split(":")[1]) for line in _unbounded_caches(tmp_path))
    assert lines == [4, 7, 10]
