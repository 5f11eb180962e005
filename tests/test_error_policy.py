"""Every contract violation raises a typed ``EntmonoError`` (README, aim 3).

``EntmonoError`` is itself a ``ValueError``, so a bare ``raise ValueError``
in the package is an error that callers and the CLI cannot tell apart from
an unrelated crash; it belongs in a subclass from ``entmono.errors``.
"""

import ast
from pathlib import Path

import pytest

from entmono import catalog
from entmono.errors import BadParameter
from entmono.invariants import local_unitary_invariance_check
from entmono.oracle import sample_E
from entmono.rng import haar_random_frame, haar_random_state, stream_rng

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


@pytest.mark.parametrize("call", [
    lambda: haar_random_state((2, 2), -1),
    lambda: haar_random_frame(3, 2, -1),
    lambda: sample_E(catalog.resolve_state("w"), (1, 1, 1), 4, seed=-1),
    lambda: local_unitary_invariance_check("I6", catalog.resolve_state("ghz"), seed=-1),
    lambda: stream_rng(0, -1),
], ids=["haar_random_state", "haar_random_frame", "sample_E", "lu_check", "stream"])
def test_negative_seeds_raise_a_typed_error(call):
    # numpy's SeedSequence raises a bare ValueError on a negative entropy
    with pytest.raises(BadParameter):
        call()
