"""Every contract violation raises a typed ``EntmonoError`` (README, aim 3).

``EntmonoError`` is itself a ``ValueError``, so a bare ``raise ValueError``
in the package is an error that callers and the CLI cannot tell apart from
an unrelated crash; it belongs in a subclass from ``entmono.errors``.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from entmono import catalog
from entmono.errors import BadParameter, NonUnitary, SumMismatch
from entmono.invariants import local_unitary_invariance_check
from entmono.locc import copy_ratio_feasibility
from entmono.monotones import SolverConfig, majorizes, objective
from entmono.oracle import sample_E
from entmono.rng import haar_random_frame, haar_random_state, stream_rng
from entmono.states import apply_local_unitaries

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


@pytest.mark.parametrize("call", [
    lambda: SolverConfig(max_iters=1.5),
    lambda: SolverConfig(restarts=2.5),
    lambda: SolverConfig(seed=1.5),
    lambda: SolverConfig(tol="x"),
    lambda: copy_ratio_feasibility(catalog.resolve_state("ghz"), catalog.resolve_state("w"),
                                   ["I4_1"], cmax=2.5),
    lambda: local_unitary_invariance_check("I6", catalog.resolve_state("ghz"), trials=2.5),
    lambda: sample_E(catalog.resolve_state("w"), (1, 1, 1), 2.5),
], ids=["max_iters", "restarts", "seed", "tol", "cmax", "trials", "samples"])
def test_non_integer_counts_raise_a_typed_error(call):
    # a float count reached range() or SeedSequence and raised a bare
    # TypeError, and a non-real tol failed its own comparison the same way
    with pytest.raises(BadParameter):
        call()


# a NaN deviation compares False against any tolerance, so each check must
# be written to fail, not pass, on it


def test_a_nan_frame_is_not_orthonormal():
    nan = np.full((2, 1), np.nan)
    with pytest.raises(NonUnitary):
        objective(catalog.resolve_state("w"), (nan, np.eye(2), np.eye(2)))


def test_a_nan_matrix_is_not_unitary():
    nan = np.full((2, 2), np.nan)
    with pytest.raises(NonUnitary):
        apply_local_unitaries(catalog.resolve_state("w"), [nan, np.eye(2), np.eye(2)])


def test_a_nan_weight_has_no_total():
    with pytest.raises(SumMismatch):
        majorizes([np.nan, 1], [0.5, 0.5])
