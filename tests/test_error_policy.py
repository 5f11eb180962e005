"""Every contract violation raises a typed ``EntmonoError`` (README, aim 3).

``EntmonoError`` is itself a ``ValueError``, so a bare ``raise ValueError``
in the package is an error that callers and the CLI cannot tell apart from
an unrelated crash; it belongs in a subclass from ``entmono.errors``.

Every integer argument goes through the one check ``states._integer``, so
``states.py`` is the only module that reaches ``numbers.Integral``.
"""

import ast
import os
from pathlib import Path

import numpy as np
import pytest

from entmono import catalog
from entmono.errors import (
    BadDimension,
    BadGrouping,
    BadParameter,
    BadPartySet,
    BadRank,
    NonUnitary,
    SumMismatch,
)
from entmono.invariants import local_unitary_invariance_check, tangle
from entmono.locc import (RankItem, compare_dlocc, copy_ratio_feasibility, default_rank_items,
                          slocc_bound)
from entmono.monotones import (
    SolverConfig,
    bipartite_E,
    coarse_grain,
    majorizes,
    nielsen_E,
    objective,
    solve_E,
    symmetric_monotones,
    trace_power_invariants,
)
from entmono.oracle import sample_E
from entmono.rng import haar_random_frame, haar_random_state, stream_rng
from entmono.states import (
    DensityOp,
    PartyGrouping,
    StateTensor,
    apply_local_unitaries,
    apply_unilocal_kraus,
    odot,
    partial_trace,
    pure_density,
    reduced_density,
    save_state,
    schmidt_values,
    squared_norm,
    state_to_dict,
)

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


def _integral_users(src: Path) -> list[str]:
    """Where a module other than states.py imports or reads numbers.Integral."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "states.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "numbers":
                hit = any(alias.name in ("Integral", "*") for alias in node.names)
            else:
                hit = isinstance(node, ast.Attribute) and node.attr == "Integral"
            if hit:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_states_checks_for_integers():
    found = _integral_users(SRC)
    assert not found, "numbers.Integral outside states.py at:\n" + "\n".join(found)


def test_the_check_sees_a_second_integer_check(tmp_path):
    (tmp_path / "states.py").write_text("from numbers import Integral\n")
    (tmp_path / "m.py").write_text(
        "import numbers\nfrom numbers import Real\nfrom numbers import Integral as I\n"
        "from numbers import *\n\ndef f(x):\n    return isinstance(x, numbers.Integral)\n")
    assert _integral_users(tmp_path) == ["m.py:3", "m.py:4", "m.py:7"]


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


W = catalog.w()
RHO = reduced_density(W, [0])
I2 = np.eye(2)


@pytest.mark.parametrize("error, call", [
    (BadParameter, lambda: SolverConfig(max_iters=1.5)),
    (BadParameter, lambda: SolverConfig(restarts=2.5)),
    (BadParameter, lambda: SolverConfig(seed=1.5)),
    (BadParameter, lambda: SolverConfig(tol="x")),
    (BadParameter, lambda: copy_ratio_feasibility(catalog.resolve_state("ghz"),
                                                  catalog.resolve_state("w"), ["I4_1"], cmax=2.5)),
    (BadParameter, lambda: local_unitary_invariance_check("I6", catalog.resolve_state("ghz"),
                                                          trials=2.5)),
    (BadParameter, lambda: sample_E(catalog.resolve_state("w"), (1, 1, 1), 2.5)),
    (BadParameter, lambda: sample_E(W, (1, 1, 1), 4, seed=1.5)),
    (BadParameter, lambda: haar_random_state((2, 2), 1.5)),
    (BadParameter, lambda: stream_rng(1.5)),
    (BadParameter, lambda: stream_rng(0, True)),
    (BadRank, lambda: haar_random_frame(3, 1.5, 0)),
    (BadDimension, lambda: haar_random_frame(2.5, 1, 0)),
    (BadRank, lambda: solve_E(W, (1.5, 1, 1))),
    (BadRank, lambda: solve_E(W, (True, 1, 1))),
    (BadRank, lambda: compare_dlocc(W, W, [RankItem(None, (1.5, 1, 1))])),
    (BadRank, lambda: bipartite_E(W, PartyGrouping.split((0,), 3), 1.5, 1)),
    (BadDimension, lambda: StateTensor((2.5, 2), np.ones(4))),
    (BadDimension, lambda: DensityOp((True, 4), np.eye(4))),
    (BadDimension, lambda: default_rank_items((2.5, 2))),
    (BadPartySet, lambda: reduced_density(W, [0.7])),
    (BadPartySet, lambda: partial_trace(pure_density(W), [0.5])),
    (BadPartySet, lambda: apply_unilocal_kraus(W, 0.5, [I2])),
    (BadPartySet, lambda: apply_unilocal_kraus(W, True, [I2])),
    (BadGrouping, lambda: PartyGrouping.split((0,), 2.5)),
    (BadGrouping, lambda: PartyGrouping.trivial(2.5)),
    (BadGrouping, lambda: PartyGrouping(((0,), (True,)))),
    (BadParameter, lambda: trace_power_invariants(RHO, 1.5)),
    (BadParameter, lambda: trace_power_invariants(RHO, -1)),
    (BadParameter, lambda: symmetric_monotones(RHO, 1.5)),
    (BadParameter, lambda: symmetric_monotones(RHO, -1)),
    (BadParameter, lambda: catalog.dicke(3, 5)),
    (BadParameter, lambda: catalog.dicke(3, -1)),
    (BadParameter, lambda: catalog.ghz(1.5)),
    (BadParameter, lambda: catalog.w(1.5)),
    (BadParameter, lambda: catalog.ghz(1)),
], ids=["max_iters", "restarts", "seed", "tol", "cmax", "trials", "samples",
        "sample_E_seed", "haar_state_seed", "stream_rng_seed", "stream_rng_stream",
        "frame_rank", "frame_dim", "solve_E_float", "solve_E_bool", "compare_dlocc",
        "bipartite_E", "StateTensor", "DensityOp", "default_rank_items",
        "reduced_density", "partial_trace", "kraus_float", "kraus_bool", "split",
        "trivial", "grouping_bool", "trace_powers_float", "trace_powers_negative",
        "symmetric_float", "symmetric_negative", "dicke_k_high", "dicke_k_negative",
        "ghz_float", "w_float", "ghz_one"])
def test_non_integer_counts_raise_a_typed_error(error, call):
    # a float count reached range() or SeedSequence and raised a bare
    # TypeError, and a non-real tol failed its own comparison the same way;
    # int() coercion turned 1.5 or True into a valid index, rank or seed
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call", [
    lambda: compare_dlocc(pure_density(W), W),
    lambda: compare_dlocc(W, None),
    lambda: slocc_bound(pure_density(W), W),
    lambda: copy_ratio_feasibility(pure_density(W), W, ["I2"]),
    lambda: solve_E(pure_density(W), (1, 1, 1)),
    lambda: odot(pure_density(W), W),
    lambda: odot(W, pure_density(W)),
    lambda: reduced_density(pure_density(W), [0]),
    lambda: schmidt_values(pure_density(W), PartyGrouping.split((0,), 3)),
    lambda: nielsen_E(pure_density(W), PartyGrouping.split((0,), 3)),
    lambda: bipartite_E(pure_density(W), PartyGrouping.split((0,), 3), 1, 1),
    lambda: apply_local_unitaries(pure_density(W), [I2] * 3),
    lambda: apply_unilocal_kraus(pure_density(W), 0, [I2]),
    lambda: squared_norm(pure_density(W)),
    lambda: state_to_dict(pure_density(W)),
    lambda: save_state(pure_density(W), os.devnull),
    lambda: pure_density(pure_density(W)),
    lambda: objective(pure_density(W), [I2] * 3),
    lambda: coarse_grain(pure_density(W), PartyGrouping.split((0,), 3)),
    lambda: sample_E(pure_density(W), (1, 1, 1), 4),
    lambda: tangle(pure_density(W)),
], ids=["compare_density", "compare_none", "slocc_density", "copy_ratio_density",
        "solve_density", "odot_density_a", "odot_density_b", "reduced_density",
        "schmidt_density", "nielsen_density", "bipartite_density", "unitaries_density",
        "kraus_density", "squared_norm_density", "to_dict_density", "save_density",
        "pure_density_density", "objective_density", "coarse_grain_density",
        "sample_E_density", "tangle_density"])
def test_a_pure_state_api_names_the_wrong_type(call):
    # each used to end in an AttributeError on `.amps`, `.dims`, `.tensor`
    # or `.label` (the tangle raised its own TypeError message)
    with pytest.raises(TypeError, match="expected a StateTensor, got (DensityOp|NoneType)"):
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
