"""Built-in polynomial local-unitary invariants for three-party states.

Every value is a contraction evaluated by ``eval_contraction``: the
``BUILTIN_PATTERN_TEXT`` built-ins on pure states and density operators
alike, and the residual tangle ``TANGLE_TEXT`` with its squared expansion.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .contractions import (
    REAL_TOL,
    ContractionExpr,
    eval_contraction,
    expand_eps_square,
    is_simple_form,
    parse_contraction,
)
from .errors import DegreeImbalanceWarning, NotSimpleForm, PartyCountUnsupported
from .rng import haar_random_unitary, stream_rng
from .states import DensityOp, StateTensor, apply_local_unitaries, odot

# Built-ins as contractions (party slot = index position).  On a DensityOp
# they give I4_p = tr r_p^2 and I6 = tr[(r_0 x 1)(r_1 x 1)(r_2 x 1)], with r_p
# the operator with party p traced out, lifted by the identity on party p.
BUILTIN_PATTERN_TEXT: Mapping[str, str] = {
    "I2": "psi[i,j,k] * psi*[i,j,k]",
    "I4_1": "psi[i,j,k] * psi*[i,m,n] * psi[p,m,n] * psi*[p,j,k]",
    "I4_2": "psi[j,i,k] * psi*[m,i,n] * psi[m,p,n] * psi*[j,p,k]",
    "I4_3": "psi[j,k,i] * psi*[m,n,i] * psi[m,n,p] * psi*[j,k,p]",
    "I4_4": "psi[i,j,k] * psi*[i,j,k] * psi[m,n,p] * psi*[m,n,p]",
    "I6": "psi[i,j,k] * psi*[i,m,n] * psi[p,q,n] * psi*[r,q,k] "
          "* psi[r,m,s] * psi*[p,j,s]",
}

# Residual tangle of three qubits (Coffman-Kundu-Wootters): Cayley's
# hyperdeterminant written as psi_{ijk} psi_{i'j'm} psi_{npk'} psi_{n'p'm'}
# with every primed pair joined by eps.
TANGLE_TEXT = (
    "psi[i,j,k] * psi[i2,j2,m] * psi[n,p,k2] * psi[n2,p2,m2] * eps[i,i2]"
    " * eps[j,j2] * eps[k,k2] * eps[m,m2] * eps[n,n2] * eps[p,p2]"
)


@functools.cache
def _parsed_builtins() -> dict[str, ContractionExpr]:
    return {name: parse_contraction(text) for name, text in BUILTIN_PATTERN_TEXT.items()}


def builtin_patterns() -> dict[str, ContractionExpr]:
    """Parsed contraction expressions for the built-in invariants."""
    return dict(_parsed_builtins())


@functools.cache
def _tangle_expr() -> ContractionExpr:
    # psi-only by design: the hyperdeterminant is an SL(2)^3 invariant
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeImbalanceWarning)
        return parse_contraction(TANGLE_TEXT)


@functools.cache
def _tangle_square_terms() -> list[tuple[int, ContractionExpr]]:
    return expand_eps_square(_tangle_expr())


def _builtin_value(name: str, state) -> float:
    if isinstance(state, (StateTensor, DensityOp)) and state.n_parties != 3:
        raise PartyCountUnsupported(
            f"built-in invariants are defined for 3 parties, got {state.n_parties}"
        )
    out = eval_contraction(_parsed_builtins()[name], state)
    if out.imag_warning:
        warnings.warn(
            f"{name} has imaginary part {out.value.imag:.3g}; returning the real part"
        )
    return float(out.value.real)


def builtin_invariants(state) -> dict[str, float]:
    """I2, I4_1..I4_4 and I6 for a three-party pure state or density operator."""
    return {name: _builtin_value(name, state) for name in BUILTIN_PATTERN_TEXT}


def _check_three_qubits(state) -> None:
    if not isinstance(state, StateTensor):
        raise TypeError(f"the residual tangle needs a StateTensor, got {type(state).__name__}")
    if state.dims != (2, 2, 2):
        raise PartyCountUnsupported(
            f"the residual tangle needs three qubits, got dims {list(state.dims)}"
        )


def tangle(state: StateTensor) -> float:
    """Residual tangle: twice the modulus of the epsilon-contracted quartic."""
    _check_three_qubits(state)
    return 2.0 * abs(eval_contraction(_tangle_expr(), state).value)


def tangle_squared_expanded(state: StateTensor) -> float:
    """Squared tangle via the 64-term delta expansion of the paired epsilons.

    Agrees with ``tangle(state)**2`` up to floating-point error; the point
    of the expansion is that every term is a simple-form contraction.
    """
    _check_three_qubits(state)
    values = [sign * eval_contraction(term, state).value
              for sign, term in _tangle_square_terms()]
    value = 4.0 * sum(values)
    if abs(value.imag) > REAL_TOL * 4.0 * sum(abs(v) for v in values):
        warnings.warn(f"squared-tangle expansion has imaginary part {value.imag:.3g}")
    return float(value.real)


@dataclass(frozen=True)
class MultiplicativityReport:
    value_a: complex
    value_b: complex
    value_merged: complex
    deviation: float
    relative_deviation: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "value_a": [self.value_a.real, self.value_a.imag],
            "value_b": [self.value_b.real, self.value_b.imag],
            "value_merged": [self.value_merged.real, self.value_merged.imag],
            "deviation": self.deviation,
            "relative_deviation": self.relative_deviation,
            "passed": self.passed,
        }


def multiplicativity_check(
    expr: ContractionExpr, a: StateTensor, b: StateTensor, rel_tol: float = 1e-9
) -> MultiplicativityReport:
    """Evaluate a simple-form contraction on a, b and the merged state a (.) b
    and compare the merged value against the product."""
    ok, why = is_simple_form(expr)
    if not ok:
        raise NotSimpleForm(why)
    va = eval_contraction(expr, a).value
    vb = eval_contraction(expr, b).value
    vm = eval_contraction(expr, odot(a, b)).value
    dev = abs(vm - va * vb)
    scale = max(abs(vm), abs(va * vb))
    rel = dev / scale if scale > 0 else 0.0
    return MultiplicativityReport(va, vb, vm, dev, rel, rel <= rel_tol)


@dataclass(frozen=True)
class InvarianceReport:
    baseline: float
    max_deviation: float
    trials: int
    passed: bool

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline,
            "max_deviation": self.max_deviation,
            "trials": self.trials,
            "passed": self.passed,
        }


def local_unitary_invariance_check(
    target, state: StateTensor, trials: int = 20, seed: int = 0,
    tol: float = 1e-9,
) -> InvarianceReport:
    """Evaluate ``target`` on random local-unitary transforms of the state.

    ``target`` may be a ContractionExpr, a builtin name ("I6", "tangle"),
    or any callable StateTensor -> number.
    """
    fn = _as_evaluator(target)
    base = fn(state)
    worst = 0.0
    for trial in range(trials):
        rng = stream_rng(seed, trial)
        units = [haar_random_unitary(d, rng) for d in state.dims]
        moved = apply_local_unitaries(state, units)
        worst = max(worst, abs(fn(moved) - base))
    return InvarianceReport(float(np.real(base)), float(worst), trials, worst <= tol)


def _as_evaluator(target) -> Callable[[StateTensor], complex]:
    if isinstance(target, ContractionExpr):
        return lambda s: eval_contraction(target, s).value
    if callable(target):
        return target
    if isinstance(target, str):
        if target == "tangle":
            return tangle
        if target in BUILTIN_PATTERN_TEXT:
            return lambda s: _builtin_value(target, s)
        raise KeyError(f"unknown invariant name {target!r}")
    raise TypeError(f"cannot evaluate target of type {type(target).__name__}")
