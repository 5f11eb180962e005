"""Built-in polynomial local-unitary invariants for three-party states.

Every value is a contraction evaluated by ``eval_contraction``: the
``BUILTIN_PATTERN_TEXT`` built-ins on pure states and density operators
alike, and the residual tangle ``TANGLE_TEXT`` with its squared expansion.

An invariant with n psi/psi* factors is homogeneous of degree n in the
amplitudes, so the property checks below judge it relative to the values
they compare, or to ||psi||^n where a value may vanish.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .contractions import (
    PSI,
    PSI_CONJ,
    REAL_TOL,
    ContractionExpr,
    eval_contraction,
    expand_eps_square,
    is_simple_form,
    parse_contraction,
)
from .errors import BadParameter, DegreeImbalanceWarning, NotSimpleForm, PartyCountUnsupported
from .rng import haar_random_unitary, stream_rng
from .states import (
    DensityOp,
    StateTensor,
    _check_pure,
    _integer,
    apply_local_unitaries,
    odot,
    squared_norm,
)

MULTIPLICATIVITY_TOL = 1e-9  # |I(a (.) b) - I(a) I(b)|, relative to the larger
LU_TOL = 1e-9  # drift under local unitaries, relative to max(|I|, ||psi||^n)

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

# parsed once at import; the tangle is psi-only by design, since the
# hyperdeterminant is an SL(2)^3 invariant
_BUILTINS = {name: parse_contraction(text) for name, text in BUILTIN_PATTERN_TEXT.items()}
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DegreeImbalanceWarning)
    _TANGLE = parse_contraction(TANGLE_TEXT)


def builtin_patterns() -> dict[str, ContractionExpr]:
    """Parsed contraction expressions for the built-in invariants."""
    return dict(_BUILTINS)


@functools.cache
def _tangle_square_terms() -> list[tuple[int, ContractionExpr]]:
    return expand_eps_square(_TANGLE)


def _builtin_value(name: str, state) -> float:
    if isinstance(state, (StateTensor, DensityOp)) and state.n_parties != 3:
        raise PartyCountUnsupported(
            f"built-in invariants are defined for 3 parties, got {state.n_parties}"
        )
    out = eval_contraction(_BUILTINS[name], state)
    if out.imag_warning:
        warnings.warn(
            f"{name} has imaginary part {out.value.imag:.3g}; returning the real part"
        )
    return float(out.value.real)


def builtin_invariants(state) -> dict[str, float]:
    """I2, I4_1..I4_4 and I6 for a three-party pure state or density operator."""
    return {name: _builtin_value(name, state) for name in BUILTIN_PATTERN_TEXT}


def _check_three_qubits(state) -> None:
    _check_pure(state)
    if state.dims != (2, 2, 2):
        raise PartyCountUnsupported(
            f"the residual tangle needs three qubits, got dims {list(state.dims)}"
        )


def tangle(state: StateTensor) -> float:
    """Residual tangle: twice the modulus of the epsilon-contracted quartic."""
    _check_three_qubits(state)
    return 2.0 * abs(eval_contraction(_TANGLE, state).value)


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


def _multiplicativity(merged: complex, product: complex) -> tuple[float, float, bool]:
    """(deviation, relative deviation, passed) of I(a (.) b) against I(a) I(b)."""
    dev = abs(merged - product)
    scale = max(abs(merged), abs(product))
    rel = dev / scale if scale > 0 else 0.0
    return dev, rel, rel <= MULTIPLICATIVITY_TOL


def multiplicativity_check(
    expr: ContractionExpr, a: StateTensor, b: StateTensor
) -> MultiplicativityReport:
    """Evaluate a simple-form contraction on a, b and the merged state a (.) b
    and compare the merged value against the product."""
    ok, why = is_simple_form(expr)
    if not ok:
        raise NotSimpleForm(why)
    va = eval_contraction(expr, a).value
    vb = eval_contraction(expr, b).value
    vm = eval_contraction(expr, odot(a, b)).value
    return MultiplicativityReport(va, vb, vm, *_multiplicativity(vm, va * vb))


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
) -> InvarianceReport:
    """Evaluate ``target`` on random local-unitary transforms of the state.

    ``target`` may be a ContractionExpr, a builtin name ("I6", "tangle"),
    contraction text, or any callable StateTensor -> number.  The largest
    deviation passes when it is at most ``LU_TOL`` times
    max(|baseline|, ||psi||^n), n the target's number of psi/psi* factors
    (0 for a callable).
    """
    if _integer(trials, 1) is None:
        raise BadParameter(f"trials must be an integer >= 1, got {trials!r}")
    fn, degree = _as_evaluator(target)
    base = fn(state)
    worst = 0.0
    for trial in range(trials):
        rng = stream_rng(seed, trial)
        units = [haar_random_unitary(d, rng) for d in state.dims]
        moved = apply_local_unitaries(state, units)
        worst = max(worst, abs(fn(moved) - base))
    scale = max(abs(base), squared_norm(state) ** (degree / 2))
    return InvarianceReport(float(np.real(base)), float(worst), trials, worst <= LU_TOL * scale)


def _degree(expr: ContractionExpr) -> int:
    return sum(f.kind in (PSI, PSI_CONJ) for f in expr.factors)


def _resolve_invariant(spec) -> tuple[str, ContractionExpr]:
    """(name, expression) of an invariant given as a ContractionExpr, a
    built-in name or contraction text.  A string with no ``[`` has no
    factor, so it must name a built-in; any other string is parsed."""
    if isinstance(spec, ContractionExpr):
        return str(spec), spec
    if isinstance(spec, str):
        if "[" in spec:
            return spec, parse_contraction(spec)
        if spec in BUILTIN_PATTERN_TEXT:
            return spec, _BUILTINS[spec]
        raise KeyError(f"unknown invariant name {spec!r}")
    raise TypeError(f"invariant spec must be text or ContractionExpr, not {type(spec).__name__}")


def _as_evaluator(target) -> tuple[Callable[[StateTensor], complex], int]:
    """(evaluator, degree in the amplitudes) of an LU-check target."""
    if callable(target):
        return target, 0
    if isinstance(target, str) and target == "tangle":
        return tangle, _degree(_TANGLE)
    name, expr = _resolve_invariant(target)
    if name in BUILTIN_PATTERN_TEXT:
        return (lambda s: _builtin_value(name, s)), _degree(expr)
    return (lambda s: eval_contraction(expr, s).value), _degree(expr)
