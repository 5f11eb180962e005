"""Text DSL for polynomial-invariant contractions and its evaluator.

Grammar::

    expr   := factor ('*' factor)*
    factor := ('psi' | 'psi*' | 'delta' | 'eps') '[' ident (',' ident)* ']'

Whitespace is insignificant; identifiers are alphanumeric.  A ``psi`` /
``psi*`` factor has one index per party (position = party); ``delta`` and
``eps`` take exactly two indices, and every index name must occur exactly
twice across the whole expression.  ``eps`` is the two-dimensional
antisymmetric tensor (eps_01 = 1, eps_10 = -1), so it may only bind
dimension-2 indices.

Example -- the quadratic norm invariant::

    psi[i,j,k] * psi*[i,j,k]

``eval_contraction`` contracts every invariant of the package, on a pure
``StateTensor`` or a ``DensityOp`` (its docstring gives the mixed-state rule).
"""

from __future__ import annotations

import functools
import itertools
import re
import string
import warnings
from dataclasses import dataclass
from math import isfinite, prod
from typing import Callable, Iterable

import numpy as np

from .errors import (
    ContractionSyntaxError,
    DegreeImbalanceError,
    DegreeImbalanceWarning,
    DimensionMismatch,
    EpsDimensionError,
    IndexArityError,
    SlotArityError,
    ValueOverflow,
)
from .states import DensityOp, StateTensor

PSI = "psi"
PSI_CONJ = "psi*"
DELTA = "delta"
EPSILON = "eps"

REAL_TOL = 1e-9  # imaginary part, relative to max(|value|, ||psi||^n)
_EPS_TENSOR = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)

# a factor head, then all up to the next bracket: the indices and any ']'
_FACTOR_RE = re.compile(r"\s*(psi(?:\s*\*)?|delta|eps)\s*\[([^\[\]]*)(\]?)\s*")
_INDEX_RE = re.compile(r"\s*[A-Za-z0-9]+\s*")


@dataclass(frozen=True)
class Factor:
    kind: str
    indices: tuple[str, ...]


@dataclass(frozen=True)
class ContractionExpr:
    factors: tuple[Factor, ...]
    slot_count: int
    balanced: bool

    def __str__(self) -> str:
        return format_contraction(self)


def format_contraction(expr: ContractionExpr) -> str:
    """Canonical text form; reparses to an identical AST."""
    return " * ".join(f"{f.kind}[{','.join(f.indices)}]" for f in expr.factors)


def _syntax_error(text: str, at: int, expected: str) -> ContractionSyntaxError:
    got = repr(text[at:at + 8]) if at < len(text) else "end of input"
    return ContractionSyntaxError(f"expected {expected} at position {at}, got {got}")


def _parse_factors(text: str) -> list[Factor]:
    """One factor per step, each followed by ``*`` or the end of the input."""
    factors, pos = [], 0
    while True:
        m = _FACTOR_RE.match(text, pos)
        if m is None:
            at = len(text) - len(text[pos:].lstrip())
            raise _syntax_error(text, at, "psi, psi*, delta or eps")
        head, body, close = m.groups()
        indices, at = body.split(","), m.start(2)
        for ix in indices:
            if not _INDEX_RE.fullmatch(ix):
                at += len(ix) - len(ix.lstrip())
                raise ContractionSyntaxError(f"bad index name {ix.strip()!r} at position {at}")
            at += len(ix) + 1
        if not close:
            raise _syntax_error(text, m.end(2), "']'")
        kind = PSI_CONJ if head.endswith("*") else head
        factors.append(Factor(kind, tuple(ix.strip() for ix in indices)))
        pos = m.end()
        if pos == len(text):
            return factors
        if text[pos] != "*":
            raise _syntax_error(text, pos, "'*'")
        pos += 1


def parse_contraction(text: str) -> ContractionExpr:
    """Parse the DSL text and validate the structural invariants.

    Raises ContractionSyntaxError / SlotArityError / IndexArityError.  An
    unequal number of psi and psi* factors is legal but warns
    (DegreeImbalanceWarning), since such contractions are generally not
    full-unitary-group invariants.
    """
    factors = _parse_factors(text)

    slot_count = 0
    for f in factors:
        if f.kind in (PSI, PSI_CONJ):
            if slot_count == 0:
                slot_count = len(f.indices)
            elif len(f.indices) != slot_count:
                raise SlotArityError(
                    f"{f.kind} factor has {len(f.indices)} indices, "
                    f"expected {slot_count}"
                )
        elif len(f.indices) != 2:
            raise SlotArityError(
                f"{f.kind} factor must have exactly 2 indices, got {len(f.indices)}"
            )

    counts: dict[str, int] = {}
    for f in factors:
        for ix in f.indices:
            counts[ix] = counts.get(ix, 0) + 1
    for ix, c in counts.items():
        if c != 2:
            raise IndexArityError(f"index {ix!r} occurs {c} times, must occur exactly 2")

    n_psi = sum(f.kind == PSI for f in factors)
    n_conj = sum(f.kind == PSI_CONJ for f in factors)
    balanced = n_psi == n_conj
    if not balanced:
        warnings.warn(
            f"contraction has {n_psi} psi but {n_conj} psi* factors; "
            "it is not a U(d)-invariant polynomial as written",
            DegreeImbalanceWarning,
            stacklevel=2,
        )
    return ContractionExpr(tuple(factors), slot_count, balanced)


@dataclass(frozen=True)
class InvariantValue:
    value: complex
    imag_warning: bool


def _union_find(pairs: Iterable[tuple[str, ...]]) -> Callable[[str], str]:
    """Root finder of the equivalence classes the index pairs generate."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    return find


def _purification(state) -> np.ndarray:
    """psi[e, i_0, ..., i_{N-1}] with sum_e psi psi^* = the state: one
    environment value for a pure state, psi[e] = sqrt(w_e) v_e for a
    DensityOp's eigenpairs (computed once per operator)."""
    if isinstance(state, StateTensor):
        return state.tensor()[np.newaxis]
    if isinstance(state, DensityOp):
        return state._purification
    raise TypeError(f"expected StateTensor or DensityOp, got {type(state).__name__}")


@functools.lru_cache(maxsize=256)
def _compile(expr: ContractionExpr, shape: tuple[int, ...]) -> tuple[str, tuple[str, ...], tuple]:
    """einsum subscripts, operand kinds and contraction path of ``expr`` on
    a purification of this shape (environment axis first).

    This is the one dimension check of a contraction.  Delta-joined indices
    merge into one einsum index, which takes the dimension of its psi/psi*
    slots; an index on an eps factor has dimension 2; and every index must
    get a dimension, which fails only for a loop of deltas alone.
    """
    same = _union_find(f.indices for f in expr.factors if f.kind == DELTA)
    pairs = {PSI: 0, PSI_CONJ: 0}
    dim: dict[str, int] = {}
    rows, kinds, eps = [], [], []
    for f in expr.factors:
        if f.kind == DELTA:
            continue
        row = [same(ix) for ix in f.indices]
        if f.kind in pairs:
            for ix, key, d in zip(f.indices, row, shape[1:]):
                if dim.setdefault(key, d) != d:
                    raise DimensionMismatch(
                        f"index {ix!r} is bound to dimensions {dim[key]} and {d} at once")
            row.insert(0, ("env", pairs[f.kind]))
            pairs[f.kind] += 1
        else:
            eps += zip(f.indices, row)
        rows.append(row)
        kinds.append(f.kind)
    # after every psi slot is pinned: an eps on a slot of dimension d != 2 is an eps error
    for ix, key in eps:
        if dim.setdefault(key, 2) != 2:
            raise EpsDimensionError(f"eps index {ix!r} is bound to dimension {dim[key]}, need 2")
    loose = [ix for f in expr.factors if f.kind == DELTA for ix in f.indices
             if same(ix) not in dim]
    if loose:
        raise DimensionMismatch(f"cannot infer the dimension of index {loose[0]!r}")
    keys = dict.fromkeys(key for row in rows for key in row)
    if len(keys) > len(string.ascii_letters):
        raise IndexArityError(f"expression needs {len(keys)} distinct indices, at most 52")
    letter = dict(zip(keys, string.ascii_letters))
    subscripts = ",".join("".join(letter[key] for key in row) for row in rows) + "->"
    shapes = [_EPS_TENSOR.shape if kind == EPSILON else shape for kind in kinds]
    # numpy's default cap on intermediates, the largest operand, rules out
    # the psi * psi* pair intermediates and leaves one loop over all indices
    cap = max(prod(s) for s in shapes) ** 2
    dummies = [np.broadcast_to(np.zeros((), complex), s) for s in shapes]
    path, _ = np.einsum_path(subscripts, *dummies, optimize=("greedy", cap))
    return subscripts, tuple(kinds), tuple(path)


def eval_contraction(expr: ContractionExpr, state) -> InvariantValue:
    """Einstein-sum the factor product over a pure state or density operator.

    The state enters through its purification psi[e, ...]; the n-th psi and
    the n-th psi* factor share the environment index e_n, so on a DensityOp
    each such pair stands for one matrix element of rho (rows from the psi,
    columns from the psi*).  delta factors merge their two indices.
    """
    amps = _purification(state)
    if expr.slot_count != amps.ndim - 1:
        raise DimensionMismatch(
            f"expression binds {expr.slot_count} parties, state has {amps.ndim - 1}"
        )
    if not expr.balanced and isinstance(state, DensityOp):
        raise DegreeImbalanceError(
            "a contraction with unequal numbers of psi and psi* factors has no "
            "value on a density operator"
        )
    subscripts, kinds, path = _compile(expr, amps.shape)
    tensor = {PSI: amps, PSI_CONJ: amps.conj(), EPSILON: _EPS_TENSOR}
    value = complex(np.einsum(subscripts, *(tensor[k] for k in kinds), optimize=path))
    # round-off in the imaginary part scales with the summands, whose size
    # is the state's weight to the number of psi/psi* pairs
    degree = kinds.count(PSI)
    try:
        scale = max(abs(value), float(np.vdot(amps, amps).real) ** degree)
    except OverflowError:
        scale = float("inf")
    if not isfinite(scale):
        raise ValueOverflow(
            f"the degree-{degree} contraction overflows: its value or the state's "
            f"weight to the power {degree} exceeds the float range")
    return InvariantValue(value, expr.balanced and abs(value.imag) > REAL_TOL * scale)


def expand_eps_square(expr: ContractionExpr) -> list[tuple[int, ContractionExpr]]:
    """expr * conj(expr) as 2**k signed eps-free terms for k eps factors.

    conj(expr) is a renamed copy with psi and psi* swapped, and each eps with
    its copy becomes eps[a,b] eps[A,B] = delta[a,A] delta[b,B] - delta[a,B]
    delta[b,A].  If every eps joins one party slot, every term is simple.
    """
    flip = {PSI: PSI_CONJ, PSI_CONJ: PSI}

    def rename(f: Factor, side: str) -> tuple[str, ...]:
        return tuple(side + ix for ix in f.indices)

    plain = [f for f in expr.factors if f.kind != EPSILON]
    base = tuple([Factor(f.kind, rename(f, "a")) for f in plain]
                 + [Factor(flip.get(f.kind, f.kind), rename(f, "b")) for f in plain])
    eps = [(rename(f, "a"), rename(f, "b")) for f in expr.factors if f.kind == EPSILON]
    terms = []
    for swaps in itertools.product((False, True), repeat=len(eps)):
        deltas = []
        for ((a, b), (ca, cb)), swap in zip(eps, swaps):
            if swap:
                ca, cb = cb, ca
            deltas += [Factor(DELTA, (a, ca)), Factor(DELTA, (b, cb))]
        term = ContractionExpr(base + tuple(deltas), expr.slot_count, True)
        terms.append(((-1) ** sum(swaps), term))
    return terms


def is_simple_form(expr: ContractionExpr) -> tuple[bool, str | None]:
    """Check the multiplicativity-friendly normal form.

    Simple means: contractions use delta only (explicitly or by direct
    index repetition), each contraction joins a psi index to a psi* index,
    and the joined indices sit at the same party slot.  Returns (ok,
    first violation or None).
    """
    # each index's (kind, party slot) sites; only eps returns before the joins
    sites: dict[str, list[tuple[str, int]]] = {}
    for f in expr.factors:
        if f.kind == EPSILON:
            return False, f"factor eps[{','.join(f.indices)}] is not a delta contraction"
        for slot, ix in enumerate(f.indices):
            sites.setdefault(ix, []).append((f.kind, slot))
    psi_site = {ix: next((s for s in occ if s[0] != DELTA), None) for ix, occ in sites.items()}
    # a delta joins the psi-type sites of its two indices, any other index its own two
    joins = [(f"delta[{a},{b}]", psi_site[a], psi_site[b])
             for a, b in (f.indices for f in expr.factors if f.kind == DELTA)]
    joins += [(f"index {ix!r}", *occ) for ix, occ in sites.items()
              if all(kind != DELTA for kind, _ in occ)]
    for name, sa, sb in joins:
        if sa is None or sb is None:
            return False, f"{name} does not reach psi-type factors directly"
        if {sa[0], sb[0]} != {PSI, PSI_CONJ}:
            return False, f"{name} joins {sa[0]} to {sb[0]}, need psi with psi*"
        if sa[1] != sb[1]:
            return False, f"{name} joins party slot {sa[1]} to slot {sb[1]}"
    return True, None
