"""Party-structured pure states and density operators.

Conventions frozen for the whole package:

* parties are indexed ``0 .. N-1``;
* amplitudes are stored as a flat complex vector in C order, so the LAST
  party's index varies fastest (``amps.reshape(dims)`` is the natural
  tensor view);
* states need not be normalized -- the squared norm is the state's weight.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from math import prod
from numbers import Integral, Real
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadDimension,
    BadGrouping,
    BadPartySet,
    DimensionMismatch,
    EmptyKeepSet,
    LengthMismatch,
    NonUnitary,
    NotHermitian,
    NotPositive,
    NotTraceNonincreasing,
    PartyCountMismatch,
)

# The Hermiticity and positivity checks are relative to the operator's
# largest entry, so that they hold for c psi at every scale c.
HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10
# Unitarity and Kraus completeness compare against the identity, so they
# are dimensionless.
UNITARY_TOL = 1e-10
KRAUS_TOL = 1e-9


def _spectrum(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Least eigenvalue of m's Hermitian part, and all of them in
    decreasing order clipped at zero.

    Finite entries can still overflow the Hermitian part, or the sum of
    the eigenvalues (the operator's weight); either raises LengthMismatch.
    """
    hermitian = 0.5 * (m + m.conj().T)
    if not np.all(np.isfinite(hermitian)):
        raise LengthMismatch("the operator's Hermitian part overflows")
    w = np.linalg.eigvalsh(hermitian)
    if not np.isfinite(w.sum()):
        raise LengthMismatch("the operator's spectrum overflows")
    return float(w[0]), np.maximum(w[::-1], 0.0)


def _reduced_operator(t: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """X X^dag for X the tensor with the ``keep`` axes as rows and the
    others, ascending, as columns."""
    rest = [p for p in range(t.ndim) if p not in keep]
    x = t.transpose(tuple(keep) + tuple(rest)).reshape(prod(t.shape[p] for p in keep), -1)
    return x @ x.conj().T


def _as_dims(dims: Sequence[int]) -> tuple[int, ...]:
    out = tuple(int(d) for d in dims)
    if not out or any(d < 1 for d in out):
        raise BadDimension(f"party dimensions must all be >= 1, got {list(dims)}")
    return out


@dataclass(frozen=True)
class StateTensor:
    """Pure state of an N-party system, possibly unnormalized."""

    dims: tuple[int, ...]
    amps: np.ndarray
    label: str | None = None

    def __post_init__(self):
        dims = _as_dims(self.dims)
        amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        if amps.size != prod(dims):
            raise LengthMismatch(
                f"got {amps.size} amplitudes for dims {list(dims)} "
                f"(need {prod(dims)})"
            )
        # every solver threshold is relative to the squared norm, which is
        # not finite when an amplitude is not, and can overflow when all are
        if not np.isfinite(np.vdot(amps, amps).real):
            raise LengthMismatch("amplitudes and their squared norm must be finite")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", amps)

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per party."""
        return self.amps.reshape(self.dims)


@dataclass(frozen=True)
class DensityOp:
    """Hermitian PSD operator on a party-structured space; trace may be < 1."""

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        dims = _as_dims(self.dims)
        side = prod(dims)
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (side, side):
            raise LengthMismatch(
                f"operator shape {mat.shape} does not match dims {list(dims)}"
            )
        if not np.all(np.isfinite(mat)):
            raise LengthMismatch("operator entries must be finite")
        scale = float(np.max(np.abs(mat)))
        skew = float(np.max(np.abs(mat - mat.conj().T)))
        if skew > HERMITICITY_TOL * scale:
            raise NotHermitian(
                f"operator is not Hermitian within {HERMITICITY_TOL:g} of its "
                f"largest entry {scale:.3g} (max deviation {skew:.3g})"
            )
        least, spectrum = _spectrum(mat)
        if least < -PSD_TOL * scale:
            raise NotPositive(f"operator has negative eigenvalue {least:.3g}")
        mat = mat.copy()
        mat.setflags(write=False)
        spectrum.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "_eigenvalues", spectrum)

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    @functools.cached_property
    def _purification(self) -> np.ndarray:
        """psi[e, i_0, ..., i_{N-1}] = sqrt(w_e) v_e over the eigenpairs, with
        negative round-off eigenvalues clipped to 0; diagonalized once."""
        w, v = np.linalg.eigh(self.matrix)
        amps = (v * np.sqrt(np.clip(w, 0.0, None))).T.reshape((-1,) + self.dims)
        amps.setflags(write=False)
        return amps

    def spectrum(self) -> np.ndarray:
        """Eigenvalues in decreasing order, clipped at zero (read-only; those
        of the positivity check)."""
        return self._eigenvalues


@dataclass(frozen=True)
class PartyGrouping:
    """Ordered partition of the parties 0..N-1 into nonempty blocks."""

    blocks: tuple[tuple[int, ...], ...] = field()

    def __post_init__(self):
        blocks = tuple(tuple(int(p) for p in b) for b in self.blocks)
        flat = [p for b in blocks for p in b]
        if not blocks or any(len(b) == 0 for b in blocks):
            raise BadGrouping("blocks must be nonempty")
        if sorted(flat) != list(range(len(flat))):
            raise BadGrouping(
                f"blocks {list(blocks)} do not partition 0..{len(flat) - 1}"
            )
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def trivial(cls, n_parties: int) -> "PartyGrouping":
        return cls(tuple((p,) for p in range(n_parties)))

    @classmethod
    def split(cls, first_block: Iterable[int], n_parties: int) -> "PartyGrouping":
        """Two-block grouping: ``first_block`` versus everything else."""
        first = tuple(sorted(int(p) for p in first_block))
        rest = tuple(p for p in range(n_parties) if p not in first)
        return cls((first, rest))

    @property
    def n_parties(self) -> int:
        return sum(len(b) for b in self.blocks)

    def block_dims(self, dims: Sequence[int]) -> tuple[int, ...]:
        return tuple(prod(dims[p] for p in b) for b in self.blocks)


def _check_covers(grouping: PartyGrouping, state: StateTensor) -> None:
    if grouping.n_parties != state.n_parties:
        raise BadGrouping(
            f"grouping covers {grouping.n_parties} parties, state has {state.n_parties}"
        )


def new_state(dims: Sequence[int], amps, label: str | None = None) -> StateTensor:
    """Build a StateTensor; no normalization is applied."""
    return StateTensor(tuple(dims), amps, label)


def squared_norm(state: StateTensor) -> float:
    return float(np.vdot(state.amps, state.amps).real)


def pure_density(state: StateTensor) -> DensityOp:
    """Rank-one density operator |psi><psi| (unnormalized if the state is)."""
    return DensityOp(state.dims, np.outer(state.amps, state.amps.conj()))


def _check_parties(parties: Iterable[int], n: int, what: str) -> tuple[int, ...]:
    ps = sorted({int(p) for p in parties})
    if any(p < 0 or p >= n for p in ps):
        raise BadPartySet(f"{what} {ps} out of range for {n} parties")
    return tuple(ps)


def reduced_density(state: StateTensor, keep: Iterable[int]) -> DensityOp:
    """Partial trace of |psi><psi| onto the ``keep`` parties (ascending order)."""
    keep_t = _check_parties(keep, state.n_parties, "keep set")
    if not keep_t:
        raise EmptyKeepSet("keep set must contain at least one party")
    m = _reduced_operator(state.tensor(), keep_t)
    return DensityOp(tuple(state.dims[p] for p in keep_t), m)


def partial_trace(op: DensityOp, traced: Iterable[int]) -> DensityOp:
    """Trace the given parties out of a density operator."""
    n = op.n_parties
    traced_t = _check_parties(traced, n, "traced set")
    if not traced_t or len(traced_t) >= n:
        raise BadPartySet(
            f"traced set {list(traced_t)} must be a nonempty proper subset "
            f"of the {n} parties"
        )
    kept = tuple(p for p in range(n) if p not in traced_t)
    t = op.matrix.reshape(op.dims + op.dims)
    # integer einsum labels: row axis p and column axis n+p share a label
    # when traced; kept axes keep distinct labels.
    labels = list(range(n)) + [n + p if p in kept else p for p in range(n)]
    out_labels = [p for p in kept] + [n + p for p in kept]
    t = np.einsum(t, labels, out_labels)
    d_kept = prod(op.dims[p] for p in kept)
    return DensityOp(tuple(op.dims[p] for p in kept), t.reshape(d_kept, d_kept))


def odot(a: StateTensor, b: StateTensor) -> StateTensor:
    """Collective tensor product: merge the two states party by party.

    Party i of the result carries the pair (party i of a, party i of b)
    with a's index slow.  Distinct from appending b's parties after a's.
    """
    if a.n_parties != b.n_parties:
        raise PartyCountMismatch(
            f"cannot merge a {a.n_parties}-party with a {b.n_parties}-party state"
        )
    n = a.n_parties
    big = np.multiply.outer(a.tensor(), b.tensor())
    # axes are (a_0..a_{n-1}, b_0..b_{n-1}); interleave to (a_0, b_0, a_1, b_1, ...)
    perm = [ax for p in range(n) for ax in (p, n + p)]
    big = big.transpose(perm)
    dims = tuple(a.dims[p] * b.dims[p] for p in range(n))
    return StateTensor(dims, big.reshape(-1))


def schmidt_values(state: StateTensor, grouping: PartyGrouping) -> np.ndarray:
    """Decreasing eigenvalues of the block-1 reduced operator X X^dag,
    clipped at zero; no DensityOp is built, so they scale as |c|^2 at any c.

    The vector has length dim(block 1) and sums to the squared norm.
    """
    if len(grouping.blocks) != 2:
        raise BadGrouping("schmidt_values needs exactly two blocks")
    _check_covers(grouping, state)
    return _spectrum(_reduced_operator(state.tensor(), grouping.blocks[0]))[1]


def apply_local_unitaries(state: StateTensor, units: Sequence[np.ndarray]) -> StateTensor:
    """(U_0 x ... x U_{N-1}) |psi>; each U_i must be d_i x d_i unitary."""
    if len(units) != state.n_parties:
        raise DimensionMismatch(
            f"got {len(units)} unitaries for {state.n_parties} parties"
        )
    t = state.tensor()
    for p, u in enumerate(units):
        u = np.asarray(u, dtype=complex)
        d = state.dims[p]
        if u.shape != (d, d):
            raise DimensionMismatch(
                f"unitary for party {p} has shape {u.shape}, need ({d}, {d})"
            )
        if np.max(np.abs(u.conj().T @ u - np.eye(d))) > UNITARY_TOL:
            raise NonUnitary(f"matrix for party {p} is not unitary within {UNITARY_TOL:g}")
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [p])), 0, p)
    return StateTensor(state.dims, t.reshape(-1), state.label)


def apply_unilocal_kraus(
    state: StateTensor, party: int, kraus: Sequence[np.ndarray]
) -> list[StateTensor]:
    """Apply a single-party instrument; returns the unnormalized branch states.

    The operators may be rectangular (output dim x input dim) but must
    satisfy sum_j A_j^dag A_j <= I on the party's space.
    """
    n = state.n_parties
    if party < 0 or party >= n:
        raise BadPartySet(f"party {party} out of range for {n} parties")
    d = state.dims[party]
    ops = [np.asarray(a, dtype=complex) for a in kraus]
    if not ops:
        raise DimensionMismatch("need at least one Kraus operator")
    for a in ops:
        if a.ndim != 2 or a.shape[1] != d:
            raise DimensionMismatch(
                f"Kraus operator shape {a.shape} incompatible with party dim {d}"
            )
    total = sum(a.conj().T @ a for a in ops)
    slack = np.linalg.eigvalsh(np.eye(d) - total)
    if slack[0] < -KRAUS_TOL:
        raise NotTraceNonincreasing(
            f"sum A^dag A exceeds identity by {-float(slack[0]):.3g}"
        )
    t = state.tensor()
    out = []
    for a in ops:
        branch = np.moveaxis(np.tensordot(a, t, axes=([1], [party])), 0, party)
        dims = list(state.dims)
        dims[party] = a.shape[0]
        out.append(StateTensor(tuple(dims), branch.reshape(-1)))
    return out


# -- JSON state files: {"label": str, "dims": [int], "amps": [[re, im], ...]} --

def state_to_dict(state: StateTensor) -> dict:
    return {
        "label": state.label,
        "dims": list(state.dims),
        "amps": [[float(a.real), float(a.imag)] for a in state.amps],
    }


def _is_number(x, kind) -> bool:
    return isinstance(x, kind) and not isinstance(x, bool)


def state_from_dict(data: dict) -> StateTensor:
    if not isinstance(data, dict):
        raise LengthMismatch(f"state record must be an object, got {type(data).__name__}")
    try:
        dims = data["dims"]
        raw = data["amps"]
    except KeyError as exc:
        raise LengthMismatch(f"state record is missing field {exc}") from None
    if not isinstance(dims, (list, tuple)) or not all(_is_number(d, Integral) for d in dims):
        raise BadDimension(f"dims must be a list of integers, got {dims!r}")
    if not isinstance(raw, (list, tuple)):
        raise LengthMismatch("amps must be a list of [re, im] pairs")
    amps = []
    for entry in raw:
        if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                or not all(_is_number(x, Real) for x in entry)):
            raise LengthMismatch("each amplitude must be a [re, im] pair of numbers")
        amps.append(complex(entry[0], entry[1]))
    return StateTensor(tuple(dims), np.array(amps, dtype=complex), data.get("label"))


def save_state(state: StateTensor, path) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_dict(state), fh, indent=2)
        fh.write("\n")


def load_state(path) -> StateTensor:
    with open(path) as fh:
        return state_from_dict(json.load(fh))
