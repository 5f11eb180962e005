"""Subspace-projection entanglement monotones.

The central quantity is the maximal squared norm of a state's projection
onto a product of local subspaces with prescribed dimensions (k_0, ..,
k_{N-1}).  Parties with k_i = d_i, or a party with k_i at least the
product of the other ranks (raised to d_i, which leaves the value
unchanged), take no part in the maximization.  With two or more
restricted parties left, multi-start alternating maximization over their
frames yields a certified lower bound.  Every other frame is filled with
the top-k_i eigenvectors of that party's operator given the other
parties' frames: a lone restricted party's fill is the exact closed form
(sum of the leading reduced-density eigenvalues).

Also here: the classical bipartite background quantities (trace powers,
elementary symmetric polynomials, majorization, leading-eigenvalue partial
sums).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from math import prod
from typing import Sequence

import numpy as np

from .errors import (
    BadGrouping,
    BadParameter,
    BadRank,
    DimensionMismatch,
    NonUnitary,
    SumMismatch,
)
from .rng import _haar_frames, stream_rng
from .states import (
    DensityOp,
    PartyGrouping,
    StateTensor,
    _check_covers,
    schmidt_values,
    squared_norm,
)

FRAME_TOL = 1e-10  # orthonormality of frame columns, a dimensionless check
# The solver's thresholds are relative to the state's squared norm, so that
# E(c psi) = |c|^2 E(psi) holds at every scale: the per-sweep convergence
# test (SolverConfig.tol), the degenerate-cut gap, the agreement of a start
# with the best one, and the slack allowed to an ascent step before it
# counts as a decrease.
DEGENERACY_TOL = 1e-10
AGREEMENT_TOL = 1e-8
ASCENT_SLACK = 1e-12
# The spectral quantities are relative to the total weight w raised to their
# degree: S_k is taken as zero below SYMMETRIC_TOL w^k, two weight vectors
# agree in total within WEIGHT_TOL w, and a partial sum may fall short of the
# other's by MAJORIZATION_SLACK w.
SYMMETRIC_TOL = 1e-12
WEIGHT_TOL = 1e-9
MAJORIZATION_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class ProjectorFrame:
    """Per-party orthonormal column frames V_i; the projectors are V_i V_i^dag.

    Each frame is kept as a read-only d_i x k_i copy that owns its memory,
    so a frame taken from a larger array (say one start of a stack of
    starts) does not keep that array alive.
    """

    frames: tuple[np.ndarray, ...]

    def __post_init__(self):
        frames = []
        for i, v in enumerate(self.frames):
            v = np.array(v, dtype=complex, order="C")
            if v.ndim != 2 or v.shape[1] > v.shape[0] or v.shape[1] < 1:
                raise DimensionMismatch(
                    f"frame {i} has shape {v.shape}; need d x k with 1 <= k <= d"
                )
            gram = v.conj().T @ v
            if np.max(np.abs(gram - np.eye(v.shape[1]))) > FRAME_TOL:
                raise NonUnitary(f"frame {i} columns are not orthonormal")
            v.setflags(write=False)
            frames.append(v)
        object.__setattr__(self, "frames", tuple(frames))

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(v.shape[1] for v in self.frames)


@dataclass(frozen=True)
class SolverConfig:
    restarts: int = 32
    max_iters: int = 500
    tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        # tol bounds a per-sweep gain relative to the squared norm, which
        # never reaches 1, so tol >= 1 would stop every start after one sweep
        if self.restarts < 1 or self.max_iters < 1 or not 0 < self.tol < 1 or self.seed < 0:
            raise BadParameter("need restarts >= 1, max_iters >= 1, 0 < tol < 1, seed >= 0")


@dataclass(frozen=True)
class MonotoneResult:
    """Certified lower bound on the monotone, with the frames that attain it."""

    value: float
    ranks: tuple[int, ...]
    certificate: ProjectorFrame
    converged: bool
    restarts_agreeing: int
    degenerate: bool = False

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "ranks": list(self.ranks),
            "converged": self.converged,
            "restarts_agreeing": self.restarts_agreeing,
        }


def _check_ranks(dims: Sequence[int], ks: Sequence[int]) -> tuple[int, ...]:
    ks = tuple(int(k) for k in ks)
    if len(ks) != len(dims):
        raise BadRank(f"got {len(ks)} ranks for {len(dims)} parties")
    for k, d in zip(ks, dims):
        if k < 1 or k > d:
            raise BadRank(f"rank {k} outside 1..{d}")
    return ks


def _frames_of(frame) -> tuple[np.ndarray, ...]:
    if isinstance(frame, ProjectorFrame):
        return frame.frames
    return ProjectorFrame(tuple(frame)).frames


def _contract(x: np.ndarray, layout: Sequence[int], frames: Sequence[np.ndarray],
              parties: Sequence[int]) -> tuple[np.ndarray, list[int]]:
    """Apply V_p^dag on party p's axis of x for each p in ``parties``, in that
    order, for S stacked starts.

    ``frames[p]`` has shape (S, d_p, k_p), and ``layout[a]`` names the party
    on party axis a of x; an axis whose label has no frame (the folded
    environment) is summed over as it is.  x is either the shared state
    tensor, with no start axis, or an (S, ...) stack of partial
    contractions.  The first party contracted into the shared tensor is one
    GEMM of psi, with that party's axis moved to the front, against all S
    frames at once, which puts the start axis in front.  Every later party
    stays on its axis, now of size k_p: with A and B the sizes before and
    after that axis, it is one matmul per start, (A, d) @ conj(V) when
    B = 1 and V^dag @ (d, B) when A = 1, and otherwise one V^dag @ (d, B)
    per start and index of A.  A stack is never transposed: its layout
    travels with it instead.  Returns the contracted x and its layout.
    """
    parties = list(parties)
    layout = list(layout)
    if x.ndim == len(layout):
        p = parties.pop(0)
        pos = layout.index(p)
        x = x.transpose([pos] + [a for a in range(x.ndim) if a != pos])
        layout.insert(0, layout.pop(pos))
        s, d, k = frames[p].shape
        lead = frames[p].conj().transpose(0, 2, 1).reshape(s * k, d)
        x = (lead @ x.reshape(d, -1)).reshape(s, k, *x.shape[1:])
    for p in parties:
        pos = layout.index(p) + 1
        s, d, k = frames[p].shape
        shape = list(x.shape)
        before, after = prod(shape[1:pos]), prod(shape[pos + 1:])
        if after == 1:
            x = x.reshape(s, before, d) @ frames[p].conj()
        else:
            x = frames[p].conj().transpose(0, 2, 1)[:, None] @ x.reshape(s, before, d, after)
        shape[pos] = k
        x = x.reshape(shape)
    return x, layout


def objective(state: StateTensor, frame) -> float:
    """Squared norm of (Gamma_0 x ... x Gamma_{N-1}) |psi> for the given frames."""
    frames = _frames_of(frame)
    if len(frames) != state.n_parties or any(
        v.shape[0] != d for v, d in zip(frames, state.dims)
    ):
        raise DimensionMismatch("frame shapes do not match the state's party dims")
    parties = range(state.n_parties)
    red, _ = _contract(state.tensor(), parties, [v[None] for v in frames], parties)
    return float(np.vdot(red, red).real)


def bipartite_E(state: StateTensor, grouping: PartyGrouping, k1: int, k2: int) -> float:
    """Exact two-block value: the nielsen_E partial sum at min(k1, k2)."""
    if len(grouping.blocks) != 2:
        raise BadGrouping("bipartite_E needs a two-block grouping")
    _check_covers(grouping, state)
    d1, d2 = grouping.block_dims(state.dims)
    if not (1 <= k1 <= d1) or not (1 <= k2 <= d2):
        raise BadRank(f"ranks ({k1}, {k2}) outside block dims ({d1}, {d2})")
    return float(nielsen_E(state, grouping)[min(k1, k2) - 1])


def _top_eigvecs(m: np.ndarray, k: int, gap_tol: float):
    """Top-k eigenvectors of Hermitian matrices stacked as (..., d, d), k < d.

    Returns (frames (..., d, k), sums of the top-k eigenvalues,
    degenerate-cut flags: the k-th and (k+1)-th eigenvalues within
    ``gap_tol``).
    """
    w, u = np.linalg.eigh(m)
    d = m.shape[-1]
    top = w[..., ::-1][..., :k].sum(axis=-1)
    return u[..., ::-1][..., :k], top, np.abs(w[..., d - k] - w[..., d - k - 1]) <= gap_tol


def _rank_one_step(x: np.ndarray, gap_tol: float):
    """``_top_eigvecs(x x^dag, 1, gap_tol)`` for stacked single columns x (..., d, 1).

    x x^dag has one nonzero eigenvalue, |x|^2, with eigenvector x / |x|,
    so the step needs neither the Gram matrix nor ``eigh``: it is the step
    of the higher-order power method.  Every other eigenvalue is zero, so
    the cut is degenerate exactly when |x|^2 <= ``gap_tol``.  A zero column
    gets the first basis vector as its frame.
    """
    top = (x.real ** 2 + x.imag ** 2).sum(axis=(-2, -1))
    zero = top == 0
    frame = x / np.where(zero, 1.0, np.sqrt(top))[..., None, None]
    frame[zero, 0] = 1
    return frame, top, top <= gap_tol


def _party_step(x: np.ndarray, layout: list[int], p: int, k: int, gap_tol: float):
    """Top-k frame of party p's conditional operator X X^dag, where x is psi
    contracted with the current frames of every other restricted party.

    When k = 1 and X is a single column (every other restricted party has
    rank 1 and no party is folded) this is ``_rank_one_step``; otherwise
    it is ``_top_eigvecs`` on the Gram matrix.
    """
    pos = layout.index(p) + 1
    s, d = x.shape[0], x.shape[pos]
    before, after = prod(x.shape[1:pos]), prod(x.shape[pos + 1:])
    if k == 1 and before * after == 1:
        return _rank_one_step(x.reshape(s, d, 1), gap_tol)
    if after == 1:  # x holds X^T, and X X^dag = (X^T)^T conj(X^T)
        x = x.reshape(s, before, d)
        gram = x.transpose(0, 2, 1) @ x.conj()
    else:
        x = x.reshape(s, before, d, after).transpose(0, 2, 1, 3).reshape(s, d, -1)
        gram = x @ x.conj().transpose(0, 2, 1)
    return _top_eigvecs(gram, k, gap_tol)


def _sweep(x: np.ndarray, layout: list[int], frames: list[np.ndarray],
           parties: Sequence[int], gap_tol: float):
    """One Gauss-Seidel pass over ``parties``, in order, replacing their frames.

    x is psi contracted with the current frames of every restricted party
    outside ``parties``.  The parties split into a left and a right half:
    the left half is swept on x contracted with the right half's frames,
    then the right half on x contracted with the left half's new frames.
    Over this dimension tree a pass over n parties costs
    C(n) = n + C(ceil(n/2)) + C(floor(n/2)), C(1) = 0, contractions,
    against n(n - 1) when each step contracts every other party afresh.

    The parties not yet contracted stay in party order on x, so contracting
    the right half from its last party back, and the left half from its
    first party on, leaves only contracted axes (and the folded axis) on
    one side of each contracted axis: with rank-1 frames and no folded
    party, every contraction is one matmul per start.  Returns the
    objective after the last step and whether any step's cut was
    degenerate.
    """
    if len(parties) == 1:
        p = parties[0]
        frames[p], obj, degenerate = _party_step(x, layout, p, frames[p].shape[2], gap_tol)
        return obj, degenerate
    half = (len(parties) + 1) // 2
    left, right = parties[:half], parties[half:]
    _, degenerate = _sweep(*_contract(x, layout, frames, right[::-1]), frames, left, gap_tol)
    obj, right_degenerate = _sweep(*_contract(x, layout, frames, left), frames, right, gap_tol)
    return obj, degenerate | right_degenerate


@functools.lru_cache(maxsize=32)
def _haar_starts(shape: tuple[tuple[int, int], ...], restricted: tuple[int, ...],
                 seed: int, restarts: int) -> tuple[np.ndarray, ...]:
    """Per restricted party, the read-only (restarts, d, k) stack of Haar
    start frames for parties of shape ``shape`` = ((d_0, k_0), ...).

    Start r is read from one row of standard normals drawn from
    ``stream_rng(seed, r)``, which holds the frames ``haar_random_frame``
    would draw from that stream, one per party in party order, unrestricted
    parties included.  Each restricted party's frames come from one
    stacked QR of its columns.  The draw depends on nothing but the key,
    so every solve of that shape shares it; the stacks are read-only
    because they are shared.
    """
    at = np.cumsum([0] + [2 * d * k for d, k in shape])
    normals = np.stack([stream_rng(seed, r).standard_normal(at[-1])
                        for r in range(restarts)])
    cols = np.concatenate([np.arange(at[p], at[p + 1]) for p in restricted])
    stacks = _haar_frames(normals[:, cols], [shape[p][0] for p in restricted],
                          [shape[p][1] for p in restricted])
    for f in stacks:
        f.setflags(write=False)
    return tuple(stacks)


def _starts(state: StateTensor, ks: tuple[int, ...], restricted: Sequence[int],
            cfg: SolverConfig) -> list[np.ndarray]:
    """Per restricted party, the (restarts + 1, d, k) stack of start frames.

    Start 0 is the deterministic spectral start (leading eigenvectors of
    each single-party marginal); starts 1.. are the Haar frames of
    ``_haar_starts``, drawn once per (dims, ranks, restricted parties,
    seed, restarts) and shared by every state of that shape.  ``ks`` is
    the vector the ascent sweeps, with the rank-saturated party (if any)
    already raised to d_i (``_raise_saturated``), so a raised solve draws
    the starts of its raised vector.  Each stack returned is a fresh,
    writable concatenation.
    """
    haar = _haar_starts(tuple(zip(state.dims, ks)), tuple(restricted), cfg.seed,
                        cfg.restarts)
    t, parties = state.tensor()[None], list(range(state.n_parties))
    spectral = [_party_step(t, parties, p, ks[p], 0.0)[0] for p in restricted]
    return [np.concatenate([s, f]) for s, f in zip(spectral, haar)]


def _raise_saturated(dims: Sequence[int], ks: tuple[int, ...]) -> int | None:
    """The rank-saturated party to raise to its dimension, or None.

    Party i's conditional operator has rank at most prod_{j != i} k_j, so
    when 2 <= k_i < d_i and k_i reaches that product, its top-k_i
    eigenvectors hold all of its weight and the identity does no better:
    E is unchanged by k_i -> d_i.  Once a party is raised no other is
    saturated: with Q the product of the ranks other than k_i and k_j, i
    saturated means k_i >= k_j Q, and j saturated after i is raised would
    need k_j >= d_i Q > k_i Q >= k_j Q^2 >= k_j.  So only the first
    saturated party is raised.  k_i = 1 is never raised, which keeps
    the closed-form rank-one steps of the all-ones class.
    """
    for i, d in enumerate(dims):
        if 2 <= ks[i] < d and ks[i] >= prod(ks[:i] + ks[i + 1:]):
            return i
    return None


def _fill(state: StateTensor, certificate: list[np.ndarray], p: int, k: int,
          gap_tol: float) -> tuple[float, bool]:
    """Give party p its d_p x k frame: the top-k eigenvectors of its
    conditional operator given the other parties' frames in
    ``certificate``.  Returns the top-k eigenvalue sum, which is the
    objective of the filled certificate, and whether the cut was
    degenerate.
    """
    t, parties = state.tensor(), list(range(state.n_parties))
    stacks = [v[None] for v in certificate]
    others = [q for q in parties if q != p and certificate[q].shape[1] < state.dims[q]]
    x, layout = _contract(t, parties, stacks, others) if others else (t[None], parties)
    frame, top, cut = _party_step(x, layout, p, k, gap_tol)
    certificate[p] = frame[0]
    return float(top[0]), bool(cut[0])


def _ascend(state: StateTensor, ks: tuple[int, ...], restricted: list[int],
            certificate: list[np.ndarray], norm2: float, cfg: SolverConfig):
    """Multi-start HOOI over the restricted parties (``solve_E``).

    The ascent runs on psi with the restricted parties' axes first, in
    party order, and the unrestricted ones folded into one trailing axis.
    Writes the best start's frames into ``certificate`` and returns (best
    value, all starts converged, starts agreeing with the best, degenerate
    cut at the best start).
    """
    others = [p for p in range(state.n_parties) if p not in restricted]
    t = state.tensor().transpose(restricted + others).reshape(
        [state.dims[p] for p in restricted] + [-1])
    frames = _starts(state, ks, restricted, cfg)
    n_starts = frames[0].shape[0]
    value = np.zeros(n_starts)
    converged = np.zeros(n_starts, dtype=bool)
    degenerate = np.zeros(n_starts, dtype=bool)
    live = np.arange(n_starts)
    axes = list(range(t.ndim))
    parties = range(len(restricted))
    red, _ = _contract(t, axes, frames, parties)
    prev = (red.real ** 2 + red.imag ** 2).reshape(n_starts, -1).sum(axis=-1)
    for _ in range(cfg.max_iters):
        work = [f[live] for f in frames]
        obj, swept_degenerate = _sweep(t, axes, work, parties, DEGENERACY_TOL * norm2)
        if np.any(obj - prev < -ASCENT_SLACK * norm2):
            drop = float(np.max(prev - obj))
            raise ArithmeticError(f"alternating step decreased the objective by {drop:.3g}")
        for f, w in zip(frames, work):
            f[live] = w
        value[live] = obj
        degenerate[live] = swept_degenerate
        done = np.abs(obj - prev) <= cfg.tol * norm2
        converged[live] = done
        live, prev = live[~done], obj[~done]
        if not live.size:
            break

    best = int(np.argmax(value))
    for p, f in zip(restricted, frames):
        certificate[p] = f[best]
    return (value[best], bool(converged.all()),
            int(np.sum(value[best] - value <= AGREEMENT_TOL * norm2)), bool(degenerate[best]))


def solve_E(state: StateTensor, ks: Sequence[int], cfg: SolverConfig | None = None) -> MonotoneResult:
    """Maximize the product-subspace projection weight at ranks ``ks``.

    A party with k_i = d_i has the identity as its projector, so only the
    restricted parties (k_i < d_i) are solved for; all others share one
    trailing axis of the state tensor that is never projected.  A
    rank-saturated party (2 <= k_i < d_i, k_i >= prod_{j != i} k_j) is
    first raised to k_i = d_i, which leaves E unchanged
    (``_raise_saturated``).  With no restricted party the value is the
    squared norm.  A lone restricted party is filled (``_fill``) given the
    identity on every other party: its frame is the top-k eigenvectors of
    its marginal and the value, their eigenvalue sum, is closed form.  A
    raised party is filled last, given the final frames, and the value is
    that fill's eigenvalue sum.  Two or more restricted parties run
    ``cfg.restarts`` Haar-random starts, drawn once per shape
    (``_starts``), plus one deterministic start seeded from the
    single-party marginal spectra.  This is HOOI
    (higher-order orthogonal iteration): each party step sets that party's
    frame to the top-k eigenvectors of its conditional reduced operator,
    the exact single-party optimum, so the objective cannot decrease.  A
    sweep steps the restricted parties in party order (Gauss-Seidel) over
    a dimension tree (``_sweep``), which shares partial contractions of psi
    between party steps: C(n) = n + C(ceil(n/2)) + C(floor(n/2)) party
    contractions per sweep over n parties (5, 8, 16, 44 for n = 3, 4, 6,
    12) instead of n(n - 1).  When k_i = 1 and the conditional operator
    has rank one (every other restricted party has rank 1 and no party is
    folded, as in the all-ones class) the step is closed form, the
    higher-order power method's x / |x| with value |x|^2, and no ``eigh``
    runs.  All starts sweep together, stacked on a leading axis; a start
    leaves the sweep once its own per-sweep gain is at most ``cfg.tol``
    times the squared norm.

    The value is a certified lower bound: it is the objective of the
    returned certificate (the identity on unrestricted parties), up to
    round-off.
    ``restarts_agreeing`` counts starts that landed within 1e-8 (relative
    to the squared norm) of the best, as a crude confidence signal.
    """
    cfg = cfg or SolverConfig()
    ks = _check_ranks(state.dims, ks)
    raised = _raise_saturated(state.dims, ks)
    swept = ks if raised is None else ks[:raised] + (state.dims[raised],) + ks[raised + 1:]
    restricted = [p for p, (k, d) in enumerate(zip(swept, state.dims)) if k < d]
    norm2 = squared_norm(state)
    certificate = [np.eye(d, dtype=complex) for d in state.dims]
    value, converged, agreeing, degenerate = norm2, True, cfg.restarts + 1, False
    filled = [] if raised is None else [raised]
    if len(restricted) > 1:
        value, converged, agreeing, degenerate = _ascend(
            state, swept, restricted, certificate, norm2, cfg)
    else:
        filled = restricted + filled
    for p in filled:
        value, cut = _fill(state, certificate, p, ks[p], DEGENERACY_TOL * norm2)
        degenerate |= cut
    return MonotoneResult(
        value=float(value),
        ranks=ks,
        certificate=ProjectorFrame(tuple(certificate)),
        converged=converged,
        restarts_agreeing=agreeing,
        degenerate=bool(degenerate),
    )


def E_ensemble(members: Sequence[StateTensor], ks: Sequence[int],
               cfg: SolverConfig | None = None) -> float:
    """Ensemble value: sum over the unnormalized members (linear homogeneity)."""
    return float(sum(solve_E(m, ks, cfg).value for m in members))


def coarse_grain(state: StateTensor, grouping: PartyGrouping) -> StateTensor:
    """Reinterpret blocks of parties as single parties (amplitudes unchanged
    when the blocks are in natural order)."""
    _check_covers(grouping, state)
    perm = tuple(p for b in grouping.blocks for p in b)
    t = state.tensor().transpose(perm)
    return StateTensor(grouping.block_dims(state.dims), t.reshape(-1), state.label)


# -- background bipartite quantities --

def trace_power_invariants(rho: DensityOp, dmax: int) -> np.ndarray:
    """tr rho^k for k = 1..dmax, from the eigenvalue spectrum."""
    lam = rho.spectrum()
    return np.array([float(np.sum(lam ** k)) for k in range(1, dmax + 1)])


def symmetric_monotones(rho: DensityOp, dmax: int) -> tuple[np.ndarray, list]:
    """Elementary symmetric polynomials S_1..S_dmax of the spectrum and the
    consecutive ratios S_k/S_{k-1} (None where the denominator vanishes,
    that is, falls below SYMMETRIC_TOL tr(rho)^(k-1))."""
    lam = rho.spectrum()
    weight = rho.trace()
    e = np.zeros(dmax + 1)
    e[0] = 1.0
    for x in lam:
        for k in range(dmax, 0, -1):
            e[k] += x * e[k - 1]
    s = e[1:]
    ratios: list = []
    for k in range(1, dmax + 1):
        denom = e[k - 1]
        vanishes = abs(denom) <= SYMMETRIC_TOL * weight ** (k - 1)
        ratios.append(None if vanishes else float(s[k - 1] / denom))
    return s, ratios


def majorizes(a: Sequence[float], b: Sequence[float]) -> bool:
    """True iff the decreasing rearrangement of ``a`` majorizes that of ``b``."""
    av = np.sort(np.asarray(a, dtype=float))[::-1]
    bv = np.sort(np.asarray(b, dtype=float))[::-1]
    n = max(av.size, bv.size)
    av = np.pad(av, (0, n - av.size))
    bv = np.pad(bv, (0, n - bv.size))
    weight = max(abs(av.sum()), abs(bv.sum()))
    if abs(av.sum() - bv.sum()) > WEIGHT_TOL * weight:
        raise SumMismatch(
            f"vectors have different total weight ({av.sum():.12g} vs {bv.sum():.12g})"
        )
    return bool(np.all(np.cumsum(av) >= np.cumsum(bv) - MAJORIZATION_SLACK * weight))


def nielsen_E(state: StateTensor, grouping: PartyGrouping) -> np.ndarray:
    """Partial sums of the decreasing Schmidt eigenvalues across a two-block cut."""
    return np.cumsum(schmidt_values(state, grouping))


def escalate(cfg: SolverConfig, factor: int = 2) -> SolverConfig:
    """Same configuration with more restarts, for firming up near-ties."""
    return replace(cfg, restarts=cfg.restarts * factor)


def result_is_trusted(result: MonotoneResult, cfg: SolverConfig) -> bool:
    """Heuristic: at least half the starts found the reported value."""
    return result.restarts_agreeing >= max(1, cfg.restarts // 2)


__all__ = [
    "ProjectorFrame",
    "SolverConfig",
    "MonotoneResult",
    "objective",
    "bipartite_E",
    "solve_E",
    "E_ensemble",
    "coarse_grain",
    "trace_power_invariants",
    "symmetric_monotones",
    "majorizes",
    "nielsen_E",
    "escalate",
    "result_is_trusted",
]
