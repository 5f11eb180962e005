"""Subspace-projection entanglement monotones.

The central quantity is the maximal squared norm of a state's projection
onto a product of local subspaces with prescribed dimensions (k_0, ..,
k_{N-1}).  Parties with k_i = d_i, or a party with k_i at least the
product of the other ranks (raised to d_i, which leaves the value
unchanged; ``_swept_parties`` says which), take no part in the
maximization.  With two or more restricted parties left, multi-start
alternating maximization over their frames yields a certified lower
bound; a lone restricted party's frame is the top-k_i eigenvectors of
its marginal, and their eigenvalue sum is the exact value.  A raised
party's frame is the top-k_i eigenvectors of its operator given the
other parties' frames.  Every contraction and party step of a solve
runs on one layout of psi (``_folded``).

Also here: the classical bipartite background quantities (trace powers,
elementary symmetric polynomials, majorization, leading-eigenvalue partial
sums).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from math import prod
from numbers import Real
from typing import Sequence

import numpy as np

from .errors import BadParameter, DimensionMismatch, NonUnitary, SumMismatch
from .rng import _haar_frames, stream_rng
from .states import (
    DensityOp,
    PartyGrouping,
    StateTensor,
    _check_covers,
    _check_pure,
    _check_ranks,
    _integer,
    _is_number,
    _orthonormal,
    schmidt_values,
    squared_norm,
)

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
            if not _orthonormal(v):
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
        counts = (_integer(self.restarts, 1), _integer(self.max_iters, 1), _integer(self.seed, 0))
        if None in counts or not _is_number(self.tol, Real) or not 0 < self.tol < 1:
            raise BadParameter("need integers restarts >= 1, max_iters >= 1, seed >= 0 "
                               "and a real 0 < tol < 1")


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


def _frames_of(frame) -> tuple[np.ndarray, ...]:
    if isinstance(frame, ProjectorFrame):
        return frame.frames
    return ProjectorFrame(tuple(frame)).frames


# The operations of a _Schedule.  A contraction applies W_p to party p's
# axis: _LEAD is one GEMM of all starts' W_p against a (d, rest) copy of
# psi with p's axis first, and on a stack _RIGHT is (A, d) @ W_p^T and
# _MID is W_p @ (d, B) for each of A rows, A and B being the sizes before
# and after p's axis (A = 1 is one row, a view).  A party step replaces
# W_p with the top-k frame of X X^dag, X being party p's (d, A B)
# unfolding: _ONE is the rank-one closed form, and _COLS (B = 1, the stack
# holds X^T) and _GRAM (a transposed copy of X, a view when A = 1) form
# the Gram matrix for eigh.  _NORM is each start's squared norm.
_LEAD, _RIGHT, _MID, _ONE, _COLS, _GRAM, _NORM = range(7)


def _folded(state: StateTensor, parties: list[int]) -> np.ndarray:
    """psi with the axes of ``parties`` first, in that order, and every
    other party folded into one trailing axis: the one layout that every
    ``_Schedule`` of a solve or of ``objective`` is compiled on."""
    rest = [p for p in range(state.n_parties) if p not in parties]
    return state.tensor().transpose(parties + rest).reshape(
        [state.dims[p] for p in parties] + [-1])


class _Schedule:
    """Contractions of psi with stacked adjoint frames, and party steps on
    the results, compiled once into a flat list that ``_run`` executes.

    psi is ``t``, laid out by ``_folded``: axis p holds the party labelled
    p, of rank ``ks[p]``, and the last axis holds the folded parties, which
    are never projected.  Frames are adjoint stacks W_p = V_p^dag of shape
    (S, k_p, d_p) for S starts, the form every contraction consumes.  Slot
    0 holds psi and every other slot an (S, ...) stack of partial
    contractions, whose axes keep psi's order except that a _LEAD puts its
    party first.  No contraction transposes a stack: compiling tracks each
    slot's layout and fixes each operation's matmul form and reshape, with
    the start axis left as -1, so a run does no index or layout arithmetic
    and serves any number of live starts.
    """

    def __init__(self, t: np.ndarray, ks: Sequence[int]):
        self.t = t
        self.ks = ks
        self.ops: list[tuple] = []
        self.layouts = {0: list(zip([*range(len(ks)), None], t.shape))}

    def _locate(self, src: int, p: int):
        layout = self.layouts[src]
        pos = [q for q, _ in layout].index(p)
        sizes = [n for _, n in layout]
        return layout, pos, sizes[pos], prod(sizes[:pos]), prod(sizes[pos + 1:])

    def contract(self, src: int, dst: int, p: int) -> None:
        """Apply W_p to party p's axis of slot ``src``, into slot ``dst``."""
        layout, pos, d, a, b = self._locate(src, p)
        kp = (p, self.ks[p])
        if src == 0:
            psi = np.moveaxis(self.t, pos, 0).reshape(d, -1)
            self.ops.append((_LEAD, src, dst, p, psi))
            self.layouts[dst] = [kp] + layout[:pos] + layout[pos + 1:]
            return
        if b == 1:
            self.ops.append((_RIGHT, src, dst, p, (-1, a, d)))
        else:
            self.ops.append((_MID, src, dst, p, (-1, a, d, b)))
        self.layouts[dst] = layout[:pos] + [kp] + layout[pos + 1:]

    def chain(self, src: int, parties: Sequence[int]) -> int:
        """Contract ``parties`` in order, into the slot after ``src``;
        returns the slot that holds the result."""
        dst = src + 1
        for p in parties:
            self.contract(src, dst, p)
            src = dst
        return src

    def step(self, src: int, p: int) -> None:
        """Replace W_p with the top-k_p frame of party p's conditional
        operator on slot ``src``, psi contracted with every other frame."""
        _, pos, d, a, b = self._locate(src, p)
        if self.ks[p] == 1 and a * b == 1:
            kind, shape = _ONE, (-1, d, 1)
        elif b == 1:
            kind, shape = _COLS, (-1, a, d)
        else:
            kind, shape = _GRAM, (-1, a, d, b)
        self.ops.append((kind, src, self.ks[p], p, shape))

    def sweep(self, src: int, parties: Sequence[int]) -> None:
        """One Gauss-Seidel pass over ``parties``, in order, on slot ``src``
        (psi contracted with every frame outside ``parties``).

        The parties split into a left and a right half: the left half is
        swept on src contracted with the right half's frames, then the
        right half on src contracted with the left half's new frames.  Over
        this dimension tree a pass over n parties costs
        C(n) = n + C(ceil(n/2)) + C(floor(n/2)), C(1) = 0, contractions,
        against n(n - 1) when each step contracts every other party afresh.
        Contracting the right half from its last party back, and the left
        half from its first party on, leaves only contracted axes (and the
        folded axis) on one side of each contracted axis: with rank-1
        frames and no folded party, every contraction is one matmul per
        start.
        """
        if len(parties) == 1:
            self.step(src, parties[0])
            return
        half = (len(parties) + 1) // 2
        left, right = parties[:half], parties[half:]
        self.sweep(self.chain(src, right[::-1]), left)
        self.sweep(self.chain(src, left), right)

    def norm(self, src: int) -> None:
        """Each start's squared norm of slot ``src``."""
        self.ops.append((_NORM, src, None, None, (-1, prod(n for _, n in self.layouts[src]))))


def _run(schedule: _Schedule, frames: list, gap_tol: float):
    """Execute ``schedule`` on the adjoint stacks ``frames`` (indexed by
    party label, that is by psi's axis), replacing the frame of every party
    it steps.

    Returns the per-start value of its last step (the top-k eigenvalue
    sum) or _NORM, and whether any step's cut was degenerate (within
    ``gap_tol``).  A step's third field is its rank, a contraction's the
    slot it writes.  The steps look ``_rank_one_step`` and ``_top_eigvecs``
    up when they run.
    """
    x = [schedule.t[None]] + [None] * (len(schedule.layouts) - 1)
    value, degenerate = None, False
    for kind, src, out, p, arg in schedule.ops:
        if kind == _RIGHT:
            x[out] = x[src].reshape(arg) @ frames[p].transpose(0, 2, 1)
        elif kind == _MID:
            x[out] = frames[p][:, None] @ x[src].reshape(arg)
        elif kind == _LEAD:
            x[out] = frames[p].reshape(-1, arg.shape[0]) @ arg
        elif kind == _NORM:
            y = x[src].reshape(arg)
            value = (y.real ** 2 + y.imag ** 2).sum(axis=-1)
        elif kind == _ONE:
            frames[p], value, cut = _rank_one_step(x[src].reshape(arg), gap_tol)
            degenerate = degenerate | cut
        else:
            y = x[src].reshape(arg)
            if kind == _COLS:  # y holds X^T, and X X^dag = (X^T)^T conj(X^T)
                gram = y.transpose(0, 2, 1) @ y.conj()
            else:
                y = y.transpose(0, 2, 1, 3).reshape(y.shape[0], arg[2], -1)
                gram = y @ y.conj().transpose(0, 2, 1)
            frames[p], value, cut = _top_eigvecs(gram, out, gap_tol)
            degenerate = degenerate | cut
    return value, degenerate


def objective(state: StateTensor, frame) -> float:
    """Squared norm of (Gamma_0 x ... x Gamma_{N-1}) |psi> for the given frames.

    A k_i = d_i frame is unitary (``ProjectorFrame`` checks its columns),
    so its projector is the identity: its party is folded, not contracted.
    """
    _check_pure(state)
    frames = _frames_of(frame)
    if len(frames) != state.n_parties or any(
        v.shape[0] != d for v, d in zip(frames, state.dims)
    ):
        raise DimensionMismatch("frame shapes do not match the state's party dims")
    parties = [p for p, v in enumerate(frames) if v.shape[1] < v.shape[0]]
    schedule = _Schedule(_folded(state, parties), [frames[p].shape[1] for p in parties])
    schedule.norm(schedule.chain(0, range(len(parties))))
    value, _ = _run(schedule, [frames[p].conj().T[None] for p in parties], 0.0)
    return float(value[0])


def bipartite_E(state: StateTensor, grouping: PartyGrouping, k1: int, k2: int) -> float:
    """Exact two-block value: the nielsen_E partial sum at min(k1, k2)."""
    sums = nielsen_E(state, grouping)  # checks for two blocks that cover the state
    k1, k2 = _check_ranks(grouping.block_dims(state.dims), (k1, k2))
    return float(sums[min(k1, k2) - 1])


def _top_eigvecs(m: np.ndarray, k: int, gap_tol: float):
    """Top-k eigenvectors of Hermitian matrices stacked as (..., d, d), k < d.

    This is the solver's only eigen step.  Returns (adjoint frames
    W = V^dag (..., k, d), sums of the top-k eigenvalues, degenerate-cut
    flags: the k-th and (k+1)-th eigenvalues within ``gap_tol``).
    """
    w, u = np.linalg.eigh(m)
    d = m.shape[-1]
    top = w[..., ::-1][..., :k].sum(axis=-1)
    frames = np.conjugate(u[..., ::-1][..., :k].swapaxes(-1, -2), order="C")
    return frames, top, np.abs(w[..., d - k] - w[..., d - k - 1]) <= gap_tol


def _rank_one_step(x: np.ndarray, gap_tol: float):
    """``_top_eigvecs(x x^dag, 1, gap_tol)`` for stacked single columns x (..., d, 1).

    x x^dag has one nonzero eigenvalue, |x|^2, with eigenvector x / |x|,
    so the step needs neither the Gram matrix nor ``eigh``: it is the step
    of the higher-order power method, and its adjoint frame is x^dag / |x|.
    Every other eigenvalue is zero, so the cut is degenerate exactly when
    |x|^2 <= ``gap_tol``.  A zero column gets the first basis vector as its
    frame.
    """
    top = (x.real ** 2 + x.imag ** 2).sum(axis=(-2, -1))
    norm = np.sqrt(top)
    if not norm.all():
        zero = norm == 0
        x, norm[zero] = x.copy(), 1
        x[zero, 0] = 1
    return x.conj().swapaxes(-1, -2) / norm[..., None, None], top, top <= gap_tol


@functools.lru_cache(maxsize=32)
def _haar_starts(shape: tuple[tuple[int, int], ...], restricted: tuple[int, ...],
                 seed: int, restarts: int) -> tuple[np.ndarray, ...]:
    """Per restricted party, the read-only (restarts, k, d) adjoint stack of
    Haar start frames for parties of shape ``shape`` = ((d_0, k_0), ...).

    Start r is read from one row of standard normals drawn from
    ``stream_rng(seed, r)``, which holds the frames ``haar_random_frame``
    would draw from that stream, one per party in party order, unrestricted
    parties included.  Each restricted party's frames come from one
    stacked QR of its columns, and are stored as their adjoints V^dag.
    The draw depends on nothing but the key, so every solve of that shape
    shares it; the stacks are read-only because they are shared.
    """
    at = np.cumsum([0] + [2 * d * k for d, k in shape])
    normals = np.stack([stream_rng(seed, r).standard_normal(at[-1])
                        for r in range(restarts)])
    cols = np.concatenate([np.arange(at[p], at[p + 1]) for p in restricted])
    stacks = _haar_frames(normals[:, cols], [shape[p][0] for p in restricted],
                          [shape[p][1] for p in restricted])
    adjoints = tuple(np.conjugate(f.transpose(0, 2, 1), order="C") for f in stacks)
    for w in adjoints:
        w.setflags(write=False)
    return adjoints


def _swept_parties(dims: Sequence[int], ks: tuple[int, ...]) -> tuple[int | None, list[int]]:
    """(the rank-saturated party to raise to its dimension or None, the
    restricted parties left): the parties with k_i < d_i, not counting the
    raised one, which are the parties ``solve_E`` sweeps.

    Party i's conditional operator has rank at most prod_{j != i} k_j, so
    when k_i < d_i reaches that product, its top-k_i eigenvectors hold all
    of its weight and the identity does no better: E is unchanged by
    k_i -> d_i.  Once a party is raised no other is saturated: with Q the
    product of the ranks other than k_i and k_j, i saturated means
    k_i >= k_j Q, and j saturated after i is raised would need
    k_j >= d_i Q > k_i Q >= k_j Q^2 >= k_j.  So only the first saturated
    party is raised.  A rank-1 party is saturated only when every other
    rank is 1, and it is raised only when exactly two parties are
    restricted: E is then the top Schmidt value across their cut, and with
    three or more the all-ones class keeps its closed-form rank-one steps.
    """
    restricted = [i for i, (k, d) in enumerate(zip(ks, dims)) if k < d]
    for i in restricted:
        if ks[i] >= prod(ks[:i] + ks[i + 1:]) and (ks[i] > 1 or len(restricted) == 2):
            return i, [p for p in restricted if p != i]
    return None, restricted


def _ascend(t: np.ndarray, ks: list[int], frames: list, haar: tuple[np.ndarray, ...],
            norm2: float, cfg: SolverConfig):
    """Multi-start HOOI over the swept parties, labels 0..n-1 of ``t``
    (``solve_E``).

    Start 0 is the spectral frames in ``frames``, each a (1, k, d) stack,
    and starts 1.. are the Haar stacks ``haar``.  The start value and the
    dimension-tree sweep are each compiled once into a ``_Schedule``, and
    every sweep runs from it.  The live starts' frames are adjoint stacks
    W_p = V_p^dag of shape (S, k_p, d_p), which each sweep replaces.  Only
    a sweep in which some start converges touches the other stacks: it
    writes out that start's frames, value and degenerate flag, and
    compacts the live stacks to the starts left.  Writes the best start's
    (1, k, d) stacks into ``frames`` and returns (its value and degenerate
    flag as (1,) arrays, all starts converged, starts agreeing with the
    best).
    """
    n = len(haar)
    start, sweep = _Schedule(t, ks), _Schedule(t, ks)
    start.norm(start.chain(0, range(n)))
    sweep.sweep(0, list(range(n)))
    live = [np.concatenate([w, h]) for w, h in zip(frames, haar)]
    done_frames = [np.empty_like(w) for w in live]
    n_starts = len(live[0])
    value = np.empty(n_starts)
    converged = np.zeros(n_starts, dtype=bool)
    degenerate = np.zeros(n_starts, dtype=bool)
    index = np.arange(n_starts)
    gap_tol = DEGENERACY_TOL * norm2
    prev, _ = _run(start, live, gap_tol)
    for _ in range(cfg.max_iters):
        obj, cut = _run(sweep, live, gap_tol)
        gain = obj - prev
        if np.any(gain < -ASCENT_SLACK * norm2):
            drop = float(np.max(-gain))
            raise ArithmeticError(f"alternating step decreased the objective by {drop:.3g}")
        done = np.abs(gain) <= cfg.tol * norm2
        if done.any():
            gone, keep = index[done], ~done
            for f, w in zip(done_frames, live):
                f[gone] = w[done]
            value[gone], degenerate[gone], converged[gone] = obj[done], cut[done], True
            live, index, obj, cut = [w[keep] for w in live], index[keep], obj[keep], cut[keep]
            if not index.size:
                break
        prev = obj
    for f, w in zip(done_frames, live):
        f[index] = w
    value[index], degenerate[index] = obj, cut

    best = int(np.argmax(value))
    frames[:n] = [f[best:best + 1] for f in done_frames]
    return (value[best:best + 1], degenerate[best:best + 1], bool(converged.all()),
            int(np.sum(value[best] - value <= AGREEMENT_TOL * norm2)))


def solve_E(state: StateTensor, ks: Sequence[int], cfg: SolverConfig | None = None) -> MonotoneResult:
    """Maximize the product-subspace projection weight at ranks ``ks``.

    A party with k_i = d_i has the identity as its projector, so only the
    restricted parties (k_i < d_i) are solved for.  A rank-saturated party
    (k_i < d_i, k_i >= prod_{j != i} k_j; with k_i = 1 only when exactly
    two parties are restricted) is first raised to k_i = d_i, which leaves
    E unchanged, and the other restricted parties are swept
    (``_swept_parties``).  So on two parties every rank vector, (1,1)
    included, sweeps at most one party and is a Schmidt partial sum.  psi
    is laid out once (``_folded``): the swept parties' axes in party
    order, then the raised party's, then every other party folded into
    one trailing axis that is never projected, and every schedule of the
    solve is compiled on that array.
    With no restricted party the value is the squared norm.  Each swept
    party's spectral step on psi (the top-k eigenvectors of its marginal)
    is start 0; with one swept party its eigenvalue sum is already the
    exact value.  Two or more swept parties also run ``cfg.restarts``
    Haar-random starts, drawn once per shape (``_haar_starts``).  This is
    HOOI (higher-order orthogonal iteration): each party step sets that
    party's frame to the top-k eigenvectors of its conditional reduced
    operator, the exact single-party optimum, so the objective cannot
    decrease.  A sweep steps the swept parties in party order
    (Gauss-Seidel) over a dimension tree (``_Schedule.sweep``), which
    shares partial contractions of psi between party steps: C(n) = n +
    C(ceil(n/2)) + C(floor(n/2)) party contractions per sweep over n
    parties (5, 8, 16, 44 for n = 3, 4, 6, 12) instead of n(n - 1).  The
    sweep is compiled once per solve into a flat schedule of matmuls and
    party steps, and every sweep runs from it (``_run``).  When k_i = 1
    and the conditional operator has rank one (every other swept party has
    rank 1 and no party is folded, as in the all-ones class) the step is
    closed form, the higher-order power method's x / |x| with value |x|^2,
    and no ``eigh`` runs.  All starts sweep together: each party's frames
    are one adjoint stack V^dag of shape (starts, k, d), the form the
    contractions consume.  A start leaves the sweep once its own per-sweep
    gain is at most ``cfg.tol`` times the squared norm; its frames, value
    and degenerate flag are written out then, and the stacks are compacted
    to the starts still live.  A raised party takes one more step after
    the ascent, given the best start's frames, and the value is that
    step's eigenvalue sum.

    The value is a certified lower bound: it is the objective of the
    returned certificate (the identity on every party outside the solve),
    up to round-off.
    ``restarts_agreeing`` counts starts that landed within 1e-8 (relative
    to the squared norm) of the best, as a crude confidence signal.
    """
    _check_pure(state)
    cfg = cfg or SolverConfig()
    ks = _check_ranks(state.dims, ks)
    raised, swept = _swept_parties(state.dims, ks)
    parties = swept + ([] if raised is None else [raised])
    norm2 = squared_norm(state)
    value, converged, agreeing, degenerate = norm2, True, cfg.restarts + 1, False
    frames = [None] * len(parties)
    if parties:
        t, ranks, n = _folded(state, parties), [ks[p] for p in parties], len(swept)
        gap_tol = DEGENERACY_TOL * norm2
        spectral = _Schedule(t, ranks)
        for i in range(n):
            spectral.step(0, i)
        top, cut = _run(spectral, frames, gap_tol)
        if n > 1:
            # the draw of the raised vector, k_i = d_i at the raised party
            shape = [(d, d if p == raised else k) for p, (d, k) in enumerate(zip(state.dims, ks))]
            haar = _haar_starts(tuple(shape), tuple(swept), cfg.seed, cfg.restarts)
            top, cut, converged, agreeing = _ascend(t, ranks, frames, haar, norm2, cfg)
        if raised is not None:
            fill = _Schedule(t, ranks)
            fill.step(fill.chain(0, range(n)), n)
            top, filled = _run(fill, frames, gap_tol)
            cut = cut | filled
        value, degenerate = top[0], cut[0]
    certificate = [None if p in parties else np.eye(d, dtype=complex)
                   for p, d in enumerate(state.dims)]
    for p, w in zip(parties, frames):
        certificate[p] = w[0].conj().T
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
    _check_pure(state)
    _check_covers(grouping, state.n_parties)
    perm = tuple(p for b in grouping.blocks for p in b)
    t = state.tensor().transpose(perm)
    return StateTensor(grouping.block_dims(state.dims), t.reshape(-1), state.label)


# -- background bipartite quantities --

def trace_power_invariants(rho: DensityOp, dmax: int) -> np.ndarray:
    """tr rho^k for k = 1..dmax, from the eigenvalue spectrum."""
    if _integer(dmax, 1) is None:
        raise BadParameter(f"dmax must be an integer >= 1, got {dmax!r}")
    lam = rho.spectrum()
    return np.array([float(np.sum(lam ** k)) for k in range(1, dmax + 1)])


def symmetric_monotones(rho: DensityOp, dmax: int) -> tuple[np.ndarray, list]:
    """Elementary symmetric polynomials S_1..S_dmax of the spectrum and the
    consecutive ratios S_k/S_{k-1} (None where the denominator vanishes,
    that is, falls below SYMMETRIC_TOL tr(rho)^(k-1))."""
    if _integer(dmax, 1) is None:
        raise BadParameter(f"dmax must be an integer >= 1, got {dmax!r}")
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
    if not abs(av.sum() - bv.sum()) <= WEIGHT_TOL * weight:  # NaN fails too
        raise SumMismatch(
            f"vectors have different total weight ({av.sum():.12g} vs {bv.sum():.12g})"
        )
    return bool(np.all(np.cumsum(av) >= np.cumsum(bv) - MAJORIZATION_SLACK * weight))


def nielsen_E(state: StateTensor, grouping: PartyGrouping) -> np.ndarray:
    """Partial sums of the decreasing Schmidt eigenvalues across a two-block cut."""
    return np.cumsum(schmidt_values(state, grouping))


def escalate(cfg: SolverConfig) -> SolverConfig:
    """Same configuration with doubled restarts, for firming up near-ties."""
    return replace(cfg, restarts=2 * cfg.restarts)


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
]
