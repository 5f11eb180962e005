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


def _adjoint(v: np.ndarray) -> np.ndarray:
    """The (1, k, d) adjoint stack W = V^dag of one d x k frame V."""
    return v.conj().T[None]


# The operations of a _Schedule.  A contraction applies W_p to party p's
# axis: _LEAD is one GEMM of all starts' W_p against a (d, rest) copy of
# psi with p's axis first, and on a stack _RIGHT is (A, d) @ W_p^T, _LEFT
# is W_p @ (d, B) and _MID is W_p @ (d, B) for each of A rows, A and B
# being the sizes before and after p's axis.  A party step replaces W_p
# with the top-k frame of X X^dag, X being party p's (d, A B) unfolding:
# _ONE is the rank-one closed form, and _COLS (B = 1, the stack holds
# X^T), _ROWS (A = 1, it holds X) and _GRAM (a transposed copy of X) form
# the Gram matrix for eigh.  _NORM is each start's squared norm.
_LEAD, _RIGHT, _LEFT, _MID, _ONE, _COLS, _ROWS, _GRAM, _NORM = range(9)


class _Schedule:
    """Contractions of psi with stacked adjoint frames, and party steps on
    the results, compiled once into a flat list that ``_run`` executes.

    psi is ``t``, with the party label ``labels[a]`` on axis a (None for an
    axis that is never projected), and ``ks[p]`` is the rank of party p.
    Frames are adjoint stacks W_p = V_p^dag of shape (S, k_p, d_p) for S
    starts, the form every contraction consumes.  Slot 0 holds psi and
    every other slot an (S, ...) stack of partial contractions, whose axes
    keep psi's order except that a _LEAD puts its party first.  No
    contraction transposes a stack: compiling tracks each slot's layout
    and fixes each operation's matmul form and reshape, with the start
    axis left as -1, so a run does no index or layout arithmetic and
    serves any number of live starts.
    """

    def __init__(self, t: np.ndarray, labels: Sequence, ks: Sequence[int]):
        self.t = t
        self.ks = ks
        self.ops: list[tuple] = []
        self.layouts = {0: list(zip(labels, t.shape))}

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
        elif a == 1:
            self.ops.append((_LEFT, src, dst, p, (-1, d, b)))
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
        elif a == 1:
            kind, shape = _ROWS, (-1, d, b)
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
    party label), replacing the frame of every party it steps.

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
        elif kind == _LEFT:
            x[out] = frames[p] @ x[src].reshape(arg)
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
                if kind == _GRAM:
                    y = y.transpose(0, 2, 1, 3).reshape(y.shape[0], arg[2], -1)
                gram = y @ y.conj().transpose(0, 2, 1)
            frames[p], value, cut = _top_eigvecs(gram, out, gap_tol)
            degenerate = degenerate | cut
    return value, degenerate


def objective(state: StateTensor, frame) -> float:
    """Squared norm of (Gamma_0 x ... x Gamma_{N-1}) |psi> for the given frames."""
    frames = _frames_of(frame)
    if len(frames) != state.n_parties or any(
        v.shape[0] != d for v, d in zip(frames, state.dims)
    ):
        raise DimensionMismatch("frame shapes do not match the state's party dims")
    parties = range(state.n_parties)
    schedule = _Schedule(state.tensor(), parties, [v.shape[1] for v in frames])
    schedule.norm(schedule.chain(0, parties))
    value, _ = _run(schedule, [_adjoint(v) for v in frames], 0.0)
    return float(value[0])


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


def _starts(state: StateTensor, ks: tuple[int, ...], restricted: Sequence[int],
            cfg: SolverConfig) -> list[np.ndarray]:
    """Per restricted party, the (restarts + 1, k, d) adjoint stack of start
    frames.

    Start 0 is the deterministic spectral start (leading eigenvectors of
    each single-party marginal, a party step on the uncontracted state);
    starts 1.. are the Haar frames of ``_haar_starts``, drawn once per
    (dims, ranks, restricted parties, seed, restarts) and shared by every
    state of that shape.  ``ks`` is the vector the ascent sweeps, with the
    rank-saturated party (if any) already raised to d_i
    (``_raise_saturated``), so a raised solve draws the starts of its
    raised vector.  Each stack returned is a fresh, writable concatenation.
    """
    haar = _haar_starts(tuple(zip(state.dims, ks)), tuple(restricted), cfg.seed,
                        cfg.restarts)
    spectral = _Schedule(state.tensor(), range(state.n_parties), ks)
    for p in restricted:
        spectral.step(0, p)
    frames = [None] * state.n_parties
    _run(spectral, frames, 0.0)
    return [np.concatenate([frames[p], f]) for p, f in zip(restricted, haar)]


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
    ks = [v.shape[1] for v in certificate]
    ks[p] = k
    parties = range(state.n_parties)
    others = [q for q in parties if q != p and ks[q] < state.dims[q]]
    schedule = _Schedule(state.tensor(), parties, ks)
    schedule.step(schedule.chain(0, others), p)
    frames = [_adjoint(v) if q in others else None for q, v in enumerate(certificate)]
    top, cut = _run(schedule, frames, gap_tol)
    certificate[p] = frames[p][0].conj().T
    return float(top[0]), bool(cut[0])


def _ascend(state: StateTensor, ks: tuple[int, ...], restricted: list[int],
            certificate: list[np.ndarray], norm2: float, cfg: SolverConfig):
    """Multi-start HOOI over the restricted parties (``solve_E``).

    The ascent runs on psi with the restricted parties' axes first, in
    party order, and the unrestricted ones folded into one trailing axis.
    Its start value and its dimension-tree sweep are each compiled once
    into a ``_Schedule``, and every sweep runs from it.  The live starts'
    frames are adjoint stacks W_p = V_p^dag of shape (S, k_p, d_p), which
    each sweep replaces.  Only a sweep in which some start converges
    touches the other stacks: it writes out that start's frames, value
    and degenerate flag, and compacts the live stacks to the starts left.
    Writes the best start's frames into ``certificate`` and returns (best
    value, all starts converged, starts agreeing with the best, degenerate
    cut at the best start).
    """
    n = len(restricted)
    others = [p for p in range(state.n_parties) if p not in restricted]
    t = state.tensor().transpose(restricted + others).reshape(
        [state.dims[p] for p in restricted] + [-1])
    labels, ranks = list(range(n)) + [None], [ks[p] for p in restricted]
    start, sweep = _Schedule(t, labels, ranks), _Schedule(t, labels, ranks)
    start.norm(start.chain(0, range(n)))
    sweep.sweep(0, list(range(n)))
    live = _starts(state, ks, restricted, cfg)
    frames = [np.empty_like(w) for w in live]
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
            for f, w in zip(frames, live):
                f[gone] = w[done]
            value[gone], degenerate[gone], converged[gone] = obj[done], cut[done], True
            live, index, obj, cut = [w[keep] for w in live], index[keep], obj[keep], cut[keep]
            if not index.size:
                break
        prev = obj
    for f, w in zip(frames, live):
        f[index] = w
    value[index], degenerate[index] = obj, cut

    best = int(np.argmax(value))
    for p, f in zip(restricted, frames):
        certificate[p] = f[best].conj().T
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
    a dimension tree (``_Schedule.sweep``), which shares partial
    contractions of psi between party steps: C(n) = n + C(ceil(n/2)) +
    C(floor(n/2)) party contractions per sweep over n parties (5, 8, 16,
    44 for n = 3, 4, 6, 12) instead of n(n - 1).  The sweep is compiled
    once per solve into a flat schedule of matmuls and party steps, and
    every sweep runs from it (``_run``).  When k_i = 1 and the conditional
    operator has rank one (every other restricted party has rank 1 and no
    party is folded, as in the all-ones class) the step is closed form,
    the higher-order power method's x / |x| with value |x|^2, and no
    ``eigh`` runs.  All starts sweep together: each party's frames are one
    adjoint stack V^dag of shape (starts, k, d), the form the contractions
    consume.  A start leaves the sweep once its own per-sweep gain is at
    most ``cfg.tol`` times the squared norm; its frames, value and
    degenerate flag are written out then, and the stacks are compacted to
    the starts still live.

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
