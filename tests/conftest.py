import os

# one BLAS thread, set before numpy loads: on a 2-CPU machine a second
# OpenBLAS thread made a 64x64 complex matmul ~200x slower (16 ms vs
# 0.07 ms); perfbench/run.py pins the same variables
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from entmono import catalog
from entmono.rng import haar_random_frame, haar_random_state, stream_rng
from entmono.states import DensityOp, partial_trace


@pytest.fixture
def ghz():
    return catalog.ghz()


@pytest.fixture
def w():
    return catalog.w()


@pytest.fixture
def bell_prod():
    return catalog.bell_prod()


@pytest.fixture
def kempe1():
    return catalog.kempe1()


@pytest.fixture
def kempe2():
    return catalog.kempe2()


def random_states(dims, count, seed):
    """Seeded batch of normalized Haar states for property loops."""
    return [haar_random_state(dims, stream_rng(seed, i)) for i in range(count)]


def random_matrix(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def trace_reference(rho: DensityOp) -> dict[str, complex]:
    """The built-in invariants from their partial-trace definitions.

    I2 = tr rho, I4_p = tr r_p^2, I4_4 = I2^2 and
    I6 = tr[(r_0 x 1)(r_1 x 1)(r_2 x 1)], where r_p is rho with party p
    traced out, lifted back by the identity on party p.  Shares no code
    with the contraction engine.
    """
    dims = rho.dims
    side = rho.matrix.shape[0]
    i4, lifted = [], []
    for p in range(3):
        r = partial_trace(rho, {p}).matrix
        i4.append(np.trace(r @ r))
        rest = [q for q in range(3) if q != p]
        full = np.multiply.outer(r.reshape([dims[q] for q in rest] * 2), np.eye(dims[p]))
        rows = {rest[0]: 0, rest[1]: 1, p: 4}
        cols = {rest[0]: 2, rest[1]: 3, p: 5}
        order = [rows[q] for q in range(3)] + [cols[q] for q in range(3)]
        lifted.append(full.transpose(order).reshape(side, side))
    i2 = np.trace(rho.matrix)
    return {
        "I2": i2, "I4_1": i4[0], "I4_2": i4[1], "I4_3": i4[2], "I4_4": i2 * i2,
        "I6": np.trace(lifted[0] @ lifted[1] @ lifted[2]),
    }


def mixed_op(dims, seeds, weights) -> DensityOp:
    """Weighted mixture of seeded Haar states."""
    amps = [haar_random_state(dims, s).amps for s in seeds]
    return DensityOp(dims, sum(w * np.outer(a, a.conj()) for w, a in zip(weights, amps)))


def hooi_reference(state, ks, restarts, seed, max_iters=500, tol=1e-10,
                   agreement_tol=1e-8, degeneracy_tol=1e-10):
    """Multi-start alternating ascent, one start at a time.

    The same starts as the solver (the leading eigenvectors of each
    single-party marginal, then one Haar frame per party from
    ``stream_rng(seed, r)``) and the same stopping rule (per-sweep gain at
    most ``tol`` times the squared norm), written without the solver's
    code.  Returns (best value, starts within ``agreement_tol`` of the
    best, all starts converged, degenerate cut at the best start's last
    sweep); every tolerance is relative to the squared norm.
    """
    t = state.tensor()
    n = t.ndim
    norm2 = float(np.vdot(t, t).real)

    def unfold(x, p):
        return np.moveaxis(x, p, 0).reshape(x.shape[p], -1)

    def top(m, k):
        w, u = np.linalg.eigh(m)
        gap = k < len(w) and w[-k] - w[-k - 1] <= degeneracy_tol * norm2
        return u[:, ::-1][:, :k], float(np.sum(w[::-1][:k])), gap

    def project(frames, skip=None):
        x = t
        for j, v in enumerate(frames):
            if j != skip:
                x = np.moveaxis(np.tensordot(v.conj().T, x, axes=([1], [j])), 0, j)
        return x

    starts = [[top(unfold(t, p) @ unfold(t, p).conj().T, k)[0] for p, k in enumerate(ks)]]
    for r in range(restarts):
        gen = stream_rng(seed, r)
        starts.append([haar_random_frame(d, k, gen) for d, k in zip(state.dims, ks)])

    runs = []
    for frames in starts:
        red = project(frames)
        prev = float(np.vdot(red, red).real)
        converged = False
        for _ in range(max_iters):
            degenerate = False
            for i in range(n):
                x = unfold(project(frames, skip=i), i)
                frames[i], obj, gap = top(x @ x.conj().T, ks[i])
                degenerate = degenerate or gap
            step, prev = obj - prev, obj
            if abs(step) <= tol * norm2:
                converged = True
                break
        runs.append((prev, converged, degenerate))
    values = [v for v, _, _ in runs]
    best = int(np.argmax(values))
    agreeing = sum(values[best] - v <= agreement_tol * norm2 for v in values)
    return values[best], agreeing, all(c for _, c, _ in runs), runs[best][2]
