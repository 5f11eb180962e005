import numpy as np
import pytest

from entmono import catalog
from entmono.rng import haar_random_state, stream_rng
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
