import numpy as np
import pytest

from entmono import catalog
from entmono.errors import BadRank, ShapeMismatch
from entmono.monotones import PartyGrouping, SolverConfig, bipartite_E, solve_E
from entmono.oracle import sample_E, trace_product_max
from entmono.rng import haar_random_frame, stream_rng
from entmono.states import squared_norm

from conftest import random_matrix, random_states


def test_sample_E_ghz_approaches_half(ghz):
    best = sample_E(ghz, (2, 1, 1), samples=20000, seed=1)
    assert best <= 0.5 + 1e-12
    assert best >= 0.49


def test_sample_E_w_exceeds_one_third(w):
    # the Monte-Carlo lower bound alone rules out 1/3 for rank (2,1,1)
    best = sample_E(w, (2, 1, 1), samples=20000, seed=2)
    assert best > 0.44
    assert best <= 4 / 9 + 1e-12


def test_sample_E_full_rank_exact(w):
    assert sample_E(w, (2, 2, 2), samples=3, seed=3) == pytest.approx(
        squared_norm(w), abs=1e-12
    )


def test_sample_E_below_solver():
    cfg = SolverConfig(restarts=16, seed=4)
    for i, s in enumerate(random_states((2, 2, 2), 4, seed=80)):
        ks = (1 + i % 2, 1, 1 + (i + 1) % 2)
        mc = sample_E(s, ks, samples=500, seed=i)
        assert mc <= solve_E(s, ks, cfg).value + 1e-9


def test_sample_E_deterministic(ghz):
    a = sample_E(ghz, (1, 1, 1), samples=50, seed=9)
    b = sample_E(ghz, (1, 1, 1), samples=50, seed=9)
    assert a == b


def sample_E_reference(state, ks, samples, seed, block=256):
    """One Haar frame per party and sample, drawn in turn from one stream
    by haar_random_frame; each block's frames stacked and contracted as in
    sample_E, so equal frames give an equal best value."""
    rng = stream_rng(seed)
    n = len(ks)
    letters = "abcdefgh"[:n]
    upper = letters.upper()
    subscripts = ",".join([letters] + [f"s{a}{b}" for a, b in zip(letters, upper)])
    best = 0.0
    for start in range(0, samples, block):
        draws = [[haar_random_frame(d, k, rng) for d, k in zip(state.dims, ks)]
                 for _ in range(min(block, samples - start))]
        frames = [np.stack([draw[p] for draw in draws]).conj() for p in range(n)]
        red = np.einsum(f"{subscripts}->s{upper}", state.tensor(), *frames, optimize=True)
        best = max(best, float((red.real ** 2 + red.imag ** 2).reshape(len(draws), -1)
                               .sum(axis=1).max()))
    return best


@pytest.mark.parametrize("spec, ks, samples", [
    ("ghz", (2, 1, 1), 600),
    ("haar:3x3x3:5", (2, 1, 2), 600),
])
def test_sample_E_draws_the_per_sample_frames(spec, ks, samples):
    # one row of normals per sample and one stacked QR per party and block
    # give the frames of per-sample haar_random_frame calls, so the best
    # value is the same float
    state = catalog.resolve_state(spec)
    got = sample_E(state, ks, samples=samples, seed=11)
    assert got == sample_E_reference(state, ks, samples, seed=11)


def test_sample_E_bad_rank(ghz):
    with pytest.raises(BadRank):
        sample_E(ghz, (3, 1, 1), samples=10, seed=0)


def test_trace_product_max_identity():
    assert trace_product_max([np.eye(4)]) == pytest.approx(4.0, abs=1e-12)


def test_trace_product_max_single_op_nuclear_norm(rng):
    a = random_matrix(rng, 5)
    want = float(np.sum(np.linalg.svd(a, compute_uv=False)))
    assert trace_product_max([a]) == pytest.approx(want, rel=1e-12)


def test_trace_product_max_shape_mismatch(rng):
    with pytest.raises(ShapeMismatch):
        trace_product_max([np.eye(2), np.eye(3)])
    with pytest.raises(ShapeMismatch):
        trace_product_max([random_matrix(rng, 2, 3)])
    with pytest.raises(ShapeMismatch):
        trace_product_max([])


def test_trace_product_recovers_bipartite_monotone():
    # sqrt(rho) P sqrt(rho) Q with rank-k projectors picks out the top
    # min(k1, k2) reduced eigenvalues
    grouping = PartyGrouping.trivial(2)
    for i, s in enumerate(random_states((4, 4), 5, seed=81)):
        rho = np.zeros((4, 4), dtype=complex)
        m = s.tensor()
        rho = m @ m.conj().T
        w, u = np.linalg.eigh(rho)
        sqrt_rho = (u * np.sqrt(np.maximum(w, 0))) @ u.conj().T
        k1, k2 = 1 + i % 4, 1 + (i + 2) % 4
        p = np.diag([1.0] * k2 + [0.0] * (4 - k2))
        q = np.diag([1.0] * k1 + [0.0] * (4 - k1))
        got = trace_product_max([sqrt_rho, p, sqrt_rho, q])
        want = bipartite_E(s, grouping, k1, k2)
        assert got == pytest.approx(want, abs=1e-10)


def test_weak_majorization_of_products(rng):
    for _ in range(10):
        a = random_matrix(rng, 5)
        b = random_matrix(rng, 5)
        sab = np.linalg.svd(a @ b, compute_uv=False)
        sa = np.linalg.svd(a, compute_uv=False)
        sb = np.linalg.svd(b, compute_uv=False)
        lhs = np.cumsum(sab)
        rhs = np.cumsum(sa * sb)
        assert np.all(lhs <= rhs + 1e-10)
