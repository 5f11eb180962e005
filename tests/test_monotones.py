import itertools
from math import comb, prod

import numpy as np
import pytest

from entmono import catalog, locc, monotones
from entmono.errors import (
    BadGrouping,
    BadParameter,
    BadRank,
    DimensionMismatch,
    NonUnitary,
    SumMismatch,
)
from entmono.monotones import (
    E_ensemble,
    MonotoneResult,
    ProjectorFrame,
    SolverConfig,
    bipartite_E,
    coarse_grain,
    majorizes,
    nielsen_E,
    objective,
    solve_E,
    symmetric_monotones,
    trace_power_invariants,
)
from entmono.rng import haar_random_frame, haar_random_state, haar_random_unitary, stream_rng
from entmono.states import (
    DensityOp,
    PartyGrouping,
    StateTensor,
    apply_local_unitaries,
    apply_unilocal_kraus,
    new_state,
    odot,
    reduced_density,
    schmidt_values,
    squared_norm,
)

from conftest import hooi_reference, random_states

CFG = SolverConfig(restarts=32, seed=1)
FAST = SolverConfig(restarts=8, seed=2)


def spectrum_state(lams):
    """Bipartite state whose block-0 reduced spectrum is ``lams``."""
    d = len(lams)
    amps = np.zeros(d * d, dtype=complex)
    for i, lam in enumerate(lams):
        amps[i * d + i] = np.sqrt(lam)
    return new_state([d, d], amps)


# -- objective --

def test_objective_full_rank_is_norm(w):
    frame = ProjectorFrame(tuple(np.eye(2, dtype=complex) for _ in range(3)))
    assert objective(w, frame) == pytest.approx(squared_norm(w), abs=1e-12)


def test_objective_ghz_basis_frames(ghz):
    e0 = np.array([[1.0], [0.0]], dtype=complex)
    assert objective(ghz, [e0, e0, e0]) == pytest.approx(0.5, abs=1e-12)


def test_objective_bounded(rng):
    for i, s in enumerate(random_states((2, 2, 2), 5, seed=21)):
        frames = [haar_random_frame(2, 1 + (i + p) % 2, stream_rng(3, 10 * i + p))
                  for p in range(3)]
        v = objective(s, frames)
        assert -1e-12 <= v <= squared_norm(s) + 1e-12


def test_objective_shape_check(ghz):
    with pytest.raises(DimensionMismatch):
        objective(ghz, [np.eye(2), np.eye(2), np.eye(3)])


def test_objective_folds_unitary_frames(w):
    # a k_i = d_i frame is unitary, so its projector is the identity
    e0 = np.array([[1.0], [0.0]], dtype=complex)
    u = haar_random_unitary(2, stream_rng(5, 0))
    want = objective(w, [np.eye(2), e0, e0])
    assert objective(w, [u, e0, e0]) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("frame, error", [
    (np.array([[1.0, 1.0], [0.0, 1.0]]), NonUnitary),  # columns not orthonormal
    (np.array([[2.0], [0.0]]), NonUnitary),  # a column not normalized
    (np.array([1.0, 0.0]), DimensionMismatch),  # 1-D
    (np.ones((2, 3)) / np.sqrt(2), DimensionMismatch),  # k > d
    (np.zeros((2, 0)), DimensionMismatch),  # k = 0
], ids=["skew", "unnormalized", "1-D", "k>d", "k=0"])
def test_projector_frame_checks_its_frames(frame, error):
    with pytest.raises(error):
        ProjectorFrame((np.eye(2), frame))


# -- bipartite closed form --

def test_bipartite_E_partial_spectrum():
    s = spectrum_state([0.5, 0.3, 0.2])
    assert bipartite_E(s, PartyGrouping.trivial(2), 2, 3) == pytest.approx(0.8, abs=1e-12)


def test_bipartite_E_ghz(ghz):
    v = bipartite_E(ghz, PartyGrouping.split({0}, 3), 1, 1)
    assert v == pytest.approx(0.5, abs=1e-12)


def test_bipartite_E_full_rank_is_norm():
    s = spectrum_state([0.4, 0.6])
    assert bipartite_E(s, PartyGrouping.trivial(2), 2, 2) == pytest.approx(1.0, abs=1e-12)


def test_bipartite_E_bad_rank():
    s = spectrum_state([0.5, 0.5])
    with pytest.raises(BadRank):
        bipartite_E(s, PartyGrouping.trivial(2), 3, 1)
    with pytest.raises(BadGrouping):
        bipartite_E(s, PartyGrouping(((0, 1),)), 1, 1)


def test_bipartite_E_checks_the_party_count():
    # a three-party grouping on a two-party state, before its block dims
    with pytest.raises(BadGrouping):
        bipartite_E(haar_random_state((3, 4), 1), PartyGrouping.split((0,), 3), 1, 1)


# -- the solver on the reference states --

@pytest.mark.parametrize(
    "ks,want",
    [((2, 1, 1), 0.5), ((1, 2, 1), 0.5), ((1, 1, 2), 0.5), ((1, 1, 1), 0.5),
     ((2, 2, 1), 0.5), ((2, 2, 2), 1.0)],
)
def test_solve_ghz_table(ghz, ks, want):
    assert solve_E(ghz, ks, CFG).value == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize(
    "ks,want",
    [((1, 1, 1), 4 / 9), ((2, 2, 1), 2 / 3), ((2, 1, 2), 2 / 3), ((1, 2, 2), 2 / 3)],
)
def test_solve_w_table(w, ks, want):
    assert solve_E(w, ks, CFG).value == pytest.approx(want, abs=1e-6)


def test_solve_w_one_restricted_pair():
    # Optimum at both rank-1 frames tilted to (sqrt(2/3), sqrt(1/3)):
    # value (|b0 c1 + b1 c0|^2 + |b0 c0|^2)/3 = 4/9, strictly above the
    # computational-basis stationary value 1/3.  Cross-checked against the
    # Monte-Carlo oracle in test_oracle.py.
    from entmono.catalog import w as w_state

    res = solve_E(w_state(), (2, 1, 1), CFG)
    assert res.value == pytest.approx(4 / 9, abs=1e-9)


@pytest.mark.parametrize(
    "ks,want",
    [((2, 1, 1), 0.5), ((1, 2, 1), 0.5), ((1, 1, 2), 0.5), ((1, 1, 1), 0.5),
     ((1, 2, 2), 0.5), ((2, 1, 2), 0.5), ((2, 2, 1), 1.0)],
)
def test_solve_bell_prod_table(bell_prod, ks, want):
    assert solve_E(bell_prod, ks, CFG).value == pytest.approx(want, abs=1e-6)


def test_solve_rejects_bad_rank(w):
    with pytest.raises(BadRank):
        solve_E(w, (3, 1, 1), CFG)
    with pytest.raises(BadRank):
        solve_E(w, (1, 1), CFG)


def test_result_contract(w):
    res = solve_E(w, (1, 1, 1), CFG)
    assert isinstance(res, MonotoneResult)
    assert res.value == pytest.approx(objective(w, res.certificate), abs=1e-10)
    assert res.value <= squared_norm(w) + 1e-10
    assert res.converged
    assert 1 <= res.restarts_agreeing <= CFG.restarts + 1
    d = res.to_dict()
    assert set(d) == {"value", "ranks", "converged", "restarts_agreeing"}
    assert d["ranks"] == [1, 1, 1]
    assert res.certificate.ranks == (1, 1, 1)


@pytest.mark.parametrize("ks", [(1, 1, 1), (2, 2, 1)])
def test_certificate_frames_own_their_memory(ks):
    # (1,1,1) iterates over a stack of starts, (2,2,1) is the closed form;
    # a view would keep the whole stack (or eigenvector matrix) alive
    res = solve_E(catalog.resolve_state("haar:2x2x2:1"), ks, FAST)
    for v in res.certificate.frames:
        assert v.base is None
        assert not v.flags.writeable


def test_report_rows_own_their_memory():
    # one (classes, 2) buffer per report row array, not a view over a temporary
    w, ghz = catalog.w(), catalog.ghz()
    dlocc, slocc = locc.compare_dlocc(w, ghz, cfg=FAST), locc.slocc_bound(w, ghz, cfg=FAST)
    for rows in (dlocc.values, dlocc.blocked, slocc.values):
        assert rows.base is None
        assert rows.shape == (max(dlocc.index) + 1, 2)
        assert not rows.flags.writeable


def test_solver_matches_closed_form_when_reducible():
    # one restricted party is filled given the identity on the others; on
    # 5x2x2 at (2,2,1) party 0 is raised and filled after party 2
    rows = [(s, (1 + i % 3, 2, 2), PartyGrouping.split({0}, 3), 1 + i % 3)
            for i, s in enumerate(random_states((3, 2, 2), 6, seed=30))]
    rows.append((haar_random_state((5, 2, 2), 3), (2, 2, 1), PartyGrouping.split({2}, 3), 1))
    for s, ks, split, k in rows:
        res = solve_E(s, ks, FAST)
        want = bipartite_E(s, split, k, 4)
        assert res.value == pytest.approx(want, abs=1e-8)
        assert abs(objective(s, res.certificate) - res.value) <= 1e-12 * squared_norm(s)
    assert monotones._swept_parties((5, 2, 2), (2, 2, 1)) == (0, [2])


@pytest.mark.parametrize("spec, ks", [
    ("haar:16x16:1", (1, 1)),
    ("haar:3x5:2", (1, 1)),
    ("haar:1x3x3:1", (1, 1, 1)),
])
@pytest.mark.parametrize("c", [1, 1e-4, 1e4])
def test_rank_one_pair_is_the_top_schmidt_value(monkeypatch, spec, ks, c):
    # with exactly two restricted parties the all-ones vector raises the
    # first, so the other's spectral step is exact and no ascent runs
    monkeypatch.setattr(monotones, "_ascend", lambda *args: pytest.fail("ascent ran"))
    s = catalog.resolve_state(spec)
    s = StateTensor(s.dims, c * s.amps)
    n = s.n_parties
    res = solve_E(s, ks, FAST)
    norm2 = squared_norm(s)
    assert abs(res.value - nielsen_E(s, PartyGrouping.split(range(n - 1), n))[0]) <= 1e-14 * norm2
    assert abs(objective(s, res.certificate) - res.value) <= 1e-14 * norm2
    assert res.ranks == ks and res.certificate.ranks == ks


def test_solver_bipartite_matches_closed_form():
    for i, s in enumerate(random_states((4, 3), 6, seed=31)):
        k1, k2 = 1 + i % 3, 1 + (i + 1) % 3
        res = solve_E(s, (k1, k2), FAST)
        want = bipartite_E(s, PartyGrouping.trivial(2), k1, k2)
        assert res.value == pytest.approx(want, abs=1e-8)


def test_solver_unnormalized_homogeneity(w):
    scaled = StateTensor(w.dims, 1.3 * w.amps)
    v = solve_E(scaled, (1, 1, 1), CFG).value
    assert v == pytest.approx(1.69 * 4 / 9, abs=1e-6)


@pytest.mark.parametrize("ks", [(1, 1, 1), (2, 2, 1), (2, 3, 3)])
@pytest.mark.parametrize("c", [1e-8, 1e-4, 1e4, 1e8])
def test_solver_scales_with_the_state(ks, c):
    # every solver threshold is relative to the squared norm, so the
    # ascent takes the same path on c psi as on psi
    s = catalog.resolve_state("haar:3x3x3:5")
    scaled = StateTensor(s.dims, c * s.amps)
    base = solve_E(s, ks, CFG)
    res = solve_E(scaled, ks, CFG)
    assert res.value == pytest.approx(c * c * base.value, rel=1e-9)
    assert res.restarts_agreeing == base.restarts_agreeing
    assert res.converged == base.converged


@pytest.mark.parametrize("spec", ["haar:3x3x3:5", "haar:2x2x2x2:1"])
@pytest.mark.parametrize("c", [1e-8, 1e-4, 1e4, 1e8])
def test_schmidt_spectra_scale_with_the_state(spec, c):
    # no absolute Hermiticity or positivity check stands between X X^dag
    # and its spectrum, on any cut
    s = catalog.resolve_state(spec)
    n = s.n_parties
    scaled = StateTensor(s.dims, c * s.amps)
    scale = c * c * squared_norm(s)
    for r in range(n - 1):
        for extra in itertools.combinations(range(1, n), r):
            split = PartyGrouping.split((0,) + extra, n)
            for f in (schmidt_values, nielsen_E):
                np.testing.assert_allclose(
                    f(scaled, split), c * c * f(s, split), rtol=0, atol=1e-9 * scale)
            want = c * c * bipartite_E(s, split, 2, 2)
            assert bipartite_E(scaled, split, 2, 2) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("spec, ranks", [
    ("haar:4x4x4:1", [(2, 1, 2), (4, 1, 2), (2, 1, 4), (3, 1, 2)]),
    ("w", [(1, 1, 1), (2, 1, 1), (1, 2, 1)]),
])
def test_rank_class_shares_one_value(spec, ranks):
    # E_(k) is unchanged by k_i -> min(k_i, prod_{j != i} k_j): party i's
    # conditional operator has at most that rank
    s = catalog.resolve_state(spec)
    values = [solve_E(s, ks, CFG).value for ks in ranks]
    assert max(values) - min(values) <= 1e-9


def raised_ranks(dims, ks):
    """ks with k_i -> d_i, in party order against the vector raised so far,
    wherever k_i < d_i and k_i >= prod_{j != i} k_j, a rank-1 party only
    when exactly two parties of ks are restricted (k_i < d_i)."""
    pair = sum(k < d for k, d in zip(ks, dims)) == 2
    ks = list(ks)
    for i, d in enumerate(dims):
        if (pair or ks[i] > 1) and ks[i] < d and ks[i] >= prod(ks[:i] + ks[i + 1:]):
            ks[i] = d
    return tuple(ks)


RAISED = [(dims, ks) for dims in ((3, 3, 3), (4, 4, 4), (3, 4, 5))
          for ks in itertools.product(*(range(1, d + 1) for d in dims))
          if raised_ranks(dims, ks) != ks]


def test_every_raisable_rank_vector_is_covered():
    assert len(RAISED) == 6 + 18 + 22
    assert ((4, 4, 4), (2, 1, 2)) in RAISED and ((3, 3, 3), (2, 2, 1)) in RAISED


def lowered_ranks(ks):
    """One application of the rank-class map k_i -> min(k_i, prod_{j != i} k_j)."""
    return tuple(min(k, prod(ks[:i] + ks[i + 1:])) for i, k in enumerate(ks))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_at_most_one_party_is_raised(n):
    # walking every party against the vector raised so far never raises a
    # second one, so the solver raises only the first saturated party; by
    # the same argument the rank-class map lowers at most one party, and
    # one application is its fixed point
    for dims in itertools.product(range(2, 6), repeat=n):
        for ks in itertools.product(*(range(1, d + 1) for d in dims)):
            walked = raised_ranks(dims, ks)
            i, swept = monotones._swept_parties(dims, ks)
            changed = [p for p in range(n) if walked[p] != ks[p]]
            assert changed == ([] if i is None else [i])
            assert swept == [p for p in range(n) if walked[p] < dims[p]]
            low = lowered_ranks(ks)
            assert lowered_ranks(low) == low
            assert sum(a != b for a, b in zip(low, ks)) <= 1


@pytest.mark.parametrize("dims, ks", RAISED)
def test_rank_saturated_parties_are_raised_without_changing_E(dims, ks):
    # the raised party's conditional operator has rank <= k_i, so solving at
    # k_i = d_i and filling its frame from that operator afterwards loses
    # nothing; the result still reports the requested ranks
    state = haar_random_state(dims, 11)
    raised = raised_ranks(dims, ks)
    res, full = solve_E(state, ks, FAST), solve_E(state, raised, FAST)
    assert abs(res.value - full.value) <= 1e-10 * squared_norm(state)
    assert res.ranks == ks
    assert [v.shape for v in res.certificate.frames] == list(zip(dims, ks))
    assert objective(state, res.certificate) == pytest.approx(res.value, abs=1e-12)
    for c in (1e-4, 1e4):
        scaled = solve_E(StateTensor(dims, c * state.amps), ks, FAST)
        assert scaled.value == pytest.approx(c ** 2 * res.value, rel=1e-10)


@pytest.mark.parametrize("spec, ks", [
    ("haar:3x3x3:1", (2, 2, 1)),
    ("haar:4x4x4:1", (2, 1, 2)),
    ("haar:4x4x4:2", (2, 1, 2)),
    ("haar:4x4x4:1", (3, 1, 1)),
    ("haar:3x4x5:1", (2, 2, 1)),
    ("haar:3x4x5:1", (1, 3, 2)),
    ("haar:3x4x5:1", (2, 1, 3)),
])
def test_raised_solve_matches_the_unraised_reference(spec, ks):
    # the per-start reference sweeps ks itself, the raised party included;
    # the two may stop at different local maxima, but the raised solve is
    # never below the converged reference
    state = catalog.resolve_state(spec)
    assert raised_ranks(state.dims, ks) != ks
    value, _, converged, _ = hooi_reference(state, ks, CFG.restarts, CFG.seed)
    assert converged
    assert solve_E(state, ks, CFG).value >= value - 1e-10 * squared_norm(state)


def test_all_ones_class_is_never_raised(monkeypatch):
    # with three or more restricted parties, k_i = 1 keeps the closed-form
    # rank-one steps of the all-ones class
    calls = []
    step = monotones._rank_one_step
    monkeypatch.setattr(monotones, "_rank_one_step",
                        lambda x, gap_tol: calls.append(x.shape) or step(x, gap_tol))
    assert raised_ranks((2,) * 4, (1,) * 4) == (1,) * 4
    solve_E(catalog.resolve_state("haar:2x2x2x2:1"), (1,) * 4, FAST)
    assert calls


def test_haar_starts_are_drawn_once_per_shape(monkeypatch):
    # the Haar starts depend only on (dims, ranks, seed, restarts): a solve
    # on another state of the same shape draws nothing and matches a solve
    # from a fresh draw, byte for byte
    dims, ks = (4, 4, 4), (2, 2, 2)
    monotones._haar_starts.cache_clear()
    solve_E(haar_random_state(dims, 1), ks, FAST)
    calls = []
    for name in ("stream_rng", "_haar_frames"):
        f = getattr(monotones, name)
        monkeypatch.setattr(monotones, name,
                            lambda *a, f=f, name=name: calls.append(name) or f(*a))
    state = haar_random_state(dims, 2)
    shared = solve_E(state, ks, FAST)
    assert calls == []
    monotones._haar_starts.cache_clear()
    fresh = solve_E(state, ks, FAST)
    assert calls.count("stream_rng") == FAST.restarts and calls.count("_haar_frames") == 1
    assert shared.value == fresh.value
    for a, b in zip(shared.certificate.frames, fresh.certificate.frames):
        assert a.tobytes() == b.tobytes()


def test_cached_haar_starts_are_read_only():
    stacks = monotones._haar_starts(((3, 2), (3, 2), (3, 1)), (0, 1, 2), 0, 4)
    # adjoint stacks W = V^dag, (restarts, k, d)
    assert [f.shape for f in stacks] == [(4, 2, 3), (4, 2, 3), (4, 1, 3)]
    for f in stacks:
        with pytest.raises(ValueError):
            f[0, 0, 0] = 1


@pytest.mark.parametrize(
    "spec,ks,cfg",
    [("haar:2x2x2:1", (1, 1, 1), CFG),
     ("haar:3x3x3:1", (2, 2, 1), CFG),
     ("haar:2x2x2x2:1", (1, 1, 1, 1), CFG),
     ("haar:3x3x3:2", (2, 2, 1), SolverConfig(restarts=8, max_iters=1, seed=3)),
     # a degenerate cut at the optimum, on party 0 and not on the last party
     ("bell-prod", (2, 1, 1), CFG),
     # k_i = d_i parties first or in the middle, folded out of the ascent
     # but swept by the reference
     ("haar:4x4x4:1", (4, 1, 2), CFG),
     ("haar:2x2x2x2:1", (1, 2, 1, 1), CFG),
     ("w", (2, 1, 1), CFG),
     # dimension-tree sweeps: an odd split, mixed ranks around a folded
     # party in the middle, and one sweep of rank-one steps
     ("haar:2x2x2x2x2:1", (1,) * 5, CFG),
     ("haar:2x2x2x2x2x2:1", (1, 2, 1, 2, 1, 1), CFG),
     ("haar:2x2x2x2x2x2:1", (1,) * 6, SolverConfig(restarts=32, max_iters=1, seed=1)),
     # stopped by max_iters while starts are still live: in each, 4 of the
     # 9 starts have left the live stacks before the last sweep
     ("haar:8x8x8:1", (3, 3, 3), SolverConfig(restarts=8, max_iters=60, seed=1)),
     ("haar:2x2x2x2x2x2:2", (1,) * 6, SolverConfig(restarts=8, max_iters=45, seed=1)),
     ("haar:4x4x4:1", (2, 2, 2), SolverConfig(restarts=8, max_iters=26, seed=1))],
)
def test_batched_ascent_matches_per_start_reference(spec, ks, cfg):
    # the reference sweeps the vector the solver sweeps: a rank-saturated
    # party raised to k_i = d_i, as (2,2,1) -> (3,2,1) on 3x3x3, is the
    # identity there, so after one sweep both agree on the raised problem
    state = catalog.resolve_state(spec)
    res = solve_E(state, ks, cfg)
    value, agreeing, converged, degenerate = hooi_reference(
        state, raised_ranks(state.dims, ks), cfg.restarts, cfg.seed,
        max_iters=cfg.max_iters, tol=cfg.tol)
    assert res.value == pytest.approx(value, abs=1e-10)
    assert res.restarts_agreeing == agreeing
    assert res.converged == converged
    assert res.degenerate == degenerate
    assert objective(state, res.certificate) == pytest.approx(res.value, abs=1e-12)


@pytest.mark.parametrize("spec, ks", [
    ("haar:4x4x4:1", (4, 1, 2)),
    ("haar:2x2x2x2:1", (1, 2, 1, 1)),
    ("haar:2x2x2x2:1", (2, 2, 1, 1)),
    ("w", (2, 1, 1)),
])
def test_unrestricted_parties_get_no_eigenvector_step(monkeypatch, spec, ks):
    # a k_i = d_i party's projector is the identity: no spectral start,
    # sweep step or closed form may diagonalize for it
    top_eigvecs = monotones._top_eigvecs

    def checked(m, k, gap_tol):
        assert k < m.shape[-1]
        return top_eigvecs(m, k, gap_tol)

    monkeypatch.setattr(monotones, "_top_eigvecs", checked)
    solve_E(catalog.resolve_state(spec), ks, FAST)


@pytest.mark.parametrize("spec, ks", [
    ("haar:4x4x4:1", (2, 4, 4)),  # a lone swept party
    ("haar:5x2x2:1", (2, 2, 1)),  # a lone swept party and a raised one
    ("haar:3x3x3:1", (2, 2, 1)),  # an ascent and a raised party
    ("haar:2x2x2:1", (1, 1, 1)),  # an all-ones ascent
    ("haar:5x2x2:1", (4, 2, 2)),  # a raised party and no swept one
    ("kempe1", (2, 2, 2)),  # no restricted party: no schedule
])
def test_every_schedule_of_a_solve_is_built_on_one_array(monkeypatch, spec, ks):
    # psi is laid out once per solve, and the spectral start, the ascent
    # and the raised party's step are all compiled on that array
    arrays = []
    init = monotones._Schedule.__init__

    def recorded(self, t, *args):
        arrays.append(t)
        init(self, t, *args)

    monkeypatch.setattr(monotones._Schedule, "__init__", recorded)
    state = catalog.resolve_state(spec)
    solve_E(state, ks, FAST)
    assert len({id(t) for t in arrays}) == int(any(k < d for k, d in zip(ks, state.dims)))


@pytest.mark.parametrize("n, want", [(2, 2), (3, 5), (4, 8), (5, 12), (6, 16), (12, 44)])
def test_sweep_contractions_follow_the_dimension_tree(monkeypatch, n, want):
    # one sweep over n restricted parties costs C(n) = n + C(ceil(n/2)) +
    # C(floor(n/2)), C(1) = 0, party contractions, against n(n - 1) when
    # every party step contracts all the others afresh; two rank-1 parties
    # alone are a Schmidt sum and sweep nothing, so n = 2 runs beside a
    # folded third party
    run = monotones._run
    contractions = (monotones._LEAD, monotones._RIGHT, monotones._MID)
    count = 0

    def counted(schedule, frames, gap_tol):
        nonlocal count
        count += sum(op[0] in contractions for op in schedule.ops)
        return run(schedule, frames, gap_tol)

    monkeypatch.setattr(monotones, "_run", counted)
    ks = (1,) * n + (2,) * (n == 2)
    state = catalog.resolve_state("haar:" + "x".join(["2"] * len(ks)) + ":1")
    totals = []
    for iters in (1, 2):
        count = 0
        res = solve_E(state, ks, SolverConfig(restarts=4, max_iters=iters, seed=1))
        totals.append(count)
        if iters == 1:
            assert not res.converged  # so a second sweep runs
    assert totals[1] - totals[0] == want


@pytest.mark.parametrize("d", [2, 3, 8])
def test_rank_one_step_is_the_top_eigenvector(d):
    # x x^dag has the single nonzero eigenvalue |x|^2, so the closed-form
    # step must give eigh's value, degenerate flag and frame (up to phase)
    gen = np.random.default_rng(d)
    x = gen.standard_normal((12, d, 1)) + 1j * gen.standard_normal((12, d, 1))
    gap_tol = 1e-10
    x[3] = 0
    x[5] *= np.sqrt(0.5 * gap_tol) / np.linalg.norm(x[5])  # below the threshold
    x[7] *= np.sqrt(2 * gap_tol) / np.linalg.norm(x[7])  # just above it
    x[9, 1:] = 0
    frame, value, degenerate = monotones._rank_one_step(x, gap_tol)
    want_frame, want_value, want_degenerate = monotones._top_eigvecs(
        x @ x.conj().transpose(0, 2, 1), 1, gap_tol)
    assert frame.shape == want_frame.shape == (12, 1, d)  # adjoint frames
    np.testing.assert_allclose(value, want_value, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(degenerate, want_degenerate)
    assert degenerate.tolist() == [i in (3, 5) for i in range(12)]
    np.testing.assert_allclose(np.linalg.norm(frame, axis=(1, 2)), 1, rtol=0, atol=1e-14)
    overlap = np.abs(np.sum(frame.conj() * want_frame, axis=(1, 2)))
    nonzero = np.arange(12) != 3
    np.testing.assert_allclose(overlap[nonzero], 1, rtol=0, atol=1e-12)


def _dicke_E(n, k):
    return comb(n, k) * (k / n) ** k * ((n - k) / n) ** (n - k)


def _check_all_ones(state, want):
    # default SolverConfig; the solver's value is a lower bound
    res = solve_E(state, (1,) * state.n_parties)
    assert want - 1e-10 <= res.value <= want + 1e-12
    assert res.converged


@pytest.mark.parametrize("spec, want", [
    *[(f"ghz:{n}", 0.5) for n in (3, 6, 8, 12)],
    *[(f"w:{n}", ((n - 1) / n) ** (n - 1)) for n in (3, 6, 8, 12)],
    *[(f"dicke:{n}:{k}", _dicke_E(n, k)) for n, k in ((6, 3), (8, 2), (8, 4), (12, 3), (12, 6))],
])
def test_all_ones_class_closed_forms(spec, want):
    # E_(1,...,1) is the largest squared overlap with a product state: 1/2
    # for GHZ_n and C(n,k) (k/n)^k ((n-k)/n)^(n-k) for the Dicke state
    # D(n,k), W_n being k = 1 (Wei & Goldbart, PRA 68, 042307, 2003)
    _check_all_ones(catalog.resolve_state(spec), want)


@pytest.mark.parametrize("n", [3, 6, 8, 12])
def test_all_ones_class_of_a_product_state_is_its_norm(n):
    gen = np.random.default_rng(n)
    amps = np.ones(1, dtype=complex)
    for _ in range(n):
        v = gen.standard_normal(2) + 1j * gen.standard_normal(2)
        amps = np.kron(amps, v / np.linalg.norm(v))
    state = new_state([2] * n, 1.7 * amps)
    _check_all_ones(state, squared_norm(state))


@pytest.mark.parametrize("dims, ks", [
    ((2, 2, 2), (1, 1, 1)),
    ((3, 3, 3), (3, 1, 2)),
    ((8, 8, 8), (3, 3, 3)),
    ((2,) * 6, (1, 2, 1, 2, 1, 1)),
])
@pytest.mark.parametrize("restarts", [1, 64])
def test_starts_are_the_per_restart_haar_frames(dims, ks, restarts):
    # one row of normals and one stacked QR per party draw, byte for byte,
    # the frames that haar_random_frame draws from each restart's stream;
    # k = d parties still take their draws but get no stack
    cfg = SolverConfig(restarts=restarts, seed=7)
    restricted = tuple(p for p, (d, k) in enumerate(zip(dims, ks)) if k < d)
    stacks = monotones._haar_starts(tuple(zip(dims, ks)), restricted, cfg.seed, cfg.restarts)
    assert len(stacks) == len(restricted)
    for stack, p in zip(stacks, restricted):
        assert stack.shape == (restarts, ks[p], dims[p])  # adjoints V^dag
    for r in range(restarts):
        rng = stream_rng(cfg.seed, r)
        want = [haar_random_frame(d, k, rng) for d, k in zip(dims, ks)]
        for stack, p in zip(stacks, restricted):
            assert stack[r].tobytes() == want[p].conj().T.tobytes()


@pytest.mark.parametrize("tol", [0.0, -1e-10, 1.0, 2.0, float("inf"), float("nan")])
def test_solver_config_needs_a_tolerance_below_one(tol):
    # a relative per-sweep gain never reaches 1, so tol >= 1 would stop
    # every start after its first sweep and call it converged
    with pytest.raises(BadParameter):
        SolverConfig(tol=tol)


def test_solver_local_unitary_invariance():
    for i, s in enumerate(random_states((2, 2, 2), 4, seed=32)):
        ks = (1 + i % 2, 1 + (i + 1) % 2, 1)
        units = [haar_random_unitary(2, stream_rng(900 + i, p)) for p in range(3)]
        moved = apply_local_unitaries(s, units)
        assert solve_E(moved, ks, CFG).value == pytest.approx(
            solve_E(s, ks, CFG).value, abs=1e-7
        )


def test_solver_rank_monotonicity():
    for i, s in enumerate(random_states((2, 2, 2), 4, seed=33)):
        small = solve_E(s, (1, 1, 1), CFG).value
        for ks in ((2, 1, 1), (1, 2, 1), (1, 1, 2)):
            assert solve_E(s, ks, CFG).value >= small - 1e-8


def test_supermultiplicativity_small():
    a_list = random_states((2, 2, 2), 3, seed=34)
    b_list = random_states((2, 2, 2), 3, seed=35)
    for a, b in zip(a_list, b_list):
        ea = solve_E(a, (1, 2, 1), CFG).value
        eb = solve_E(b, (2, 1, 1), CFG).value
        merged = solve_E(odot(a, b), (2, 2, 1), CFG)
        assert merged.value >= ea * eb - 1e-7


def test_product_state_neutrality(w):
    prod = new_state([2, 2, 2], np.kron(np.kron([1, 0], [1, 0]), [0, 1]))
    merged = odot(w, prod)
    v = solve_E(merged, (1, 1, 1), CFG).value
    assert v == pytest.approx(4 / 9, abs=1e-7)


def test_unilocal_nondecrease_small(w):
    iso = haar_random_frame(4, 2, seed=77)
    kraus = [iso[:2, :], iso[2:, :]]
    branches = apply_unilocal_kraus(w, 1, kraus)
    before = solve_E(w, (1, 1, 1), CFG).value
    after = E_ensemble(branches, (1, 1, 1), CFG)
    assert after >= before - 1e-6


# -- ensembles --

def test_ensemble_singleton(w):
    assert E_ensemble([w], (1, 1, 1), CFG) == pytest.approx(
        solve_E(w, (1, 1, 1), CFG).value, abs=1e-12
    )


def test_ensemble_ghz_measured_branches(ghz):
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    branches = apply_unilocal_kraus(ghz, 0, [p0, p1])
    # both branches are product states of weight 1/2, so each contributes
    # its squared norm
    assert E_ensemble(branches, (1, 1, 1), CFG) == pytest.approx(1.0, abs=1e-9)


# -- coarse graining --

def test_coarse_grain_trivial(w):
    out = coarse_grain(w, PartyGrouping.trivial(3))
    assert out.dims == w.dims
    np.testing.assert_allclose(out.amps, w.amps, atol=0)


def test_coarse_grain_dims(ghz):
    out = coarse_grain(ghz, PartyGrouping(((0, 1), (2,))))
    assert out.dims == (4, 2)
    np.testing.assert_allclose(out.amps, ghz.amps, atol=0)  # natural order


def test_coarse_grain_permuting_blocks():
    s = new_state([2, 3], np.arange(6, dtype=complex))
    out = coarse_grain(s, PartyGrouping(((1,), (0,))))
    assert out.dims == (3, 2)
    np.testing.assert_allclose(out.tensor(), s.tensor().T, atol=0)


def test_coarse_E_dominates_fine():
    for s in random_states((2, 2, 2), 3, seed=36):
        fine = solve_E(s, (2, 1, 1), CFG).value
        coarse = coarse_grain(s, PartyGrouping(((0, 1), (2,))))
        coarse_val = bipartite_E(coarse, PartyGrouping.trivial(2), 2, 1)
        assert coarse_val >= fine - 1e-8


# -- background bipartite quantities --

def test_trace_powers_paper_values():
    rho = DensityOp((3,), np.diag([0.5, 0.3, 0.2]))
    np.testing.assert_allclose(
        trace_power_invariants(rho, 3), [1.0, 0.38, 0.16], atol=1e-12
    )
    rho2 = DensityOp((3,), np.diag([0.51, 0.28, 0.21]))
    np.testing.assert_allclose(
        trace_power_invariants(rho2, 3), [1.0, 0.3826, 0.163864], atol=1e-12
    )


def test_trace_powers_maximally_mixed():
    rho = DensityOp((2,), np.eye(2) / 2)
    assert trace_power_invariants(rho, 2)[1] == pytest.approx(0.5, abs=1e-12)


def test_symmetric_monotones_values():
    rho = DensityOp((3,), np.diag([0.5, 0.3, 0.2]))
    s, ratios = symmetric_monotones(rho, 3)
    assert s[0] == pytest.approx(1.0, abs=1e-12)
    assert s[1] == pytest.approx(0.31, abs=1e-12)  # .5*.3 + .5*.2 + .3*.2
    assert s[2] == pytest.approx(0.03, abs=1e-12)
    assert ratios[0] == pytest.approx(1.0)
    assert ratios[1] == pytest.approx(0.31)


def test_symmetric_monotones_rank_one():
    rho = DensityOp((3,), np.diag([1.0, 0.0, 0.0]))
    s, ratios = symmetric_monotones(rho, 3)
    assert s[1] == pytest.approx(0.0, abs=1e-12)
    assert ratios[2] is None


def test_majorization_counterexample():
    assert not majorizes([0.51, 0.28, 0.21], [0.5, 0.3, 0.2])
    assert majorizes([0.5, 0.3, 0.2], [0.5, 0.3, 0.2])
    assert majorizes([1.0, 0.0, 0.0], [0.4, 0.35, 0.25])


def test_majorization_sum_mismatch():
    with pytest.raises(SumMismatch):
        majorizes([0.5, 0.5], [0.7, 0.2])


@pytest.mark.parametrize("c", [1e-14, 1e-8, 1.0, 1e8])
def test_majorization_is_scale_free(c):
    # the partial-sum slack is relative to the total weight; an absolute
    # 1e-12 let either of two tiny vectors "majorize" the other
    a, b = np.array([0.5, 0.3, 0.2]), np.array([0.4, 0.35, 0.25])
    assert majorizes(c * a, c * b)
    assert not majorizes(c * b, c * a)
    with pytest.raises(SumMismatch):
        majorizes(c * np.array([0.5, 0.5]), c * np.array([0.7, 0.2]))


@pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
def test_symmetric_monotones_scale_with_the_weight(c):
    # S_k is homogeneous of degree k in the spectrum, so the ratio
    # S_k / S_{k-1} scales as c^2 for the state c psi
    s = haar_random_state((3, 3, 3), 5)
    base = symmetric_monotones(reduced_density(s, [0]), 3)[1]
    scaled = symmetric_monotones(reduced_density(StateTensor(s.dims, c * s.amps), [0]), 3)[1]
    assert None not in scaled
    np.testing.assert_allclose(scaled, c ** 2 * np.array(base), rtol=1e-9)


def test_nielsen_partial_sums(ghz):
    np.testing.assert_allclose(
        nielsen_E(ghz, PartyGrouping.split({0}, 3)), [0.5, 1.0], atol=1e-12
    )
    prod = new_state([2, 2], [0, 1, 0, 0])
    np.testing.assert_allclose(
        nielsen_E(prod, PartyGrouping.trivial(2)), [1.0, 1.0], atol=1e-12
    )


def test_nielsen_consistent_with_bipartite_E():
    s = haar_random_state((3, 4), 44)
    grouping = PartyGrouping.trivial(2)
    partial = nielsen_E(s, grouping)
    for k in range(1, 4):
        assert bipartite_E(s, grouping, k, k) == pytest.approx(partial[k - 1], abs=1e-12)
