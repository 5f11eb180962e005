import itertools
import json

import numpy as np
import pytest

from entmono.errors import (
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
from entmono.rng import haar_random_frame, haar_random_state, haar_random_unitary, stream_rng
from entmono.states import (
    DensityOp,
    PartyGrouping,
    StateTensor,
    apply_local_unitaries,
    apply_unilocal_kraus,
    new_state,
    odot,
    partial_trace,
    pure_density,
    reduced_density,
    save_state,
    load_state,
    schmidt_values,
    squared_norm,
    state_from_dict,
    state_to_dict,
)

from conftest import random_matrix, random_states


def test_new_state_ghz(ghz):
    assert ghz.dims == (2, 2, 2)
    assert ghz.amps[0] == pytest.approx(1 / np.sqrt(2))
    assert ghz.amps[7] == pytest.approx(1 / np.sqrt(2))
    assert np.count_nonzero(ghz.amps) == 2


def test_new_state_single_qubit():
    s = new_state([2], [1, 0])
    assert squared_norm(s) == 1.0


def test_new_state_length_mismatch():
    with pytest.raises(LengthMismatch):
        new_state([2, 2], [1, 0, 0])


def test_state_tensor_rejects_an_overflowing_squared_norm():
    # finite amplitudes whose squared norm is inf would make every
    # norm-relative solver threshold inf
    with pytest.raises(LengthMismatch, match="squared norm"):
        new_state([2], [1e308, 1e308])
    assert squared_norm(new_state([2], [1e153, 1e153])) == pytest.approx(2e306)


def test_new_state_bad_dimension():
    with pytest.raises(BadDimension):
        new_state([2, 0], [])


def test_amps_are_frozen(ghz):
    with pytest.raises(ValueError):
        ghz.amps[0] = 1.0


def test_squared_norm(ghz):
    assert squared_norm(ghz) == pytest.approx(1.0, abs=1e-12)
    half = StateTensor(ghz.dims, 0.5 * ghz.amps)
    assert squared_norm(half) == pytest.approx(0.25, abs=1e-12)
    zero = new_state([2, 2], np.zeros(4))
    assert squared_norm(zero) == 0.0


def test_reduced_density_ghz(ghz):
    rho = reduced_density(ghz, {0})
    np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)


def test_reduced_density_product():
    s = new_state([2, 2], [1, 0, 0, 0])
    rho = reduced_density(s, {0})
    np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-12)


def test_reduced_density_w_third_party(w):
    # summing |amp|^2 by the third party's value gives 2/3 and 1/3
    rho = reduced_density(w, {2})
    np.testing.assert_allclose(rho.matrix, np.diag([2 / 3, 1 / 3]), atol=1e-12)


def test_reduced_density_trace_is_norm():
    for s in random_states((2, 3, 2), 5, seed=11):
        scaled = StateTensor(s.dims, 1.7 * s.amps)
        for keep in ({0}, {1}, {0, 2}):
            assert reduced_density(scaled, keep).trace() == pytest.approx(
                squared_norm(scaled), abs=1e-12
            )


@pytest.mark.parametrize("c", [1e-8, 1e-4, 1e4, 1e8])
def test_reduced_density_scales_as_c_squared(c):
    # the DensityOp checks are relative to the operator's scale, so every
    # keep set of c psi builds and is c^2 times that of psi
    s = haar_random_state((2, 2, 2, 2), 1)
    scaled = StateTensor(s.dims, c * s.amps)
    for r in range(1, 5):
        for keep in itertools.combinations(range(4), r):
            want = c ** 2 * reduced_density(s, keep).matrix
            got = reduced_density(scaled, keep).matrix
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * np.max(np.abs(want)))


def test_reduced_density_empty_keep(ghz):
    with pytest.raises(EmptyKeepSet):
        reduced_density(ghz, set())


def test_reduced_density_bad_party(ghz):
    with pytest.raises(BadPartySet):
        reduced_density(ghz, {3})


def test_partial_trace_factorizes(rng):
    za = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    zb = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho_a = za @ za.conj().T
    rho_b = zb @ zb.conj().T
    full = DensityOp((2, 3), np.kron(rho_a, rho_b))
    out = partial_trace(full, {1})
    np.testing.assert_allclose(out.matrix, rho_a * np.trace(rho_b), atol=1e-10)


def test_partial_trace_ghz_projector(ghz):
    rho = pure_density(ghz)
    out = partial_trace(rho, {1, 2})
    np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_all_parties_rejected(ghz):
    with pytest.raises(BadPartySet):
        partial_trace(pure_density(ghz), {0, 1, 2})


def test_partial_trace_sequential_equals_joint():
    for s in random_states((2, 2, 3), 4, seed=5):
        rho = pure_density(s)
        joint = partial_trace(rho, {0, 2})
        seq = partial_trace(partial_trace(rho, {2}), {0})
        np.testing.assert_allclose(joint.matrix, seq.matrix, atol=1e-12)
        seq2 = partial_trace(partial_trace(rho, {0}), {1})
        np.testing.assert_allclose(
            seq2.matrix, partial_trace(rho, {0, 2}).matrix, atol=1e-12
        )


def test_odot_dims(ghz, w):
    merged = odot(ghz, w)
    assert merged.dims == (4, 4, 4)


def test_odot_party_count_mismatch(ghz):
    with pytest.raises(PartyCountMismatch):
        odot(ghz, new_state([2, 2], [1, 0, 0, 0]))


def test_odot_amplitude_layout():
    # party i of the merged state is (a_i slow, b_i fast)
    a = new_state([2, 2], [1, 2, 3, 4])
    b = new_state([2, 2], [5, 6, 7, 8])
    m = odot(a, b).tensor()  # dims (4, 4), index (2*i1 + j1, 2*i2 + j2)
    at = a.tensor()
    bt = b.tensor()
    for i1 in range(2):
        for i2 in range(2):
            for j1 in range(2):
                for j2 in range(2):
                    assert m[2 * i1 + j1, 2 * i2 + j2] == at[i1, i2] * bt[j1, j2]


def test_odot_norm_multiplicative():
    for i, (a, b) in enumerate(
        zip(random_states((2, 3), 4, seed=6), random_states((3, 2), 4, seed=7))
    ):
        a = StateTensor(a.dims, (1 + 0.3 * i) * a.amps)
        got = squared_norm(odot(a, b))
        want = squared_norm(a) * squared_norm(b)
        assert got == pytest.approx(want, rel=1e-12)


def test_odot_with_product_state_preserves_norm(w):
    prod = new_state([2, 2, 2], np.kron(np.kron([1, 0], [0, 1]), [1, 0]))
    assert squared_norm(odot(w, prod)) == pytest.approx(squared_norm(w), rel=1e-12)


def test_schmidt_values_ghz(ghz):
    lam = schmidt_values(ghz, PartyGrouping.split({0}, 3))
    np.testing.assert_allclose(lam, [0.5, 0.5], atol=1e-12)


def test_schmidt_values_product_state():
    s = new_state([2, 2], [0, 0, 1, 0])
    lam = schmidt_values(s, PartyGrouping.trivial(2))
    np.testing.assert_allclose(lam, [1.0, 0.0], atol=1e-12)


def test_schmidt_values_w(w):
    lam = schmidt_values(w, PartyGrouping.split({0}, 3))
    np.testing.assert_allclose(lam, [2 / 3, 1 / 3], atol=1e-12)


def test_schmidt_values_sum_to_norm():
    for s in random_states((2, 2, 2), 5, seed=8):
        lam = schmidt_values(s, PartyGrouping.split({1}, 3))
        assert lam.sum() == pytest.approx(squared_norm(s), abs=1e-12)
        assert np.all(np.diff(lam) <= 1e-15)


def test_schmidt_values_needs_two_blocks(ghz):
    with pytest.raises(BadGrouping):
        schmidt_values(ghz, PartyGrouping.trivial(3))


def test_grouping_validation():
    with pytest.raises(BadGrouping):
        PartyGrouping(((0, 1), (1, 2)))
    with pytest.raises(BadGrouping):
        PartyGrouping(((0,), ()))


def test_apply_local_unitaries_identity(ghz):
    out = apply_local_unitaries(ghz, [np.eye(2)] * 3)
    np.testing.assert_allclose(out.amps, ghz.amps, atol=1e-15)


def test_apply_local_unitaries_preserves_norm_and_schmidt():
    split = PartyGrouping.split({0, 2}, 3)
    for i, s in enumerate(random_states((2, 2, 3), 5, seed=9)):
        units = [haar_random_unitary(d, stream_rng(100 + i, p)) for p, d in enumerate(s.dims)]
        out = apply_local_unitaries(s, units)
        assert squared_norm(out) == pytest.approx(squared_norm(s), abs=1e-12)
        np.testing.assert_allclose(
            schmidt_values(out, split), schmidt_values(s, split), atol=1e-9
        )


def test_apply_local_unitaries_rejects_nonunitary(ghz):
    bad = [np.eye(2), np.eye(2), np.array([[1, 0], [0, 2.0]])]
    with pytest.raises(NonUnitary):
        apply_local_unitaries(ghz, bad)


def test_apply_local_unitaries_dimension_mismatch(ghz):
    with pytest.raises(DimensionMismatch):
        apply_local_unitaries(ghz, [np.eye(2), np.eye(3), np.eye(2)])
    with pytest.raises(DimensionMismatch):
        apply_local_unitaries(ghz, [np.eye(2), np.eye(2)])


def test_kraus_identity_is_noop(w):
    (out,) = apply_unilocal_kraus(w, 1, [np.eye(2)])
    np.testing.assert_allclose(out.amps, w.amps, atol=1e-15)


def test_kraus_projective_measurement_on_ghz(ghz):
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    branches = apply_unilocal_kraus(ghz, 0, [p0, p1])
    weights = [squared_norm(b) for b in branches]
    np.testing.assert_allclose(weights, [0.5, 0.5], atol=1e-12)
    # each branch is the corresponding product component
    assert abs(branches[0].amps[0]) == pytest.approx(1 / np.sqrt(2))
    assert abs(branches[1].amps[7]) == pytest.approx(1 / np.sqrt(2))


def test_kraus_random_instrument_preserves_weight(rng):
    for i, s in enumerate(random_states((2, 3, 2), 4, seed=10)):
        party = i % 3
        d = s.dims[party]
        iso = haar_random_frame(2 * d, d, stream_rng(55, i))
        kraus = [iso[:d, :], iso[d:, :]]
        branches = apply_unilocal_kraus(s, party, kraus)
        total = sum(squared_norm(b) for b in branches)
        assert total == pytest.approx(squared_norm(s), abs=1e-9)


def test_kraus_trace_increasing_rejected(ghz):
    with pytest.raises(NotTraceNonincreasing):
        apply_unilocal_kraus(ghz, 0, [np.eye(2), 0.5 * np.eye(2)])


def test_kraus_shape_mismatch(ghz):
    with pytest.raises(DimensionMismatch):
        apply_unilocal_kraus(ghz, 0, [np.eye(3)])
    with pytest.raises(DimensionMismatch):
        apply_unilocal_kraus(ghz, 0, [])


def test_kraus_rectangular_output_dim(ghz):
    shrink = np.array([[1.0, 0.0]])  # 1x2: keeps |0> only
    grow = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])  # 3x2
    branches = apply_unilocal_kraus(ghz, 2, [shrink, grow])
    assert branches[0].dims == (2, 2, 1)
    assert branches[1].dims == (2, 2, 3)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_density_op_validation(rng):
    with pytest.raises(NotHermitian):
        DensityOp((2,), np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(NotPositive):
        DensityOp((2,), np.diag([1.0, -0.5]))
    with pytest.raises(LengthMismatch):
        DensityOp((2, 2), np.eye(3))
    # NaN and inf entries would otherwise pass both checks
    for bad in (np.nan, np.inf):
        with pytest.raises(LengthMismatch):
            DensityOp((2,), np.diag([bad, 1.0]))
    # finite entries whose Hermitian part, or whose spectrum's sum, overflows
    with pytest.raises(LengthMismatch, match="Hermitian part"):
        DensityOp((2,), np.diag([1e308, 1e308]))
    with pytest.raises(LengthMismatch, match="spectrum"):
        DensityOp((3,), np.diag([6e307, 6e307, 6e307]))


def test_density_op_spectrum_and_purification_agree(rng):
    # the positivity check's eigenvalues are the spectrum, and the
    # purification psi[e] = sqrt(w_e) v_e has sum_e psi psi^dag = rho
    z = random_matrix(rng, 12, 5)
    m = z @ z.conj().T
    rho = DensityOp((3, 4), m)
    scale = np.max(np.abs(m))
    np.testing.assert_allclose(rho.spectrum(), np.sort(np.linalg.eigvalsh(m))[::-1],
                               rtol=0, atol=1e-12 * scale)
    amps = rho._purification.reshape(12, 12)
    np.testing.assert_allclose(amps.T @ amps.conj(), m, rtol=0, atol=1e-12 * scale)
    assert not (rho.spectrum().flags.writeable or rho._purification.flags.writeable)


def test_state_json_roundtrip(tmp_path, w):
    path = tmp_path / "w.json"
    save_state(w, path)
    back = load_state(path)
    assert back.dims == w.dims
    assert back.label == "w"
    np.testing.assert_allclose(back.amps, w.amps, atol=0)


@pytest.mark.parametrize("bad", ["density", "label"])
def test_a_failed_save_leaves_the_file_as_it_was(tmp_path, w, bad):
    # the record is serialized before the file is opened, so neither a
    # DensityOp nor a label json cannot write may empty or cut the file
    path = tmp_path / "w.json"
    save_state(w, path)
    before = path.read_bytes()
    state = pure_density(w) if bad == "density" else StateTensor(w.dims, w.amps, object())
    with pytest.raises(TypeError):
        save_state(state, path)
    assert path.read_bytes() == before
    assert load_state(path).label == "w"


def test_state_json_rejects_bad_length(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"label": None, "dims": [2, 2], "amps": [[1, 0]]}))
    with pytest.raises(LengthMismatch):
        load_state(path)


def test_state_json_rejects_bad_pairs():
    with pytest.raises(LengthMismatch):
        state_from_dict({"dims": [2], "amps": [[1, 0, 0], [0, 0]]})


def test_state_dict_shape(ghz):
    d = state_to_dict(ghz)
    assert d["dims"] == [2, 2, 2]
    assert len(d["amps"]) == 8
    assert d["amps"][0] == [pytest.approx(1 / np.sqrt(2)), 0.0]


# -- seeded randomness --

def test_haar_frame_is_unitary_at_full_rank():
    u = haar_random_frame(2, 2, seed=3)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_haar_frame_orthonormal_columns():
    v = haar_random_frame(4, 2, seed=4)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-12)


def test_haar_frame_rank_checked():
    from entmono.errors import BadRank

    with pytest.raises(BadRank):
        haar_random_frame(2, 3, seed=0)


def test_haar_determinism():
    a = haar_random_frame(5, 3, seed=42)
    b = haar_random_frame(5, 3, seed=42)
    assert np.array_equal(a, b)
    s1 = haar_random_state((2, 2), 42)
    s2 = haar_random_state((2, 2), 42)
    assert np.array_equal(s1.amps, s2.amps)


@pytest.mark.parametrize("d, k", [(1, 1), (2, 1), (2, 2), (3, 2), (5, 3), (8, 8)])
def test_haar_frame_matches_the_one_matrix_construction(d, k):
    # the frame is drawn through the stacked QR; one QR of one matrix,
    # with R's diagonal phases moved into Q, must give the same bytes
    for seed in (0, 1, 42):
        rng = stream_rng(seed)
        z = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
        q, r = np.linalg.qr(z)
        ph = np.diagonal(r).copy()
        want = q * (ph / np.abs(ph))
        assert haar_random_frame(d, k, seed).tobytes() == want.tobytes()


def test_haar_streams_differ():
    a = stream_rng(1, 0).standard_normal(4)
    b = stream_rng(1, 1).standard_normal(4)
    assert not np.allclose(a, b)


def test_haar_state_normalized():
    s = haar_random_state((3, 3), 9)
    assert squared_norm(s) == pytest.approx(1.0, abs=1e-12)
