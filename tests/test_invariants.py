import itertools
import warnings

import numpy as np
import pytest

from entmono.contractions import (
    eval_contraction,
    expand_eps_square,
    is_simple_form,
    parse_contraction,
)
from entmono.errors import (
    BadParameter,
    DegreeImbalanceWarning,
    NotSimpleForm,
    PartyCountUnsupported,
    ValueOverflow,
)
from entmono import invariants
from entmono.invariants import (
    BUILTIN_PATTERN_TEXT,
    TANGLE_TEXT,
    builtin_invariants,
    builtin_patterns,
    local_unitary_invariance_check,
    multiplicativity_check,
    tangle,
    tangle_squared_expanded,
)
from entmono.locc import copy_ratio_feasibility
from entmono.rng import haar_random_state
from entmono.states import StateTensor, new_state, pure_density, squared_norm

from conftest import mixed_op, random_states, trace_reference

# frozen from the direct-summation oracles below (15+ digits)
I6_KEMPE1 = 0.3425858290723155
I6_KEMPE2 = 0.24190077586717787
I4_KEMPE = 769 / 1369


def loop_I6(state):
    """Nine-index direct summation; shares no code with the library paths."""
    t = state.tensor()
    total = 0.0 + 0.0j
    dims = state.dims
    for i, p, r in itertools.product(range(dims[0]), repeat=3):
        for j, m, q in itertools.product(range(dims[1]), repeat=3):
            for k, n, s in itertools.product(range(dims[2]), repeat=3):
                total += (
                    t[i, j, k] * np.conj(t[i, m, n]) * t[p, q, n]
                    * np.conj(t[p, j, s]) * t[r, m, s] * np.conj(t[r, q, k])
                )
    return total


def loop_tangle(state):
    eps = np.array([[0.0, 1.0], [-1.0, 0.0]])
    t = state.tensor()
    total = 0.0 + 0.0j
    rng2 = (0, 1)
    for i, i2, j, j2, k, k2 in itertools.product(rng2, repeat=6):
        for m, m2, n, n2, p, p2 in itertools.product(rng2, repeat=6):
            total += (
                t[i, j, k] * t[i2, j2, m] * t[n, p, k2] * t[n2, p2, m2]
                * eps[i, i2] * eps[j, j2] * eps[k, k2]
                * eps[m, m2] * eps[n, n2] * eps[p, p2]
            )
    return 2 * abs(total)


def test_kempe_I4_values(kempe1, kempe2):
    for state in (kempe1, kempe2):
        inv = builtin_invariants(state)
        for name in ("I4_1", "I4_2", "I4_3"):
            assert inv[name] == pytest.approx(I4_KEMPE, abs=1e-12)


def test_kempe_I6_values(kempe1, kempe2):
    inv1 = builtin_invariants(kempe1)
    inv2 = builtin_invariants(kempe2)
    assert inv1["I6"] == pytest.approx(I6_KEMPE1, abs=1e-12)
    assert inv2["I6"] == pytest.approx(I6_KEMPE2, abs=1e-12)
    # the two states agree on every degree-4 invariant yet differ here
    assert abs(inv1["I6"] - inv2["I6"]) > 0.09


def test_I6_matches_loop_oracle(kempe1, kempe2):
    for state in (kempe1, kempe2, *random_states((2, 2, 2), 3, seed=60)):
        got = builtin_invariants(state)["I6"]
        want = loop_I6(state)
        assert abs(want.imag) < 1e-12
        assert got == pytest.approx(want.real, abs=1e-12)


def test_builtins_on_density_input(ghz):
    via_state = builtin_invariants(ghz)
    via_rho = builtin_invariants(pure_density(ghz))
    for name in via_state:
        assert via_rho[name] == pytest.approx(via_state[name], abs=1e-12)


def test_builtins_on_mixed_density_match_partial_traces():
    for rho in (mixed_op((3, 3, 3), (2, 3), (0.3, 0.7)),
                mixed_op((2, 3, 2), (4, 5, 6), (0.5, 0.25, 0.25))):
        got = builtin_invariants(rho)
        for name, want in trace_reference(rho).items():
            assert abs(want.imag) < 1e-12
            assert got[name] == pytest.approx(want.real, abs=1e-12), name


def test_builtins_scale_with_the_state():
    degree = {"I2": 2, "I4_1": 4, "I4_2": 4, "I4_3": 4, "I4_4": 4, "I6": 6}
    s = haar_random_state((3, 3, 3), 5)
    base = builtin_invariants(s)
    for c in (1e-8, 1e-4, 1e4, 1e8):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = builtin_invariants(StateTensor(s.dims, c * s.amps))
        for name, value in base.items():
            assert got[name] == pytest.approx(c ** degree[name] * value, rel=1e-9), (c, name)


def test_builtins_on_qutrits():
    s = haar_random_state((3, 3, 3), 61)
    inv = builtin_invariants(s)
    assert inv["I2"] == pytest.approx(1.0, abs=1e-12)
    assert inv["I4_4"] == pytest.approx(inv["I2"] ** 2, abs=1e-12)
    assert 0 < inv["I6"] <= 1 + 1e-12


def test_builtins_reject_wrong_party_count():
    s = haar_random_state((2, 2), 62)
    with pytest.raises(PartyCountUnsupported):
        builtin_invariants(s)


def test_I4_4_is_I2_squared():
    for s in random_states((2, 2, 2), 5, seed=63):
        scaled = StateTensor(s.dims, 0.9 * s.amps)
        inv = builtin_invariants(scaled)
        assert inv["I4_4"] == pytest.approx(inv["I2"] ** 2, abs=1e-12)


def test_builtins_real_and_normalized():
    for s in random_states((2, 2, 2), 5, seed=64):
        inv = builtin_invariants(s)
        assert inv["I2"] == pytest.approx(1.0, abs=1e-12)
        for v in inv.values():
            assert isinstance(v, float)


def test_tangle_basis_state_zero():
    s = new_state([2, 2, 2], [1, 0, 0, 0, 0, 0, 0, 0])
    assert tangle(s) == pytest.approx(0.0, abs=1e-12)


def test_tangle_reference_values(ghz, w):
    assert tangle(ghz) == pytest.approx(1.0, abs=1e-12)
    assert tangle(w) == pytest.approx(0.0, abs=1e-12)


def test_tangle_matches_loop_oracle():
    for s in random_states((2, 2, 2), 3, seed=65):
        assert tangle(s) == pytest.approx(loop_tangle(s), abs=1e-12)


def test_tangle_party_count(rng, ghz):
    with pytest.raises(PartyCountUnsupported):
        tangle(haar_random_state((2, 2), 66))
    with pytest.raises(PartyCountUnsupported):
        tangle(haar_random_state((3, 2, 2), 67))
    with pytest.raises(TypeError):  # a density operator, even of a pure state
        tangle(pure_density(ghz))


def test_tangle_squared_expansion_reference(ghz, w):
    assert tangle_squared_expanded(ghz) == pytest.approx(1.0, abs=1e-9)
    assert tangle_squared_expanded(w) == pytest.approx(0.0, abs=1e-9)


def test_tangle_eps_square_expansion_terms():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeImbalanceWarning)
        expr = parse_contraction(TANGLE_TEXT)
    terms = expand_eps_square(expr)
    assert len(terms) == 64
    assert sorted(sign for sign, _ in terms) == [-1] * 32 + [1] * 32
    for _, term in terms:
        ok, why = is_simple_form(term)
        assert ok, why
    for s in random_states((2, 2, 2), 3, seed=73):
        total = sum(sign * eval_contraction(term, s).value for sign, term in terms)
        assert 4 * total.real == pytest.approx(loop_tangle(s) ** 2, abs=1e-12)
        assert abs(total.imag) < 1e-12


def test_tangle_squared_expansion_equals_square():
    for s in random_states((2, 2, 2), 20, seed=68):
        assert tangle_squared_expanded(s) == pytest.approx(tangle(s) ** 2, abs=1e-9)


def test_multiplicativity_kempe(kempe1):
    report = multiplicativity_check(builtin_patterns()["I4_1"], kempe1, kempe1)
    assert report.passed
    assert report.value_merged.real == pytest.approx(I4_KEMPE ** 2, abs=1e-12)
    assert report.to_dict()["value_merged"] == [report.value_merged.real,
                                                report.value_merged.imag]


def test_multiplicativity_i2():
    a = haar_random_state((2, 2, 2), 69)
    b = haar_random_state((2, 2, 2), 70)
    report = multiplicativity_check(builtin_patterns()["I2"], a, b)
    assert report.passed
    assert report.value_merged.real == pytest.approx(1.0, abs=1e-12)


def test_multiplicativity_i6_random_pairs():
    a_states = random_states((2, 2, 2), 3, seed=71)
    b_states = random_states((2, 2, 2), 3, seed=72)
    expr = builtin_patterns()["I6"]
    for a, b in zip(a_states, b_states):
        report = multiplicativity_check(expr, a, b)
        assert report.passed, report


def test_multiplicativity_rejects_non_simple(ghz, w):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeImbalanceWarning)
        inner = parse_contraction(
            "psi[i,j,k] * psi[i2,j2,m] * psi[n,p,k2] * psi[n2,p2,m2] * eps[i,i2]"
            " * eps[j,j2] * eps[k,k2] * eps[m,m2] * eps[n,n2] * eps[p,p2]"
        )
    with pytest.raises(NotSimpleForm):
        multiplicativity_check(inner, ghz, w)


def test_lu_invariance_builtin(ghz):
    report = local_unitary_invariance_check("I6", ghz, trials=20, seed=5)
    assert report.passed
    assert report.max_deviation < 1e-9
    assert report.to_dict() == {"baseline": report.baseline, "trials": 20,
                                "max_deviation": report.max_deviation, "passed": True}


def test_lu_invariance_tangle_on_w(w):
    report = local_unitary_invariance_check("tangle", w, trials=20, seed=6)
    assert report.passed
    assert report.baseline == pytest.approx(0.0, abs=1e-12)


def test_lu_invariance_delta_contracted_expression(ghz):
    expr = parse_contraction("psi[i,j,k] * psi*[m,j,k] * delta[i,m]")
    report = local_unitary_invariance_check(expr, ghz, trials=10, seed=7)
    assert report.passed


def test_lu_invariance_unknown_name(ghz):
    with pytest.raises(KeyError):
        local_unitary_invariance_check("I99", ghz)


def test_lu_invariance_reads_contraction_text(w):
    # text with a factor is parsed, as copy_ratio_feasibility parses it
    text = BUILTIN_PATTERN_TEXT["I4_1"]
    state = haar_random_state((2, 3, 2), 4)
    for s in (w, state):
        by_text = local_unitary_invariance_check(text, s, trials=4, seed=2)
        assert by_text == local_unitary_invariance_check(parse_contraction(text), s,
                                                          trials=4, seed=2)
        assert by_text.passed


@pytest.mark.parametrize("trials", [0, -3])
def test_lu_invariance_needs_a_trial(ghz, trials):
    # with no trial nothing is checked, so it must not report a pass
    with pytest.raises(BadParameter):
        local_unitary_invariance_check("I6", ghz, trials=trials)


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e2])
def test_lu_check_is_judged_at_the_invariants_scale(c):
    # I6 has degree 6, so its round-off grows as c^6; an absolute 1e-9
    # failed I6 at c = 100 and could not fail any target at c = 1e-6
    s = haar_random_state((3, 3, 3), 5)
    scaled = StateTensor(s.dims, c * s.amps)
    assert local_unitary_invariance_check("I6", scaled, trials=5, seed=1).passed
    assert local_unitary_invariance_check("tangle", StateTensor(
        (2, 2, 2), c * haar_random_state((2, 2, 2), 5).amps), trials=5, seed=1).passed
    # mixing the slots of parties 0 and 1 breaks the invariance
    swapped = parse_contraction("psi[i,j,k] * psi*[j,i,k]")
    assert not local_unitary_invariance_check(swapped, scaled, trials=5, seed=1).passed
    # a callable has degree 0: its deviation is judged against max(|baseline|, 1)
    assert local_unitary_invariance_check(squared_norm, scaled, trials=5, seed=1).passed


def test_mixed_operator_is_diagonalized_once(monkeypatch):
    rho = mixed_op((3, 3, 3), (2, 3), (0.3, 0.7))
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
    first = builtin_invariants(rho)
    assert calls == [(27, 27)]
    assert builtin_invariants(rho) == first
    assert calls == [(27, 27)]


def test_copy_ratio_spot_check_uses_the_multiplicativity_rule(monkeypatch, kempe1, kempe2):
    # one rule judges I(a (.) b) against I(a) I(b), at both call sites
    monkeypatch.setattr(invariants, "MULTIPLICATIVITY_TOL", -1.0)
    assert not multiplicativity_check(builtin_patterns()["I4_1"], kempe1, kempe1).passed
    assert not copy_ratio_feasibility(kempe1, kempe2, ("I4_1",)).odot_check_passed


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_invariants_raise_a_typed_error():
    # |psi|^2 = 8e120 is finite, but the degree-3 scale (and I6) is not
    state = StateTensor((2, 2, 2), 1e60 * np.ones(8))
    with pytest.raises(ValueOverflow, match="overflows"):
        builtin_invariants(state)
