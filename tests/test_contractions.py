import warnings

import numpy as np
import pytest

from entmono.contractions import (
    eval_contraction,
    format_contraction,
    is_simple_form,
    parse_contraction,
)
from entmono.errors import (
    ContractionSyntaxError,
    DegreeImbalanceError,
    DegreeImbalanceWarning,
    DimensionMismatch,
    EpsDimensionError,
    IndexArityError,
    SlotArityError,
)
from entmono.invariants import BUILTIN_PATTERN_TEXT
from entmono.states import DensityOp, new_state, pure_density

from conftest import mixed_op, random_states, trace_reference

TANGLE_INNER = (
    "psi[i,j,k] * psi[i2,j2,m] * psi[n,p,k2] * psi[n2,p2,m2] * eps[i,i2]"
    " * eps[j,j2] * eps[k,k2] * eps[m,m2] * eps[n,n2] * eps[p,p2]"
)


def test_parse_i2():
    expr = parse_contraction("psi[i,j,k] * psi*[i,j,k]")
    assert expr.slot_count == 3
    assert [f.kind for f in expr.factors] == ["psi", "psi*"]
    assert expr.balanced


def test_parse_i4_1():
    expr = parse_contraction("psi[i,j,k] * psi*[i,m,n] * psi[p,m,n] * psi*[p,j,k]")
    assert expr.slot_count == 3
    assert len(expr.factors) == 4


def test_parse_whitespace_insensitive():
    a = parse_contraction("psi[i,j]*psi*[i,j]")
    b = parse_contraction("  psi [ i , j ]  *  psi* [ i , j ] ")
    assert a == b


def test_parse_slot_arity_error():
    with pytest.raises(SlotArityError):
        parse_contraction("psi[i,j] * psi*[i,j,k]")
    with pytest.raises(SlotArityError):
        parse_contraction("psi[i,j] * psi*[i,k] * delta[j,k,i]")


def test_parse_index_arity_error():
    with pytest.raises(IndexArityError):
        parse_contraction("psi[i,j] * psi*[i,i]")


def test_parse_syntax_errors_carry_position():
    with pytest.raises(ContractionSyntaxError, match="position 10"):
        parse_contraction("psi [i,j] ? psi*[i,j]")
    with pytest.raises(ContractionSyntaxError, match="position"):
        parse_contraction("psi[i,j] * ")
    with pytest.raises(ContractionSyntaxError, match="delta"):
        parse_contraction("gamma[i,i]")


@pytest.mark.parametrize("text, factors", [
    ("psi[i] * psi *[i]", [("psi", ("i",)), ("psi*", ("i",))]),
    ("psi[1,07] * psi*[1,07]", [("psi", ("1", "07")), ("psi*", ("1", "07"))]),
    ("\tpsi[i,\nj]\n*\tpsi\n*\t[i , j]\n", [("psi", ("i", "j")), ("psi*", ("i", "j"))]),
])
def test_parse_accepts_edge_spellings(text, factors):
    expr = parse_contraction(text)
    assert [(f.kind, f.indices) for f in expr.factors] == factors


@pytest.mark.parametrize("text, position", [
    ("psi[]", 4),  # empty index list: the missing index
    ("psi[i,,j]", 6),  # empty index
    ("psi[i]]", 6),  # stray bracket where '*' or the end is due
    ("psi2[i]", 0),  # malformed factor head
    ("epsilon[i,j]", 0),
    ("psi[i,j", 7),  # unclosed bracket: the input length
    ("psi[i] psi*[i]", 7),  # two factors with no '*' between them
])
def test_parse_rejects_with_position(text, position):
    with pytest.raises(ContractionSyntaxError, match=f"position {position}\\b"):
        parse_contraction(text)


def test_parse_conj_marker_binds_to_psi_only():
    with pytest.raises(ContractionSyntaxError):
        parse_contraction("delta*[i,i]")


def test_degree_imbalance_warns():
    with pytest.warns(DegreeImbalanceWarning):
        expr = parse_contraction(TANGLE_INNER)
    assert not expr.balanced


def test_pretty_print_roundtrip():
    texts = [
        "psi[i,j,k] * psi*[i,j,k]",
        BUILTIN_PATTERN_TEXT["I6"],
        "psi[i1,j1,k1] * psi*[i2,j2,k2] * delta[i1,i2] * delta[j1,j2] * delta[k1,k2]",
    ]
    for text in texts:
        expr = parse_contraction(text)
        again = parse_contraction(format_contraction(expr))
        assert again == expr


def test_eval_i2_is_norm(w):
    expr = parse_contraction("psi[i,j,k] * psi*[i,j,k]")
    out = eval_contraction(expr, w)
    assert out.value.real == pytest.approx(1.0, abs=1e-12)
    assert not out.imag_warning


def test_eval_i4_on_ghz(ghz):
    expr = parse_contraction(BUILTIN_PATTERN_TEXT["I4_1"])
    assert eval_contraction(expr, ghz).value.real == pytest.approx(0.5, abs=1e-12)


def test_eval_i6_on_basis_state():
    s = new_state([2, 2, 2], [1, 0, 0, 0, 0, 0, 0, 0])
    expr = parse_contraction(BUILTIN_PATTERN_TEXT["I6"])
    assert eval_contraction(expr, s).value.real == pytest.approx(1.0, abs=1e-12)


def test_eval_slot_count_mismatch(ghz):
    expr = parse_contraction("psi[i,j] * psi*[i,j]")
    with pytest.raises(DimensionMismatch):
        eval_contraction(expr, ghz)


def test_eval_eps_needs_qubits():
    s = new_state([3, 3], np.eye(3).reshape(-1) / np.sqrt(3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeImbalanceWarning)
        expr = parse_contraction("psi[i,j] * psi[i2,j2] * eps[i,i2] * eps[j,j2]")
    with pytest.raises(EpsDimensionError):
        eval_contraction(expr, s)


def test_eval_delta_chain_dimension_inference():
    expr = parse_contraction("psi[i,j] * delta[j,k] * psi*[i,k]")
    s = new_state([2, 3], np.arange(6) / np.sqrt(55))
    out = eval_contraction(expr, s)
    assert out.value.real == pytest.approx(1.0, abs=1e-12)


MANY_PAIRS = " * ".join(f"psi[a{n},b{n},c{n}] * psi*[a{n},b{n},c{n}]" for n in range(14))


@pytest.mark.parametrize("text, dims, error", [
    ("psi[a,b] * psi*[c,d] * delta[a,d] * delta[c,b]", (2, 3), DimensionMismatch),
    ("psi[i,j] * psi*[i,j] * delta[a,b] * delta[b,a]", (2, 3), DimensionMismatch),
    # an eps joining a dimension-2 slot to a dimension-3 slot is an eps error
    ("psi[a,b] * psi*[c,d] * eps[a,d] * eps[c,b]", (2, 3), EpsDimensionError),
    # 14 environment indices and 42 party indices, past the 52 einsum letters
    (MANY_PAIRS, (2, 2, 2), IndexArityError),
], ids=["delta_2_to_3", "pure_delta_loop", "eps_2_to_3", "over_52_letters"])
def test_eval_rejects_indices_it_cannot_bind(text, dims, error):
    s = new_state(list(dims), np.ones(int(np.prod(dims))))
    with pytest.raises(error):
        eval_contraction(parse_contraction(text), s)


def test_eval_eps_alone_binds_dimension_2():
    # eps[a,b] eps[b,a] = -sum_ab eps_ab^2 = -2, times |psi|^2 = 9; a and b sit on no psi slot
    expr = parse_contraction("psi[i] * psi*[i] * eps[a,b] * eps[b,a]")
    out = eval_contraction(expr, new_state([3], [1, 2, 2]))
    assert out.value == -18


def test_eval_matches_trace_path_on_random_states():
    patterns = {name: parse_contraction(t) for name, t in BUILTIN_PATTERN_TEXT.items()}
    cases = random_states((2, 2, 2), 4, seed=50) + random_states((3, 3, 3), 2, seed=51)
    cases.append(mixed_op((3, 3, 3), (2, 3), (0.3, 0.7)))
    for x in cases:
        want = trace_reference(x if isinstance(x, DensityOp) else pure_density(x))
        for name, expr in patterns.items():
            assert abs(eval_contraction(expr, x).value - want[name]) < 1e-12, (name, x.dims)


def test_eval_needs_a_state_or_operator(ghz):
    expr = parse_contraction("psi[i,j,k] * psi*[i,j,k]")
    with pytest.raises(TypeError):
        eval_contraction(expr, "x")


def test_eval_unbalanced_on_density_is_typed_error(ghz):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeImbalanceWarning)
        expr = parse_contraction(TANGLE_INNER)
    with pytest.raises(DegreeImbalanceError):
        eval_contraction(expr, pure_density(ghz))


def test_eval_delta_same_on_state_and_density():
    expr = parse_contraction(
        "psi[i,j,k] * psi*[m,j,n] * delta[i,m] * psi[p,q,n] * psi*[p,q,r] * delta[r,k]"
    )
    for s in random_states((2, 3, 2), 3, seed=52):
        on_state = eval_contraction(expr, s).value
        on_rho = eval_contraction(expr, pure_density(s)).value
        assert abs(on_state - on_rho) < 1e-12
        assert abs(on_state - trace_reference(pure_density(s))["I4_3"]) < 1e-12


def test_simple_form_builtins():
    for name, text in BUILTIN_PATTERN_TEXT.items():
        ok, why = is_simple_form(parse_contraction(text))
        assert ok, (name, why)


def test_simple_form_explicit_deltas():
    expr = parse_contraction(
        "psi[i1,j1,k1] * psi*[i2,j2,k2] * delta[i1,i2] * delta[j1,j2] * delta[k1,k2]"
    )
    ok, why = is_simple_form(expr)
    assert ok, why


def test_simple_form_rejects_eps():
    with pytest.warns(DegreeImbalanceWarning):
        expr = parse_contraction(TANGLE_INNER)
    ok, why = is_simple_form(expr)
    assert not ok
    assert "eps" in why


def test_simple_form_rejects_cross_slot():
    expr = parse_contraction("psi[i,j,k] * psi*[j,i,k]")
    ok, why = is_simple_form(expr)
    assert not ok
    assert "slot" in why


def test_simple_form_rejects_psi_psi_contraction():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeImbalanceWarning)
        expr = parse_contraction("psi[i,j] * psi[i,j]")
    ok, why = is_simple_form(expr)
    assert not ok


def test_simple_form_rejects_delta_to_delta():
    expr = parse_contraction("psi[i,j] * psi*[m,j] * delta[i,k] * delta[k,m]")
    ok, why = is_simple_form(expr)
    assert not ok
    assert "delta" in why


@pytest.mark.parametrize("text, culprit, rule", [
    ("psi[i,j] * psi*[m,j] * psi[k,n] * psi*[q,n] * delta[i,k] * delta[m,q]",
     "delta[i,k]", "psi*"),  # a delta joining psi to psi
    ("psi[i,j] * psi*[m,n] * delta[i,n] * delta[j,m]", "delta[i,n]", "slot"),
    ("psi[i,j,k] * psi*[i,k,j]", "index 'j'", "slot"),
])
def test_simple_form_names_the_first_broken_rule(text, culprit, rule):
    ok, why = is_simple_form(parse_contraction(text))
    assert not ok
    assert why.startswith(culprit) and rule in why


def test_delta_joined_pair_is_invariant_value(ghz):
    # delta-contracted psi/psi* pair: same value as I2
    expr = parse_contraction("psi[i,j,k] * psi*[m,j,k] * delta[i,m]")
    assert eval_contraction(expr, ghz).value.real == pytest.approx(1.0, abs=1e-12)
