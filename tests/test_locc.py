import itertools
import math

import numpy as np
import pytest

from entmono import catalog, locc, monotones
from entmono.errors import (
    BadGrouping,
    BadParameter,
    BadRank,
    NotNormalized,
    NotSimpleForm,
    StructureMismatch,
)
from entmono.locc import (
    RankItem,
    compare_dlocc,
    copy_ratio_feasibility,
    default_rank_items,
    slocc_bound,
)
from entmono.monotones import MonotoneResult, SolverConfig, majorizes
from entmono.rng import haar_random_state
from entmono.states import (PartyGrouping, StateTensor, new_state, pure_density,
                            schmidt_values)

from conftest import trace_reference

CFG = SolverConfig(restarts=16, seed=3)


def test_default_rank_items_three_qubits():
    items = default_rank_items((2, 2, 2))
    fine = [it for it in items if it.grouping is None]
    coarse = [it for it in items if it.grouping is not None]
    assert len(fine) == 8
    # three two-block splits, each with 2*4 rank pairs
    assert len(coarse) == 24
    keys = {it.key() for it in items}
    assert "(2,2,1)" in keys
    assert "[0|12](1,2)" in keys


def test_w_and_ghz_incommensurable(w, ghz):
    report = compare_dlocc(w, ghz, cfg=CFG)
    assert "(2,2,1)" in report.a_to_b_blocked
    assert "(1,1,1)" in report.b_to_a_blocked
    assert report.incommensurable
    rows = {r.item.key(): r for r in report.rows}
    assert rows["(2,2,1)"].e_a == pytest.approx(2 / 3, abs=1e-6)
    assert rows["(2,2,1)"].e_b == pytest.approx(0.5, abs=1e-6)
    assert rows["(1,1,1)"].e_a == pytest.approx(4 / 9, abs=1e-6)
    assert rows["(1,1,1)"].e_b == pytest.approx(0.5, abs=1e-6)


def test_compare_mirrored(w, ghz):
    fwd = compare_dlocc(w, ghz, cfg=CFG)
    rev = compare_dlocc(ghz, w, cfg=CFG)
    assert set(fwd.a_to_b_blocked) == set(rev.b_to_a_blocked)
    assert set(fwd.b_to_a_blocked) == set(rev.a_to_b_blocked)
    assert fwd.incommensurable == rev.incommensurable


def test_compare_self_is_clean(ghz):
    report = compare_dlocc(ghz, ghz, cfg=CFG)
    assert not report.a_to_b_blocked
    assert not report.b_to_a_blocked
    assert not report.incommensurable


def test_compare_structure_mismatch(ghz):
    with pytest.raises(StructureMismatch):
        compare_dlocc(ghz, haar_random_state((2, 2), 1), cfg=CFG)


@pytest.mark.parametrize("agreeing, blocked", [(20, False), (40, True)])
def test_escalated_low_side_judged_against_escalated_restarts(
    monkeypatch, w, ghz, agreeing, blocked
):
    # b's low value is found by 5 of 33 starts, then by `agreeing` of the
    # 65 starts of the escalated re-solve; a needs no confirmation
    restarts_seen = []

    def fake_solve(state, ks, cfg):
        restarts_seen.append(cfg.restarts)
        if state is w:
            return MonotoneResult(0.6, ks, None, True, cfg.restarts + 1)
        return MonotoneResult(0.4, ks, None, True, 5 if cfg.restarts == 32 else agreeing)

    monkeypatch.setattr(locc, "solve_E", fake_solve)
    # one item, then the four fine items of rank class (1,1,1): the class
    # is solved and escalated once, and its rows are blocked together
    class_111 = [RankItem(None, ks) for ks in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)]]
    for items in (class_111[:1], class_111):
        restarts_seen.clear()
        report = compare_dlocc(w, ghz, items, SolverConfig(restarts=32))
        assert restarts_seen == [32, 32, 64]
        assert [r.e_b for r in report.rows] == [0.4] * len(items)
        assert report.a_to_b_blocked == (tuple(it.key() for it in items) if blocked else ())


@pytest.mark.parametrize("agreeing", [20, 40])
def test_slocc_rows_pass_the_trust_rule(monkeypatch, w, ghz, agreeing):
    # b's low value 0.4 is found by 5 of 33 starts, so the class is re-solved
    # once with 64 restarts; the row holds the re-solved 0.45 whether or
    # not `agreeing` of its 65 starts confirm it
    restarts_seen = []

    def fake_solve(state, ks, cfg):
        restarts_seen.append(cfg.restarts)
        if state is w:
            return MonotoneResult(0.6, ks, None, True, cfg.restarts + 1)
        if cfg.restarts == 32:
            return MonotoneResult(0.4, ks, None, True, 5)
        return MonotoneResult(0.45, ks, None, True, agreeing)

    monkeypatch.setattr(locc, "solve_E", fake_solve)
    report = slocc_bound(w, ghz, [RankItem(None, (1, 1, 1))], SolverConfig(restarts=32))
    assert restarts_seen == [32, 32, 64]
    assert [(r.e_a, r.e_b) for r in report.rows] == [(0.6, 0.45)]
    assert report.rows[0].bound == pytest.approx(0.4 / 0.55, rel=1e-15)


@pytest.mark.parametrize("items, error", [
    ([(1, 1, 1)], BadParameter),
    ("(1,1,1)", BadParameter),
    ([RankItem(None, [1, 1, 1])], BadRank),
    ([RankItem(None, 3)], BadRank),
    ([RankItem(None, ([1], 1, 1))], BadRank),
    ([RankItem("x", (1, 1))], BadGrouping),
    ([RankItem(((0,), (1, 2)), (1, 1))], BadGrouping),
], ids=["bare_ranks", "string", "rank_list", "rank_int", "rank_in_a_list", "grouping_str",
        "grouping_tuple"])
def test_malformed_rank_items_raise_a_typed_error(w, ghz, items, error):
    # each used to crash with an untyped AttributeError or TypeError
    for verdict in (compare_dlocc, slocc_bound):
        with pytest.raises(error):
            verdict(w, ghz, items, CFG)
    # the well-formed item of the last case is accepted
    assert compare_dlocc(w, ghz, [RankItem(PartyGrouping(((0,), (1, 2))), (1, 1))], CFG).rows


def _rank_class(item, dims):
    """The monotone an item names.  E_(k) is unchanged by k_i -> min(k_i,
    prod_{j != i} k_j), taken to its fixed point, and by raising to d_i the
    first block with 2 <= k_i < d_i that reaches that product.  With two
    blocks, or at most one block left restricted (k < d, the raised one
    aside), E is the sum of the k largest Schmidt values across that
    block's cut (block 0's if none is restricted): the monotone is the cut,
    as party 0's side, and k."""
    n = len(dims)
    blocks = item.grouping.blocks if item.grouping else tuple((p,) for p in range(n))
    bdims = [math.prod(dims[p] for p in b) for b in blocks]
    ks = item.ranks
    while (low := tuple(min(k, math.prod(ks[:i] + ks[i + 1:])) for i, k in enumerate(ks))) != ks:
        ks = low
    saturated = [i for i, (k, d) in enumerate(zip(ks, bdims))
                 if 2 <= k < d and k >= math.prod(ks[:i] + ks[i + 1:])]
    restricted = [i for i, (k, d) in enumerate(zip(ks, bdims)) if k < d and i not in saturated[:1]]
    if len(blocks) == 2 or (len(blocks) > 2 and len(restricted) <= 1):
        i = (restricted or [0])[0]
        side = set(blocks[i]) if 0 in blocks[i] else set(range(n)) - set(blocks[i])
        return frozenset(side), ks[i]
    return blocks, ks


@pytest.mark.parametrize("sa, sb, solves", [
    ("w", "ghz", 2),  # 7 classes, (1,1,1) the only one solved
    ("haar:2x2x2x2:1", "haar:2x2x2x2:2", 14),  # 27 classes, 7 solved
    ("w", None, 1),  # the same state
    ("w", "w", 1),  # an equal state built again
], ids=["w-ghz", "haar-2x2x2x2", "w-same", "w-equal"])
def test_profile_solves_each_rank_class_once(monkeypatch, sa, sb, solves):
    restricted = []
    real_solve = locc.solve_E

    def counting_solve(state, ks, cfg):
        restricted.append(sum(k < d for k, d in zip(ks, state.dims)))
        return real_solve(state, ks, cfg)

    monkeypatch.setattr(locc, "solve_E", counting_solve)
    a = catalog.resolve_state(sa)
    b = a if sb is None else catalog.resolve_state(sb)
    report = compare_dlocc(a, b, cfg=CFG)
    # one solve per solved class and distinct state; a class with at most
    # one restricted block reads a Schmidt spectrum instead (every item
    # evaluated on its own makes 16 and 32 solves)
    assert len(restricted) == solves
    assert min(restricted) >= 2
    values = {}
    for row in report.rows:
        key = _rank_class(row.item, a.dims)
        assert values.setdefault(key, (row.e_a, row.e_b)) == (row.e_a, row.e_b)
    assert len(values) == {3: 7, 4: 27}[a.n_parties]


@pytest.mark.parametrize("sa, sb", [("w", "ghz")] + [
    (f"haar:{shape}:1", f"haar:{shape}:2") for shape in ("2x2x2", "3x3x3", "2x2x2x2", "2x3x4")])
def test_items_naming_one_monotone_share_one_value(sa, sb):
    # an item with at most one restricted block is a Schmidt partial sum;
    # it used to be solved as a fine class while its two-block twin read
    # the spectrum, and the two rows differed in the last bits
    a, b = catalog.resolve_state(sa), catalog.resolve_state(sb)
    values = {}
    for row in compare_dlocc(a, b, cfg=CFG).rows:
        key = _rank_class(row.item, a.dims)
        assert values.setdefault(key, (row.e_a, row.e_b)) == (row.e_a, row.e_b), row.item.key()
    assert len(values) < len(default_rank_items(a.dims))


def _schmidt_state(spectrum):
    d = len(spectrum)
    return new_state((d, d), np.diag(np.sqrt(spectrum)).reshape(-1))


@pytest.mark.parametrize("a, b", [
    (f"haar:{shape}:{s}", f"haar:{shape}:{s + 1}")
    for shape in ("3x3", "2x4", "4x4") for s in range(1, 7)
] + [pytest.param((0.5, 0.3, 0.2), (0.6, 0.3, 0.1), id="comparable")])
def test_two_party_dlocc_is_nielsens_theorem(monkeypatch, a, b):
    # a -> b by LOCC iff the Schmidt spectrum of b majorizes that of a
    # (Nielsen); every two-party class reads a spectrum, so nothing is solved
    solves = []
    real_solve = locc.solve_E

    def recording_solve(state, ks, cfg):
        solves.append(ks)
        return real_solve(state, ks, cfg)

    monkeypatch.setattr(locc, "solve_E", recording_solve)
    a, b = (catalog.resolve_state(s) if isinstance(s, str) else _schmidt_state(s) for s in (a, b))
    report = compare_dlocc(a, b, cfg=CFG)
    cut = PartyGrouping.split((0,), 2)
    la, lb = schmidt_values(a, cut), schmidt_values(b, cut)
    assert bool(report.a_to_b_blocked) == (not majorizes(lb, la))
    assert bool(report.b_to_a_blocked) == (not majorizes(la, lb))
    assert solves == []


def test_all_ones_pair_with_a_trivial_party_reads_a_spectrum(monkeypatch):
    # on 1x3x3, (1,1,1) raises party 1 and leaves party 2 restricted, so
    # its class is the cut [01|2] at (1,1), like every other class here
    solves = []
    real_solve = locc.solve_E
    monkeypatch.setattr(locc, "solve_E",
                        lambda state, ks, cfg: solves.append(ks) or real_solve(state, ks, cfg))
    a, b = catalog.resolve_state("haar:1x3x3:1"), catalog.resolve_state("haar:1x3x3:2")
    report = compare_dlocc(a, b, cfg=CFG)
    assert solves == []
    assert {r.item.key(): r.e_a for r in report.rows}["(1,1,1)"] == pytest.approx(
        schmidt_values(a, PartyGrouping.split((0, 1), 3))[0], abs=1e-14)


def test_rank_classes_and_the_solver_skip_the_same_ascents(monkeypatch):
    # one rule decides both: a fine rank vector is a two-rank (Schmidt)
    # class exactly when solve_E sweeps at most one party and so never
    # reaches the ascent
    ascents = []
    ascend = monotones._ascend
    monkeypatch.setattr(monotones, "_ascend", lambda *args: ascents.append(1) or ascend(*args))
    cfg = SolverConfig(restarts=1, max_iters=1)
    checked, disagree = 0, []
    shapes = [dims for n in (2, 3) for dims in itertools.product(range(1, 5), repeat=n)]
    for dims in shapes + list(itertools.product(range(1, 4), repeat=4)):
        state = haar_random_state(dims, 1)
        ranks = itertools.product(*(range(1, d + 1) for d in dims))
        items = tuple(RankItem(None, ks) for ks in ranks)
        classes, index = locc._rank_classes(items, dims)
        for item, c in zip(items, index):
            ascents.clear()
            monotones.solve_E(state, item.ranks, cfg)
            checked += 1
            if (len(classes[c].ranks) == 2) != (not ascents):
                disagree.append((dims, item.ranks))
    assert checked == 2396
    assert disagree == []


@pytest.mark.parametrize("c", [1e-4, 1e4])
def test_witnesses_do_not_depend_on_the_scale(w, ghz, c):
    # the witness margin is relative to the larger squared norm
    def scaled(s):
        return StateTensor(s.dims, c * s.amps)

    a, b = catalog.resolve_state("haar:3x3x3:1"), catalog.resolve_state("haar:3x3x3:2")
    two_block = [it for it in default_rank_items(a.dims) if it.grouping is not None]
    for x, y, items in ((w, ghz, None), (a, b, two_block)):
        base = compare_dlocc(x, y, items, CFG)
        report = compare_dlocc(scaled(x), scaled(y), items, CFG)
        assert base.a_to_b_blocked and base.b_to_a_blocked
        assert report.a_to_b_blocked == base.a_to_b_blocked
        assert report.b_to_a_blocked == base.b_to_a_blocked


def test_compare_report_dict(w, ghz):
    d = compare_dlocc(w, ghz, cfg=CFG).to_dict()
    assert set(d) == {"pairs", "witnesses", "incommensurable"}
    assert {"rank", "E_a", "E_b"} == set(d["pairs"][0])


def test_reports_compare_and_hash_by_rows(w, ghz):
    fast = SolverConfig(restarts=2, seed=3)
    fwd, again = compare_dlocc(w, ghz, cfg=fast), compare_dlocc(w, ghz, cfg=fast)
    assert fwd == again and hash(fwd) == hash(again)
    assert fwd != compare_dlocc(ghz, w, cfg=fast)
    assert fwd != slocc_bound(w, ghz, cfg=fast)  # the report types never compare equal
    # an unconstrained bound is derived on access as None and compares equal
    prod = new_state([2, 2], [1, 0, 0, 0])
    one, two = slocc_bound(prod, prod, cfg=fast), slocc_bound(prod, prod, cfg=fast)
    assert any(r.bound is None for r in one.rows)
    assert one == two and hash(one) == hash(two)
    assert one != slocc_bound(ghz, w, cfg=fast)


def test_report_rows_are_read_only_arrays(w, ghz):
    fast = SolverConfig(restarts=2, seed=3)
    dlocc, slocc = compare_dlocc(w, ghz, cfg=fast), slocc_bound(w, ghz, cfg=fast)
    classes = max(dlocc.index) + 1
    for rows, dtype in ((dlocc.values, np.float64), (dlocc.blocked, np.bool_),
                        (slocc.values, np.float64)):
        assert rows.dtype == dtype and rows.shape == (classes, 2)
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = rows[0, 1]
    # the derived rows read plain Python numbers out of the arrays
    assert all(type(x) is float for r in dlocc.rows for x in (r.e_a, r.e_b))


def test_slocc_w_to_ghz(w, ghz):
    report = slocc_bound(w, ghz, cfg=CFG)
    assert report.overall == pytest.approx(2 / 3, abs=1e-6)


def test_slocc_ghz_to_w_true_value(ghz, w):
    # minimum over ranks is (1 - 1/2) / (1 - 4/9) = 9/10, attained at
    # (1,1,1) and the (2,1,1) family
    report = slocc_bound(ghz, w, cfg=CFG)
    assert report.overall == pytest.approx(0.9, abs=1e-6)


def test_slocc_corollary_forbids(bell_prod, ghz):
    report = slocc_bound(bell_prod, ghz, cfg=CFG)
    rows = {r.item.key(): r for r in report.rows}
    row = rows["(2,2,1)"]
    assert row.e_a == pytest.approx(1.0, abs=1e-9)
    assert row.e_b == pytest.approx(0.5, abs=1e-6)
    assert row.bound == pytest.approx(0.0, abs=1e-8)
    assert report.overall == pytest.approx(0.0, abs=1e-8)


def test_slocc_self_never_forbidden(ghz, w):
    for state in (ghz, w):
        report = slocc_bound(state, state, cfg=CFG)
        assert report.overall is None or report.overall == pytest.approx(1.0, abs=1e-6)
        assert report.overall is not None  # entangled: some rank constrains


def test_slocc_self_product_state_unconstrained():
    prod = new_state([2, 2], [1, 0, 0, 0])
    report = slocc_bound(prod, prod, cfg=CFG)
    assert report.overall is None


def test_slocc_bounds_clamped(w, ghz):
    report = slocc_bound(ghz, w, cfg=CFG)
    for row in report.rows:
        if row.bound is not None:
            assert row.bound >= 0.0
    assert 0.0 <= report.overall <= 1.0


def test_slocc_rejects_unnormalized(ghz):
    scaled = StateTensor(ghz.dims, 0.5 * ghz.amps)
    with pytest.raises(NotNormalized):
        slocc_bound(scaled, ghz, cfg=CFG)


def test_copy_ratio_kempe_empty(kempe1, kempe2):
    report = copy_ratio_feasibility(
        kempe1, kempe2, ("I4_1", "I4_2", "I4_3", "I6"), cmax=4
    )
    assert report.feasible == ()
    assert report.odot_check_passed


def test_copy_ratio_qutrit_pair_matches_partial_traces():
    names = ["I4_1", "I4_2", "I4_3", "I6"]
    a = catalog.resolve_state("haar:3x3x3:1")
    b = catalog.resolve_state("haar:3x3x3:2")
    report = copy_ratio_feasibility(a, b, names)
    assert report.odot_check_passed
    for state, values in ((a, report.values_a), (b, report.values_b)):
        want = trace_reference(pure_density(state))
        for name, value in zip(names, values):
            assert abs(value - want[name]) < 1e-12, name


def test_copy_ratio_self_diagonal(kempe1):
    report = copy_ratio_feasibility(kempe1, kempe1, ("I4_1", "I6"), cmax=4)
    assert set(report.feasible) >= {(c, c) for c in range(1, 5)}
    # I4_1 is strictly inside (0, 1), so off-diagonal powers differ
    assert set(report.feasible) == {(c, c) for c in range(1, 5)}


def test_copy_ratio_ghz_vs_basis_state(ghz):
    basis = new_state([2, 2, 2], [1, 0, 0, 0, 0, 0, 0, 0])
    report = copy_ratio_feasibility(ghz, basis, ("I4_1",), cmax=4)
    assert report.feasible == ()


def test_copy_ratio_single_copy_matches_direct_equality(kempe1, kempe2):
    report = copy_ratio_feasibility(kempe1, kempe2, ("I4_1",), cmax=1)
    # equality of the invariant at one copy each
    assert report.feasible == ((1, 1),)


def test_copy_ratio_rejects_non_simple(ghz, w):
    with pytest.raises(NotSimpleForm):
        copy_ratio_feasibility(ghz, w, ("psi[i,j,k] * psi*[j,i,k]",))


def test_copy_ratio_rejects_unnormalized(ghz):
    scaled = StateTensor(ghz.dims, 2.0 * ghz.amps)
    with pytest.raises(NotNormalized):
        copy_ratio_feasibility(scaled, ghz, ("I4_1",))


def test_copy_ratio_cmax_range(ghz, w):
    with pytest.raises(ValueError):
        copy_ratio_feasibility(ghz, w, ("I4_1",), cmax=9)


def test_copy_ratio_needs_an_invariant(kempe1, kempe2):
    with pytest.raises(BadParameter):
        copy_ratio_feasibility(kempe1, kempe2, [])
    with pytest.raises(TypeError):
        copy_ratio_feasibility(kempe1, kempe2, [3])


def test_explicit_rank_items(w, ghz):
    items = [RankItem(None, (2, 2, 1)), RankItem(None, (1, 1, 1))]
    report = compare_dlocc(w, ghz, rank_items=items, cfg=CFG)
    assert len(report.rows) == 2
