"""Acceptance suite: one pass/fail line per criterion (run with -s to see them).

Criteria 2b and 4b assert two reference values that are mutually
inconsistent with the defining maximization (rank monotonicity forces
E_(2,1,1)(W) >= E_(1,1,1)(W) = 4/9, so the 1/3 entry and the 3/4 bound
derived from it are unreachable by any correct solver).  They are kept
exactly as stated and marked strict-xfail; the values the definition does
produce (4/9 and 9/10) are asserted in the regular suites.
"""

import itertools
import time

import numpy as np
import pytest

from entmono.catalog import bell_prod, ghz, kempe1, kempe2, w
from entmono.invariants import (
    builtin_invariants,
    builtin_patterns,
    multiplicativity_check,
    tangle,
    tangle_squared_expanded,
)
from entmono.locc import copy_ratio_feasibility, slocc_bound
from entmono.monotones import (
    E_ensemble,
    SolverConfig,
    bipartite_E,
    escalate,
    majorizes,
    solve_E,
    trace_power_invariants,
)
from entmono.oracle import trace_product_max
from entmono.rng import haar_random_frame, haar_random_state, haar_random_unitary, stream_rng
from entmono.states import (
    DensityOp,
    PartyGrouping,
    apply_local_unitaries,
    apply_unilocal_kraus,
    new_state,
    odot,
)

CFG32 = SolverConfig(restarts=32, seed=0)
FAST = SolverConfig(restarts=8, seed=0)

_timings: dict[str, float] = {}


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def timed(key: str):
    class _Timer:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            _timings[key] = time.perf_counter() - self.t0

    return _Timer()


# -- criterion 1: GHZ table ---------------------------------------------------

def test_criterion_1_ghz_table():
    state = ghz()
    ok = True
    for ks in ((2, 1, 1), (1, 2, 1), (1, 1, 2), (1, 1, 1)):
        t0 = time.perf_counter()
        value = solve_E(state, ks, CFG32).value
        elapsed = time.perf_counter() - t0
        ok = ok and abs(value - 0.5) <= 1e-6 and elapsed < 1.0
        assert value == pytest.approx(0.5, abs=1e-6), ks
        assert elapsed < 1.0, f"{ks} took {elapsed:.2f}s"
    report("1", ok, "GHZ E_(2,1,1)/E_(1,2,1)/E_(1,1,2)/E_(1,1,1) = 0.5, <1s each")


# -- criterion 2: W table -----------------------------------------------------

def test_criterion_2a_w_table_attainable():
    state = w()
    v111 = solve_E(state, (1, 1, 1), CFG32).value
    ok = abs(v111 - 4 / 9) <= 1e-6
    values = {}
    for ks in ((2, 2, 1), (2, 1, 2), (1, 2, 2)):
        values[ks] = solve_E(state, ks, CFG32).value
        ok = ok and abs(values[ks] - 2 / 3) <= 1e-6
    report("2a", ok, "W E_(1,1,1) = 4/9 and E_(2,2,1) family = 2/3")
    assert v111 == pytest.approx(4 / 9, abs=1e-6)
    for ks, value in values.items():
        assert value == pytest.approx(2 / 3, abs=1e-6), ks


@pytest.mark.xfail(
    strict=True,
    reason="reference value E_(2,1,1)(W) = 1/3 contradicts rank "
    "monotonicity (E_(2,1,1) >= E_(1,1,1) = 4/9); the maximization "
    "attains 4/9 at tilted rank-1 frames",
)
def test_criterion_2b_w_211_reference_value():
    value = solve_E(w(), (2, 1, 1), CFG32).value
    ok = abs(value - 1 / 3) <= 1e-6
    report("2b", ok, f"W E_(2,1,1) = 1/3 as tabulated (solver: {value:.9f})")
    assert ok


# -- criterion 3: Bell x pure table -------------------------------------------

def test_criterion_3_bell_prod_table():
    state = bell_prod()
    expected = {
        (2, 1, 1): 0.5, (1, 2, 1): 0.5, (1, 1, 2): 0.5, (1, 1, 1): 0.5,
        (1, 2, 2): 0.5, (2, 1, 2): 0.5, (2, 2, 1): 1.0,
    }
    ok = True
    for ks, want in expected.items():
        value = solve_E(state, ks, CFG32).value
        ok = ok and abs(value - want) <= 1e-6
        assert value == pytest.approx(want, abs=1e-6), ks
    report("3", ok, "Bell x pure: six values of 1/2 and E_(2,2,1) = 1")


# -- criterion 4: SLOCC bounds ------------------------------------------------

def test_criterion_4a_slocc_w_to_ghz():
    overall = slocc_bound(w(), ghz(), cfg=CFG32).overall
    ok = overall is not None and abs(overall - 2 / 3) <= 1e-6
    report("4a", ok, f"W->GHZ overall bound 2/3 (got {overall:.9f})")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="reference bound 3/4 descends from the E_(2,1,1)(W) = 1/3 entry; "
    "with E_(2,1,1)(W) = 4/9 the tightest rank gives (1-1/2)/(1-4/9) = 9/10",
)
def test_criterion_4b_slocc_ghz_to_w_reference_value():
    overall = slocc_bound(ghz(), w(), cfg=CFG32).overall
    ok = overall is not None and abs(overall - 3 / 4) <= 1e-6
    report("4b", ok, f"GHZ->W overall bound 3/4 as tabulated (got {overall:.9f})")
    assert ok


# -- criterion 5: Kempe pair --------------------------------------------------

def test_criterion_5_kempe_reproduction():
    s1, s2 = kempe1(), kempe2()
    inv1, inv2 = builtin_invariants(s1), builtin_invariants(s2)
    ok = True
    for inv in (inv1, inv2):
        for name in ("I4_1", "I4_2", "I4_3"):
            ok = ok and abs(inv[name] - 769 / 1369) <= 1e-12
            assert inv[name] == pytest.approx(769 / 1369, abs=1e-12)
    # 3-decimal quotes at 5e-4, exact fixtures from the direct-summation oracle
    assert inv1["I6"] == pytest.approx(0.343, abs=5e-4)
    assert inv2["I6"] == pytest.approx(0.242, abs=5e-4)
    assert inv1["I6"] == pytest.approx(0.3425858290723155, abs=1e-12)
    assert inv2["I6"] == pytest.approx(0.24190077586717787, abs=1e-12)
    ok = ok and abs(inv1["I6"] - 0.343) <= 5e-4 and abs(inv2["I6"] - 0.242) <= 5e-4

    feasible = copy_ratio_feasibility(
        s1, s2, ("I4_1", "I4_2", "I4_3", "I6"), cmax=4
    ).feasible
    ok = ok and feasible == ()
    assert feasible == ()
    report("5", ok, "Kempe I4 = 769/1369, I6 = 0.343/0.242, no feasible copy ratio")


# -- criterion 6: bipartite oracle equivalence --------------------------------

def test_criterion_6_bipartite_three_paths():
    t0 = time.perf_counter()
    cfg = SolverConfig(restarts=6, seed=0)
    worst = 0.0
    count = 0
    for inst in range(100):
        rng = stream_rng(600, inst)
        d1, d2 = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        state = haar_random_state((d1, d2), rng)
        grouping = PartyGrouping.trivial(2)
        m = state.tensor()
        rho = m @ m.conj().T
        wv, u = np.linalg.eigh(rho)
        sqrt_rho = (u * np.sqrt(np.maximum(wv, 0))) @ u.conj().T
        for k1, k2 in itertools.product(range(1, d1 + 1), range(1, d2 + 1)):
            closed = bipartite_E(state, grouping, k1, k2)
            p = np.diag([1.0] * min(k2, d1) + [0.0] * (d1 - min(k2, d1)))
            q = np.diag([1.0] * min(k1, d1) + [0.0] * (d1 - min(k1, d1)))
            via_trace = trace_product_max([sqrt_rho, p, sqrt_rho, q])
            via_solver = solve_E(state, (k1, k2), cfg).value
            worst = max(
                worst,
                abs(closed - via_trace),
                abs(closed - via_solver),
                abs(via_trace - via_solver),
            )
            count += 3
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 60.0
    report(
        "6",
        ok,
        f"100 bipartite states, {count} pairwise checks, worst dev "
        f"{worst:.2e}, {elapsed:.1f}s",
    )
    assert worst <= 1e-8
    assert elapsed < 60.0


# -- criterion 7: property suites ----------------------------------------------

def test_criterion_7_solver_lu_invariance():
    with timed("7-lu-solver"):
        rank_choices = ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2))
        worst = 0.0
        for inst in range(100):
            rng = stream_rng(700, inst)
            state = haar_random_state((2, 2, 2), rng)
            ks = rank_choices[inst % 4]
            units = [haar_random_unitary(2, rng) for _ in range(3)]
            moved = apply_local_unitaries(state, units)
            dev = abs(
                solve_E(moved, ks, CFG32).value - solve_E(state, ks, CFG32).value
            )
            worst = max(worst, dev)
    ok = worst <= 1e-7
    report("7.1", ok, f"solver LU invariance, 100 instances, worst dev {worst:.2e}")
    assert ok


def test_criterion_7_invariant_lu_invariance():
    with timed("7-lu-invariants"):
        worst = 0.0
        for inst in range(100):
            rng = stream_rng(710, inst)
            state = haar_random_state((2, 2, 2), rng)
            units = [haar_random_unitary(2, rng) for _ in range(3)]
            moved = apply_local_unitaries(state, units)
            base = builtin_invariants(state)
            after = builtin_invariants(moved)
            for name in base:
                worst = max(worst, abs(base[name] - after[name]))
            worst = max(worst, abs(tangle(state) - tangle(moved)))
    ok = worst <= 1e-9
    report("7.2", ok, f"built-ins + tangle LU invariance, worst dev {worst:.2e}")
    assert ok


def test_criterion_7_supermultiplicativity():
    with timed("7-supermult"):
        worst_gap = 0.0
        for inst in range(100):
            rng = stream_rng(720, inst)
            a = haar_random_state((2, 2, 2), rng)
            b = haar_random_state((2, 2, 2), rng)
            ks = tuple(int(rng.integers(1, 3)) for _ in range(3))
            ls = tuple(int(rng.integers(1, 3)) for _ in range(3))
            ea = solve_E(a, ks, FAST).value
            eb = solve_E(b, ls, FAST).value
            merged_ranks = tuple(k * l for k, l in zip(ks, ls))
            em = solve_E(odot(a, b), merged_ranks, FAST).value
            if em < ea * eb - 1e-7:  # low side may be undersolved
                em = solve_E(odot(a, b), merged_ranks, escalate(escalate(FAST))).value
            worst_gap = min(worst_gap, em - ea * eb)
    ok = worst_gap >= -1e-7
    report("7.3", ok, f"supermultiplicativity, worst gap {worst_gap:.2e}")
    assert ok


def test_criterion_7_product_state_neutrality():
    with timed("7-neutrality"):
        worst = 0.0
        for inst in range(100):
            rng = stream_rng(730, inst)
            a = haar_random_state((2, 2, 2), rng)
            ks = tuple(int(rng.integers(1, 3)) for _ in range(3))
            locals_ = [haar_random_state((2,), rng).amps for _ in range(3)]
            prod_amps = np.kron(np.kron(locals_[0], locals_[1]), locals_[2])
            prod = new_state([2, 2, 2], prod_amps)
            base = solve_E(a, ks, FAST).value
            merged = solve_E(odot(a, prod), ks, FAST).value
            if abs(merged - base) > 1e-7:
                merged = solve_E(odot(a, prod), ks, escalate(escalate(FAST))).value
            worst = max(worst, abs(merged - base))
    ok = worst <= 1e-7
    report("7.4", ok, f"product-state neutrality, worst dev {worst:.2e}")
    assert ok


def test_criterion_7_rank_monotonicity():
    with timed("7-rank-monotone"):
        worst = 0.0
        for inst in range(100):
            rng = stream_rng(740, inst)
            state = haar_random_state((2, 2, 2), rng)
            ks = tuple(int(rng.integers(1, 3)) for _ in range(3))
            grow = int(rng.integers(0, 3))
            ks_big = tuple(2 if p == grow else k for p, k in enumerate(ks))
            small = solve_E(state, ks, FAST).value
            big = solve_E(state, ks_big, FAST).value
            if big < small - 1e-8:
                big = solve_E(state, ks_big, escalate(escalate(FAST))).value
            worst = max(worst, small - big)
    ok = worst <= 1e-8
    report("7.5", ok, f"rank monotonicity, worst violation {worst:.2e}")
    assert ok


def test_criterion_7_tangle_squared_expansion():
    with timed("7-tangle-sq"):
        worst = 0.0
        for inst in range(200):
            rng = stream_rng(750, inst)
            state = haar_random_state((2, 2, 2), rng)
            worst = max(
                worst, abs(tangle_squared_expanded(state) - tangle(state) ** 2)
            )
    ok = worst <= 1e-9
    report("7.6", ok, f"squared-tangle expansion, 200 states, worst dev {worst:.2e}")
    assert ok


def test_criterion_7_simple_form_multiplicativity():
    with timed("7-simple-mult"):
        patterns = builtin_patterns()
        names = ("I4_1", "I4_2", "I4_3", "I6", "I2")
        worst = 0.0
        for inst in range(100):
            rng = stream_rng(760, inst)
            a = haar_random_state((2, 2, 2), rng)
            b = haar_random_state((2, 2, 2), rng)
            rep = multiplicativity_check(patterns[names[inst % 5]], a, b)
            worst = max(worst, rep.relative_deviation)
    ok = worst <= 1e-9
    report("7.7", ok, f"simple-form multiplicativity, worst rel dev {worst:.2e}")
    assert ok


def test_criterion_7_majorization_counterexample():
    rho_before = DensityOp((3,), np.diag([0.5, 0.3, 0.2]))
    rho_after = DensityOp((3,), np.diag([0.51, 0.28, 0.21]))
    xs_before = trace_power_invariants(rho_before, 3)
    xs_after = trace_power_invariants(rho_after, 3)
    ok = (
        not majorizes([0.51, 0.28, 0.21], [0.5, 0.3, 0.2])
        and np.allclose(xs_before, [1.0, 0.38, 0.16], atol=1e-12)
        and np.allclose(xs_after, [1.0, 0.3826, 0.163864], atol=1e-12)
    )
    report("7.8", ok, "trace powers rise yet majorization fails")
    assert not majorizes([0.51, 0.28, 0.21], [0.5, 0.3, 0.2])
    np.testing.assert_allclose(xs_before, [1.0, 0.38, 0.16], atol=1e-12)
    np.testing.assert_allclose(xs_after, [1.0, 0.3826, 0.163864], atol=1e-12)


def test_criterion_7_total_runtime():
    total = sum(_timings.values())
    ok = total < 300.0
    report("7", ok, f"property suites total {total:.1f}s (< 300s)")
    assert ok


# -- criterion 8: unilocal nondecrease ----------------------------------------

def test_criterion_8_unilocal_nondecrease():
    t0 = time.perf_counter()
    failures = 0
    worst = 0.0
    for inst in range(100):
        rng = stream_rng(800, inst)
        state = haar_random_state((2, 2, 2), rng)
        ks = tuple(int(rng.integers(1, 3)) for _ in range(3))
        party = int(rng.integers(0, 3))
        d = state.dims[party]
        iso = haar_random_frame(2 * d, d, rng)
        branches = apply_unilocal_kraus(state, party, [iso[:d, :], iso[d:, :]])
        before = solve_E(state, ks, FAST).value
        after = E_ensemble(branches, ks, FAST)
        if after < before - 1e-6:
            after = E_ensemble(branches, ks, escalate(escalate(FAST)))
        gap = after - before
        worst = min(worst, gap)
        if gap < -1e-6:
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0
    report(
        "8",
        ok,
        f"unilocal nondecrease, 100 instruments, {failures} failures, "
        f"worst gap {worst:.2e}, {elapsed:.1f}s",
    )
    assert failures == 0
