"""Tests of the benchmark itself: its checks reject known-wrong outputs and
accept today's, and its metric lists match BENCHMARK.json.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks as C  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from entmono import catalog, invariants, locc, monotones  # noqa: E402


def solved(spec, ks):
    state = catalog.resolve_state(spec)
    return state, monotones.solve_E(state, ks)


def test_rejects_tabulated_w_211():
    # frames onto span{|000>, |100>} attain 1/3, the paper's tabulated value
    t = catalog.w().tensor()
    e0 = np.array([[1.0], [0.0]], dtype=complex)
    frames = [np.eye(2, dtype=complex), e0, e0]
    assert C.own_objective(t, frames) == pytest.approx(1 / 3)
    with pytest.raises(C.CheckFailed, match="catalogue value"):
        C.check_solve(t, (2, 1, 1), 1 / 3, frames, "W (2,1,1)", exact=C.w_table((2, 1, 1)))


def test_rejects_perturbed_frame():
    state, res = solved("haar:3x3x3:1", (2, 2, 1))
    t, frames = state.tensor(), list(res.certificate.frames)
    bent = list(frames)
    bent[0] = frames[0] + 1e-6
    with pytest.raises(C.CheckFailed, match="orthonormal"):
        C.check_solve(t, (2, 2, 1), res.value, bent, "bent frame")
    # still orthonormal, but no longer the frame that attains the value
    rot = np.linalg.qr(np.eye(3) + 1e-3 * np.arange(9).reshape(3, 3))[0]
    turned = list(frames)
    turned[1] = rot @ frames[1]
    with pytest.raises(C.CheckFailed, match="certificate objective"):
        C.check_solve(t, (2, 2, 1), res.value, turned, "turned frame")


def test_rejects_tangle_off_by_1e6():
    state = catalog.haar((2, 2, 2), 5)
    tau = invariants.tangle(state)
    with pytest.raises(C.CheckFailed, match="hyperdeterminant"):
        C.check_tangle(state.tensor(), tau + 1e-6, None, "tangle")


def test_rejects_value_below_reference():
    state, res = solved("haar:2x2x2:1", (1, 1, 1))
    ref = workloads.load_reference()["haar:2x2x2:1 (1, 1, 1)"]
    with pytest.raises(C.CheckFailed, match="best-known reference"):
        C.check_solve(state.tensor(), (1, 1, 1), res.value, res.certificate.frames,
                      "raised reference", reference=ref + 1e-6)


def test_rejects_under_solved_verdict_rows():
    # a fine row short of its known value passes the Schmidt bound and the
    # witness check, and could fake a witness
    reference = workloads.load_reference()
    specs = ("haar:2x2x2:1", "haar:2x2x2:2")
    a, b = (catalog.resolve_state(s) for s in specs)
    known = {"known_a": workloads.known_values(specs[0], reference),
             "known_b": workloads.known_values(specs[1], reference)}
    payload = locc.compare_dlocc(a, b).to_dict()
    C.check_dlocc(a.tensor(), b.tensor(), payload, "haar pair", **known)
    for key in ("(1,1,1)", "(2,1,1)"):
        row = next(r for r in payload["pairs"] if r["rank"] == key)
        row["E_a"] -= 1e-6
        with pytest.raises(C.CheckFailed, match="known value"):
            C.check_dlocc(a.tensor(), b.tensor(), payload, "haar pair", **known)
        row["E_a"] += 1e-6

    w, ghz = catalog.w(), catalog.ghz()
    payload = locc.slocc_bound(w, ghz).to_dict()
    row = next(r for r in payload["bounds"] if r["rank"] == "(2,1,1)")
    row["E_a"] = 1 / 3  # the tabulated value, under W's 4/9
    row["bound"] = C.slocc_row_bound(row["E_a"], row["E_b"])
    with pytest.raises(C.CheckFailed, match="known value"):
        C.check_slocc(w.tensor(), ghz.tensor(), payload, "w->ghz",
                      known_a=C.w_table, known_b=C.ghz_table)


def test_reference_covers_verdict_rows():
    reference = workloads.load_reference()
    for spec in workloads.verdict_reference_states():
        dims = catalog.resolve_state(spec).dims
        known = workloads.known_values(spec, reference)
        for ks in np.ndindex(*dims):
            ks = tuple(k + 1 for k in ks)
            if sum(k < d for k, d in zip(ks, dims)) >= 2:
                assert 0.0 < known(ks) <= 1.0


def test_rejects_witness_without_gap():
    w, ghz = catalog.w(), catalog.ghz()
    payload = locc.compare_dlocc(w, ghz).to_dict()
    payload["witnesses"]["a_to_b_blocked"].append("(2,2,2)")
    with pytest.raises(C.CheckFailed, match="witness"):
        C.check_dlocc(w.tensor(), ghz.tensor(), payload, "w ghz")


def test_accepts_todays_outputs():
    w, ghz = catalog.w(), catalog.ghz()
    for ks in [(1, 1, 1), (2, 1, 1), (2, 2, 1)]:
        res = monotones.solve_E(w, ks)
        C.check_solve(w.tensor(), ks, res.value, res.certificate.frames, f"W {ks}",
                      exact=C.w_table(ks))
    state, res = solved("haar:2x2x2:1", (1, 1, 1))
    C.check_solve(state.tensor(), (1, 1, 1), res.value, res.certificate.frames, "haar",
                  reference=workloads.load_reference()["haar:2x2x2:1 (1, 1, 1)"])
    C.check_dlocc(w.tensor(), ghz.tensor(), locc.compare_dlocc(w, ghz).to_dict(), "w ghz")
    C.check_slocc(w.tensor(), ghz.tensor(), locc.slocc_bound(w, ghz).to_dict(), "w->ghz",
                  overall=2 / 3)
    C.check_slocc(ghz.tensor(), w.tensor(), locc.slocc_bound(ghz, w).to_dict(), "ghz->w",
                  overall=9 / 10)
    for spec in ["ghz", "w", "kempe1", "haar:2x2x2:5"]:
        s = catalog.resolve_state(spec)
        C.check_tangle(s.tensor(), invariants.tangle(s), invariants.tangle_squared_expanded(s),
                       spec)
    s = catalog.haar((2, 3, 4), 1)
    C.check_invariant_dict(invariants.builtin_invariants(s), C.own_invariants(s.tensor()),
                           "2x3x4")


def test_tracer_counts_rank_classes():
    w = catalog.w()
    tracer = spans.Tracer()
    original = monotones.solve_E
    mark = tracer.mark()
    tracer.install()
    try:
        locc.compare_dlocc(w, w)
    finally:
        tracer.uninstall()
    assert monotones.solve_E is original and locc.solve_E is original
    m = tracer.layer_metrics(mark)
    assert m["locc.rank_items"] == 32
    assert m["locc.solve_E.calls"] == 16
    # the 8 fine rank vectors of one state fall into 5 canonical classes
    assert m["locc.solves_per_rank_class"] == pytest.approx(16 / 5)
    assert m["monotones.eigh.calls"] > 0 and m["contractions.einsum.calls"] == 0
    assert m["locc.self_s"] >= 0.0 and m["monotones.self_s"] > 0.0


def test_canonical_ranks():
    assert C.canonical_ranks((4, 1, 2)) == (2, 1, 2)
    assert C.canonical_ranks((2, 1, 1)) == (1, 1, 1)
    assert C.canonical_ranks((2, 2, 1)) == (2, 2, 1)
    assert C.canonical_ranks((2, 1, 1, 2)) == (2, 1, 1, 2)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
