import json

import numpy as np
import pytest

from entmono.cli import main
from entmono.monotones import SolverConfig
from entmono.states import save_state
from entmono.catalog import resolve_state, ghz


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_w_221(capsys):
    code, out, err = run(capsys, "eval", "--state", "w", "--ranks", "2,2,1")
    assert code == 0
    assert "0.666667" in out


def test_eval_ghz_full_rank(capsys):
    code, out, err = run(
        capsys, "eval", "--state", "ghz", "--ranks", "2,2,2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(1.0, abs=1e-12)
    assert payload["converged"] is True
    assert payload["ranks"] == [2, 2, 2]


def test_eval_rank_exceeds_dimension(capsys):
    code, out, err = run(capsys, "eval", "--state", "w", "--ranks", "3,1,1")
    assert code == 2
    assert "error" in err


def test_eval_unknown_state(capsys):
    code, out, err = run(capsys, "eval", "--state", "nope", "--ranks", "1,1,1")
    assert code == 2


def test_eval_bad_flag(capsys):
    code, out, err = run(capsys, "eval", "--state", "w")  # missing --ranks
    assert code == 2


def test_eval_nonconvergence_exit_code(capsys):
    code, out, err = run(
        capsys, "eval", "--state", "w", "--ranks", "1,1,1",
        "--max-iters", "1", "--tol", "1e-14", "--json",
    )
    assert code == 3
    payload = json.loads(out)  # value still printed, flagged
    assert payload["converged"] is False
    assert 0.0 <= payload["value"] <= 4 / 9 + 1e-9


def test_eval_from_file(tmp_path, capsys):
    path = tmp_path / "ghz.json"
    save_state(ghz(), path)
    code, out, err = run(capsys, "eval", "--state", str(path), "--ranks", "1,1,1")
    assert code == 0
    assert "0.5" in out


@pytest.mark.parametrize("record", [
    {"dims": "ab", "amps": []},
    {"dims": None, "amps": []},
    {"dims": [2], "amps": [["a", "b"], [0, 0]]},
    [1, 2],
])
def test_eval_rejects_malformed_state_files(tmp_path, capsys, record):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(record))
    code, out, err = run(capsys, "eval", "--state", str(path), "--ranks", "1")
    assert code == 2
    assert err.startswith("error:")


def test_eval_rejects_an_overflowing_state(tmp_path, capsys):
    # each amplitude is finite, but the squared norm is not
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dims": [2, 2],
                                "amps": [[1e308, 0], [0, 0], [0, 0], [1e308, 0]]}))
    code, out, err = run(capsys, "eval", "--state", str(path), "--ranks", "1,1")
    assert code == 2
    assert err.startswith("error:") and "squared norm" in err
    assert out == ""


def test_eval_haar_spec(capsys):
    code, out, err = run(
        capsys, "eval", "--state", "haar:2x2:7", "--ranks", "1,1", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == [2, 2]


def test_invariants_rejects_solver_flags(capsys):
    # the solver knobs belong to eval and compare only
    code, _, err = run(capsys, "invariants", "--state", "ghz", "--restarts", "3")
    assert code == 2
    assert "--restarts" in err


def test_invariants_kempe1(capsys):
    code, out, err = run(capsys, "invariants", "--state", "kempe1")
    assert code == 0
    assert "0.561724" in out
    assert "0.342586" in out


def test_invariants_ghz_tangle(capsys):
    code, out, err = run(capsys, "invariants", "--state", "ghz", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["tangle"] == pytest.approx(1.0, abs=1e-12)
    assert payload["invariants"]["I4_1"] == pytest.approx(0.5, abs=1e-12)


def test_invariants_defs_slot_mismatch(tmp_path, capsys):
    defs = tmp_path / "my.inv"
    defs.write_text("# four-party expression\npsi[i,j,k,l] * psi*[i,j,k,l]\n")
    code, out, err = run(
        capsys, "invariants", "--state", "bell-prod", "--defs", str(defs)
    )
    assert code == 2
    assert "error" in err


def test_invariants_defs_evaluated(tmp_path, capsys):
    defs = tmp_path / "my.inv"
    defs.write_text("\n# norm squared\npsi[i,j,k] * psi*[i,j,k]\n")
    code, out, err = run(
        capsys, "invariants", "--state", "w", "--defs", str(defs), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["defs"][0]["value"][0] == pytest.approx(1.0, abs=1e-12)


def test_invariants_defs_error_names_its_line(tmp_path, capsys):
    defs = tmp_path / "my.inv"
    defs.write_text("# norm squared\npsi[i,j,k] * psi*[i,j,k]\npsi[i,j,k] * psi*[i,j,k] * \n")
    code, out, err = run(capsys, "invariants", "--state", "w", "--defs", str(defs))
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 3: ")
    assert "Traceback" not in err


def test_compare_slocc_w_ghz(capsys):
    code, out, err = run(
        capsys, "compare", "--a", "w", "--b", "ghz", "--mode", "slocc",
        "--restarts", "16",
    )
    assert code == 0
    assert "0.666667" in out


def test_compare_copies_kempe(capsys):
    code, out, err = run(
        capsys, "compare", "--a", "kempe1", "--b", "kempe2", "--mode", "copies"
    )
    assert code == 0
    assert "no feasible (C1,C2) up to (4,4)" in out


@pytest.mark.parametrize("mode,flags", [
    ("copies", ["--restarts", "3", "--max-iters", "1", "--seed", "9"]),
    ("slocc", ["--cmax", "7"]),
    ("dlocc", ["--cmax", "2"]),
])
def test_compare_rejects_flags_its_mode_never_reads(capsys, mode, flags):
    code, out, err = run(capsys, "compare", "--a", "kempe1", "--b", "kempe2",
                         "--mode", mode, *flags)
    assert code == 2
    assert out == ""
    assert flags[0] in err


@pytest.mark.parametrize("argv", [
    "eval --state w --ranks 1,1,1 --restarts 0",
    "compare --a w --b ghz --mode dlocc --max-iters 0",
    "eval --state w --ranks 1,1,1 --seed -1",
    "compare --a kempe1 --b kempe2 --mode copies --cmax 9",
    "eval --state w --ranks 1,,1",
    "eval --state haar:2xq:1 --ranks 1,1",
    "eval --state w --ranks 1,1,1 --tol inf",
])
def test_out_of_range_input_is_a_typed_error(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_unset_solver_flags_take_the_solver_config_defaults(capsys):
    cfg = SolverConfig()
    explicit = ["--restarts", str(cfg.restarts), "--max-iters", str(cfg.max_iters),
                "--tol", repr(cfg.tol), "--seed", str(cfg.seed)]
    args = ["compare", "--a", "w", "--b", "ghz", "--mode", "slocc", "--json"]
    assert run(capsys, *args) == run(capsys, *args, *explicit)


def test_compare_dlocc_self(capsys):
    code, out, err = run(
        capsys, "compare", "--a", "ghz", "--b", "ghz", "--mode", "dlocc",
        "--restarts", "8",
    )
    assert code == 0
    assert "incommensurable: no" in out


def test_json_outputs_are_reproducible(capsys):
    args = (
        "compare", "--a", "w", "--b", "ghz", "--mode", "dlocc",
        "--restarts", "8", "--seed", "5", "--json",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert set(payload) >= {"pairs", "witnesses", "incommensurable", "mode"}


def test_resolve_state_catalog_names():
    for name in ("ghz", "w", "bell-prod", "kempe1", "kempe2"):
        s = resolve_state(name)
        assert s.dims == (2, 2, 2)
        assert np.isfinite(s.amps).all()


def test_plain_ghz_and_w_keep_their_amplitudes_and_labels():
    # the n-qubit families reproduce the three-qubit catalogue states byte
    # for byte, so their --json output does not change
    r2, r3 = 1 / np.sqrt(2), 1 / np.sqrt(3)
    want = {"ghz": {0: r2, 7: r2}, "w": {1: r3, 2: r3, 4: r3}}
    for name, entries in want.items():
        amps = np.zeros(8, dtype=complex)
        amps[list(entries)] = list(entries.values())
        for spec in (name, f"{name}:3"):
            s = resolve_state(spec)
            assert (s.dims, s.label) == ((2, 2, 2), name)
            assert s.amps.tobytes() == amps.tobytes()


@pytest.mark.parametrize("spec, n, support, label", [
    ("ghz:2", 2, [0, 3], "ghz:2"),
    ("ghz:5", 5, [0, 31], "ghz:5"),
    ("w:4", 4, [1, 2, 4, 8], "w:4"),
    ("dicke:4:2", 4, [3, 5, 6, 9, 10, 12], "dicke:4:2"),
    ("dicke:3:0", 3, [0], "dicke:3:0"),
    ("dicke:3:3", 3, [7], "dicke:3:3"),
])
def test_n_qubit_family_specs(spec, n, support, label):
    s = resolve_state(spec)
    assert (s.dims, s.label) == ((2,) * n, label)
    assert np.flatnonzero(s.amps).tolist() == support
    np.testing.assert_allclose(s.amps[support], 1 / np.sqrt(len(support)), rtol=0, atol=1e-15)


def test_eval_reaches_n_qubit_states(capsys):
    code, out, _ = run(capsys, "eval", "--state", "dicke:6:2", "--ranks", "1,1,1,1,1,1",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["state"] == "dicke:6:2"
    assert payload["value"] == pytest.approx(15 * (1 / 3) ** 2 * (2 / 3) ** 4, abs=1e-10)


@pytest.mark.parametrize("spec", [
    "ghz:", "ghz:1", "ghz:0", "ghz:x", "ghz:3:1", "ghz:2.5", "w:1", "w:-3", "w:4:1",
    "dicke", "dicke:4", "dicke:4:5", "dicke:4:-1", "dicke:1:0", "dicke:4:1:2", "dicke:4:x",
    "dicke::",
])
def test_bad_family_specs_are_key_errors(capsys, spec):
    # the same path as a bad haar spec: a KeyError, which the CLI reports
    # with exit code 2
    with pytest.raises(KeyError, match="bad"):
        resolve_state(spec)
    code, out, err = run(capsys, "eval", "--state", spec, "--ranks", "1,1,1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad")
