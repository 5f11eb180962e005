"""The three benchmark workloads: fixed operation lists with their checks.

Each workload is a list of ``Op``s run in order as one pass.  Every call
into ``entmono`` goes through a module attribute looked up at call time
(``monotones.solve_E``), so the tracer's wrappers see it.

The seed changes the amplitudes of every input, never the amount of work:
``solver-grid`` and ``verdicts`` multiply each state by a seeded global
phase (the ascent's path, and so its eigh count, depends on the state only
through its projectors), and ``invariants`` applies seeded Haar local
unitaries (an index contraction costs the same on any amplitudes).  All
checked quantities are invariant under both, so one reference file serves
every seed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks as C
from entmono import catalog, cli, contractions, invariants, locc, monotones, states

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
TWO_PI = 2 * np.pi


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    # check(output, all first-pass outputs by op name); raises CheckFailed
    check: Callable[[Any, dict], None]


@dataclass
class Workload:
    ops: list[Op]
    largest: str


# -- inputs -------------------------------------------------------------------

def phased(state, gen: np.random.Generator):
    phase = np.exp(1j * gen.uniform(0.0, TWO_PI))
    return states.StateTensor(state.dims, phase * state.amps, state.label)


def haar_unitary(d: int, gen: np.random.Generator) -> np.ndarray:
    z = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def rotated(state, gen: np.random.Generator):
    t = state.tensor()
    for p, d in enumerate(state.dims):
        t = np.moveaxis(np.tensordot(haar_unitary(d, gen), t, axes=([1], [p])), 0, p)
    return states.StateTensor(state.dims, t.reshape(-1), state.label)


def spec_of(dims, seed: int) -> str:
    return f"haar:{'x'.join(map(str, dims))}:{seed}"


def state_cache(transform, gen: np.random.Generator):
    """spec -> the catalogue state under ``transform``, each made once."""
    return functools.cache(lambda spec: transform(catalog.resolve_state(spec), gen))


def state_path(state, spec: str, outdir: Path) -> str:
    """Write a state as JSON under ``outdir``, for the CLI to read."""
    p = outdir / f"{spec.replace(':', '_')}.json"
    states.save_state(state, p)
    return str(p)


def run_cli(argv: list[str]):
    """cli.main in-process; returns (exit code, parsed --json payload or None)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    text = buf.getvalue()
    return code, (json.loads(text) if text.strip() else None)


def same_json(payload: dict, library: dict, what: str) -> None:
    lib = json.loads(json.dumps(library))
    for key, value in lib.items():
        C.require(payload.get(key) == value,
                  f"{what}: --json field {key!r} differs from the library value")


# -- solver-grid --------------------------------------------------------------

# ROADMAP grid: (dims, ranks, Haar seeds)
SOLVER_GRID = [
    ((2, 2, 2), (1, 1, 1), (1, 2)),
    ((3, 3, 3), (2, 2, 1), (1, 2)),
    ((3, 3, 3), (1, 1, 1), (1, 2)),
    ((4, 4, 4), (2, 2, 2), (1, 2)),
    ((4, 4, 4), (2, 1, 2), (1, 2)),
    ((4, 4, 4), (4, 1, 2), (1, 2)),   # redundant: equals (2,1,2)
    ((8, 8, 8), (3, 3, 3), (1, 2)),
    ((2, 2, 2, 2), (1, 1, 1, 1), (1, 2)),
    ((2,) * 6, (1,) * 6, (1, 2)),
]
# rank vectors with at most one restricted party: closed form
SOLVER_CLOSED = [
    ((3, 3, 3), (2, 3, 3), 1),
    ((4, 4, 4), (4, 4, 2), 1),
    ((8, 8, 8), (3, 8, 8), 1),
    ((2,) * 6, (1, 2, 2, 2, 2, 2), 1),
]
CATALOGUE_TABLES = {"ghz": C.ghz_table, "w": C.w_table, "bell-prod": C.bell_prod_table}


def solve_name(label: str, ks) -> str:
    return f"solve_E {label} ({','.join(map(str, ks))})"


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())["values"]


def solver_grid(seed: int, outdir: Path) -> Workload:
    state = state_cache(phased, np.random.default_rng(seed))
    reference = load_reference()
    ops = []

    def solve_op(state, ks, exact=None, reference=None, also=None):
        t = state.tensor()

        def check(res, outputs):
            C.require(tuple(res.ranks) == tuple(ks), f"ranks {res.ranks} returned for {ks}")
            C.check_solve(t, ks, res.value, res.certificate.frames, name,
                          exact=exact, reference=reference)
            if also is not None:
                C.close(res.value, outputs[also].value,
                        f"{name}: identity with {also}", atol=C.SOLVER_SLACK)

        name = solve_name(state.label, ks)
        return Op(name, lambda: monotones.solve_E(state, ks), check)

    for dims, ks, seeds in SOLVER_GRID:
        for s in seeds:
            spec = spec_of(dims, s)
            also = solve_name(spec, (2, 1, 2)) if ks == (4, 1, 2) else None
            ops.append(solve_op(state(spec), ks, reference=reference[f"{spec} {ks}"],
                                also=also))
    for dims, ks, s in SOLVER_CLOSED:
        ops.append(solve_op(state(spec_of(dims, s)), ks))
    for name, table in CATALOGUE_TABLES.items():
        for ks in itertools.product((1, 2), repeat=3):
            ops.append(solve_op(state(name), ks, exact=table(ks)))
    return Workload(ops, largest=solve_name(spec_of((2,) * 6, 2), (1,) * 6))


# set-up warms each operation kind with few restarts: the code paths and
# BLAS kernels are the same, and a sample stays cheap enough to repeat
WARM_CFG = monotones.SolverConfig(restarts=2)


def warm_solver_grid() -> None:
    w = catalog.w()
    monotones.solve_E(w, (1, 1, 1), WARM_CFG)
    monotones.solve_E(w, (2, 2, 1), WARM_CFG)


# -- verdicts -----------------------------------------------------------------

# (mode, a, b, via CLI, known slocc overall).  slocc runs both ways only on
# w/ghz, whose bounds are known, and one way or not at all on the other
# pairs: the pass stays short enough that a 35 s run median-times three or
# more passes.
VERDICT_OPS = [
    ("dlocc", "w", "ghz", False, None),
    ("slocc", "w", "ghz", False, 2 / 3),
    ("slocc", "ghz", "w", False, 9 / 10),
    ("dlocc", "ghz", "bell-prod", True, None),
    ("slocc", "ghz", "bell-prod", True, None),
    ("dlocc", "kempe1", "kempe2", False, None),
    ("dlocc", "haar:2x2x2:1", "haar:2x2x2:2", False, None),
    ("slocc", "haar:2x2x2:1", "haar:2x2x2:2", False, None),
    ("dlocc", "w", "w", False, None),
    ("slocc", "w", "w", False, None),
    ("dlocc", "haar:2x2x2x2:1", "haar:2x2x2x2:2", False, None),
]
VERDICT_LARGEST = "compare_dlocc haar:2x2x2x2:1 haar:2x2x2x2:2"


def verdict_reference_states() -> list[str]:
    """Verdict states whose fine rows are held to reference.json."""
    specs = dict.fromkeys(s for _, a, b, _, _ in VERDICT_OPS for s in (a, b))
    return [s for s in specs if s not in CATALOGUE_TABLES]


def known_values(spec: str, reference: dict):
    """ranks -> the value a fine verdict row of ``spec`` must reach."""
    if spec in CATALOGUE_TABLES:
        return CATALOGUE_TABLES[spec]

    def known(ks):
        key = f"{spec} {C.canonical_ranks(ks)}"
        C.require(key in reference, f"no best-known value for {key} in reference.json")
        return reference[key]
    return known


def verdicts(seed: int, outdir: Path) -> Workload:
    state = state_cache(phased, np.random.default_rng(seed))
    reference = load_reference()

    def verdict_op(mode, sa, sb, via_cli, overall):
        fname = {"dlocc": "compare_dlocc", "slocc": "slocc_bound"}[mode]
        a, b = state(sa), state(sb)
        known = {"known_a": known_values(sa, reference), "known_b": known_values(sb, reference)}
        name = f"{fname} {sa} {sb}" + (" (cli)" if via_cli else "")

        def library():
            return getattr(locc, fname)(a, b)  # looked up per call, for the tracer

        def check(out, outputs):
            if via_cli:
                code, payload = out
                C.require(code == 0 and payload is not None, f"{name}: exit code {code}")
                same_json(payload, library().to_dict(), name)
            else:
                payload = out.to_dict()
            if mode == "dlocc":
                C.check_dlocc(a.tensor(), b.tensor(), payload, name, **known)
            else:
                C.check_slocc(a.tensor(), b.tensor(), payload, name, overall=overall, **known)
            if sa == sb:
                C.check_self_pair(payload, mode, name)

        if via_cli:
            argv = ["compare", "--a", state_path(a, sa, outdir), "--b",
                    state_path(b, sb, outdir), "--mode", mode, "--json"]
            return Op(name, lambda: run_cli(argv), check)
        return Op(name, library, check)

    ops = [verdict_op(*row) for row in VERDICT_OPS]
    return Workload(ops, largest=VERDICT_LARGEST)


def warm_verdicts() -> None:
    w, ghz = catalog.w(), catalog.ghz()
    locc.compare_dlocc(w, ghz, cfg=WARM_CFG)
    locc.slocc_bound(w, ghz, cfg=WARM_CFG)
    run_cli(["compare", "--a", "ghz", "--b", "bell-prod", "--mode", "slocc", "--json",
             "--restarts", str(WARM_CFG.restarts)])


# -- invariants ---------------------------------------------------------------

INVARIANT_DIMS = [(2, 2, 2), (3, 3, 3), (4, 4, 4), (6, 6, 6), (8, 8, 8)]
TANGLE_BATCH = ["ghz", "w", "kempe1", "kempe2"] + [f"haar:2x2x2:{s}" for s in range(1, 7)]
MIXED = ("haar:3x3x3:2", "haar:3x3x3:3", 0.3)
KEMPE_I4 = 769 / 1369
COPY_INVARIANTS = ["I4_1", "I4_2", "I4_3", "I6"]


def invariants_workload(seed: int, outdir: Path) -> Workload:
    state = state_cache(rotated, np.random.default_rng(seed))
    patterns = dict(invariants.BUILTIN_PATTERN_TEXT)

    @functools.cache
    def own(spec):
        return C.own_invariants(state(spec).tensor())

    ops = []
    for dims in INVARIANT_DIMS:
        spec = spec_of(dims, 1)
        s = state(spec)
        ops.append(Op(f"builtin_invariants {spec}",
                      lambda s=s: invariants.builtin_invariants(s),
                      lambda out, _, spec=spec: C.check_invariant_dict(
                          out, own(spec), f"builtin {spec}")))
        for pname, text in patterns.items():
            ops.append(Op(
                f"eval_contraction {pname} {spec}",
                lambda s=s, text=text: contractions.eval_contraction(
                    contractions.parse_contraction(text), s),
                lambda out, _, spec=spec, pname=pname: C.close(
                    out.value, own(spec)[pname], f"DSL {pname} {spec}",
                    rtol=C.INVARIANT_RTOL, atol=1e-12)))

    sa, sb, p = MIXED
    va, vb = state(sa).amps, state(sb).amps
    mix = p * np.outer(va, va.conj()) + (1 - p) * np.outer(vb, vb.conj())
    rho = states.DensityOp((3, 3, 3), mix)
    ops.append(Op(f"builtin_invariants mixed {sa} {sb}",
                  lambda: invariants.builtin_invariants(rho),
                  lambda out, _: C.check_invariant_dict(
                      out, C.own_invariants_density(mix, (3, 3, 3)), "mixed")))

    for spec in TANGLE_BATCH:
        s = state(spec)
        ops.append(Op(f"tangle {spec}", lambda s=s: invariants.tangle(s),
                      lambda out, _, s=s, spec=spec: C.check_tangle(
                          s.tensor(), out, None, spec)))
        ops.append(Op(f"tangle_squared_expanded {spec}",
                      lambda s=s: invariants.tangle_squared_expanded(s),
                      lambda out, _, s=s, spec=spec: C.close(
                          out, C.hyperdet_tangle(s.tensor()) ** 2,
                          f"{spec}: squared-tangle expansion", rtol=1e-9, atol=1e-12)))

    for pname, spec_a, spec_b in (("I6", "haar:2x2x2:1", "haar:2x2x2:2"),
                                  ("I4_1", "haar:2x2x2:1", "haar:3x3x3:1")):
        a, b = state(spec_a), state(spec_b)

        def check_mult(rep, _, a=a, b=b, pname=pname, what=f"{pname} {spec_a} (.) {spec_b}"):
            C.require(rep.passed, f"{what}: multiplicativity check reported a failure")
            ia = C.own_invariants(a.tensor())[pname]
            ib = C.own_invariants(b.tensor())[pname]
            im = C.own_invariants(C.own_odot(a.tensor(), b.tensor()))[pname]
            C.close(rep.value_a, ia, f"{what}: value_a", rtol=C.INVARIANT_RTOL)
            C.close(rep.value_b, ib, f"{what}: value_b", rtol=C.INVARIANT_RTOL)
            C.close(rep.value_merged, im, f"{what}: merged value", rtol=C.INVARIANT_RTOL)
            C.close(im, ia * ib, f"{what}: I(a (.) b) = I(a) I(b)", rtol=C.INVARIANT_RTOL)

        ops.append(Op(f"multiplicativity_check {pname} {spec_a} {spec_b}",
                      lambda a=a, b=b, text=patterns[pname]: invariants.multiplicativity_check(
                          contractions.parse_contraction(text), a, b),
                      check_mult))

    for target, spec in (("I6", "haar:3x3x3:1"), ("tangle", "haar:2x2x2:1")):
        s = state(spec)

        def check_lu(rep, _, s=s, spec=spec, target=target,
                     what=f"LU invariance {target} {spec}"):
            base = (C.hyperdet_tangle(s.tensor()) if target == "tangle"
                    else own(spec)[target].real)
            C.require(rep.passed, f"{what}: reported a failure")
            C.close(rep.baseline, base, f"{what}: baseline", rtol=C.INVARIANT_RTOL, atol=1e-12)
            C.require(rep.max_deviation <= 1e-9, f"{what}: deviation {rep.max_deviation:.3g}")

        ops.append(Op(f"local_unitary_invariance_check {target} {spec}",
                      lambda s=s, target=target: invariants.local_unitary_invariance_check(
                          target, s), check_lu))

    k1, k2 = state("kempe1"), state("kempe2")

    def check_copies(rep, _):
        C.require(rep.odot_check_passed, "copy ratio: odot spot check failed")
        own1, own2 = own("kempe1"), own("kempe2")
        for i, name in enumerate(COPY_INVARIANTS):
            C.close(rep.values_a[i], own1[name], f"kempe1 {name}", rtol=C.INVARIANT_RTOL)
            C.close(rep.values_b[i], own2[name], f"kempe2 {name}", rtol=C.INVARIANT_RTOL)
            if name.startswith("I4"):
                C.close(own1[name], KEMPE_I4, f"kempe1 {name} = 769/1369", rtol=1e-12)
                C.close(own2[name], KEMPE_I4, f"kempe2 {name} = 769/1369", rtol=1e-12)
        want = [(c1, c2) for c1, c2 in itertools.product(range(1, rep.cmax + 1), repeat=2)
                if all(abs(own1[n] ** c1 - own2[n] ** c2)
                       <= 1e-8 * max(abs(own1[n] ** c1), abs(own2[n] ** c2))
                       for n in COPY_INVARIANTS)]
        C.require(list(rep.feasible) == want,
                  f"copy ratio: feasible {list(rep.feasible)}, invariants give {want}")

    ops.append(Op("copy_ratio_feasibility kempe1 kempe2",
                  lambda: locc.copy_ratio_feasibility(k1, k2, COPY_INVARIANTS),
                  check_copies))

    defs = outdir / "builtin_patterns.inv"
    defs.write_text("".join(f"{text}  # {name}\n" for name, text in patterns.items()))
    for spec, extra in (("haar:2x2x2:1", []), ("haar:4x4x4:1", ["--defs", str(defs)])):
        argv = ["invariants", "--state", state_path(state(spec), spec, outdir), "--json"] + extra
        s = state(spec)

        def check_cli(out, _, s=s, spec=spec, extra=extra, what=f"cli invariants {spec}"):
            code, payload = out
            C.require(code == 0 and payload is not None, f"{what}: exit code {code}")
            library = {"invariants": invariants.builtin_invariants(s)}
            if s.dims == (2, 2, 2):
                library["tangle"] = invariants.tangle(s)
                C.check_tangle(s.tensor(), payload["tangle"], None, what)
            if extra:
                library["defs"] = [
                    [v.real, v.imag] for v in
                    (contractions.eval_contraction(contractions.parse_contraction(t), s).value
                     for t in patterns.values())]
                payload = dict(payload, defs=[row["value"] for row in payload["defs"]])
                for row, name in zip(payload["defs"], patterns):
                    C.close(complex(*row), own(spec)[name], f"{what} defs {name}",
                            rtol=C.INVARIANT_RTOL, atol=1e-12)
            same_json(payload, library, what)
            C.check_invariant_dict(payload["invariants"], own(spec), what)

        ops.append(Op(f"cli invariants {spec}" + (" --defs" if extra else ""),
                      lambda argv=argv: run_cli(argv), check_cli))
    return Workload(ops, largest="eval_contraction I6 haar:8x8x8:1")


def warm_invariants() -> None:
    ghz = catalog.ghz()
    big = catalog.haar((6, 6, 6), 0)
    invariants.builtin_invariants(big)
    i6 = contractions.parse_contraction(invariants.BUILTIN_PATTERN_TEXT["I6"])
    contractions.eval_contraction(i6, catalog.haar((4, 4, 4), 0))
    invariants.tangle(ghz)
    invariants.tangle_squared_expanded(ghz)
    invariants.multiplicativity_check(i6, ghz, ghz)
    invariants.local_unitary_invariance_check("tangle", ghz, trials=2)
    locc.copy_ratio_feasibility(catalog.kempe1(), catalog.kempe2(), COPY_INVARIANTS)
    run_cli(["invariants", "--state", "ghz", "--json"])


WORKLOADS = {
    "solver-grid": (solver_grid, warm_solver_grid),
    "verdicts": (verdicts, warm_verdicts),
    "invariants": (invariants_workload, warm_invariants),
}
