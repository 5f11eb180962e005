"""Batch command-line front-end.

Exit codes: 0 success, 2 bad arguments or contract violation, 3 solver
failed to converge (the value is still printed, flagged).  Human output
uses 6 significant digits; --json emits full-precision round-trip floats
with sorted keys, so identical invocations with the same --seed are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import resolve_state
from .contractions import eval_contraction, parse_contraction
from .errors import BadRank, EntmonoError
from .invariants import builtin_invariants, tangle
from .locc import compare_dlocc, copy_ratio_feasibility, slocc_bound
from .monotones import SolverConfig, solve_E

DEFAULT_COPY_INVARIANTS = ("I4_1", "I4_2", "I4_3", "I6")
SOLVER_FLAGS = ("restarts", "max_iters", "tol", "seed")
# an imaginary part below this fraction of the value's modulus is not shown
IMAG_DISPLAY_TOL = 1e-12


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _given(args, flags) -> dict:
    """The flags set on the command line; the rest keep the library defaults."""
    return {f: getattr(args, f) for f in flags if getattr(args, f) is not None}


def _solver_config(args) -> SolverConfig:
    return SolverConfig(**_given(args, SOLVER_FLAGS))


def cmd_eval(args) -> int:
    state = resolve_state(args.state)
    try:
        ks = tuple(int(k) for k in args.ranks.split(","))
    except ValueError:
        raise BadRank(f"--ranks takes comma-separated integers, got {args.ranks!r}") from None
    result = solve_E(state, ks, _solver_config(args))
    if args.json:
        payload = result.to_dict()
        payload["state"] = state.label
        payload["dims"] = list(state.dims)
        _emit_json(payload)
    else:
        ranks = ",".join(str(k) for k in ks)
        print(f"E_({ranks})({state.label or 'state'}) = {_fmt(result.value)}")
        print(
            f"converged: {'yes' if result.converged else 'NO'}   "
            f"restarts agreeing: {result.restarts_agreeing}   "
            f"degenerate cut: {'yes' if result.degenerate else 'no'}",
            file=sys.stderr,
        )
    return 0 if result.converged else 3


def cmd_invariants(args) -> int:
    state = resolve_state(args.state)
    payload: dict = {"state": state.label, "dims": list(state.dims)}
    if state.n_parties == 3:
        payload["invariants"] = builtin_invariants(state)
        if state.dims == (2, 2, 2):
            payload["tangle"] = tangle(state)
    if args.defs:
        rows = []
        with open(args.defs) as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                try:
                    expr = parse_contraction(text)
                    val = eval_contraction(expr, state)
                except EntmonoError as exc:
                    raise type(exc)(f"line {lineno}: {exc.args[0]}") from None
                rows.append(
                    {
                        "line": lineno,
                        "expr": str(expr),
                        "value": [val.value.real, val.value.imag],
                        "imag_warning": val.imag_warning,
                    }
                )
        payload["defs"] = rows
    if "invariants" not in payload and "defs" not in payload:
        raise EntmonoError(
            f"state has {state.n_parties} parties; built-ins need 3 "
            "(pass --defs for custom contractions)"
        )
    if args.json:
        _emit_json(payload)
        return 0
    print(f"state: {state.label or args.state}  dims: "
          + "x".join(str(d) for d in state.dims))
    for name, v in payload.get("invariants", {}).items():
        print(f"{name:5s} = {_fmt(v)}")
    if "tangle" in payload:
        print(f"tangle = {_fmt(payload['tangle'])}")
    for row in payload.get("defs", []):
        re_, im = row["value"]
        shown_im = abs(im) > IMAG_DISPLAY_TOL * abs(complex(re_, im))
        suffix = "  (imag_warning)" if row["imag_warning"] else ""
        print(f"defs:{row['line']}  {row['expr']}  = {_fmt(re_)}"
              + (f" + {_fmt(im)}i" if shown_im else "") + suffix)
    return 0


def cmd_compare(args) -> int:
    taken = ("cmax",) if args.mode == "copies" else SOLVER_FLAGS
    for flag in SOLVER_FLAGS + ("cmax",):
        if flag not in taken and getattr(args, flag) is not None:
            raise EntmonoError(f"--mode {args.mode} does not take --{flag.replace('_', '-')}")
    a = resolve_state(args.a)
    b = resolve_state(args.b)
    cfg = _solver_config(args)
    if args.mode == "dlocc":
        report = compare_dlocc(a, b, cfg=cfg)
        payload = report.to_dict()
        if not args.json:
            for row in payload["pairs"]:
                print(f"{row['rank']:>14s}  E_a={_fmt(row['E_a'])}  E_b={_fmt(row['E_b'])}")
            wit = payload["witnesses"]
            print("a->b blocked by:", ", ".join(wit["a_to_b_blocked"]) or "nothing")
            print("b->a blocked by:", ", ".join(wit["b_to_a_blocked"]) or "nothing")
            print("incommensurable:", "yes" if payload["incommensurable"] else "no")
    elif args.mode == "slocc":
        report = slocc_bound(a, b, cfg=cfg)
        payload = report.to_dict()
        if not args.json:
            for row in payload["bounds"]:
                bound = row["bound"]
                txt = bound if isinstance(bound, str) else _fmt(bound)
                print(f"{row['rank']:>14s}  bound {txt}")
            overall = payload["overall"]
            print(
                "overall bound:",
                overall if isinstance(overall, str) else _fmt(overall),
            )
    else:
        report = copy_ratio_feasibility(
            a, b, DEFAULT_COPY_INVARIANTS, **_given(args, ("cmax",))
        )
        payload = report.to_dict()
        if not args.json:
            pairs = payload["feasible_copy_ratios"]
            if pairs:
                print("feasible (C1,C2):", ", ".join(f"({p[0]},{p[1]})" for p in pairs))
            else:
                print(f"no feasible (C1,C2) up to ({report.cmax},{report.cmax})")
    if args.json:
        payload["mode"] = args.mode
        payload["a"] = a.label
        payload["b"] = b.label
        _emit_json(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entmono",
        description="Multipartite entanglement monotones, invariants and "
        "LOCC convertibility checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        # no defaults here: an unset flag keeps SolverConfig's default
        p.add_argument("--restarts", type=int)
        p.add_argument("--max-iters", type=int)
        p.add_argument("--tol", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--json", action="store_true")

    p_eval = sub.add_parser("eval", help="compute one monotone value")
    p_eval.add_argument("--state", required=True,
                        help="catalog name, haar:DIMS:SEED, or JSON file path")
    p_eval.add_argument("--ranks", required=True, help="comma-separated, e.g. 2,2,1")
    add_common(p_eval)
    p_eval.set_defaults(fn=cmd_eval)

    p_inv = sub.add_parser("invariants", help="evaluate polynomial invariants")
    p_inv.add_argument("--state", required=True)
    p_inv.add_argument("--defs", help="file of contraction expressions, one per line")
    p_inv.add_argument("--json", action="store_true")
    p_inv.set_defaults(fn=cmd_invariants)

    p_cmp = sub.add_parser("compare", help="convertibility analysis for a pair")
    p_cmp.add_argument("--a", required=True)
    p_cmp.add_argument("--b", required=True)
    p_cmp.add_argument("--mode", choices=("dlocc", "slocc", "copies"), required=True)
    p_cmp.add_argument("--cmax", type=int, help="copies mode only")
    add_common(p_cmp)
    p_cmp.set_defaults(fn=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    try:
        return args.fn(args)
    except (EntmonoError, KeyError, OSError, json.JSONDecodeError) as exc:
        msg = exc.args[0] if exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
