"""Rebuild reference.json: best-known values of the Haar solves in solver-grid
and of the fine verdict rows with two or more restricted parties.

    python3 perfbench/make_reference.py

Each value comes from RESTARTS starts, many more than the benchmark's
default 32, under a different solver seed, so a benchmark value below it by
more than the checks' slack means the ascent stopped at a worse local
maximum.  A verdict row is keyed by its canonical rank class, which defines
the same monotone as the row's own rank vector.
"""

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks as C  # noqa: E402
from entmono import catalog, monotones  # noqa: E402
from workloads import REFERENCE, SOLVER_GRID, spec_of, verdict_reference_states  # noqa: E402

RESTARTS = 256
SOLVER_SEED = 7919


def reference_solves() -> list[tuple[str, tuple[int, ...]]]:
    solves = [(spec_of(dims, s), ks) for dims, ks, seeds in SOLVER_GRID for s in seeds]
    for spec in verdict_reference_states():
        dims = catalog.resolve_state(spec).dims
        classes = {C.canonical_ranks(ks)
                   for ks in itertools.product(*(range(1, d + 1) for d in dims))
                   if sum(k < d for k, d in zip(ks, dims)) >= 2}
        solves += [(spec, ks) for ks in sorted(classes)]
    return list(dict.fromkeys(solves))


def main() -> int:
    cfg = monotones.SolverConfig(restarts=RESTARTS, seed=SOLVER_SEED)
    values = {}
    for spec, ks in reference_solves():
        res = monotones.solve_E(catalog.resolve_state(spec), ks, cfg)
        values[f"{spec} {ks}"] = res.value
        print(f"{spec} {ks}: {res.value!r} ({res.restarts_agreeing} agreeing)", flush=True)
    REFERENCE.write_text(json.dumps(
        {"restarts": RESTARTS, "solver_seed": SOLVER_SEED, "values": values},
        indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
