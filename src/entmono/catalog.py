"""Named example states and the state-resolution logic used by the CLI."""

from __future__ import annotations

import os
from itertools import combinations
from math import comb, sqrt

import numpy as np

from .rng import haar_random_state
from .states import StateTensor, load_state


def _amps3(entries: dict[tuple[int, int, int], complex]) -> np.ndarray:
    v = np.zeros(8, dtype=complex)
    for (i, j, k), x in entries.items():
        v[4 * i + 2 * j + k] = x
    return v


def ghz(n: int = 3) -> StateTensor:
    """(|0...0> + |1...1>) / sqrt(2) on n qubits; labelled ``ghz`` at n = 3."""
    amps = np.zeros(2 ** n, dtype=complex)
    amps[[0, -1]] = 1 / sqrt(2)
    return StateTensor((2,) * n, amps, "ghz" if n == 3 else f"ghz:{n}")


def dicke(n: int, k: int) -> StateTensor:
    """Dicke state D(n, k): the equal superposition of the n-qubit basis
    states with k ones."""
    amps = np.zeros(2 ** n, dtype=complex)
    ones = [sum(1 << (n - 1 - q) for q in c) for c in combinations(range(n), k)]
    amps[ones] = 1 / sqrt(comb(n, k))
    return StateTensor((2,) * n, amps, f"dicke:{n}:{k}")


def w(n: int = 3) -> StateTensor:
    """W state D(n, 1); labelled ``w`` at n = 3."""
    return StateTensor((2,) * n, dicke(n, 1).amps, "w" if n == 3 else f"w:{n}")


def bell_prod() -> StateTensor:
    """Singlet on parties 0, 1 tensored with |0> on party 2."""
    r = 1 / sqrt(2)
    return StateTensor(
        (2, 2, 2), _amps3({(0, 1, 0): r, (1, 0, 0): -r}), "bell-prod"
    )


def kempe1() -> StateTensor:
    return StateTensor(
        (2, 2, 2),
        _amps3({(0, 0, 0): 2 * sqrt(3) / sqrt(37), (1, 1, 1): -5 / sqrt(37)}),
        "kempe1",
    )


def kempe2() -> StateTensor:
    amps = _amps3({(0, 0, 0): 4 * sqrt(2)})
    plus = np.full(8, 1 / (2 * sqrt(2)))  # |+++> amplitudes
    amps = (amps - 5 * plus) / sqrt(37)
    return StateTensor((2, 2, 2), amps, "kempe2")


def haar(dims=(2, 2, 2), seed: int = 0) -> StateTensor:
    state = haar_random_state(dims, seed)
    dims_txt = "x".join(str(d) for d in state.dims)
    return StateTensor(state.dims, state.amps, f"haar:{dims_txt}:{seed}")


CATALOG = {
    "ghz": ghz,
    "w": w,
    "bell-prod": bell_prod,
    "kempe1": kempe1,
    "kempe2": kempe2,
    "haar": haar,
}
# n-qubit families: name -> (constructor, number of integer fields, example)
FAMILIES = {"ghz": (ghz, 1, "ghz:5"), "w": (w, 1, "w:5"), "dicke": (dicke, 2, "dicke:6:2")}


def resolve_state(spec: str) -> StateTensor:
    """Turn a CLI state spec into a state.

    Accepts a catalog name (``ghz``), an n-qubit family spec (``ghz:N``,
    ``w:N``, ``dicke:N:K`` with N >= 2 and 0 <= K <= N), a parameterized
    haar spec (``haar:2x2x2:7``), or a path to a JSON state file.
    """
    if spec in CATALOG and spec != "haar":
        return CATALOG[spec]()
    name, _, fields = spec.partition(":")
    if name in FAMILIES:
        make, arity, example = FAMILIES[name]
        try:
            args = [int(f) for f in fields.split(":")]
        except ValueError:
            args = []  # a non-integer field is as bad a spec as a wrong count
        # N >= 2, and a dicke spec's K (its last field) within 0..N
        if len(args) != arity or args[0] < 2 or not 0 <= args[-1] <= args[0]:
            raise KeyError(f"bad {name} spec {spec!r}; use {example}")
        return make(*args)
    if spec == "haar" or spec.startswith("haar:"):
        parts = spec.split(":") + ["", ""]
        try:
            dims = tuple(int(d) for d in parts[1].split("x")) if parts[1] else (2, 2, 2)
            seed = int(parts[2]) if parts[2] else 0
        except ValueError:
            seed = -1  # a non-integer field is as bad a spec as a negative seed
        if len(parts) > 5 or seed < 0:
            raise KeyError(f"bad haar spec {spec!r}; use haar:2x2x2:7")
        return haar(dims, seed)
    if os.path.exists(spec):
        return load_state(spec)
    raise KeyError(
        f"unknown state {spec!r}: not a catalog name "
        f"({', '.join(sorted(CATALOG))}) and no such file"
    )
