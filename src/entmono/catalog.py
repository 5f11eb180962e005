"""Named example states and the state-resolution logic used by the CLI."""

from __future__ import annotations

import os
from contextlib import suppress
from itertools import combinations
from math import comb, sqrt

import numpy as np

from .errors import BadParameter
from .rng import haar_random_state
from .states import StateTensor, _integer, load_state


def _amps3(entries: dict[tuple[int, int, int], complex]) -> np.ndarray:
    v = np.zeros(8, dtype=complex)
    for (i, j, k), x in entries.items():
        v[4 * i + 2 * j + k] = x
    return v


def _field(x, lo: int, hi: int | None = None) -> int:
    """A family's N (lo = 2) or a Dicke state's K (lo = 0, hi = N) as an int."""
    if (out := _integer(x, lo, hi)) is None:
        raise BadParameter(f"need N an integer >= 2 and K one in 0..N, got {x!r}")
    return out


def ghz(n: int = 3) -> StateTensor:
    """(|0...0> + |1...1>) / sqrt(2) on n >= 2 qubits; labelled ``ghz`` at n = 3."""
    n = _field(n, 2)
    amps = np.zeros(2 ** n, dtype=complex)
    amps[[0, -1]] = 1 / sqrt(2)
    return StateTensor((2,) * n, amps, "ghz" if n == 3 else f"ghz:{n}")


def dicke(n: int, k: int) -> StateTensor:
    """Dicke state D(n, k): the equal superposition of the n-qubit basis
    states with k ones, n >= 2 and 0 <= k <= n."""
    n = _field(n, 2)
    k = _field(k, 0, n)
    amps = np.zeros(2 ** n, dtype=complex)
    ones = [sum(1 << (n - 1 - q) for q in c) for c in combinations(range(n), k)]
    amps[ones] = 1 / sqrt(comb(n, k))
    return StateTensor((2,) * n, amps, f"dicke:{n}:{k}")


def w(n: int = 3) -> StateTensor:
    """W state D(n, 1); labelled ``w`` at n = 3."""
    n = _field(n, 2)
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
        with suppress(ValueError):  # a non-integer field, or N or K out of range
            args = [int(f) for f in fields.split(":")]
            if len(args) == arity:
                return make(*args)
        raise KeyError(f"bad {name} spec {spec!r}; use {example}")
    if spec == "haar" or spec.startswith("haar:"):
        parts = spec.split(":") + ["", ""]
        with suppress(ValueError):  # a non-integer field, or a bad dimension or seed
            dims = tuple(int(d) for d in parts[1].split("x")) if parts[1] else (2, 2, 2)
            if len(parts) <= 5:
                return haar(dims, int(parts[2]) if parts[2] else 0)
        raise KeyError(f"bad haar spec {spec!r}; use haar:2x2x2:7")
    if os.path.exists(spec):
        return load_state(spec)
    raise KeyError(
        f"unknown state {spec!r}: not a catalog name "
        f"({', '.join(sorted(CATALOG))}) and no such file"
    )
