"""Named example states and the state-resolution logic used by the CLI."""

from __future__ import annotations

import os
from math import sqrt

import numpy as np

from .rng import haar_random_state
from .states import StateTensor, load_state


def _amps3(entries: dict[tuple[int, int, int], complex]) -> np.ndarray:
    v = np.zeros(8, dtype=complex)
    for (i, j, k), x in entries.items():
        v[4 * i + 2 * j + k] = x
    return v


def ghz() -> StateTensor:
    return StateTensor(
        (2, 2, 2),
        _amps3({(0, 0, 0): 1 / sqrt(2), (1, 1, 1): 1 / sqrt(2)}),
        "ghz",
    )


def w() -> StateTensor:
    r = 1 / sqrt(3)
    return StateTensor(
        (2, 2, 2), _amps3({(0, 0, 1): r, (0, 1, 0): r, (1, 0, 0): r}), "w"
    )


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


def resolve_state(spec: str) -> StateTensor:
    """Turn a CLI state spec into a state.

    Accepts a catalog name (``ghz``), a parameterized haar spec
    (``haar:2x2x2:7``), or a path to a JSON state file.
    """
    if spec in CATALOG and spec != "haar":
        return CATALOG[spec]()
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
