"""Brute-force estimators used as independent cross-checks in the tests.

Nothing here feeds the main computations.  The estimators share the
package's rank check (``states._check_ranks``), and with the solver only the
batched Haar draw (``rng._haar_frames``); they evaluate the objective with
their own einsum, never through the solver's contraction or eigenvector steps.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import BadParameter, ShapeMismatch
from .rng import _haar_frames, stream_rng
from .states import StateTensor, _check_pure, _check_ranks, _integer

_BLOCK = 256  # samples evaluated per einsum in sample_E


def sample_E(state: StateTensor, ks: Sequence[int], samples: int, seed: int = 0) -> float:
    """Monte-Carlo lower bound: best objective over Haar-random frames."""
    _check_pure(state)
    ks = _check_ranks(state.dims, ks)
    if _integer(samples, 1) is None:
        raise BadParameter(f"samples must be an integer >= 1, got {samples!r}")
    rng = stream_rng(seed)
    # psi[a,b,..] * conj(V0)[s,a,i] * conj(V1)[s,b,j] * .. -> red[s,i,j,..]
    n = len(ks)
    psi_ix = "".join(chr(ord("a") + p) for p in range(n))
    red_ix = "".join(chr(ord("A") + p) for p in range(n))
    subscripts = ",".join([psi_ix] + [f"s{psi_ix[p]}{red_ix[p]}" for p in range(n)])
    width = 2 * sum(d * k for d, k in zip(state.dims, ks))
    best = 0.0
    # in blocks of draws, so memory stays bounded at any sample count; a
    # block's samples take one row of normals each, in draw order
    for start in range(0, samples, _BLOCK):
        m = min(_BLOCK, samples - start)
        frames = [f.conj() for f in _haar_frames(rng.standard_normal((m, width)), state.dims, ks)]
        red = np.einsum(f"{subscripts}->s{red_ix}", state.tensor(), *frames, optimize=True)
        weights = (red.real ** 2 + red.imag ** 2).reshape(m, -1).sum(axis=1)
        best = max(best, float(weights.max()))
    return best


def trace_product_max(ops: Sequence[np.ndarray]) -> float:
    """max over unitaries U,V,... of |tr A U B V ...|.

    Equals the sum over j of the products of the operators' decreasingly
    ordered singular values.
    """
    if not ops:
        raise ShapeMismatch("need at least one operator")
    mats = [np.asarray(m, dtype=complex) for m in ops]
    side = mats[0].shape[0] if mats[0].ndim == 2 else -1
    for m in mats:
        if m.ndim != 2 or m.shape != (side, side):
            raise ShapeMismatch(
                f"operators must all be square of equal side, got shapes "
                f"{[tuple(x.shape) for x in mats]}"
            )
    sig = np.ones(side)
    for m in mats:
        sig = sig * np.linalg.svd(m, compute_uv=False)
    return float(np.sum(sig))
