"""Seeded randomness: splittable streams and Haar-distributed samples.

Every random quantity in the package is drawn from a generator created by
``stream_rng(seed, stream)``, so parallel and serial evaluation orders
produce bit-identical results.
"""

from __future__ import annotations

from math import prod
from typing import Sequence

import numpy as np

from .errors import BadParameter
from .states import StateTensor, _as_dims, _check_ranks, _integer


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream); deterministic across runs."""
    if _integer(seed, 0) is None or _integer(stream, 0) is None:
        raise BadParameter(f"seed and stream must be integers >= 0, got ({seed!r}, {stream!r})")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def _rng_of(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else stream_rng(seed)


def _haar_frames(normals: np.ndarray, dims: Sequence[int], ks: Sequence[int]) -> list[np.ndarray]:
    """Per party, the (m, d, k) Haar frames read from an (m, 2 sum d k)
    array of standard normals.

    Each row is read in party order, d k real parts and then d k imaginary
    parts: the order in which ``haar_random_frame`` calls for those parties
    draw from one generator.  Each party's m Gaussian matrices go through
    one stacked QR, which runs the same LAPACK routine on every matrix, so
    row i holds, byte for byte, the frames those calls return.
    """
    frames, at = [], 0
    for d, k in zip(dims, ks):
        n = d * k
        z = normals[:, at:at + n] + 1j * normals[:, at + n:at + 2 * n]
        at += 2 * n
        q, r = np.linalg.qr(z.reshape(-1, d, k))
        # R's diagonal phases moved into Q, so that LAPACK's sign convention
        # does not bias the distribution (Mezzadri, Notices AMS 54, 2007)
        ph = np.diagonal(r, axis1=-2, axis2=-1).copy()
        ph[np.abs(ph) == 0] = 1.0
        frames.append(q * (ph / np.abs(ph))[..., None, :])
    return frames


def haar_random_frame(d: int, k: int, seed) -> np.ndarray:
    """d x k matrix with orthonormal columns, Haar-uniform on the Stiefel manifold.

    ``seed`` may be an int or an existing Generator.
    """
    (k,) = _check_ranks(_as_dims((d,)), (k,))
    rng = _rng_of(seed)
    return _haar_frames(rng.standard_normal((1, 2 * d * k)), (d,), (k,))[0][0]


def haar_random_unitary(d: int, seed) -> np.ndarray:
    return haar_random_frame(d, d, seed)


def haar_random_state(dims: Sequence[int], seed) -> StateTensor:
    """Normalized state uniform on the unit sphere of the full space."""
    dims = _as_dims(dims)
    rng = _rng_of(seed)
    z = rng.standard_normal(prod(dims)) + 1j * rng.standard_normal(prod(dims))
    return StateTensor(dims, z / np.linalg.norm(z))
