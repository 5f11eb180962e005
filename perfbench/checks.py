"""Output checks computed apart from the program, with numpy alone.

Nothing here calls into ``entmono``: every expected value is derived from
the amplitudes by an SVD, an ``eigvalsh``, an ``einsum`` written out here,
a closed-form catalogue value, or a property the method must have.  Each
check raises ``CheckFailed`` with the reason.
"""

from __future__ import annotations

import itertools
import re
from math import prod

import numpy as np

OBJECTIVE_RTOL = 1e-9    # certificate objective recomputed by our own einsum
FRAME_TOL = 1e-9         # orthonormality of certificate frames
EXACT_TOL = 1e-10        # closed forms, SVD sums, identities
SOLVER_SLACK = 1e-8      # iterative values: allowed shortfall against the best known
WITNESS_TOL = 1e-6       # documented witness margin E(target) < E(source) - 1e-6
INVARIANT_RTOL = 1e-9    # invariant values against our own einsum


class CheckFailed(Exception):
    pass


def require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


def close(x, y, what: str, rtol: float = 0.0, atol: float = EXACT_TOL) -> None:
    err = abs(x - y)
    require(err <= atol + rtol * max(abs(x), abs(y)),
            f"{what}: {x!r} vs {y!r} (difference {err:.3g})")


# -- monotones --------------------------------------------------------------

def own_objective(t: np.ndarray, frames) -> float:
    """Squared norm of (V_0^dag x ... x V_{N-1}^dag) psi, one einsum."""
    n = t.ndim
    args = [t, list(range(n))]
    for i, v in enumerate(frames):
        args += [np.conj(v), [i, n + i]]
    red = np.einsum(*args, list(range(n, 2 * n)), optimize=True)
    return float(np.sum(np.abs(red) ** 2))


def schmidt_mass(t: np.ndarray, block, k: int) -> float:
    """Sum of the top-k squared singular values across ``block`` | rest."""
    n = t.ndim
    block = tuple(block)
    rest = tuple(p for p in range(n) if p not in block)
    m = t.transpose(block + rest).reshape(prod(t.shape[p] for p in block), -1)
    s = np.linalg.svd(m, compute_uv=False)
    return float(np.sum(s[:k] ** 2))


def two_block_cuts(n: int):
    """Each unordered bipartition once, as the block holding party 0."""
    for r in range(n - 1):
        for extra in itertools.combinations(range(1, n), r):
            yield (0,) + extra


def upper_bound(t: np.ndarray, ks) -> float:
    """min over two-block cuts of the top-min(prod k_A, prod k_B) Schmidt mass.

    Coarse-graining a product projector across a cut gives a bipartite
    projector of those ranks, so every cut bounds E_(k) from above.
    """
    n = t.ndim
    best = np.inf
    for block in two_block_cuts(n):
        ka = prod(ks[p] for p in block)
        kb = prod(ks[p] for p in range(n) if p not in block)
        best = min(best, schmidt_mass(t, block, min(ka, kb)))
    return best


def closed_form(t: np.ndarray, ks):
    """Exact value when at most one party is rank-restricted, else None."""
    restricted = [p for p, k in enumerate(ks) if k < t.shape[p]]
    if len(restricted) > 1:
        return None
    if not restricted:
        return float(np.vdot(t, t).real)
    p = restricted[0]
    m = np.moveaxis(t, p, 0).reshape(t.shape[p], -1)
    lam = np.linalg.eigvalsh(m @ m.conj().T)[::-1]
    return float(np.sum(lam[: ks[p]]))


def check_value(t: np.ndarray, ks, value: float, what: str) -> None:
    """A monotone value lies under the SVD bound and matches any closed form."""
    ub = upper_bound(t, ks)
    require(value <= ub + EXACT_TOL,
            f"{what}: value {value!r} exceeds the Schmidt upper bound {ub!r}")
    exact = closed_form(t, ks)
    if exact is not None:
        close(value, exact, f"{what}: closed form", rtol=EXACT_TOL)


def check_certificate(t: np.ndarray, ks, frames, value: float, what: str) -> None:
    require(len(frames) == t.ndim, f"{what}: {len(frames)} frames for {t.ndim} parties")
    for i, (v, d, k) in enumerate(zip(frames, t.shape, ks)):
        v = np.asarray(v)
        require(v.shape == (d, k), f"{what}: frame {i} has shape {v.shape}, need {(d, k)}")
        dev = np.max(np.abs(v.conj().T @ v - np.eye(k)))
        require(dev <= FRAME_TOL, f"{what}: frame {i} off orthonormal by {dev:.3g}")
    close(value, own_objective(t, frames), f"{what}: certificate objective",
          rtol=OBJECTIVE_RTOL, atol=0.0)


def check_solve(t: np.ndarray, ks, value: float, frames, what: str,
                exact=None, reference=None) -> None:
    """Everything a single ``solve_E`` result must satisfy.

    ``exact`` is a closed-form catalogue value the definition produces;
    ``reference`` is the best value known from a many-restart run.  Both
    are approached from below, since a certificate attains its value.
    """
    check_certificate(t, ks, frames, value, what)
    check_value(t, ks, value, what)
    for known, name in ((exact, "catalogue value"), (reference, "best-known reference")):
        if known is not None:
            check_known(value, known, name, what)


def check_known(value: float, known: float, name: str, what: str) -> None:
    """A solved value is approached from below: at most SOLVER_SLACK short."""
    require(known - SOLVER_SLACK <= value <= known + EXACT_TOL,
            f"{what}: {value!r} is not within [-{SOLVER_SLACK:g}, "
            f"+{EXACT_TOL:g}] of the {name} {known!r}")


def canonical_ranks(ks) -> tuple[int, ...]:
    """k_i -> min(k_i, prod_{j != i} k_j), repeated to a fixed point.

    A rank above the product of the others cannot be used, so both rank
    vectors define the same monotone.
    """
    ks = tuple(ks)
    while True:
        nxt = tuple(min(k, prod(ks[:i] + ks[i + 1:])) for i, k in enumerate(ks))
        if nxt == ks:
            return ks
        ks = nxt


# catalogue values the definition produces, by rank vector (k0, k1, k2)
def ghz_table(ks) -> float:
    return 1.0 if min(ks) == 2 else 0.5


def w_table(ks) -> float:
    # E_(2,1,1) = E_(1,1,1) = 4/9; two unrestricted parties give 2/3.
    # Never the tabulated 1/3 for (2,1,1): it contradicts rank monotonicity.
    return {0: 4 / 9, 1: 4 / 9, 2: 2 / 3, 3: 1.0}[sum(k == 2 for k in ks)]


def bell_prod_table(ks) -> float:
    # singlet on parties 0,1 times |0> on party 2
    return 1.0 if ks[0] == 2 and ks[1] == 2 else 0.5


# -- verdicts ---------------------------------------------------------------

_KEY_RE = re.compile(r"^(?:\[([0-9|]+)\])?\(([0-9,]+)\)$")


def parse_rank_key(key: str):
    """'(1,2,2)' -> (None, ranks); '[0|12](1,4)' -> (((0,), (1, 2)), ranks)."""
    m = _KEY_RE.match(key)
    require(m is not None, f"unreadable rank key {key!r}")
    ranks = tuple(int(k) for k in m.group(2).split(","))
    if m.group(1) is None:
        return None, ranks
    blocks = tuple(tuple(int(c) for c in b) for b in m.group(1).split("|"))
    return blocks, ranks


def check_row_value(t: np.ndarray, key: str, value: float, what: str, known=None) -> None:
    """One verdict row value.  ``known(ranks)`` gives the value a fine row
    with two or more restricted parties must reach, from a catalogue table
    or the best-known reference; an under-solved row would fake a witness."""
    blocks, ranks = parse_rank_key(key)
    if blocks is None:
        check_value(t, ranks, value, f"{what} {key}")
        if known is not None and closed_form(t, ranks) is None:
            check_known(value, known(ranks), "known value", f"{what} {key}")
        return
    require(len(blocks) == 2, f"{what} {key}: only two-block rows are expected")
    exact = schmidt_mass(t, blocks[0], min(ranks))
    close(value, exact, f"{what} {key}: two-block Schmidt sum")


def check_dlocc(ta: np.ndarray, tb: np.ndarray, payload: dict, what: str,
                known_a=None, known_b=None) -> None:
    rows = {r["rank"]: r for r in payload["pairs"]}
    require(len(rows) == len(payload["pairs"]), f"{what}: repeated rank rows")
    for r in payload["pairs"]:
        check_row_value(ta, r["rank"], r["E_a"], f"{what} E_a", known_a)
        check_row_value(tb, r["rank"], r["E_b"], f"{what} E_b", known_b)
    wit = payload["witnesses"]
    for key in wit["a_to_b_blocked"]:
        require(key in rows and rows[key]["E_b"] < rows[key]["E_a"] - WITNESS_TOL,
                f"{what}: a->b witness {key} does not satisfy E_b < E_a - {WITNESS_TOL:g}")
    for key in wit["b_to_a_blocked"]:
        require(key in rows and rows[key]["E_a"] < rows[key]["E_b"] - WITNESS_TOL,
                f"{what}: b->a witness {key} does not satisfy E_a < E_b - {WITNESS_TOL:g}")
    both = bool(wit["a_to_b_blocked"]) and bool(wit["b_to_a_blocked"])
    require(payload["incommensurable"] == both, f"{what}: incommensurable flag disagrees")


def slocc_row_bound(e_a: float, e_b: float):
    """The documented per-rank rule p <= (1 - E(a)) / (1 - E(b))."""
    num, den = 1.0 - e_a, 1.0 - e_b
    if den <= 1e-9:
        return 0.0 if num <= 1e-9 and abs(e_a - e_b) > WITNESS_TOL else "unconstrained"
    return max(num, 0.0) / den


def check_slocc(ta: np.ndarray, tb: np.ndarray, payload: dict, what: str,
                overall=None, known_a=None, known_b=None) -> None:
    constrained = []
    for r in payload["bounds"]:
        check_row_value(ta, r["rank"], r["E_a"], f"{what} E_a", known_a)
        check_row_value(tb, r["rank"], r["E_b"], f"{what} E_b", known_b)
        want = slocc_row_bound(r["E_a"], r["E_b"])
        require(r["bound"] == want, f"{what} {r['rank']}: bound {r['bound']!r}, "
                f"row gives {want!r}")
        if want != "unconstrained":
            constrained.append(want)
    want = max(min(min(constrained), 1.0), 0.0) if constrained else "unconstrained"
    require(payload["overall"] == want,
            f"{what}: overall {payload['overall']!r} is not the clamped minimum {want!r}")
    if overall is not None:
        close(payload["overall"], overall, f"{what}: overall bound", atol=1e-9)


def check_self_pair(payload: dict, mode: str, what: str) -> None:
    """(a, a): no witness either way, and a stochastic bound of exactly 1."""
    if mode == "dlocc":
        wit = payload["witnesses"]
        require(not wit["a_to_b_blocked"] and not wit["b_to_a_blocked"],
                f"{what}: a state blocks its own conversion")
    else:
        require(payload["overall"] == 1.0, f"{what}: self bound {payload['overall']!r}, need 1")


# -- invariants -------------------------------------------------------------

def _traced_out(rho6: np.ndarray, p: int) -> np.ndarray:
    """Trace party p out of a 3-party operator held as a (d,d,d,d,d,d) array."""
    rows, cols = [0, 1, 2], [3, 4, 5]
    cols[p] = p
    keep = [q for q in range(3) if q != p]
    out = np.einsum(rho6, rows + cols, keep + [q + 3 for q in keep])
    da, db = out.shape[0], out.shape[1]
    return out.reshape(da * db, da * db)


def own_invariants_density(matrix: np.ndarray, dims) -> dict:
    """I2, I4_p and I6 of a 3-party operator, from its reduced operators.

    I4_p = tr r_p^2 with r_p the operator with party p traced out, and
    I6 = tr[(r_0 x 1)(r_1 x 1)(r_2 x 1)], each r_p lifted by the identity
    on party p, written as one index contraction.
    """
    rho6 = np.asarray(matrix).reshape(tuple(dims) * 2)
    r = [_traced_out(rho6, p) for p in range(3)]
    d0, d1, d2 = dims
    r0 = r[0].reshape(d1, d2, d1, d2)
    r1 = r[1].reshape(d0, d2, d0, d2)
    r2 = r[2].reshape(d0, d1, d0, d1)
    i2 = np.trace(np.asarray(matrix))
    i6 = np.einsum("jkJK,iKLk,LJij->", r0, r1, r2)
    vals = {"I2": i2, "I4_4": i2 * i2, "I6": i6}
    for p in range(3):
        vals[f"I4_{p + 1}"] = np.trace(r[p] @ r[p])
    return {k: complex(v) for k, v in vals.items()}


def own_invariants(t: np.ndarray) -> dict:
    v = t.reshape(-1)
    return own_invariants_density(np.outer(v, v.conj()), t.shape)


def own_odot(ta: np.ndarray, tb: np.ndarray) -> np.ndarray:
    """Merge two states party by party, a's index slow within each party."""
    n = ta.ndim
    big = np.tensordot(ta, tb, axes=0)
    big = big.transpose([ax for p in range(n) for ax in (p, n + p)])
    return big.reshape([ta.shape[p] * tb.shape[p] for p in range(n)])


def hyperdet_tangle(t: np.ndarray) -> float:
    """Residual tangle 4|Det a| with Cayley's hyperdeterminant of a 2x2x2 array."""
    a = lambda i, j, k: t[i, j, k]  # noqa: E731
    d1 = (a(0, 0, 0) ** 2 * a(1, 1, 1) ** 2 + a(0, 0, 1) ** 2 * a(1, 1, 0) ** 2
          + a(0, 1, 0) ** 2 * a(1, 0, 1) ** 2 + a(1, 0, 0) ** 2 * a(0, 1, 1) ** 2)
    d2 = (a(0, 0, 0) * a(1, 1, 1) * a(0, 1, 1) * a(1, 0, 0)
          + a(0, 0, 0) * a(1, 1, 1) * a(1, 0, 1) * a(0, 1, 0)
          + a(0, 0, 0) * a(1, 1, 1) * a(1, 1, 0) * a(0, 0, 1)
          + a(0, 1, 1) * a(1, 0, 0) * a(1, 0, 1) * a(0, 1, 0)
          + a(0, 1, 1) * a(1, 0, 0) * a(1, 1, 0) * a(0, 0, 1)
          + a(1, 0, 1) * a(0, 1, 0) * a(1, 1, 0) * a(0, 0, 1))
    d3 = (a(0, 0, 0) * a(1, 1, 0) * a(1, 0, 1) * a(0, 1, 1)
          + a(1, 1, 1) * a(0, 0, 1) * a(0, 1, 0) * a(1, 0, 0))
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))


def check_invariant_dict(values: dict, own: dict, what: str) -> None:
    require(set(values) == set(own), f"{what}: names {sorted(values)} vs {sorted(own)}")
    for name, x in values.items():
        close(complex(x), own[name], f"{what} {name}", rtol=INVARIANT_RTOL, atol=1e-12)


def check_tangle(t: np.ndarray, tau: float, tau2: float | None, what: str) -> None:
    close(tau, hyperdet_tangle(t), f"{what}: tangle against the hyperdeterminant",
          rtol=1e-9, atol=1e-12)
    if tau2 is not None:
        close(tau2, tau * tau, f"{what}: squared-tangle expansion", rtol=1e-9, atol=1e-12)
