"""Convertibility obstructions derived from the monotones and invariants.

Three verdict machines:

* deterministic-LOCC comparison: the monotones cannot decrease, so a
  witness rank with E(target) < E(source) blocks the conversion;
* stochastic-LOCC probability bounds p <= (1 - E(source)) / (1 - E(target));
* copy-ratio feasibility for collective unitary processing, using the
  multiplicativity of simple-form invariants.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, fields
from math import prod
from typing import Sequence

import numpy as np

from .contractions import eval_contraction, is_simple_form
from .errors import BadGrouping, BadParameter, NotNormalized, NotSimpleForm, StructureMismatch
from .invariants import _multiplicativity, _resolve_invariant
from .monotones import (
    SolverConfig,
    _check_ranks,
    coarse_grain,
    escalate,
    nielsen_E,
    result_is_trusted,
    solve_E,
)
from .states import PartyGrouping, StateTensor, odot, squared_norm

WITNESS_TOL = 1e-6  # witness margin, relative to the larger squared norm
COPY_RATIO_RTOL = 1e-8  # relative gap at which two invariant powers differ
# SLOCC bounds and copy ratios need normalized input, so their checks on
# the squared norm and on 1 - E are at unit scale
NORM_TOL = 1e-9


@dataclass(frozen=True)
class RankItem:
    """One monotone to evaluate: optional coarse-graining plus a rank vector."""

    grouping: PartyGrouping | None
    ranks: tuple[int, ...]

    def key(self) -> str:
        ranks = ",".join(str(k) for k in self.ranks)
        if self.grouping is None:
            return f"({ranks})"
        blocks = "|".join("".join(str(p) for p in b) for b in self.grouping.blocks)
        return f"[{blocks}]({ranks})"


def default_rank_items(dims: Sequence[int]) -> list[RankItem]:
    """Fine-grained rank vectors plus every two-block coarse-graining."""
    return list(_rank_items(tuple(int(d) for d in dims)))


def _items_for(state: StateTensor, rank_items: Sequence[RankItem] | None) -> tuple[RankItem, ...]:
    return tuple(rank_items) if rank_items is not None else _rank_items(state.dims)


@functools.lru_cache(maxsize=32)
def _rank_items(dims: tuple[int, ...]) -> tuple[RankItem, ...]:
    # built once per dims, so every report on these dims shares the items
    n = len(dims)
    items = [RankItem(None, ks) for ks in itertools.product(*[range(1, d + 1) for d in dims])]
    for split in _two_block_splits(n):
        grouping = PartyGrouping.split(split, n)
        bdims = grouping.block_dims(dims)
        for ks in itertools.product(range(1, bdims[0] + 1), range(1, bdims[1] + 1)):
            items.append(RankItem(grouping, ks))
    return tuple(items)


def _two_block_splits(n: int) -> list[tuple[int, ...]]:
    # each unordered bipartition once, keyed by the block containing party 0
    return [(0,) + extra for r in range(n - 1) for extra in itertools.combinations(range(1, n), r)]


@functools.lru_cache(maxsize=32)
def _rank_classes(items: tuple[RankItem, ...], dims: tuple[int, ...]):
    """(one item per rank class, the class index of each item).

    The items of a class name one monotone, which a profile evaluates once:
    E_(k) is unchanged by k_i -> min(k_i, prod_{j != i} k_j), because party
    i's conditional operator has at most that rank, so the class item holds
    the image of that map; on two blocks this is min(k1, k2) twice.  One
    application is already a fixed point: it lowers at most one party
    (the argument of ``monotones._raise_saturated``), and the lowered k_i
    is the product of the others, which leaves every other party at or
    below its own product.
    """
    classes: dict[RankItem, int] = {}
    index = []
    for item in items:
        g = item.grouping
        if g is not None and g.n_parties != len(dims):
            raise BadGrouping(f"grouping covers {g.n_parties} parties, state has {len(dims)}")
        ks = _check_ranks(dims if g is None else g.block_dims(dims), item.ranks)
        ks = tuple(min(k, prod(ks[:i] + ks[i + 1:])) for i, k in enumerate(ks))
        index.append(classes.setdefault(RankItem(g, ks), len(classes)))
    return tuple(classes), tuple(index)


def _profile(state: StateTensor, classes: tuple[RankItem, ...], cfg: SolverConfig) -> list:
    """(value, solver result or None) of each rank class on one state; the
    two-block classes of one split read one Schmidt spectrum."""
    spectra = {g: nielsen_E(state, g) for g in dict.fromkeys(
        c.grouping for c in classes if c.grouping is not None and len(c.ranks) == 2)}
    return [(float(spectra[c.grouping][c.ranks[0] - 1]), None) if c.grouping in spectra
            else _solve(state, c, cfg) for c in classes]


def _solve(state: StateTensor, rank_class: RankItem, cfg: SolverConfig):
    target = state if rank_class.grouping is None else coarse_grain(state, rank_class.grouping)
    res = solve_E(target, rank_class.ranks, cfg)
    return res.value, res


@dataclass(frozen=True)
class ComparisonRow:
    item: RankItem
    e_a: float
    e_b: float

    def to_dict(self) -> dict:
        return {"rank": self.item.key(), "E_a": self.e_a, "E_b": self.e_b}


def _pair_array(pairs, dtype) -> np.ndarray:
    """The read-only (classes, 2) array of per-class pairs, owning its buffer."""
    a = np.empty((len(pairs), 2), dtype=dtype)
    if len(a):
        a[:] = pairs
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class _ClassRows:
    """Rank items and the rank class of each; a subclass adds per-class
    rows as read-only (classes, 2) arrays, one small buffer per report
    rather than a Python float or bool per entry.  Reports are equal, and
    hash alike, when their items, index and array bytes are."""

    items: tuple[RankItem, ...]
    index: tuple[int, ...]

    def _key(self) -> tuple:
        return tuple(v.tobytes() if isinstance(v, np.ndarray) else v
                     for v in (getattr(self, f.name) for f in fields(self)))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class ComparisonReport(_ClassRows):
    """Rank items with the (E_a, E_b) row and the (a -> b, b -> a) witness
    flags of their rank classes; ``index`` maps each item to its class."""

    values: np.ndarray  # (classes, 2) float64
    blocked: np.ndarray  # (classes, 2) bool

    def __post_init__(self):
        object.__setattr__(self, "values", _pair_array(self.values, float))
        object.__setattr__(self, "blocked", _pair_array(self.blocked, bool))

    @property
    def rows(self) -> tuple[ComparisonRow, ...]:
        values = self.values.tolist()
        return tuple(ComparisonRow(item, *values[c]) for item, c in zip(self.items, self.index))

    def _blocked(self, side: int) -> tuple[str, ...]:
        blocked = self.blocked[:, side].tolist()
        return tuple(item.key() for item, c in zip(self.items, self.index) if blocked[c])

    a_to_b_blocked = property(lambda self: self._blocked(0))
    b_to_a_blocked = property(lambda self: self._blocked(1))

    @property
    def incommensurable(self) -> bool:
        return bool(self.a_to_b_blocked) and bool(self.b_to_a_blocked)

    def to_dict(self) -> dict:
        return {
            "pairs": [r.to_dict() for r in self.rows],
            "witnesses": {
                "a_to_b_blocked": list(self.a_to_b_blocked),
                "b_to_a_blocked": list(self.b_to_a_blocked),
            },
            "incommensurable": self.incommensurable,
        }


def _check_same_structure(a: StateTensor, b: StateTensor) -> None:
    if a.dims != b.dims:
        raise StructureMismatch(
            f"states have party dims {list(a.dims)} vs {list(b.dims)}"
        )


def compare_dlocc(
    a: StateTensor,
    b: StateTensor,
    rank_items: Sequence[RankItem] | None = None,
    cfg: SolverConfig | None = None,
) -> ComparisonReport:
    """Deterministic-conversion obstructions in both directions.

    A witness against a -> b is a rank with E(b) < E(a) - 1e-6 m, m the
    larger squared norm; each rank class is evaluated once per state.
    Since the solver returns lower bounds, an underestimated E(b) could
    fake a witness; a candidate class whose smaller side is not found by at
    least half the restarts is re-solved once with doubled restarts, and
    its rows are dropped as witnesses if still unconfirmed.
    """
    _check_same_structure(a, b)
    cfg = cfg or SolverConfig()
    items = _items_for(a, rank_items)
    classes, index = _rank_classes(items, a.dims)
    tol = WITNESS_TOL * max(squared_norm(a), squared_norm(b))

    values, blocked = [], []
    for rank_class, (e_a, res_a), (e_b, res_b) in zip(
            classes, _profile(a, classes, cfg), _profile(b, classes, cfg)):
        # candidate witnesses: firm up the (possibly undersolved) low side
        low_a, low_b = e_a < e_b - tol, e_b < e_a - tol
        e_a, trusted_a = _confirm_low_side(a, rank_class, cfg, res_a, e_a, low_a)
        e_b, trusted_b = _confirm_low_side(b, rank_class, cfg, res_b, e_b, low_b)
        values.append((e_a, e_b))
        blocked.append((e_b < e_a - tol and trusted_b, e_a < e_b - tol and trusted_a))
    return ComparisonReport(items, index, values, blocked)


def _confirm_low_side(state, rank_class, cfg, res, value, low: bool):
    """(value, trusted) of one side of a rank class.  An untrusted low side
    is re-solved once with escalated restarts; the result is judged against
    the configuration that produced it, and a value read from a Schmidt
    spectrum (no result) is always trusted."""
    if res is None:
        return value, True
    if low and not result_is_trusted(res, cfg):
        cfg = escalate(cfg)
        value, res = _solve(state, rank_class, cfg)
    return value, result_is_trusted(res, cfg)


@dataclass(frozen=True)
class SloccRow:
    item: RankItem
    e_a: float
    e_b: float
    bound: float | None  # None: this rank imposes no restriction

    def to_dict(self) -> dict:
        return {
            "rank": self.item.key(),
            "E_a": self.e_a,
            "E_b": self.e_b,
            "bound": "unconstrained" if self.bound is None else self.bound,
        }


def _row_bound(e_a: float, e_b: float) -> float | None:
    """p <= (1 - E(a)) / (1 - E(b)) for one rank; None if it does not restrict."""
    num, den = 1.0 - e_a, 1.0 - e_b
    if den > NORM_TOL:
        return max(num, 0.0) / den
    return 0.0 if num <= NORM_TOL and abs(e_a - e_b) > WITNESS_TOL else None


@dataclass(frozen=True, eq=False)
class SloccReport(_ClassRows):
    """Rank items with the (E_a, E_b) row of their rank classes; ``index``
    maps each item to its class, and the bounds are derived on access."""

    values: np.ndarray  # (classes, 2) float64

    def __post_init__(self):
        object.__setattr__(self, "values", _pair_array(self.values, float))

    @property
    def rows(self) -> tuple[SloccRow, ...]:
        values = self.values.tolist()
        return tuple(SloccRow(item, *values[c], _row_bound(*values[c]))
                     for item, c in zip(self.items, self.index))

    @property
    def overall(self) -> float | None:
        """The minimum of the constrained row bounds, clamped to [0, 1]."""
        bounds = [b for b in itertools.starmap(_row_bound, self.values.tolist()) if b is not None]
        return max(min(min(bounds), 1.0), 0.0) if bounds else None

    def to_dict(self) -> dict:
        return {
            "bounds": [r.to_dict() for r in self.rows],
            "overall": "unconstrained" if self.overall is None else self.overall,
        }


def slocc_bound(
    a: StateTensor,
    b: StateTensor,
    rank_items: Sequence[RankItem] | None = None,
    cfg: SolverConfig | None = None,
) -> SloccReport:
    """Upper bounds on the probability of converting a into b stochastically.

    Per rank, p <= (1 - E(a)) / (1 - E(b)).  Ranks where E(b) is 1 impose
    no restriction, unless E(a) is also 1 while the values remain
    distinguishable, in which case the conversion is outright impossible.
    The overall bound is the minimum of the constrained rows clamped to
    [0, 1].  Each rank class is evaluated once per state.
    """
    _check_same_structure(a, b)
    _check_normalized(a, "a")
    _check_normalized(b, "b")
    cfg = cfg or SolverConfig()
    items = _items_for(a, rank_items)
    classes, index = _rank_classes(items, a.dims)
    values = [(e_a, e_b) for (e_a, _), (e_b, _)
              in zip(_profile(a, classes, cfg), _profile(b, classes, cfg))]
    return SloccReport(items, index, values)


def _check_normalized(state: StateTensor, name: str) -> None:
    w = squared_norm(state)
    if abs(w - 1.0) > NORM_TOL:
        raise NotNormalized(f"state {name} has squared norm {w:.12g}, need 1")


@dataclass(frozen=True)
class CopyRatioReport:
    invariant_names: tuple[str, ...]
    values_a: tuple[complex, ...]
    values_b: tuple[complex, ...]
    cmax: int
    feasible: tuple[tuple[int, int], ...]
    odot_check_passed: bool

    def to_dict(self) -> dict:
        return {
            "invariants": list(self.invariant_names),
            "values_a": [[v.real, v.imag] for v in self.values_a],
            "values_b": [[v.real, v.imag] for v in self.values_b],
            "cmax": self.cmax,
            "feasible_copy_ratios": [list(p) for p in self.feasible],
            "odot_check_passed": self.odot_check_passed,
        }


def copy_ratio_feasibility(
    a: StateTensor,
    b: StateTensor,
    invariants: Sequence,
    cmax: int = 4,
) -> CopyRatioReport:
    """Which copy counts (C1, C2) <= cmax survive every listed invariant?

    Simple-form invariants are multiplicative under the party-wise merge,
    so C1 collective copies of ``a`` carry value I(a)**C1 exactly; a pair
    is feasible only if those powers agree for every invariant.  A direct
    merged-state evaluation at C1 = C2 = 2 is run as a spot check of the
    multiplicativity assumption, judged by ``multiplicativity_check``'s rule.
    """
    if cmax < 1 or cmax > 8:
        raise BadParameter(f"cmax must lie in 1..8, got {cmax}")
    _check_normalized(a, "a")
    _check_normalized(b, "b")
    named = [_resolve_invariant(s) for s in invariants]
    if not named:
        raise BadParameter("need at least one invariant")
    for name, expr in named:
        ok, why = is_simple_form(expr)
        if not ok:
            raise NotSimpleForm(f"{name}: {why}")

    va = [eval_contraction(expr, a).value for _, expr in named]
    vb = [eval_contraction(expr, b).value for _, expr in named]

    spot = [_multiplicativity(eval_contraction(expr, odot(state, state)).value, value * value)
            for (_, expr), x, y in zip(named, va, vb) for state, value in ((a, x), (b, y))]

    feasible = []
    for c1, c2 in itertools.product(range(1, cmax + 1), repeat=2):
        ok = True
        for x, y in zip(va, vb):
            px, py = x ** c1, y ** c2
            if abs(px - py) > COPY_RATIO_RTOL * max(abs(px), abs(py)):
                ok = False
                break
        if ok:
            feasible.append((c1, c2))
    return CopyRatioReport(
        invariant_names=tuple(n for n, _ in named),
        values_a=tuple(va),
        values_b=tuple(vb),
        cmax=cmax,
        feasible=tuple(feasible),
        odot_check_passed=all(passed for _, _, passed in spot),
    )
