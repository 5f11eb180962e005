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
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .contractions import ContractionExpr, eval_contraction, is_simple_form, parse_contraction
from .errors import NotNormalized, NotSimpleForm, StructureMismatch
from .invariants import BUILTIN_PATTERN_TEXT, builtin_patterns
from .monotones import (
    MonotoneResult,
    SolverConfig,
    bipartite_E,
    coarse_grain,
    escalate,
    result_is_trusted,
    solve_E,
)
from .states import PartyGrouping, StateTensor, odot, squared_norm

WITNESS_TOL = 1e-6
UNCONSTRAINED = None  # sentinel for "this rank imposes no restriction"


@dataclass(frozen=True, slots=True)
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
    items = [
        RankItem(None, ks)
        for ks in itertools.product(*[range(1, d + 1) for d in dims])
    ]
    for split in _two_block_splits(n):
        grouping = PartyGrouping.split(split, n)
        bdims = grouping.block_dims(dims)
        for ks in itertools.product(range(1, bdims[0] + 1), range(1, bdims[1] + 1)):
            items.append(RankItem(grouping, ks))
    return tuple(items)


def _two_block_splits(n: int) -> list[tuple[int, ...]]:
    # each unordered bipartition once, keyed by the block containing party 0
    out = []
    rest = list(range(1, n))
    for r in range(0, n - 1):
        for extra in itertools.combinations(rest, r):
            out.append((0,) + extra)
    return out


def _evaluate_item(state: StateTensor, item: RankItem, cfg: SolverConfig):
    """Returns (value, result-or-None); coarse two-block items are exact."""
    if item.grouping is not None and len(item.grouping.blocks) == 2:
        coarse = coarse_grain(state, item.grouping)
        value = bipartite_E(
            coarse, PartyGrouping.trivial(2), item.ranks[0], item.ranks[1]
        )
        return value, None
    target = state if item.grouping is None else coarse_grain(state, item.grouping)
    res = solve_E(target, item.ranks, cfg)
    return res.value, res


@dataclass(frozen=True, slots=True)
class ComparisonRow:
    item: RankItem
    e_a: float
    e_b: float

    def to_dict(self) -> dict:
        return {"rank": self.item.key(), "E_a": self.e_a, "E_b": self.e_b}


def _frozen_values(values, width: int) -> np.ndarray:
    """Read-only (len(values), width) float array."""
    out = np.array(values, dtype=float).reshape(-1, width)
    out.setflags(write=False)
    return out


class _ComparedByRows:
    """Equality and hashing of a report as if it stored its row objects."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self):
        return hash(self._compared())


@dataclass(frozen=True, slots=True, eq=False)
class ComparisonReport(_ComparedByRows):
    """Rank items with their (E_a, E_b) values, one row of ``values`` per item."""

    items: tuple[RankItem, ...]
    values: np.ndarray
    a_to_b_blocked: tuple[str, ...]
    b_to_a_blocked: tuple[str, ...]

    def _compared(self) -> tuple:
        return (self.rows, self.a_to_b_blocked, self.b_to_a_blocked)

    @property
    def rows(self) -> tuple[ComparisonRow, ...]:
        return tuple(
            ComparisonRow(item, e_a, e_b)
            for item, (e_a, e_b) in zip(self.items, self.values.tolist())
        )

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

    A witness against a -> b is a rank with E(b) < E(a) - 1e-6.  Since the
    solver returns lower bounds, an underestimated E(b) could fake a
    witness; candidates whose smaller side is not found by at least half
    the restarts are re-solved with doubled restarts, and dropped if still
    unconfirmed.
    """
    _check_same_structure(a, b)
    cfg = cfg or SolverConfig()
    items = _items_for(a, rank_items)

    values = []
    blocked = {"a_to_b": [], "b_to_a": []}
    for item in items:
        e_a, res_a = _evaluate_item(a, item, cfg)
        e_b, res_b = _evaluate_item(b, item, cfg)
        # candidate witnesses; firm up the (possibly undersolved) low side
        # and judge it against the configuration that produced it
        cfg_a = cfg_b = cfg
        if e_b < e_a - WITNESS_TOL:
            e_b, res_b, cfg_b = _confirm_low_side(b, item, cfg, res_b, e_b)
        elif e_a < e_b - WITNESS_TOL:
            e_a, res_a, cfg_a = _confirm_low_side(a, item, cfg, res_a, e_a)
        values.append((e_a, e_b))
        if e_b < e_a - WITNESS_TOL and _trusted(res_b, cfg_b):
            blocked["a_to_b"].append(item.key())
        if e_a < e_b - WITNESS_TOL and _trusted(res_a, cfg_a):
            blocked["b_to_a"].append(item.key())
    return ComparisonReport(
        items, _frozen_values(values, 2),
        tuple(blocked["a_to_b"]), tuple(blocked["b_to_a"]),
    )


def _trusted(res: MonotoneResult | None, cfg: SolverConfig) -> bool:
    return res is None or result_is_trusted(res, cfg)


def _confirm_low_side(state, item, cfg, res, value):
    """(value, result, config used), escalating the restarts if untrusted."""
    if res is not None and not result_is_trusted(res, cfg):
        cfg = escalate(cfg)
        value, res = _evaluate_item(state, item, cfg)
    return value, res, cfg


@dataclass(frozen=True, slots=True)
class SloccRow:
    item: RankItem
    e_a: float
    e_b: float
    bound: float | None  # None = UNCONSTRAINED

    def to_dict(self) -> dict:
        return {
            "rank": self.item.key(),
            "E_a": self.e_a,
            "E_b": self.e_b,
            "bound": "unconstrained" if self.bound is None else self.bound,
        }


@dataclass(frozen=True, slots=True, eq=False)
class SloccReport(_ComparedByRows):
    """Rank items with their (E_a, E_b, bound) values, one row of ``values``
    per item; a NaN bound is UNCONSTRAINED."""

    items: tuple[RankItem, ...]
    values: np.ndarray
    overall: float | None

    def _compared(self) -> tuple:
        return (self.rows, self.overall)

    @property
    def rows(self) -> tuple[SloccRow, ...]:
        return tuple(
            SloccRow(item, e_a, e_b, UNCONSTRAINED if math.isnan(bound) else bound)
            for item, (e_a, e_b, bound) in zip(self.items, self.values.tolist())
        )

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
    [0, 1].
    """
    _check_same_structure(a, b)
    _check_normalized(a, "a")
    _check_normalized(b, "b")
    cfg = cfg or SolverConfig()
    items = _items_for(a, rank_items)

    values = []
    constrained = []
    for item in items:
        e_a, _ = _evaluate_item(a, item, cfg)
        e_b, _ = _evaluate_item(b, item, cfg)
        num = 1.0 - e_a
        den = 1.0 - e_b
        if den <= 1e-9:
            if num <= 1e-9 and abs(e_a - e_b) > WITNESS_TOL:
                bound = 0.0
            else:
                bound = UNCONSTRAINED
        else:
            bound = max(num, 0.0) / den
        values.append((e_a, e_b, math.nan if bound is None else bound))
        if bound is not None:
            constrained.append(bound)
    overall = min(min(constrained), 1.0) if constrained else UNCONSTRAINED
    if overall is not None:
        overall = max(overall, 0.0)
    return SloccReport(items, _frozen_values(values, 3), overall)


def _check_normalized(state: StateTensor, name: str) -> None:
    w = squared_norm(state)
    if abs(w - 1.0) > 1e-9:
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


def _resolve_invariant(spec) -> tuple[str, ContractionExpr]:
    if isinstance(spec, ContractionExpr):
        return str(spec), spec
    if isinstance(spec, str):
        if spec in BUILTIN_PATTERN_TEXT:
            return spec, builtin_patterns()[spec]
        return spec, parse_contraction(spec)
    raise TypeError(f"invariant spec must be text or ContractionExpr, not {type(spec).__name__}")


def copy_ratio_feasibility(
    a: StateTensor,
    b: StateTensor,
    invariants: Sequence,
    cmax: int = 4,
    cfg_tol: float = 1e-8,
) -> CopyRatioReport:
    """Which copy counts (C1, C2) <= cmax survive every listed invariant?

    Simple-form invariants are multiplicative under the party-wise merge,
    so C1 collective copies of ``a`` carry value I(a)**C1 exactly; a pair
    is feasible only if those powers agree for every invariant.  A direct
    merged-state evaluation at C1 = C2 = 2 is run as a spot check of the
    multiplicativity assumption.
    """
    if cmax < 1 or cmax > 8:
        raise ValueError(f"cmax must lie in 1..8, got {cmax}")
    _check_normalized(a, "a")
    _check_normalized(b, "b")
    named = [_resolve_invariant(s) for s in invariants]
    if not named:
        raise ValueError("need at least one invariant")
    for name, expr in named:
        ok, why = is_simple_form(expr)
        if not ok:
            raise NotSimpleForm(f"{name}: {why}")

    va = [eval_contraction(expr, a).value for _, expr in named]
    vb = [eval_contraction(expr, b).value for _, expr in named]

    spot_ok = True
    for (_, expr), x, y in zip(named, va, vb):
        for state, value in ((a, x), (b, y)):
            merged = eval_contraction(expr, odot(state, state)).value
            if abs(merged - value * value) > 1e-9 * max(1.0, abs(value * value)):
                spot_ok = False

    feasible = []
    for c1, c2 in itertools.product(range(1, cmax + 1), repeat=2):
        ok = True
        for x, y in zip(va, vb):
            px, py = x ** c1, y ** c2
            if abs(px - py) > cfg_tol * max(abs(px), abs(py)):
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
        odot_check_passed=spot_ok,
    )
