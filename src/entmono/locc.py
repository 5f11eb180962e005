"""Convertibility obstructions derived from the monotones and invariants.

One rule with two readings: M_k = |psi|^2 - E_k cannot increase on average
under LOCC, for every rank class k.  Both read one table of per-class
(E(source), E(target)) rows, built under one trust rule by ``_class_rows``:

* deterministic LOCC (one outcome, p = 1) needs E(target) >= E(source), so
  a witness rank with E(target) < E(source) blocks the conversion;
* stochastic LOCC (the target with probability p, plus a failure branch
  with M >= 0) needs p <= (1 - E(source)) / (1 - E(target)).

Copy-ratio feasibility for collective unitary processing stands apart: it
uses the multiplicativity of simple-form invariants.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, fields
from math import prod
from typing import Sequence

import numpy as np

from .contractions import eval_contraction, is_simple_form
from .errors import (BadGrouping, BadParameter, BadRank, NotNormalized, NotSimpleForm,
                     StructureMismatch)
from .invariants import _multiplicativity, _resolve_invariant
from .monotones import SolverConfig, _swept_parties, coarse_grain, escalate, nielsen_E, solve_E
from .states import (
    PartyGrouping,
    StateTensor,
    _as_dims,
    _check_covers,
    _check_pure,
    _check_ranks,
    _integer,
    odot,
    squared_norm,
)

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
    return list(_rank_items(_as_dims(dims)))


def _items_for(state: StateTensor, rank_items: Sequence[RankItem] | None) -> tuple[RankItem, ...]:
    if rank_items is None:
        return _rank_items(state.dims)
    items = tuple(rank_items)
    for item in items:  # typed before ``_rank_classes`` hashes them
        if not isinstance(item, RankItem):
            raise BadParameter(f"rank items must be RankItem, got {item!r}")
        if not isinstance(item.grouping, (PartyGrouping, type(None))):
            raise BadGrouping(f"grouping must be None or a PartyGrouping, got {item.grouping!r}")
        if not isinstance(item.ranks, tuple) or any(_integer(k, 1) is None for k in item.ranks):
            raise BadRank(f"ranks must be a tuple of integers >= 1, got {item.ranks!r}")
    return items


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

    The items of a class name one monotone, which a profile evaluates once.
    Each item is first held to the checks of a direct solve: its grouping
    covers the parties (``_check_covers``) and its ranks are integers in
    1..d (``_check_ranks``).  Then:

    * E_(k) is unchanged by k_i -> min(k_i, prod_{j != i} k_j), because
      block i's conditional operator has at most that rank.  One
      application is already a fixed point: it lowers at most one block
      (the argument of ``monotones._swept_parties``), and the lowered k_i
      is the product of the others, which leaves every other block at or
      below its own product.
    * The one raise that ``monotones._swept_parties`` allows (k_i -> d_i)
      also leaves E unchanged, and the blocks it returns are the
      restricted blocks, those ``solve_E`` would sweep.
    * With two or more blocks and at most one restricted, the projector is
      the identity off one block, so E_(k) is the sum of the k largest
      Schmidt values across that block's cut (Nielsen).  The class is then
      the two-block split of that block against the rest, oriented as
      ``_two_block_splits`` orients it, at ranks (k, k): k is the block's
      rank, and block 0 stands in when no block is restricted (E is the
      squared norm).  Every item of two blocks is such a class (its
      lowered ranks are (m, m), and the raise leaves one block), so
      (1,2,2) and [0|12](1,1) on three qubits are one class, and so are
      (1,1,1) and [01|2](1,1) on 1x3x3.  An item of one block has no cut
      and keeps its class.
    """
    classes: dict[RankItem, int] = {}
    index = []
    n = len(dims)
    for item in items:
        g = item.grouping
        if g is not None:
            _check_covers(g, n)
        bdims = dims if g is None else g.block_dims(dims)
        ks = _check_ranks(bdims, item.ranks)
        ks = tuple(min(k, prod(ks[:i] + ks[i + 1:])) for i, k in enumerate(ks))
        _, restricted = _swept_parties(bdims, ks)
        if len(ks) >= 2 and len(restricted) <= 1:
            i = restricted[0] if restricted else 0
            block = (i,) if g is None else g.blocks[i]
            side = block if 0 in block else set(range(n)).difference(block)
            g, ks = PartyGrouping.split(side, n), (ks[i], ks[i])
        index.append(classes.setdefault(RankItem(g, ks), len(classes)))
    return tuple(classes), tuple(index)


def _profile(state: StateTensor, classes: tuple[RankItem, ...], cfg: SolverConfig) -> list:
    """(value, solver result or None) of each rank class on one state.
    Every two-rank class is a Schmidt partial sum (``_rank_classes``), and
    the classes of one split read one spectrum (``nielsen_E``).  The other
    classes are solved: each leaves ``solve_E`` two or more parties to
    sweep, unless it is an item of one block."""
    spectra = {g: nielsen_E(state, g) for g in dict.fromkeys(
        c.grouping for c in classes if len(c.ranks) == 2)}
    return [(float(spectra[c.grouping][c.ranks[0] - 1]), None) if len(c.ranks) == 2
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
    """Rank items, the rank class of each, and the (E_a, E_b) row of every
    class; per-class rows are read-only (classes, 2) arrays, one small
    buffer per report rather than a Python float or bool per entry.
    Reports are equal, and hash alike, when their items, index and array
    bytes are."""

    items: tuple[RankItem, ...]
    index: tuple[int, ...]
    values: np.ndarray  # (classes, 2) float64

    def __post_init__(self):
        object.__setattr__(self, "values", _pair_array(self.values, float))

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

    blocked: np.ndarray  # (classes, 2) bool

    def __post_init__(self):
        super().__post_init__()
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
    larger squared norm.  Each rank class is evaluated once per distinct
    state; a class that leaves at most one restricted block after the
    raise of ``monotones._swept_parties`` reads a Schmidt spectrum
    (``_rank_classes``), the rule by which ``solve_E`` skips its ascent.
    So on two parties this is Nielsen's majorization test and nothing is
    solved, and neither is the all-ones class of a state with two
    non-trivial parties.  Since the solver returns lower bounds, an
    underestimated E(b) could fake a witness, so a witness is reported
    only if its low side passes the trust rule of ``_class_rows``.  Both
    states must be StateTensors (TypeError).
    """
    _check_pure(a, b)
    _check_same_structure(a, b)
    return ComparisonReport(*_class_rows(a, b, rank_items, cfg))


def _class_rows(a, b, rank_items, cfg):
    """(items, index, values, blocked) of a pair of states: the table both
    verdicts read.  Each rank class is profiled once per distinct state: b
    is profiled only if its amplitudes differ from a's.  Where one
    side is lower by more than the witness margin, that low side is judged
    by the trust rule (``_trusted``); if it fails, the class is re-solved
    once on that side with doubled restarts and the row holds the new
    value.  A class blocks a conversion only if its low side is trusted."""
    cfg = cfg or SolverConfig()
    items = _items_for(a, rank_items)
    classes, index = _rank_classes(items, a.dims)
    tol = WITNESS_TOL * max(squared_norm(a), squared_norm(b))

    profile_a = _profile(a, classes, cfg)
    profile_b = profile_a if np.array_equal(a.amps, b.amps) else _profile(b, classes, cfg)
    values, blocked = [], []
    for rank_class, (e_a, res_a), (e_b, res_b) in zip(classes, profile_a, profile_b):
        # candidate witnesses: firm up the (possibly undersolved) low side
        low_a, low_b = e_a < e_b - tol, e_b < e_a - tol
        e_a, trusted_a = _confirm_low_side(a, rank_class, cfg, res_a, e_a, low_a)
        e_b, trusted_b = _confirm_low_side(b, rank_class, cfg, res_b, e_b, low_b)
        values.append((e_a, e_b))
        blocked.append((e_b < e_a - tol and trusted_b, e_a < e_b - tol and trusted_a))
    return items, index, values, blocked


def _confirm_low_side(state, rank_class, cfg, res, value, low: bool):
    """(value, trusted) of one side of a rank class.  An untrusted low side
    is re-solved once with escalated restarts; the result is judged against
    the configuration that produced it, and a value read from a Schmidt
    spectrum (no result) is always trusted."""
    if res is None:
        return value, True
    if low and not _trusted(res, cfg):
        cfg = escalate(cfg)
        value, res = _solve(state, rank_class, cfg)
    return value, _trusted(res, cfg)


def _trusted(res, cfg: SolverConfig) -> bool:
    """The trust rule: at least max(1, restarts // 2) of the restarts + 1
    starts found the reported value.  The best start always counts, so with
    1 to 3 restarts every value is trusted and nothing is re-solved."""
    return res.restarts_agreeing >= max(1, cfg.restarts // 2)


@dataclass(frozen=True)
class SloccRow(ComparisonRow):
    bound: float | None  # None: this rank imposes no restriction

    def to_dict(self) -> dict:
        bound = "unconstrained" if self.bound is None else self.bound
        return {**super().to_dict(), "bound": bound}


def _row_bound(e_a: float, e_b: float) -> float | None:
    """p <= (1 - E(a)) / (1 - E(b)) for one rank; None if it does not restrict."""
    den = 1.0 - e_b
    return max(1.0 - e_a, 0.0) / den if den > NORM_TOL else None


@dataclass(frozen=True, eq=False)
class SloccReport(_ClassRows):
    """Rank items with the (E_a, E_b) row of their rank classes; ``index``
    maps each item to its class, and the bounds are derived on access."""

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
    no restriction.  The overall bound is the minimum of the constrained
    rows clamped to [0, 1].  The rows are those of ``compare_dlocc``: each
    rank class is evaluated once per distinct state, from a Schmidt
    spectrum where it has one, and an untrusted low side is re-solved once
    with doubled restarts.  Both states must be StateTensors (TypeError).
    """
    _check_pure(a, b)
    _check_same_structure(a, b)
    _check_normalized(a, "a")
    _check_normalized(b, "b")
    items, index, values, _ = _class_rows(a, b, rank_items, cfg)
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
    _check_pure(a, b)
    if _integer(cmax, 1, 8) is None:
        raise BadParameter(f"cmax must be an integer in 1..8, got {cmax!r}")
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

    aa, bb = odot(a, a), odot(b, b)
    spot = [_multiplicativity(eval_contraction(expr, merged).value, value * value)
            for (_, expr), x, y in zip(named, va, vb) for merged, value in ((aa, x), (bb, y))]

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
