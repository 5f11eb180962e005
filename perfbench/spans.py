"""Span tracing of entmono from outside the package.

``Tracer.install`` replaces every public function of each entmono module,
at every module namespace that binds it, with a wrapper that records a
span (name, start, end, parent).  The span is named after the defining
module (``monotones.solve_E``), while a call count is also kept per
binding module (``locc.solve_E.calls`` counts the solves ``locc`` asks
for).  ``DensityOp`` construction is wrapped through ``__post_init__``,
and ``numpy.linalg.eigh``, ``numpy.tensordot`` and ``numpy.einsum`` are
wrapped globally and named after the layer of the innermost open span
(``monotones.eigh``).  Spans stay in memory; ``save`` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import re
import statistics
import time
from array import array
from collections import Counter

import numpy as np

import checks as C
import entmono
from entmono import catalog, cli, contractions, invariants, locc, monotones, rng, states

LAYERS = {
    "states": states, "rng": rng, "monotones": monotones,
    "contractions": contractions, "invariants": invariants, "locc": locc,
    "catalog": catalog, "cli": cli,
}
NUMPY_CALLS = ((np.linalg, "eigh"), (np, "tensordot"), (np, "einsum"))
VERDICT_SPANS = ("locc.compare_dlocc", "locc.slocc_bound")

_FLOPS_RE = {
    "opt": re.compile(r"Optimized FLOP count:\s*([0-9.eE+-]+)"),
    "naive": re.compile(r"Naive FLOP count:\s*([0-9.eE+-]+)"),
}

# (metric, unit, better); the per-layer metrics a traced run reports
PER_LAYER = []


for _name in ("monotones.solve_E", "monotones.eigh", "monotones.tensordot",
              "monotones.coarse_grain", "monotones.bipartite_E",
              "rng.haar_random_frame",
              "locc.compare_dlocc", "locc.slocc_bound", "locc.copy_ratio_feasibility",
              "contractions.eval_contraction", "contractions.parse_contraction",
              "contractions.einsum",
              "invariants.builtin_invariants", "invariants.tangle",
              "invariants.tangle_squared_expanded", "invariants.multiplicativity_check",
              "invariants.local_unitary_invariance_check",
              "states.reduced_density", "states.pure_density", "states.partial_trace",
              "states.odot", "states.DensityOp",
              "cli.main", "catalog.resolve_state"):
    PER_LAYER += [(_name + ".calls", "count", "lower"), (_name + ".s", "s", "lower")]
PER_LAYER += [
    ("monotones.eigh_per_solve", "calls/solve", "lower"),
    ("locc.rank_items", "count", "lower"),
    ("locc.solve_E.calls", "count", "lower"),
    ("locc.escalated_solves", "count", "lower"),
    ("locc.solves_per_rank_class", "solves/class", "lower"),
    ("contractions.einsum_flops", "flop", "lower"),
]
PER_LAYER += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
PER_LAYER.append(("trace.overhead_s", "s", "lower"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.einsum_shapes: Counter = Counter()
        self._layer_ids: dict[tuple[int, str], int] = {}
        self._undo: list = []
        self._verdicts: list[dict] = []
        self._flops_cache: dict = {}

    # -- recording ---------------------------------------------------------
    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _open(self, sid: int) -> int:
        idx = len(self.name)
        self.name.append(sid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def _numpy_id(self, call: str) -> int:
        top = self.name[self.stack[-1]] if self.stack else -1
        key = (top, call)
        sid = self._layer_ids.get(key)
        if sid is None:
            layer = self.names[top].split(".")[0] if top >= 0 else "bench"
            sid = self._layer_ids[key] = self._id(f"{layer}.{call}")
        return sid

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, fn, span: str, binding: str):
        sid = self._id(span)
        count = f"{binding}.{fn.__name__}.calls"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.counts[count] += 1
            hook = tracer._verdict_hook(span, binding, args, kwargs)
            idx = tracer._open(sid)
            out = None
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                if hook is not None:
                    hook(out)
            return out

        return traced

    def _wrap_numpy(self, fn, call: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._numpy_id(call)
            if call == "einsum" and tracer.names[sid] == "contractions.einsum":
                tracer.einsum_shapes[_einsum_key(args, kwargs)] += 1
            idx = tracer._open(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    def _verdict_hook(self, span, binding, args, kwargs):
        """Per-verdict-call bookkeeping for the locc ratio counters."""
        if span in VERDICT_SPANS:
            cfg = kwargs.get("cfg", args[3] if len(args) > 3 else None)
            ctx = {"restarts": (cfg or monotones.SolverConfig()).restarts,
                   "solves": 0, "classes": set()}
            self._verdicts.append(ctx)

            def done(report):
                self._verdicts.pop()
                if report is None:  # the call raised
                    return
                self.counts["locc.rank_items"] += len(report.rows)
                self.counts["locc.verdict_solves"] += ctx["solves"]
                self.counts["locc.rank_classes"] += len(ctx["classes"])
            return done
        if span == "monotones.solve_E" and binding == "locc" and self._verdicts:
            ctx = self._verdicts[-1]
            state, ks = args[0], args[1]
            cfg = kwargs.get("cfg", args[2] if len(args) > 2 else None)
            ctx["solves"] += 1
            ctx["classes"].add((state.dims, state.amps.tobytes(), C.canonical_ranks(ks)))
            if cfg is not None and cfg.restarts > ctx["restarts"]:
                self.counts["locc.escalated_solves"] += 1
        return None

    def install(self) -> None:
        modules = [entmono] + list(LAYERS.values())
        for layer, mod in LAYERS.items():
            for fname, fn in list(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                for holder in modules:
                    if vars(holder).get(fname) is fn:
                        binding = holder.__name__.split(".")[-1]
                        self._patch(holder, fname, self._wrap(fn, f"{layer}.{fname}", binding))
        post = states.DensityOp.__post_init__
        self._patch(states.DensityOp, "__post_init__",
                    self._wrap(post, "states.DensityOp", "states"))
        for holder, call in NUMPY_CALLS:
            self._patch(holder, call, self._wrap_numpy(getattr(holder, call), call))

    def _patch(self, holder, attr, new) -> None:
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, old = self._undo.pop()
            setattr(holder, attr, old)

    # -- derived metrics -----------------------------------------------------
    def mark(self) -> tuple[int, Counter, Counter]:
        return len(self.name), Counter(self.counts), Counter(self.einsum_shapes)

    def layer_metrics(self, since: tuple[int, Counter, Counter]) -> dict:
        """Per-layer metrics of the spans recorded after ``since``."""
        lo, counts0, shapes0 = since
        # slicing an array.array copies it, so no buffer stays exported
        names = np.frombuffer(self.name[lo:], dtype=np.int32)
        start = np.frombuffer(self.start[lo:], dtype=np.int64)
        end = np.frombuffer(self.end[lo:], dtype=np.int64)
        parent = np.frombuffer(self.parent[lo:], dtype=np.int32) - lo
        dur = (end - start) / 1e9
        child = np.zeros(len(dur))
        inner = parent >= 0
        np.add.at(child, parent[inner], dur[inner])
        self_time = dur - child
        counts = self.counts - counts0
        n_names = len(self.names)
        calls = np.bincount(names, minlength=n_names)
        incl = np.bincount(names, weights=dur, minlength=n_names)
        own = np.bincount(names, weights=self_time, minlength=n_names)

        out = {}
        for metric, _, _ in PER_LAYER:
            stem, _, kind = metric.rpartition(".")
            if kind in ("calls", "s") and stem in self._ids:
                sid = self._ids[stem]
                out[metric] = float(incl[sid]) if kind == "s" else int(calls[sid])
            elif kind in ("calls", "s"):
                out[metric] = 0.0 if kind == "s" else 0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = float(sum(
                own[i] for i, n in enumerate(self.names) if n.split(".")[0] == layer))
        out["locc.solve_E.calls"] = counts["locc.solve_E.calls"]
        out["locc.rank_items"] = counts["locc.rank_items"]
        out["locc.escalated_solves"] = counts["locc.escalated_solves"]
        classes = counts["locc.rank_classes"]
        out["locc.solves_per_rank_class"] = (
            counts["locc.verdict_solves"] / classes if classes else 0.0)
        solves = out["monotones.solve_E.calls"]
        out["monotones.eigh_per_solve"] = out["monotones.eigh.calls"] / solves if solves else 0.0
        out["contractions.einsum_flops"] = float(sum(
            n * self._flops(key) for key, n in (self.einsum_shapes - shapes0).items()))
        return out

    def _flops(self, key) -> float:
        if key not in self._flops_cache:
            operands, optimize = key
            args = [np.zeros(x[1], dtype=complex) if x[0] == "a" else
                    (list(x[1]) if x[0] == "l" else x[1]) for x in operands]
            mode = optimize if isinstance(optimize, str) else "greedy"
            _, report = np.einsum_path(*args, optimize=mode)
            pattern = _FLOPS_RE["opt" if optimize else "naive"]
            self._flops_cache[key] = float(pattern.search(report).group(1))
        return self._flops_cache[key]

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            start_ns=np.array(self.start, dtype=np.int64),
            end_ns=np.array(self.end, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int32),
        )


def _einsum_key(args, kwargs):
    operands = tuple(
        ("a", np.shape(x)) if isinstance(x, np.ndarray) else
        (("l", tuple(x)) if isinstance(x, list) else ("s", x))
        for x in args)
    return operands, kwargs.get("optimize", False)


def median_metrics(per_pass: list[dict]) -> dict:
    # median_low: an observed value, so counts stay whole numbers
    return {k: statistics.median_low(p[k] for p in per_pass) for k in per_pass[0]}
