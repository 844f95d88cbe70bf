"""Traced runs: spans around the calls into each layer's public functions.

``Tracer.install`` replaces the functions listed in ``TARGETS`` at their
module attributes (in every ``hestonmm`` module that imported them) and the
listed methods on their classes; ``uninstall`` puts the originals back.
Nothing in the program is edited.  Each call becomes a span (name, start,
end, parent) kept in memory; ``save`` writes them when the run ends.

A span's self time is its duration minus the time its child spans cover.
Functions that call into other traced layers report self time; leaf calls
and the groups marked ``total`` report their whole duration.
"""

from __future__ import annotations

import collections
import inspect
import math
import sys
import time

import numpy as np

# (module, attribute) of every traced call; "Class.method" patches the class.
POLICIES = ("InventorySV", "MarketImpact", "Symmetric", "RiskNeutral", "Frozen")
WRITERS = [("cli", "_write_rows"), ("hjb", "write_grid_csv"), ("hjb", "write_report_csv"),
           ("option_pricing", "write_slice_csv"), ("option_mm", "write_lattice_csv")]
TARGETS = WRITERS + [("quotes", f"{p}.premiums") for p in POLICIES] + [
    ("seeding", "path_generator"),
    ("quotes", "inventory_coefficient"),
    ("sim_engine", "run_ensemble"),
    ("fd", "apply_tridiagonal"),
    ("hjb", "solve_stock_hjb"),
    ("hjb", "estimate_tolerance"),
    ("hjb", "compare_exact_vs_approx"),
    ("option_pricing", "solve_call_grid"),
    ("option_pricing", "solve_banded"),  # scipy's, as bound in option_pricing
    ("option_pricing", "PricingGrid.greek_planes"),
    ("option_pricing", "PricingGrid._bilinear"),
    ("option_pricing", "PricingGrid._time_slice"),
    ("option_pricing", "mc_terminal"),
    ("option_mm", "FunctionalLattice.build"),
    ("option_mm", "FunctionalLattice.functionals"),
    ("option_mm", "run_hedged_paths"),
    ("option_mm", "run_joint_paths"),
]
DRAW = "seeding.draw"  # Generator method calls on a traced path generator

_WRITE_SPANS = [f"{m}.{a}" for m, a in WRITERS]
_PREMIUM_SPANS = [f"quotes.{p}.premiums" for p in POLICIES]
_INTERP_SPANS = ["option_pricing.PricingGrid._bilinear", "option_pricing.PricingGrid._time_slice"]

# metric -> (aggregate, span names); aggregates: count | self | total | mm_count | mm_total
# (the mm_ forms keep only spans whose parent span is in option_mm)
SPAN_METRICS = {
    "cli.write_s": ("total", _WRITE_SPANS),
    "seeding.generators": ("count", ["seeding.path_generator"]),
    "seeding.generator_s": ("total", ["seeding.path_generator"]),
    "seeding.draw_s": ("total", [DRAW]),
    "quotes.premiums_calls": ("count", _PREMIUM_SPANS),
    "quotes.premiums_s": ("total", _PREMIUM_SPANS),
    "quotes.inventory_coefficient_s": ("total", ["quotes.inventory_coefficient"]),
    "sim_engine.self_s": ("self", ["sim_engine.run_ensemble"]),
    "fd.apply_tridiagonal_calls": ("count", ["fd.apply_tridiagonal"]),
    "fd.apply_tridiagonal_s": ("total", ["fd.apply_tridiagonal"]),
    "hjb.solve_s": ("self", ["hjb.solve_stock_hjb"]),
    "hjb.tolerance_s": ("self", ["hjb.estimate_tolerance"]),
    "hjb.compare_s": ("self", ["hjb.compare_exact_vs_approx"]),
    "option_pricing.solve_s": ("self", ["option_pricing.solve_call_grid"]),
    "option_pricing.banded_solves": ("count", ["option_pricing.solve_banded"]),
    "option_pricing.banded_s": ("total", ["option_pricing.solve_banded"]),
    "option_pricing.greek_planes_calls": ("count", ["option_pricing.PricingGrid.greek_planes"]),
    "option_pricing.greek_planes_s": ("total", ["option_pricing.PricingGrid.greek_planes"]),
    "option_pricing.interp_calls": ("mm_count", _INTERP_SPANS),
    "option_pricing.interp_s": ("mm_total", _INTERP_SPANS),
    "option_pricing.mc_s": ("self", ["option_pricing.mc_terminal"]),
    "option_mm.lattice_build_s": ("self", ["option_mm.FunctionalLattice.build"]),
    "option_mm.lattice_eval_calls": ("count", ["option_mm.FunctionalLattice.functionals"]),
    "option_mm.lattice_eval_s": ("total", ["option_mm.FunctionalLattice.functionals"]),
    "option_mm.hedged_s": ("self", ["option_mm.run_hedged_paths"]),
    "option_mm.joint_s": ("self", ["option_mm.run_joint_paths"]),
}

# counters filled by the observers below, reported as they are
COUNTER_METRICS = ["sim_engine.path_steps", "hjb.node_steps", "hjb.cfl_margin",
                   "option_pricing.mc_path_steps", "option_mm.lattice_nodes",
                   "option_mm.path_steps"]


def _observe_ensemble(c, a, stats):
    steps = a["n"] * a["config"].n_steps
    c["sim_engine.path_steps"] += steps
    if math.isfinite(stats.avg_spread):  # a quoting policy: two fill decisions per step
        c["fills"] += 2 * steps
        c["clipped"] += stats.clipped


def _observe_hjb(c, a, _grid):
    from hestonmm import fd

    cfg = a["config"]
    nu = cfg.nu_grid
    c["hjb.node_steps"] += cfg.q_levels.size * nu.size * cfg.n_time
    h = cfg.heston
    diag = fd.operator_diagonals(nu, h.theta * (h.alpha - nu), 0.5 * h.xi**2 * nu)[1]
    c["hjb.cfl_margin"] = max(c["hjb.cfl_margin"], cfg.T / cfg.n_time * float(np.abs(diag).max()))


def _observe_mc(c, a, _out):
    tau = a["config"].T - a["t"]
    if tau > 0:
        c["option_pricing.mc_path_steps"] += a["n_paths"] * max(1, round(tau / a["dt_target"]))


def _observe_lattice(c, a, _lattice):
    live_t = int(np.count_nonzero(np.asarray(a["t_nodes"]) < a["T"]))
    c["option_mm.lattice_nodes"] += len(a["s_nodes"]) * len(a["nu_nodes"]) * live_t


def _book_observer(quotes_per_step):
    def observe(c, a, stats):
        steps = a["n_paths"] * round(a["T"] / a["dt"])
        c["option_mm.path_steps"] += steps
        c["fills"] += quotes_per_step * steps
        c["clipped"] += stats.clipped
    return observe


OBSERVERS = {
    "sim_engine.run_ensemble": _observe_ensemble,
    "hjb.solve_stock_hjb": _observe_hjb,
    "option_pricing.mc_terminal": _observe_mc,
    "option_mm.FunctionalLattice.build": _observe_lattice,
    "option_mm.run_hedged_paths": _book_observer(2),
    "option_mm.run_joint_paths": _book_observer(4),
}


class _TracedGenerator:
    """A path generator whose draw methods are recorded as ``seeding.draw``."""

    def __init__(self, tracer: "Tracer", rng):
        self._tracer = tracer
        self._rng = rng

    def __getattr__(self, name):
        return self._tracer.wrap(DRAW, getattr(self._rng, name))


class Tracer:
    """Spans of one traced iteration, kept in memory.  Single-threaded: the
    traced runs use ``threads=1``."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, observe=None):
        names, parents, starts, ends, stack = (self.names, self.parents, self.starts,
                                               self.ends, self._stack)
        clock = time.perf_counter
        signature = inspect.signature(fn) if observe else None

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(self.counters, bound.arguments, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for module_name, attr in TARGETS:
            name = f"{module_name}.{attr}"
            module = sys.modules[f"hestonmm.{module_name}"]
            observe = OBSERVERS.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(self.wrap(name, raw.__func__, observe)))
                else:
                    self._set(cls, meth, self.wrap(name, raw, observe))
                continue
            original = getattr(module, attr)
            if attr == "path_generator":
                timed = self.wrap(name, original)
                new = lambda *a, **k: _TracedGenerator(self, timed(*a, **k))  # noqa: E731
            else:
                new = self.wrap(name, original, observe)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("hestonmm") and mod is not None:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this iteration (zero for layers not run)."""
        names = np.asarray(self.names, dtype=str)
        parents = np.asarray(self.parents, dtype=np.int64)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        nested = parents >= 0
        self_t = dur - np.bincount(parents[nested], weights=dur[nested], minlength=dur.size)
        called_from_mm = nested & np.char.startswith(names[parents], "option_mm.")
        out = {}
        for metric, (agg, span_names) in SPAN_METRICS.items():
            sel = np.isin(names, span_names)
            if agg.startswith("mm_"):
                sel &= called_from_mm
                agg = agg[3:]
            if agg == "count":
                out[metric] = int(sel.sum())
            else:
                out[metric] = float((self_t if agg == "self" else dur)[sel].sum())
        for metric in COUNTER_METRICS:
            out[metric] = self.counters[metric]
        fills = self.counters["fills"]
        out["intensity.clip_frac"] = self.counters["clipped"] / fills if fills else 0.0
        return out

    def save(self, path) -> None:
        """Write the spans as arrays: name table, name index, parent, start, end."""
        table, index = np.unique(np.asarray(self.names, dtype=str), return_inverse=True)
        np.savez(path, names=table, name_index=index, parent=np.asarray(self.parents),
                 start=np.asarray(self.starts), end=np.asarray(self.ends))
