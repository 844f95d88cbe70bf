"""Numerical solution of the exact dealer value function.

The dynamic-programming reduction leaves a family of PDEs indexed by the
integer inventory ``q``:

    V_t + theta (alpha - nu) V_nu + 0.5 xi^2 nu V_nunu - (gamma/2) q^2 nu
        + (A/k) (exp(-k delta_a*) + exp(-k delta_b*)) = 0,   V(q, nu, T) = 0,

where the optimal premiums couple neighboring inventory levels:
``delta_a* = 1/k - beta [+ impact fee] + V(q) - V(q-1)`` and
``delta_b* = 1/k + beta [+ impact fee] + V(q) - V(q+1)``.  The solver steps
the coupled system backward in time with a frozen-control Douglas scheme and
extracts the exact quotes, which are then compared against the closed-form
approximation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import fd
from .errors import ConfigError, NumericalError
from .heston import HestonParams, variance_operator
from .intensity import ArrivalParams
from .quotes import RiskParams, inventory_coefficient, inventory_premiums
from .seeding import os_array
from .table import write_table

__all__ = [
    "HjbConfig",
    "ValueGrid",
    "ComparisonReport",
    "solve_stock_hjb",
    "estimate_tolerance",
    "compare_exact_vs_approx",
    "write_grid_csv",
    "write_report_csv",
]


# time slices a solve keeps: every stride-th step, both ends included
MAX_STORED_SLICES = 201
# the steps that overlap the last 1/LAYER_DIVISOR of the horizon, where the
# time error sits, are each taken as SUBSTEPS equal Douglas sub-steps
LAYER_DIVISOR = 10
SUBSTEPS = 4


@dataclass(frozen=True)
class HjbConfig:
    """Inventory box, variance grid and time resolution for one solve."""

    heston: HestonParams
    arrival: ArrivalParams
    risk: RiskParams
    T: float
    q_min: int = -10
    q_max: int = 10
    nu_lo: float = 0.0
    nu_hi: float = 12.0
    n_nu: int = 61
    n_time: int = 200
    include_impact: bool = False

    def __post_init__(self):
        for name in ("T", "nu_lo", "nu_hi"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if not (self.q_min < 0 < self.q_max):
            raise ConfigError("inventory box must satisfy q_min < 0 < q_max")
        if self.nu_lo < 0 or self.nu_hi <= self.nu_lo:
            raise ConfigError("variance grid must satisfy 0 <= nu_lo < nu_hi")
        if self.n_nu < 3:
            raise ConfigError("need at least 3 variance nodes")
        if self.n_time < 1:
            raise ConfigError("n_time must be at least 1")
        if self.T <= 0:
            raise ConfigError("T must be positive")

    @property
    def nu_grid(self) -> np.ndarray:
        return np.linspace(self.nu_lo, self.nu_hi, self.n_nu)

    @property
    def q_levels(self) -> np.ndarray:
        return np.arange(self.q_min, self.q_max + 1)


@dataclass
class ValueGrid:
    """Solved value function and exact quotes on (q, nu, t) nodes.

    ``values`` has shape ``(n_q, n_nu, n_t)`` with ``times`` ascending and the
    terminal slice identically zero.  The quotes are derived from ``values``
    on first read (a solve that only needs V builds none); they are NaN at
    the inventory bound where the corresponding side is dropped.
    """

    config: HjbConfig
    q_levels: np.ndarray
    nu_grid: np.ndarray
    times: np.ndarray
    values: np.ndarray

    @functools.cached_property
    def _quotes(self) -> tuple[np.ndarray, np.ndarray]:
        quotes_a, quotes_b = os_array(self.values.shape), os_array(self.values.shape)
        quotes_a[0] = quotes_b[-1] = np.nan  # no ask at q_min, no bid at q_max
        quotes_a[1:], quotes_b[:-1] = _premiums(self.values, self.config)
        return quotes_a, quotes_b

    quotes_a = property(lambda self: self._quotes[0])
    quotes_b = property(lambda self: self._quotes[1])


@dataclass(frozen=True)
class ComparisonReport:
    max_quote_gap_a: float
    max_quote_gap_b: float
    sandwich_ok: bool
    c_emp: float
    tol: float
    gap_a_at: tuple[int, float, float]  # (q, nu, t) achieving the ask gap
    gap_b_at: tuple[int, float, float]


def _premiums(v: np.ndarray, config: HjbConfig) -> tuple[np.ndarray, np.ndarray]:
    """Exact premiums at the values ``v`` (inventory on axis 0): the ask of
    rows 1.. (it needs V(q-1)) and the bid of rows ..-2 (it needs V(q+1)); the
    side that would leave the box has none."""
    base, beta = 1.0 / config.arrival.k, config.risk.beta
    fee_a = fee_b = 0.0
    if config.include_impact:
        q = config.q_levels.astype(np.float64).reshape((-1,) + (1,) * (v.ndim - 1))
        fee = 0.5 * config.risk.gamma * config.risk.eta**2
        fee_a, fee_b = fee * (q - 1.0) ** 2, fee * (q + 1.0) ** 2
    return base - beta + (fee_a + v)[1:] - v[:-1], base + beta + (fee_b + v)[:-1] - v[1:]


def _arrival_factors(v: np.ndarray, config: HjbConfig) -> tuple[np.ndarray, np.ndarray]:
    """``e^{-k delta*}`` of the exact ask and bid premiums at ``v`` (rows as in
    ``_premiums``).  Overflow to inf is tolerated here and caught by the
    blow-up check with a grid location."""
    k = config.arrival.k
    with np.errstate(over="ignore"):
        ask, bid = _premiums(v, config)
        ask = np.exp(-k * ask)  # one side at a time: each premium array is freed early
        bid = np.exp(-k * bid)
    return ask, bid


def _source(ask: np.ndarray, bid: np.ndarray, config: HjbConfig) -> np.ndarray:
    """Transaction source (A/k)(e^{-k delta_a*} + e^{-k delta_b*}) from the
    ``_arrival_factors``; a side that would leave the box contributes nothing."""
    with np.errstate(over="ignore"):
        g = np.concatenate((bid[:1], ask[:-1] + bid[1:], ask[-1:]))
        g *= config.arrival.A / config.arrival.k
    return g


def solve_stock_hjb(config: HjbConfig) -> ValueGrid:
    """Backward solve of the coupled inventory-indexed PDE family.

    Each step freezes the quotes at the later time (Forsyth & Labahn 2007):
    the transaction term is then linear in V, a jump generator J in q with
    fill rates ``A e^{-k delta*}`` plus a known source.  One Douglas step at
    theta = 1/2 ('t Hout & Foulon 2010) follows through ``fd``: an explicit
    predictor, an implicit nu-correction (``heston.variance_operator``, one
    operator along every q row) and an implicit q-correction (J, one operator
    per nu column, on the transposed view), both factors from ``fd.implicit``.

    The time error of this second-order step sits in a layer just before
    maturity, so each of the ``n_time`` steps of length ``dt = T / n_time``
    that overlaps the last ``1 / LAYER_DIVISOR`` of the horizon is taken as
    ``SUBSTEPS`` equal Douglas sub-steps; the other steps are one each.  The
    stored times are the coarse ones, every stride-th step of ``dt``.  A
    ``NumericalError`` names the sub-step's own time and its count from T.
    """
    nu = config.nu_grid
    diags = variance_operator(config.heston, nu)
    n_q, n_nu = config.q_levels.size, nu.size

    dt = config.T / config.n_time
    n_layer = -(-config.n_time // LAYER_DIVISOR)  # the steps that overlap the layer
    factor_nu = {count: fd.implicit(diags, dt / count) for count in (1, SUBSTEPS)}

    q = config.q_levels.astype(np.float64)[:, None]
    penalty = 0.5 * config.risk.gamma * q**2 * nu[None, :]

    stride = math.ceil(config.n_time / (MAX_STORED_SLICES - 1))
    stored_steps = sorted({0, *range(stride, config.n_time, stride), config.n_time})
    store_at = {s: i for i, s in enumerate(stored_steps)}

    values = os_array((n_q, n_nu, len(stored_steps)))

    def record(step_from_end: int, v_slice: np.ndarray):
        step = config.n_time - step_from_end  # index along ascending time
        if step in store_at:
            values[:, :, store_at[step]] = v_slice

    def check_finite(t: float, sub: int, *arrays: np.ndarray):
        for a in arrays:
            if not np.isfinite(a).all():
                bad = np.argwhere(~np.isfinite(a))[0]
                raise NumericalError(
                    f"non-finite value at q={config.q_levels[bad[0]]}, "
                    f"nu={nu[bad[1]]:.4g}, t={t:.4g} (step {sub})"
                )

    v = np.zeros((n_q, n_nu))
    rate_a, rate_b = np.zeros_like(v), np.zeros_like(v)  # zero on the side that leaves the box
    record(0, v)
    sub = 0  # Douglas sub-steps taken, counted back from T
    for n in range(1, config.n_time + 1):
        count = SUBSTEPS if n <= n_layer else 1
        h = dt / count
        half = 0.5 * h
        for j in range(1, count + 1):
            sub += 1
            t = config.T - (n - 1) * dt - j * h
            ask, bid = _arrival_factors(v, config)
            with np.errstate(over="ignore"):
                rate_a[1:], rate_b[:-1] = config.arrival.A * ask, config.arrival.A * bid
                out_rate = rate_a + rate_b
            lv = fd.apply_tridiagonal(diags, v)
            y = v + h * (lv + _source(ask, bid, config) - penalty)
            check_finite(t, sub, out_rate, y)  # before either solve; an overflow inside is caught below
            # nu-correction, every q row at once
            y = fd.solve_banded(factor_nu[count], y - half * lv)
            # q-correction on the transposed view: the jump generator of each nu column is one row
            jump = (rate_a.T, -out_rate.T, rate_b.T)
            y = y.T - half * fd.apply_tridiagonal(jump, v.T)
            v = fd.solve_banded(fd.implicit(jump, h), y).T
            check_finite(t, sub, v)
        record(n, v)

    times = np.array([s * dt for s in stored_steps])
    return ValueGrid(config=config, q_levels=config.q_levels.copy(), nu_grid=nu, times=times,
                     values=values)


def estimate_tolerance(grid: ValueGrid) -> float:
    """Discretization tolerance of ``grid`` from one refinement step of its
    config (halve dt, double the variance resolution): twice the largest
    observed change.  The refined solve's maturity layer has twice as many
    steps by the same rule, so every Douglas sub-step is halved too (exactly
    so when ``n_time`` is a multiple of 10).  At the defaults (200 steps, 61
    variance nodes) the change is largest at t = 0 and falls 2.0-fold from
    200 -> 400 to 400 -> 800 steps: that is the nu refinement (2.0-fold
    alone, dt fixed), while halving dt alone cuts the change 4.0-fold over
    every slice, the layer included, as for a second-order scheme.  The
    factor 2 is the first-order bound, which covers both."""
    config = grid.config
    fine_cfg = replace(config, n_time=2 * config.n_time, n_nu=2 * config.n_nu - 1)
    fine = solve_stock_hjb(fine_cfg)
    # base nu-nodes are the even nodes of the refined grid
    common_t = np.intersect1d(grid.times, fine.times)
    it_base = np.searchsorted(grid.times, common_t)
    it_fine = np.searchsorted(fine.times, common_t)
    diff = np.abs(grid.values[:, :, it_base] - fine.values[:, ::2, it_fine])
    return max(2.0 * float(diff.max()), 1e-12)


def _approx_quotes(grid: ValueGrid) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form approximate premiums on every (q, nu, t) node of ``grid``."""
    cfg = grid.config
    return inventory_premiums(
        grid.q_levels.astype(np.float64)[:, None, None],
        grid.nu_grid[None, :, None],
        grid.times[None, None, :],
        cfg.T, cfg.heston, cfg.arrival, cfg.risk,
    )


def compare_exact_vs_approx(
    grid: ValueGrid,
    tol: float | None = None,
    nu_window: tuple[float, float] | None = None,
) -> ComparisonReport:
    """Quote gaps between the exact solve and the closed-form approximation,
    plus the empirical sandwich check on the value function.

    Gaps are taken over interior inventory levels (both quote sides defined)
    at the variance nodes of the optional ``nu_window``; the sandwich bound
    and ``c_emp`` use every node of the grid.  A window that holds no
    variance node raises ``ConfigError`` before the refinement solve of the
    tolerance.
    """
    config = grid.config
    if config.include_impact:
        raise ValueError("comparison against the impact-free closed form requires include_impact=False")
    nu = grid.nu_grid
    t = grid.times
    levels = grid.q_levels
    keep_q = (levels > levels[0]) & (levels < levels[-1])  # both quote sides defined
    keep_nu = np.ones(nu.size, dtype=bool)
    if nu_window is not None:
        keep_nu = (nu >= nu_window[0]) & (nu <= nu_window[1])
        if not keep_nu.any():
            raise ConfigError(f"nu_window {tuple(nu_window)} holds no variance node "
                             f"of [{nu[0]:g}, {nu[-1]:g}]")
    if tol is None:
        tol = estimate_tolerance(grid)
    # before the gap arrays: lower peak memory
    c_emp = float(_source(*_arrival_factors(grid.values, config), config).max())

    qf = levels.astype(np.float64)
    approx_a, approx_b = _approx_quotes(grid)
    mask = keep_q[:, None, None] & keep_nu[None, :, None]

    gap_a = np.abs(grid.quotes_a - approx_a)
    gap_b = np.abs(grid.quotes_b - approx_b)
    gap_a = np.where(mask, gap_a, np.nan)
    gap_b = np.where(mask, gap_b, np.nan)

    def located_max(gap):
        idx = np.unravel_index(np.nanargmax(gap), gap.shape)
        return float(gap[idx]), (int(levels[idx[0]]), float(nu[idx[1]]), float(t[idx[2]]))

    max_a, at_a = located_max(gap_a)
    max_b, at_b = located_max(gap_b)

    v_tilde = -qf[:, None, None] ** 2 * inventory_coefficient(
        nu[None, :, None], t[None, None, :], config.T, config.heston, config.risk
    )
    tau = (config.T - t)[None, None, :]
    lower_ok = bool(np.all(grid.values >= v_tilde - tol))
    upper_ok = bool(np.all(grid.values <= v_tilde + c_emp * tau + tol))

    return ComparisonReport(
        max_quote_gap_a=max_a,
        max_quote_gap_b=max_b,
        sandwich_ok=lower_ok and upper_ok,
        c_emp=c_emp,
        tol=tol,
        gap_a_at=at_a,
        gap_b_at=at_b,
    )


def write_grid_csv(grid: ValueGrid, path: str | Path) -> None:
    """Dump values and exact/approximate quotes, one row per (q, nu, t) node."""
    approx_a, approx_b = _approx_quotes(grid)
    write_table(path, ["q", "nu", "t", "V", "delta_a_exact", "delta_b_exact",
                       "delta_a_approx", "delta_b_approx"],
                [grid.q_levels[:, None, None], grid.nu_grid[None, :, None], grid.times[None, None, :],
                 grid.values, grid.quotes_a, grid.quotes_b, approx_a, approx_b])


def write_report_csv(report: ComparisonReport, path: str | Path) -> None:
    write_table(path, [
        "max_quote_gap_a", "max_quote_gap_b", "sandwich_ok", "c_emp", "tol",
        "gap_a_q", "gap_a_nu", "gap_a_t", "gap_b_q", "gap_b_nu", "gap_b_t",
    ], [report.max_quote_gap_a, report.max_quote_gap_b, int(report.sandwich_ok), report.c_emp,
        report.tol, *report.gap_a_at, *report.gap_b_at])
