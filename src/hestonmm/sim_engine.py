"""Monte Carlo experiment engine.

Each path runs the per-step event loop: quote, sample fills, book the cash
and revenue, move the mid (plus permanent impact when enabled), step the
variance with the correlated shock, and accumulate the quadratic variation of
the inventory value.  Paths are embarrassingly parallel; every path's draws
are keyed by ``(seed, index)`` (see ``seeding``) and blocks of paths are
merged in fixed order, so ensembles are bit-reproducible regardless of the
worker count.

The same pre-generated draw arrays are consumed by every policy, which makes
runs with different policies under one master seed common-random-number
comparable (the frozen book simply ignores its fill uniforms).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .heston import HestonParams, euler_step
from .intensity import ArrivalParams, fills
from .quotes import InventorySV, RiskParams
from .seeding import SCHEMES, SIM_STREAM, block_ranges, lane_draws

__all__ = [
    "SimConfig",
    "PathRecord",
    "EnsembleStats",
    "FrontierPoint",
    "run_path",
    "run_ensemble",
    "efficient_frontier",
    "trading_curve",
]


@dataclass(frozen=True)
class SimConfig:
    """Market parameters and discretization for one experiment."""

    heston: HestonParams
    arrival: ArrivalParams
    risk: RiskParams
    T: float = 1.0
    dt: float = 0.005
    q0: int = 0
    x0: float = 0.0
    impact: bool = False
    scheme: str = "binomial"
    snapshot_stride: int = 1
    qv_impact_term: bool = True  # diagnostics only; never feeds back into the dynamics

    def __post_init__(self):
        if self.T <= 0 or self.dt <= 0:
            raise ValueError("T and dt must be positive")
        n = round(self.T / self.dt)
        if n < 1 or abs(n * self.dt - self.T) > 1e-9 * max(self.T, 1.0):
            raise ValueError("dt must divide T within rounding")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")

    @property
    def n_steps(self) -> int:
        return round(self.T / self.dt)

    @property
    def snapshot_steps(self) -> np.ndarray:
        """Step indices at which state is recorded (always includes 0 and T)."""
        steps = list(range(0, self.n_steps, self.snapshot_stride))
        if steps[-1] != self.n_steps:
            steps.append(self.n_steps)
        return np.asarray(steps)


@dataclass
class PathRecord:
    """Terminal state and (optionally dense) per-snapshot series of one path."""

    seed_index: int
    x: float
    q: int
    s: float
    nu: float
    z: float
    qv: float
    iv: float
    profit: float
    avg_spread: float
    clipped: int
    times: np.ndarray | None = None
    series_s: np.ndarray | None = None
    series_delta_a: np.ndarray | None = None
    series_delta_b: np.ndarray | None = None
    series_q: np.ndarray | None = None
    series_z: np.ndarray | None = None
    series_x: np.ndarray | None = None
    series_iv: np.ndarray | None = None


@dataclass
class EnsembleStats:
    """Aggregates over an ensemble; per-path terminal arrays retained."""

    n: int
    profit_mean: float
    profit_std: float
    q_mean: float
    q_std: float
    z_mean: float
    objective_mean: float  # mean of z - beta * q_T
    avg_spread: float
    qv_mean: float
    clipped: int
    curve_times: np.ndarray
    curve_mean: np.ndarray
    curve_std: np.ndarray
    profits: np.ndarray = field(repr=False, default=None)
    q_terminal: np.ndarray = field(repr=False, default=None)
    z_terminal: np.ndarray = field(repr=False, default=None)
    qv_terminal: np.ndarray = field(repr=False, default=None)
    iv_terminal: np.ndarray = field(repr=False, default=None)
    spread_terminal: np.ndarray = field(repr=False, default=None)

    @property
    def profit_se(self) -> float:
        return self.profit_std / math.sqrt(self.n)

    def histogram(self, bins: int = 30, edges: np.ndarray | None = None):
        """P&L histogram over terminal profits: (bin edges, counts)."""
        counts, out_edges = np.histogram(self.profits, bins=bins if edges is None else edges)
        return out_edges, counts


@dataclass(frozen=True)
class FrontierPoint:
    gamma: float
    variance_proxy: float  # mean cumulated inventory quadratic variation
    objective: float  # mean of Z_T - beta * q_T
    objective_se: float
    profit_mean: float


def _run_block(policy, config: SimConfig, master_seed: int, lo: int, hi: int,
               want_series: bool = False) -> dict:
    """Simulate paths ``lo..hi-1``; returns per-path terminals plus snapshot
    accumulators (and dense series when requested)."""
    n = hi - lo
    n_steps = config.n_steps
    dt = config.dt
    heston, arrival, risk = config.heston, config.arrival, config.risk

    shocks = np.empty((n, n_steps, 2))  # shocks first, fill uniforms second
    uniforms = np.empty((n, n_steps, 2))
    lane_draws(master_seed, (SIM_STREAM,), lo, hi, shocks, uniforms, config.scheme)

    s = np.full(n, heston.s0)
    nu = np.full(n, heston.nu0)
    q = np.full(n, config.q0, dtype=np.int64)
    x = np.full(n, config.x0)
    z = np.zeros(n)
    qv = np.zeros(n)
    iv = np.zeros(n)
    spread_sum = np.zeros(n)
    clipped = 0

    snap_steps = config.snapshot_steps
    snap_set = {int(k): j for j, k in enumerate(snap_steps)}
    q_snap_sum = np.zeros(snap_steps.size)
    q_snap_sumsq = np.zeros(snap_steps.size)

    if want_series:
        n_snap = snap_steps.size
        ser = {
            "s": np.empty((n, n_snap)), "da": np.full((n, n_snap), np.nan),
            "db": np.full((n, n_snap), np.nan), "q": np.empty((n, n_snap), dtype=np.int64),
            "z": np.empty((n, n_snap)), "x": np.empty((n, n_snap)), "iv": np.empty((n, n_snap)),
        }

    def snapshot(step: int, prem) -> None:
        j = snap_set.get(step)
        if j is None:
            return
        q_snap_sum[j] += q.sum()
        q_snap_sumsq[j] += (q.astype(np.float64) ** 2).sum()
        if want_series:
            ser["s"][:, j] = s
            ser["q"][:, j] = q
            ser["z"][:, j] = z
            ser["x"][:, j] = x
            ser["iv"][:, j] = iv
            if prem is not None:
                ser["da"][:, j] = prem[0]
                ser["db"][:, j] = prem[1]

    quoting = policy.premiums(np.zeros(1), np.zeros(1), 0.0) is not None

    for step in range(n_steps):
        t = step * dt
        prem = policy.premiums(q, nu, t) if quoting else None
        snapshot(step, prem)
        fa = fb = None
        if prem is not None:
            deltas = np.empty((n, 2))
            deltas[:, 0], deltas[:, 1] = prem
            da, db = deltas[:, 0], deltas[:, 1]
            hit, n_clipped = fills(deltas, uniforms[:, step], arrival, dt)
            clipped += n_clipped
            fa, fb = hit[:, 0], hit[:, 1]
            x += np.where(fa, s + da, 0.0) - np.where(fb, s - db, 0.0)
            z += np.where(fa, da, 0.0) + np.where(fb, db, 0.0)
            q += fb.astype(np.int64) - fa.astype(np.int64)
            spread_sum += da + db

        qf = q.astype(np.float64)
        qv += qf**2 * nu * dt  # nu >= 0: the Euler step clamps it
        ds, nu = euler_step(s, nu, shocks[:, step, 0], shocks[:, step, 1], heston, dt)
        if config.impact and fa is not None:
            ds += risk.eta * (fa.astype(np.float64) - fb.astype(np.float64))
        s = s + ds
        iv += qf * ds
        if config.impact and config.qv_impact_term and fa is not None:
            qv += qf**2 * risk.eta**2 * (fa.astype(np.float64) + fb.astype(np.float64))
        if step % 50 == 0 or step == n_steps - 1:
            if not (np.all(np.isfinite(s)) and np.all(np.isfinite(x))):
                bad = int(np.argwhere(~(np.isfinite(s) & np.isfinite(x)))[0][0])
                raise RuntimeError(f"non-finite state on path {lo + bad} at step {step}")

    snapshot(n_steps, None)

    out = {
        "lo": lo,
        "x": x, "q": q, "s": s, "nu": nu, "z": z, "qv": qv, "iv": iv,
        "profit": x + q.astype(np.float64) * (s - risk.beta),
        "spread_avg": spread_sum / n_steps if quoting else np.full(n, np.nan),
        "clipped": clipped,
        "quoting": quoting,
        "q_snap_sum": q_snap_sum, "q_snap_sumsq": q_snap_sumsq,
    }
    if want_series:
        out["series"] = ser
    return out


def run_path(policy, config: SimConfig, seed: int, index: int = 0) -> PathRecord:
    """Simulate a single path with a dense snapshot series.

    ``(seed, index)`` addresses the same stream as member ``index`` of
    ``run_ensemble(seed=seed)``, so a path can be replayed exactly.
    """
    blk = _run_block(policy, config, seed, index, index + 1, want_series=True)
    ser = blk["series"]
    return PathRecord(
        seed_index=index,
        x=float(blk["x"][0]), q=int(blk["q"][0]), s=float(blk["s"][0]),
        nu=float(blk["nu"][0]), z=float(blk["z"][0]), qv=float(blk["qv"][0]),
        iv=float(blk["iv"][0]), profit=float(blk["profit"][0]),
        avg_spread=float(blk["spread_avg"][0]), clipped=int(blk["clipped"]),
        times=config.snapshot_steps * config.dt,
        series_s=ser["s"][0], series_delta_a=ser["da"][0], series_delta_b=ser["db"][0],
        series_q=ser["q"][0], series_z=ser["z"][0], series_x=ser["x"][0],
        series_iv=ser["iv"][0],
    )


def run_ensemble(policy, config: SimConfig, n: int, seed: int,
                 threads: int = 1, block: int = 1024) -> EnsembleStats:
    """Run ``n`` independent paths and aggregate.

    Deterministic for fixed ``(seed, n, config)`` regardless of ``threads``:
    path ``i``'s draws depend only on ``(seed, i)`` and block results are
    merged in index order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ranges = block_ranges(n, block)
    tasks = [(policy, config, seed, lo, hi) for lo, hi in ranges]
    if threads > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(lambda a: _run_block(*a), tasks))
    else:
        results = [_run_block(*a) for a in tasks]

    results.sort(key=lambda r: r["lo"])
    cat = lambda key: np.concatenate([r[key] for r in results])
    profits = cat("profit")
    q_term = cat("q")
    z_term = cat("z")
    qv_term = cat("qv")
    iv_term = cat("iv")
    spread_term = cat("spread_avg")
    clipped = sum(r["clipped"] for r in results)
    quoting = results[0]["quoting"]

    q_snap_sum = np.zeros_like(results[0]["q_snap_sum"])
    q_snap_sumsq = np.zeros_like(q_snap_sum)
    for r in results:
        q_snap_sum += r["q_snap_sum"]
        q_snap_sumsq += r["q_snap_sumsq"]
    curve_mean = q_snap_sum / n
    curve_var = np.maximum(q_snap_sumsq / n - curve_mean**2, 0.0)
    curve_std = np.sqrt(curve_var * n / max(n - 1, 1))

    objective = z_term - config.risk.beta * q_term.astype(np.float64)
    ddof = 1 if n > 1 else 0
    return EnsembleStats(
        n=n,
        profit_mean=float(profits.mean()),
        profit_std=float(profits.std(ddof=ddof)),
        q_mean=float(q_term.mean()),
        q_std=float(q_term.std(ddof=ddof)),
        z_mean=float(z_term.mean()),
        objective_mean=float(objective.mean()),
        avg_spread=float(spread_term.mean()) if quoting else float("nan"),
        qv_mean=float(qv_term.mean()),
        clipped=clipped,
        curve_times=config.snapshot_steps * config.dt,
        curve_mean=curve_mean,
        curve_std=curve_std,
        profits=profits,
        q_terminal=q_term,
        z_terminal=z_term,
        qv_terminal=qv_term,
        iv_terminal=iv_term,
        spread_terminal=spread_term,
    )


def efficient_frontier(config: SimConfig, gammas, n: int, seed: int,
                       threads: int = 1) -> list[FrontierPoint]:
    """One inventory-policy ensemble per risk-aversion level.

    All points share the master seed (common random numbers), so differences
    across gammas are driven by the policy rather than by sampling noise.
    """
    gammas = list(gammas)
    if not gammas:
        raise ValueError("gamma list must be nonempty")
    points = []
    for gamma in gammas:
        risk = replace(config.risk, gamma=float(gamma))
        cfg = replace(config, risk=risk)
        policy = InventorySV(cfg.heston, cfg.arrival, risk, cfg.T)
        stats = run_ensemble(policy, cfg, n, seed, threads=threads)
        obj = stats.z_terminal - risk.beta * stats.q_terminal.astype(np.float64)
        points.append(FrontierPoint(
            gamma=float(gamma),
            variance_proxy=stats.qv_mean,
            objective=stats.objective_mean,
            objective_se=float(obj.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
            profit_mean=stats.profit_mean,
        ))
    return points


def trading_curve(policy, config: SimConfig, n: int, seed: int,
                  threads: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Average inventory path E[q_t]: (times, mean, std)."""
    stats = run_ensemble(policy, config, n, seed, threads=threads)
    return stats.curve_times, stats.curve_mean, stats.curve_std
