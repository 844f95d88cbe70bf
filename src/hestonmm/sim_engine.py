"""Monte Carlo experiment engine.

Each path runs the per-step event loop over the market of ``heston.walk``:
quote, take the book step ``intensity.trade`` (fills, revenue, inventory),
move the mid by the walk's ``ds`` (plus permanent impact when enabled), and
accumulate the inventory value ``iv = sum q dS`` and its quadratic variation.
No cash account is kept: by summation by parts the mark-to-market profit
``x_T + q_T (s_T - beta)`` of the cash ``x`` is ``z + iv + q0 s0 - beta q_T``.
Every path's draws are keyed by ``(seed, index)`` (see ``seeding``) and
``seeding.map_blocks`` runs blocks of paths in index order, so ensembles are
bit-reproducible whatever the path count or block layout.

Every policy walks the same shocks, drawn ``seeding.STEP_CHUNK`` steps at a
time, which makes runs with different policies under one master seed
common-random-number comparable.  A book that quotes also draws its fill
uniforms, from generators of their own, so the frozen book draws none and
sees the same market.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .heston import HestonParams, step_count, walk
from .intensity import ArrivalParams, trade
from .quotes import InventorySV, RiskParams
from .seeding import SCHEMES, SIM_STREAM, lane_draws, map_blocks

__all__ = [
    "SimConfig",
    "EnsembleStats",
    "FrontierPoint",
    "run_ensemble",
    "efficient_frontier",
    "trading_curve",
    "NonFiniteStateError",
]


class NonFiniteStateError(RuntimeError):
    """A simulated price or premium income became non-finite."""


@dataclass(frozen=True)
class SimConfig:
    """Market parameters and discretization for one experiment."""

    heston: HestonParams
    arrival: ArrivalParams
    risk: RiskParams
    T: float = 1.0
    dt: float = 0.005
    q0: int = 0
    impact: bool = False
    scheme: str = "binomial"
    snapshot_stride: int = 1

    def __post_init__(self):
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"T must be finite and positive, got {self.T}")
        step_count(self.T, self.dt)
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")

    @property
    def n_steps(self) -> int:
        return step_count(self.T, self.dt)

    @property
    def snapshot_steps(self) -> np.ndarray:
        """Step indices at which state is recorded (always includes 0 and T)."""
        steps = list(range(0, self.n_steps, self.snapshot_stride))
        if steps[-1] != self.n_steps:
            steps.append(self.n_steps)
        return np.asarray(steps)


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
    trace: dict  # path 0 at curve_times: s, da, db (nan where it quotes none), q, z
    profits: np.ndarray = field(repr=False, default=None)
    q_terminal: np.ndarray = field(repr=False, default=None)
    z_terminal: np.ndarray = field(repr=False, default=None)
    qv_terminal: np.ndarray = field(repr=False, default=None)
    iv_terminal: np.ndarray = field(repr=False, default=None)
    spread_terminal: np.ndarray = field(repr=False, default=None)


@dataclass(frozen=True)
class FrontierPoint:
    gamma: float
    variance_proxy: float  # mean cumulated inventory quadratic variation
    objective: float  # mean of Z_T - beta * q_T
    objective_se: float
    profit_mean: float


def _run_block(policy, config: SimConfig, master_seed: int, lo: int, hi: int) -> dict:
    """Simulate paths ``lo..hi-1``; returns per-path terminals, snapshot
    accumulators and, in the block of path 0, that path's snapshot trace."""
    n = hi - lo
    n_steps = config.n_steps
    dt = config.dt
    heston, arrival, risk = config.heston, config.arrival, config.risk

    s = np.full(n, heston.s0)
    q = np.full(n, config.q0, dtype=np.int64)
    z = np.zeros(n)
    qv = np.zeros(n)
    iv = np.zeros(n)
    spread_sum = np.zeros(n)
    clipped = 0

    snap_steps = config.snapshot_steps
    snap_set = {int(k): j for j, k in enumerate(snap_steps)}
    q_snap_sum = np.zeros(snap_steps.size)
    q_snap_sumsq = np.zeros(snap_steps.size)
    trace = None
    if lo == 0:
        m = snap_steps.size
        trace = {"s": np.empty(m), "da": np.full(m, np.nan), "db": np.full(m, np.nan),
                 "q": np.empty(m, dtype=np.int64), "z": np.empty(m)}

    def snapshot(step: int, deltas) -> None:
        j = snap_set.get(step)
        if j is None:
            return
        q_snap_sum[j] += q.sum()
        q_snap_sumsq[j] += (q.astype(np.float64) ** 2).sum()
        if trace is not None:
            trace["s"][j], trace["q"][j], trace["z"][j] = s[0], q[0], z[0]
            if deltas is not None:
                trace["da"][j], trace["db"][j] = deltas[0]

    quoting = policy.premiums(np.zeros(1), np.zeros(1), 0.0) is not None
    impact = config.impact and quoting
    draws = lane_draws(master_seed, (SIM_STREAM,), lo, hi, n_steps, 2, 2 if quoting else 0,
                       config.scheme)

    for step, (nu, ds, _, u) in enumerate(walk(heston, draws, dt, heston.nu0)):
        deltas = None
        if quoting:
            deltas = np.empty((n, 2))
            deltas[:, 0], deltas[:, 1] = policy.premiums(q, nu, step * dt)
        snapshot(step, deltas)
        if quoting:
            hit, income, dq, n_clipped = trade(deltas, u.T, arrival, dt)
            clipped += n_clipped
            z += income
            q += dq[:, 0]
            spread_sum += deltas[:, 0] + deltas[:, 1]

        qf = q.astype(np.float64)
        qv += qf**2 * nu * dt  # nu >= 0: the Euler step clamps it
        if impact:
            ds -= risk.eta * dq[:, 0]
            qv += qf**2 * risk.eta**2 * hit.sum(axis=1)
        s = s + ds
        iv += qf * ds
        if step % 50 == 0 or step == n_steps - 1:
            finite = np.isfinite(s) & np.isfinite(z)
            if not finite.all():
                bad = int(np.argmin(finite))
                raise NonFiniteStateError(f"non-finite state on path {lo + bad} at step {step}")

    snapshot(n_steps, None)

    qf = q.astype(np.float64)
    return {
        "q": q, "z": z, "qv": qv, "iv": iv,
        "profit": z + iv + config.q0 * heston.s0 - risk.beta * qf,
        "spread_avg": spread_sum / n_steps if quoting else np.full(n, np.nan),
        "clipped": clipped, "trace": trace,
        "q_snap_sum": q_snap_sum, "q_snap_sumsq": q_snap_sumsq,
    }


def run_ensemble(policy, config: SimConfig, n: int, seed: int,
                 threads: int = 1) -> EnsembleStats:
    """Run ``n`` independent paths and aggregate.

    Deterministic for fixed ``(seed, n, config)``: path ``i``'s draws depend
    only on ``(seed, i)``, and the blocks' per-path results are joined in
    index order before any mean is taken.  ``threads`` is accepted and
    ignored; every block runs on the calling thread.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    results = map_blocks(n, lambda lo, hi: _run_block(policy, config, seed, lo, hi))
    cat = lambda key: np.concatenate([r[key] for r in results])
    profits = cat("profit")
    q_term = cat("q")
    z_term = cat("z")
    qv_term = cat("qv")
    iv_term = cat("iv")
    spread_term = cat("spread_avg")
    clipped = sum(r["clipped"] for r in results)

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
        avg_spread=float(spread_term.mean()),  # nan for a book that never quotes
        qv_mean=float(qv_term.mean()),
        clipped=clipped,
        curve_times=config.snapshot_steps * config.dt,
        curve_mean=curve_mean,
        curve_std=curve_std,
        trace=results[0]["trace"],
        profits=profits,
        q_terminal=q_term,
        z_terminal=z_term,
        qv_terminal=qv_term,
        iv_terminal=iv_term,
        spread_terminal=spread_term,
    )


def efficient_frontier(config: SimConfig, gammas, n: int, seed: int) -> list[FrontierPoint]:
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
        stats = run_ensemble(policy, cfg, n, seed)
        obj = stats.z_terminal - risk.beta * stats.q_terminal.astype(np.float64)
        points.append(FrontierPoint(
            gamma=float(gamma),
            variance_proxy=stats.qv_mean,
            objective=stats.objective_mean,
            objective_se=float(obj.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
            profit_mean=stats.profit_mean,
        ))
    return points


def trading_curve(policy, config: SimConfig, n: int,
                  seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Average inventory path E[q_t]: (times, mean, std)."""
    stats = run_ensemble(policy, config, n, seed)
    return stats.curve_times, stats.curve_mean, stats.curve_std
