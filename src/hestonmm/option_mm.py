"""Option market-making policies.

Two books are supported.  The joint book quotes around both the stock and the
option mid simultaneously; its tilt functionals are

    H1 = -gamma     E[ integral of nu (Delta + rho xi C_nu) ]
    H2 = -gamma / 2 E[ integral of nu (Delta^2 + 2 rho xi Delta C_nu + xi^2 C_nu^2) ].

The delta-hedged book quotes only the option while holding ``q_s = -q_o Delta``
in stock continuously; its single functional is

    M = -(gamma / 2) xi^2 E[ integral of nu C_nu^2 ].

All three are path integrals under the real-world dynamics, estimated by
Monte Carlo with greeks interpolated from a solved pricing grid, and cached on
a coarse lattice for use inside simulations.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .heston import HestonParams, euler_step
from .intensity import ArrivalParams, fills
from .option_pricing import C, C_NU, DELTA, GAMMA, PRICE, PricingGrid, cell
from .quotes import RiskParams, inventory_coefficient
from .seeding import DEFAULT_BLOCK, FUNCTIONAL_STREAM, OPTION_MM_STREAM, block_ranges, lane_draws

__all__ = [
    "Functionals",
    "FunctionalLattice",
    "GridExitError",
    "estimate_functionals",
    "joint_book_quotes",
    "hedged_book_quotes",
    "hedge_position",
    "approx_value_joint",
    "approx_value_hedged",
    "run_hedged_paths",
    "run_joint_paths",
    "HedgedStats",
    "JointStats",
    "write_lattice_csv",
]


class GridExitError(RuntimeError):
    """Too many simulated paths left the pricing grid."""


@dataclass(frozen=True)
class Functionals:
    """Monte Carlo estimates of the quote-tilt functionals with standard
    errors.  H2 and M are nonpositive up to sampling noise."""

    h1: float
    h2: float
    m: float
    se_h1: float = 0.0
    se_h2: float = 0.0
    se_m: float = 0.0


def _off_grid(grid: PricingGrid, s: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Paths whose state lies outside the pricing grid, where the greeks
    and prices read from it are clamped to its edge."""
    return ((s < grid.s_grid[0]) | (s > grid.s_grid[-1])
            | (nu < grid.nu_grid[0]) | (nu > grid.nu_grid[-1]))


def _integrals(
    starts: list[tuple[float, float, int]], t: float, T: float,
    heston: HestonParams, grid: PricingGrid, n_paths: int, seed: int, dt_target: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-path left-endpoint quadratures of the three integrands along
    real-world paths started at time ``t``, ``n_paths`` from each
    ``(s0, nu0, node)`` in ``starts``, simulated together in blocks of at
    most ``DEFAULT_BLOCK`` paths.  A node's paths draw from the key
    ``(FUNCTIONAL_STREAM, node)`` under ``seed``.  Start ``n`` owns rows
    ``n * n_paths`` onward of the returned (i1, i2, i3, exited) arrays;
    ``exited`` flags the paths that left the grid before the last step."""
    tau = T - t
    n_steps = max(1, round(tau / dt_target))
    dt = tau / n_steps
    rho, xi = heston.rho, heston.xi
    s_lo, s_hi = grid.s_grid[0], grid.s_grid[-1]
    v_lo, v_hi = grid.nu_grid[0], grid.nu_grid[-1]
    s_start = np.array([st[0] for st in starts], dtype=np.float64)
    nu_start = np.array([st[1] for st in starts], dtype=np.float64)

    total = len(starts) * n_paths
    i1 = np.empty(total)
    i2 = np.empty(total)
    i3 = np.empty(total)
    exited = np.empty(total, dtype=bool)
    draws = np.empty((min(DEFAULT_BLOCK, total), n_steps, 2))
    for lo, hi in block_ranges(total):
        shocks = draws[:hi - lo]
        for start in range(lo // n_paths, (hi - 1) // n_paths + 1):
            first = start * n_paths
            a, b = max(lo, first), min(hi, first + n_paths)
            lane_draws(seed, (FUNCTIONAL_STREAM, starts[start][2]), a - first, b - first,
                       shocks[a - lo:b - lo])
        n = hi - lo
        node_of_row = np.arange(lo, hi) // n_paths
        s = s_start[node_of_row]
        nu = nu_start[node_of_row]
        a1 = np.zeros(n)
        a2 = np.zeros(n)
        a3 = np.zeros(n)
        out = np.zeros(n, dtype=bool)
        for step in range(n_steps):
            out |= _off_grid(grid, s, nu)
            g = grid._bilinear(grid._time_slice(t + step * dt),
                               np.clip(s, s_lo, s_hi), np.clip(nu, v_lo, v_hi))
            delta, c_nu = g[:, DELTA], g[:, C_NU]
            a1 += nu * (delta + rho * xi * c_nu) * dt
            a2 += nu * (delta**2 + 2.0 * rho * xi * delta * c_nu + xi**2 * c_nu**2) * dt
            a3 += nu * c_nu**2 * dt
            ds, nu = euler_step(s, nu, shocks[:, step, 0], shocks[:, step, 1], heston, dt)
            s = s + ds
        i1[lo:hi], i2[lo:hi], i3[lo:hi], exited[lo:hi] = a1, a2, a3, out
    return i1, i2, i3, exited


def _check_exits(exited: int, n_paths: int, max_exit_fraction: float) -> None:
    if exited > max_exit_fraction * n_paths:
        raise GridExitError(
            f"{exited}/{n_paths} paths left the pricing grid "
            f"(allowed fraction {max_exit_fraction}); widen the grid"
        )


def _simulate_integrals(
    s0: float, nu0: float, t: float, T: float,
    heston: HestonParams, grid: PricingGrid,
    n_paths: int, seed: int, dt_target: float,
    max_exit_fraction: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-path quadratures of the three integrands from one state: a
    one-node call of the batched kernel ``_integrals`` with node key 0,
    which no lattice node uses."""
    i1, i2, i3, exited = _integrals([(s0, nu0, 0)], t, T, heston, grid, n_paths, seed, dt_target)
    _check_exits(int(exited.sum()), n_paths, max_exit_fraction)
    return i1, i2, i3


def _functionals(i1, i2, i3, gamma: float, xi: float) -> Functionals:
    root_n = math.sqrt(i1.size)
    return Functionals(
        h1=-gamma * float(i1.mean()),
        h2=-0.5 * gamma * float(i2.mean()),
        m=-0.5 * gamma * xi**2 * float(i3.mean()),
        se_h1=gamma * float(i1.std(ddof=1)) / root_n,
        se_h2=0.5 * gamma * float(i2.std(ddof=1)) / root_n,
        se_m=0.5 * gamma * xi**2 * float(i3.std(ddof=1)) / root_n,
    )


def estimate_functionals(
    s: float, nu: float, t: float, T: float,
    heston: HestonParams, risk: RiskParams, grid: PricingGrid,
    n_paths: int = 2000, seed: int = 0, dt_target: float = 0.005,
    max_exit_fraction: float = 0.01,
) -> Functionals:
    """Estimate (H1, H2, M) at state (s, nu, t) by Monte Carlo.

    Exact zeros at ``t == T`` (empty integral) and for ``gamma == 0``.
    """
    if t > T:
        raise ValueError("t beyond horizon")
    if t == T or risk.gamma == 0.0:
        return Functionals(0.0, 0.0, 0.0)
    if n_paths < 1000:
        raise ValueError("n_paths must be at least 1000")
    i1, i2, i3 = _simulate_integrals(s, nu, t, T, heston, grid, n_paths, seed,
                                     dt_target, max_exit_fraction)
    return _functionals(i1, i2, i3, risk.gamma, heston.xi)


class FunctionalLattice:
    """(H1, H2, M) precomputed on a coarse (s, nu, t) lattice and
    interpolated trilinearly during simulations."""

    def __init__(self, s_nodes, nu_nodes, t_nodes, h1, h2, m):
        self.s_nodes = np.asarray(s_nodes, dtype=np.float64)
        self.nu_nodes = np.asarray(nu_nodes, dtype=np.float64)
        self.t_nodes = np.asarray(t_nodes, dtype=np.float64)
        self.h1 = np.asarray(h1)
        self.h2 = np.asarray(h2)
        self.m = np.asarray(m)
        shape = (self.s_nodes.size, self.nu_nodes.size, self.t_nodes.size)
        for nodes in (self.s_nodes, self.nu_nodes, self.t_nodes):
            if nodes.ndim != 1 or nodes.size < 2 or np.any(np.diff(nodes) <= 0):
                raise ValueError("lattice nodes must be strictly ascending, at least 2 per axis")
        if not self.h1.shape == self.h2.shape == self.m.shape == shape:
            raise ValueError(f"functional tables must have shape {shape}")
        # (n_s, n_nu, n_t, 3): H1, H2 and M gathered together at each corner
        self._table = np.stack([self.h1, self.h2, self.m], axis=-1).astype(np.float64)

    @classmethod
    def build(
        cls, s_nodes, nu_nodes, t_nodes, T: float,
        heston: HestonParams, risk: RiskParams, grid: PricingGrid,
        n_paths: int = 1000, seed: int = 0, dt_target: float = 0.01,
        max_exit_fraction: float = 0.5,
    ) -> "FunctionalLattice":
        """Estimate every node with ``t < T`` as ``estimate_functionals``
        would, node ``n`` (1-based, in (s, nu, t) order) drawing from the key
        ``(FUNCTIONAL_STREAM, n)`` under ``seed``, so lattices built with
        different seeds share no streams.  The nodes sharing a ``t`` are
        simulated together; each keeps its own streams and its own grid-exit
        check."""
        # outer lattice nodes sit near the pricing-grid edge on purpose, so a
        # generous exit fraction is the default here; exited paths are clamped
        s_nodes = np.asarray(s_nodes, dtype=np.float64)
        nu_nodes = np.asarray(nu_nodes, dtype=np.float64)
        t_nodes = np.asarray(t_nodes, dtype=np.float64)
        shape = (s_nodes.size, nu_nodes.size, t_nodes.size)
        table = np.zeros(shape + (3,))
        live = [k for k, tv in enumerate(t_nodes) if tv < T]
        if live and risk.gamma != 0.0:
            if n_paths < 1000:
                raise ValueError("n_paths must be at least 1000")
            cells = [(i, j) for i in range(shape[0]) for j in range(shape[1])]
            for k in live:
                starts = [(float(s_nodes[i]), float(nu_nodes[j]),
                           1 + (i * shape[1] + j) * shape[2] + k) for i, j in cells]
                i1, i2, i3, exited = _integrals(starts, float(t_nodes[k]), T, heston, grid,
                                                n_paths, seed, dt_target)
                for n, (i, j) in enumerate(cells):
                    rows = slice(n * n_paths, (n + 1) * n_paths)
                    _check_exits(int(exited[rows].sum()), n_paths, max_exit_fraction)
                    f = _functionals(i1[rows], i2[rows], i3[rows], risk.gamma, heston.xi)
                    table[i, j, k] = f.h1, f.h2, f.m
        return cls(s_nodes, nu_nodes, t_nodes, table[..., 0], table[..., 1], table[..., 2])

    def functionals(self, s, nu, t):
        """(H1, H2, M) at (s, nu, t), clipped to the node box, by trilinear
        interpolation: the weighted sum over the eight corners of the cell."""
        axes = ((self.s_nodes, s), (self.nu_nodes, nu), (self.t_nodes, t))
        points = [np.clip(np.asarray(x, dtype=np.float64), nodes[0], nodes[-1]) for nodes, x in axes]
        if any(np.isnan(x).any() for x in points):
            raise ValueError("lattice points must not be nan")
        (i, wi), (j, wj), (k, wk) = (cell(nodes, x) for (nodes, _), x in zip(axes, points))
        n_nu, n_t = self.nu_nodes.size, self.t_nodes.size
        flat = self._table.reshape(-1, 3)
        base = (i * n_nu + j) * n_t + k  # flat index of the lower corner
        out = 0.0
        for off_s, w_s in ((0, 1.0 - wi), (n_nu * n_t, wi)):
            for off_nu, w_nu in ((0, 1.0 - wj), (n_t, wj)):
                w_sn = w_s * w_nu
                corner = base + (off_s + off_nu)
                for off_t, w_t in ((0, 1.0 - wk), (1, wk)):
                    out = out + flat.take(corner + off_t, axis=0) * (w_sn * w_t)[..., None]
        if out.ndim == 1:
            return tuple(float(v) for v in out)
        return out[..., 0], out[..., 1], out[..., 2]


def joint_book_quotes(q_s, q_o, nu, t, T: float, h1, h2,
                      arrival: ArrivalParams, heston: HestonParams, risk: RiskParams):
    """Premiums of the joint book, vectorized over paths: the last axis
    holds (ask stock, bid stock, ask option, bid option).

    Clearing fees are zero in the option setting, so the stock tilt uses the
    inventory coefficient with ``beta`` absent.
    """
    f = inventory_coefficient(nu, t, T, heston, risk)
    base = 1.0 / arrival.k
    q_s = np.asarray(q_s, dtype=np.float64)
    q_o = np.asarray(q_o, dtype=np.float64)
    return np.stack((base - f * (2.0 * q_s - 1.0) + h1 * q_o,
                     base + f * (2.0 * q_s + 1.0) - h1 * q_o,
                     base + h2 * (2.0 * q_o - 1.0) + h1 * q_s,
                     base - h2 * (2.0 * q_o + 1.0) - h1 * q_s), axis=-1)


def hedged_book_quotes(q_o, m, arrival: ArrivalParams):
    """Option premiums of the delta-hedged book, ``1/k + M (2 q_o -+ 1)``,
    vectorized over paths: the last axis holds (ask, bid)."""
    base = 1.0 / arrival.k
    q_o = np.asarray(q_o, dtype=np.float64)
    return np.stack((base + m * (2.0 * q_o - 1.0), base - m * (2.0 * q_o + 1.0)), axis=-1)


def hedge_position(q_o, delta):
    """Stock holding maintaining the delta hedge, ``q_s = -q_o * Delta``."""
    return -np.asarray(q_o, dtype=np.float64) * np.asarray(delta, dtype=np.float64)


def approx_value_joint(q_s: float, q_o: int, nu: float, t: float, T: float,
                       heston: HestonParams, risk: RiskParams, F: Functionals) -> float:
    """Quadratic approximate value of the joint book:
    ``-f q_s^2 + H1 q_s q_o + H2 q_o^2``."""
    f = float(inventory_coefficient(nu, t, T, heston, risk))
    return -f * q_s**2 + F.h1 * q_s * q_o + F.h2 * q_o**2


def approx_value_hedged(q_o: int, F: Functionals) -> float:
    """Approximate value of the hedged book, ``M q_o^2``."""
    return F.m * q_o**2


@dataclass
class HedgedStats:
    """Aggregates from delta-hedged option market-making paths."""

    n: int
    z_mean: float
    q_o_mean: float
    qv_hedged: np.ndarray  # per-path realized QV of the hedged book
    qv_unhedged: np.ndarray  # same fills, option-only book
    qv_rate_real: np.ndarray  # per-path mean of (dI)^2 / dt
    qv_rate_pred: np.ndarray  # per-path mean of nu xi^2 C_nu^2 q_o^2
    # leading discretization correction of the squared-increment estimator:
    # per-path mean of 0.5 Gamma^2 nu^2 q_o^2 dt (vanishes as dt -> 0)
    qv_rate_disc: np.ndarray
    clipped: int
    grid_exits: int  # paths clamped to the pricing grid at some step
    # quote trace of path 0: (t, s, nu, q_o, a_o, b_o) columns
    trace: dict | None = None


@dataclass
class JointStats:
    n: int
    z_mean: float
    z_std: float
    q_s_mean: float
    q_o_mean: float
    qv_mean: float
    clipped: int
    grid_exits: int  # paths clamped to the pricing grid at some step


def run_hedged_paths(
    heston: HestonParams, arrival: ArrivalParams, risk: RiskParams,
    grid: PricingGrid, lattice: FunctionalLattice,
    T: float, dt: float, n_paths: int, seed: int, q_o0: int = 0,
) -> HedgedStats:
    """Simulate the delta-hedged option dealer.

    Per step: quote the option via the hedged policy, sample fills, rebalance
    the stock hedge to ``-q_o Delta``, then move the market.  The realized
    inventory-value increment ``q_s dS + q_o dC`` is accumulated both for the
    hedged book and for an option-only twin with identical fills.  Prices and
    greeks of states outside the pricing grid are read at its edge; the paths
    that visit such a state are counted in ``grid_exits``.
    """
    n_steps = round(T / dt)
    if abs(n_steps * dt - T) > 1e-9:
        raise ValueError("dt must divide T")
    xi = heston.xi
    s_lo, s_hi = grid.s_grid[0], grid.s_grid[-1]
    v_lo, v_hi = grid.nu_grid[0], grid.nu_grid[-1]

    qv_h = np.empty(n_paths)
    qv_u = np.empty(n_paths)
    rate_real = np.empty(n_paths)
    rate_pred = np.empty(n_paths)
    rate_disc = np.empty(n_paths)
    z_tot = 0.0
    qo_tot = 0.0
    clipped = 0
    grid_exits = 0
    trace = {k: np.empty(n_steps) for k in ("t", "s", "nu", "q_o", "a_o", "b_o")}
    shock_buf = np.empty((min(DEFAULT_BLOCK, n_paths), n_steps, 2))
    uniform_buf = np.empty((min(DEFAULT_BLOCK, n_paths), n_steps, 2))

    for lo, hi in block_ranges(n_paths):
        n = hi - lo
        shocks, uniforms = shock_buf[:n], uniform_buf[:n]
        lane_draws(seed, (OPTION_MM_STREAM,), lo, hi, shocks, uniforms)

        s = np.full(n, heston.s0)
        nu = np.full(n, heston.nu0)
        off = _off_grid(grid, s, nu)
        q_o = np.full(n, q_o0, dtype=np.int64)
        z = np.zeros(n)
        acc_h = np.zeros(n)
        acc_u = np.zeros(n)
        acc_pred = np.zeros(n)
        acc_disc = np.zeros(n)

        for step in range(n_steps):
            t = step * dt
            sc = np.clip(s, s_lo, s_hi)
            vc = np.clip(nu, v_lo, v_hi)
            g = grid._bilinear(grid._time_slice(t), sc, vc)
            c_now, delta, gamma, c_nu = g[:, C], g[:, DELTA], g[:, GAMMA], g[:, C_NU]

            _, _, m = lattice.functionals(sc, vc, t)
            quotes = hedged_book_quotes(q_o, m, arrival)
            if lo == 0:
                trace["t"][step] = t
                trace["s"][step] = s[0]
                trace["nu"][step] = nu[0]
                trace["q_o"][step] = q_o[0]
                trace["a_o"][step], trace["b_o"][step] = quotes[0]
            hit, n_clipped = fills(quotes, uniforms[:, step], arrival, dt)
            clipped += n_clipped
            paid = np.where(hit, quotes, 0.0)
            z += paid[:, 0] + paid[:, 1]
            q_o += hit[:, 1].astype(np.int64) - hit[:, 0].astype(np.int64)

            qf = q_o.astype(np.float64)  # post-fill inventory carries the step
            q_s = -qf * delta
            acc_pred += nu * xi**2 * c_nu**2 * qf**2 * dt
            acc_disc += 0.5 * (gamma * nu * qf) ** 2 * dt**2

            ds, nu = euler_step(s, nu, shocks[:, step, 0], shocks[:, step, 1], heston, dt)
            s = s + ds
            off |= _off_grid(grid, s, nu)

            c_next = grid._bilinear(grid._time_slice(t + dt, PRICE),
                                    np.clip(s, s_lo, s_hi), np.clip(nu, v_lo, v_hi))[:, 0]
            dc = c_next - c_now
            di_h = q_s * ds + qf * dc
            di_u = qf * dc
            acc_h += di_h**2
            acc_u += di_u**2

        qv_h[lo:hi] = acc_h
        qv_u[lo:hi] = acc_u
        rate_real[lo:hi] = acc_h / (n_steps * dt)
        rate_pred[lo:hi] = acc_pred / (n_steps * dt)
        rate_disc[lo:hi] = acc_disc / (n_steps * dt)
        z_tot += float(z.sum())
        qo_tot += float(q_o.sum())
        grid_exits += int(off.sum())

    return HedgedStats(
        n=n_paths,
        z_mean=z_tot / n_paths,
        q_o_mean=qo_tot / n_paths,
        qv_hedged=qv_h,
        qv_unhedged=qv_u,
        qv_rate_real=rate_real,
        qv_rate_pred=rate_pred,
        qv_rate_disc=rate_disc,
        clipped=clipped,
        grid_exits=grid_exits,
        trace=trace,
    )


def run_joint_paths(
    heston: HestonParams, arrival: ArrivalParams, risk: RiskParams,
    grid: PricingGrid, lattice: FunctionalLattice,
    T: float, dt: float, n_paths: int, seed: int,
    q_s0: int = 0, q_o0: int = 0,
) -> JointStats:
    """Simulate the joint stock+option dealer with the four-quote policy.

    Option prices of states outside the pricing grid are read at its edge;
    the paths that visit such a state are counted in ``grid_exits``.
    """
    n_steps = round(T / dt)
    if abs(n_steps * dt - T) > 1e-9:
        raise ValueError("dt must divide T")
    s_lo, s_hi = grid.s_grid[0], grid.s_grid[-1]
    v_lo, v_hi = grid.nu_grid[0], grid.nu_grid[-1]

    z_all = np.empty(n_paths)
    qs_all = np.empty(n_paths, dtype=np.int64)
    qo_all = np.empty(n_paths, dtype=np.int64)
    qv_all = np.empty(n_paths)
    clipped = 0
    grid_exits = 0
    shock_buf = np.empty((min(DEFAULT_BLOCK, n_paths), n_steps, 2))
    uniform_buf = np.empty((min(DEFAULT_BLOCK, n_paths), n_steps, 4))

    for lo, hi in block_ranges(n_paths):
        n = hi - lo
        shocks, uniforms = shock_buf[:n], uniform_buf[:n]
        lane_draws(seed, (OPTION_MM_STREAM,), lo, hi, shocks, uniforms)

        s = np.full(n, heston.s0)
        nu = np.full(n, heston.nu0)
        off = _off_grid(grid, s, nu)
        q_s = np.full(n, q_s0, dtype=np.int64)
        q_o = np.full(n, q_o0, dtype=np.int64)
        z = np.zeros(n)
        qv = np.zeros(n)

        for step in range(n_steps):
            t = step * dt
            sc = np.clip(s, s_lo, s_hi)
            vc = np.clip(nu, v_lo, v_hi)
            c_now = grid._bilinear(grid._time_slice(t), sc, vc)[:, C]
            h1, h2, _ = lattice.functionals(sc, vc, t)
            quotes = joint_book_quotes(q_s, q_o, nu, t, T, h1, h2, arrival, heston, risk)
            hit, n_clipped = fills(quotes, uniforms[:, step], arrival, dt)
            clipped += n_clipped
            paid = np.where(hit, quotes, 0.0)
            z += paid[:, 0] + paid[:, 1] + paid[:, 2] + paid[:, 3]
            q_s += hit[:, 1].astype(np.int64) - hit[:, 0].astype(np.int64)
            q_o += hit[:, 3].astype(np.int64) - hit[:, 2].astype(np.int64)

            ds, nu = euler_step(s, nu, shocks[:, step, 0], shocks[:, step, 1], heston, dt)
            s = s + ds
            off |= _off_grid(grid, s, nu)
            c_next = grid._bilinear(grid._time_slice(t + dt, PRICE),
                                    np.clip(s, s_lo, s_hi), np.clip(nu, v_lo, v_hi))[:, 0]
            di = q_s.astype(np.float64) * ds + q_o.astype(np.float64) * (c_next - c_now)
            qv += di**2

        z_all[lo:hi] = z
        qs_all[lo:hi] = q_s
        qo_all[lo:hi] = q_o
        qv_all[lo:hi] = qv
        grid_exits += int(off.sum())

    ddof = 1 if n_paths > 1 else 0
    return JointStats(
        n=n_paths,
        z_mean=float(z_all.mean()),
        z_std=float(z_all.std(ddof=ddof)),
        q_s_mean=float(qs_all.mean()),
        q_o_mean=float(qo_all.mean()),
        qv_mean=float(qv_all.mean()),
        clipped=clipped,
        grid_exits=grid_exits,
    )


def write_lattice_csv(lattice: FunctionalLattice, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["s", "nu", "t", "H1", "H2", "M"])
        for i, sv in enumerate(lattice.s_nodes):
            for j, nv in enumerate(lattice.nu_nodes):
                for k, tv in enumerate(lattice.t_nodes):
                    w.writerow([
                        repr(float(sv)), repr(float(nv)), repr(float(tv)),
                        repr(float(lattice.h1[i, j, k])),
                        repr(float(lattice.h2[i, j, k])),
                        repr(float(lattice.m[i, j, k])),
                    ])
