"""Option market-making policies.

Two books are supported.  The joint book quotes around both the stock and the
option mid simultaneously; its tilt functionals are

    H1 = -gamma     E[ integral of nu (Delta + rho xi C_nu) ]
    H2 = -gamma / 2 E[ integral of nu (Delta^2 + 2 rho xi Delta C_nu + xi^2 C_nu^2) ].

The delta-hedged book quotes only the option while holding ``q_s = -q_o Delta``
in stock continuously; its single functional is

    M = -(gamma / 2) xi^2 E[ integral of nu C_nu^2 ].

All three are path integrals of greeks under the real-world dynamics, solved
on the pricing grid by Feynman-Kac and cached on a coarse lattice for use
inside simulations; ``estimate_functionals`` is their Monte Carlo oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .heston import HestonParams, euler_step, step_count
from .intensity import ArrivalParams, fills
from .option_pricing import C, C_NU, DELTA, GAMMA, PRICE, PricingGrid, bilinear, cell, douglas_steps
from .quotes import RiskParams, inventory_coefficient
from .seeding import FUNCTIONAL_STREAM, OPTION_MM_STREAM, lane_draws, map_blocks
from .table import write_table

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


def _clamp(grid: PricingGrid, s: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The state clamped to the pricing grid, where it is read."""
    return (np.clip(s, grid.s_grid[0], grid.s_grid[-1]),
            np.clip(nu, grid.nu_grid[0], grid.nu_grid[-1]))


_DELTA_C_NU = slice(DELTA, C_NU + 1, C_NU - DELTA)  # the two greek columns the integrands read


def _simulate_integrals(
    s0: float, nu0: float, t: float, T: float, heston: HestonParams, grid: PricingGrid,
    n_paths: int, seed: int, dt_target: float, max_exit_fraction: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-path left-endpoint quadratures of the three integrands along
    real-world paths from ``(s0, nu0)`` at time ``t``, drawn from the key
    ``(FUNCTIONAL_STREAM, 0)`` under ``seed`` in the blocks of
    ``seeding.map_blocks``.  Raises ``GridExitError`` when more than
    ``max_exit_fraction`` of the paths leave the grid before the last step."""
    tau = T - t
    n_steps = max(1, round(tau / dt_target))
    dt = tau / n_steps
    rho, xi = heston.rho, heston.xi

    def paths(lo: int, hi: int):
        n = hi - lo
        shocks, _ = lane_draws(seed, (FUNCTIONAL_STREAM, 0), lo, hi, n_steps, 2)
        s = np.full(n, float(s0))
        nu = np.full(n, float(nu0))
        a1 = np.zeros(n)
        a2 = np.zeros(n)
        a3 = np.zeros(n)
        out = np.zeros(n, dtype=bool)
        for step in range(n_steps):
            out |= _off_grid(grid, s, nu)
            delta, c_nu = grid._bilinear(grid._time_slice(t + step * dt, _DELTA_C_NU),
                                         *_clamp(grid, s, nu)).T
            a1 += nu * (delta + rho * xi * c_nu) * dt
            a2 += nu * (delta**2 + 2.0 * rho * xi * delta * c_nu + xi**2 * c_nu**2) * dt
            a3 += nu * c_nu**2 * dt
            ds, nu = euler_step(s, nu, shocks[step, 0], shocks[step, 1], heston, dt)
            s = s + ds
        return a1, a2, a3, out

    i1, i2, i3, exited = (np.concatenate(col) for col in zip(*map_blocks(n_paths, paths)))
    n_exited = int(exited.sum())
    if n_exited > max_exit_fraction * n_paths:
        raise GridExitError(
            f"{n_exited}/{n_paths} paths left the pricing grid "
            f"(allowed fraction {max_exit_fraction}); widen the grid"
        )
    return i1, i2, i3


def estimate_functionals(
    s: float, nu: float, t: float, T: float,
    heston: HestonParams, risk: RiskParams, grid: PricingGrid,
    n_paths: int = 2000, seed: int = 0, dt_target: float = 0.005,
    max_exit_fraction: float = 0.01,
) -> Functionals:
    """Estimate (H1, H2, M) at state (s, nu, t) by Monte Carlo, the oracle
    of ``FunctionalLattice.build``.

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
    gamma, xi, root_n = risk.gamma, heston.xi, math.sqrt(n_paths)
    return Functionals(
        h1=-gamma * float(i1.mean()),
        h2=-0.5 * gamma * float(i2.mean()),
        m=-0.5 * gamma * xi**2 * float(i3.mean()),
        se_h1=gamma * float(i1.std(ddof=1)) / root_n,
        se_h2=0.5 * gamma * float(i2.std(ddof=1)) / root_n,
        se_m=0.5 * gamma * xi**2 * float(i3.std(ddof=1)) / root_n,
    )


class FunctionalLattice:
    """(H1, H2, M) on a coarse (s, nu, t) lattice, interpolated linearly
    in t, then bilinearly in (s, nu), during simulations."""

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
        n_paths: int = 1000, seed: int = 0,
    ) -> "FunctionalLattice":
        """Every node from one backward solve on the pricing grid (Feynman-Kac):
        ``u_j = E[integral from t to T of f_j]`` solves ``u_t + L u + f_j = 0``
        with ``u(T) = 0``, ``L`` the real-world generator (the pricer's
        operator under ``heston`` with ``eta_nu = 0``) and the sources taken
        from the greek slices, ``f1 = nu (Delta + rho xi C_nu)``, ``f2 = nu
        (Delta^2 + 2 rho xi Delta C_nu + xi^2 C_nu^2)`` and ``f3 = nu C_nu^2``.
        ``u`` is kept at the nodes' (s, nu) points and blended in t; then
        ``H1 = -gamma u1``, ``H2 = -(gamma / 2) u2``, ``M = -(gamma xi^2 / 2)
        u3``, and every zero (at ``t = T``, for ``gamma = 0``) is +0.0.  The
        scheme is not monotone: at the CLI defaults M comes out positive at
        10 nodes, by at most 4.3e-13 (2e-9 of max |M|), and is not clipped.
        ``T`` must be the grid's maturity and the nodes must lie on the grid.
        ``n_paths`` and ``seed`` do nothing; they stay for callers that pass them.
        """
        s_nodes, nu_nodes, t_nodes = (np.asarray(x, dtype=np.float64)
                                      for x in (s_nodes, nu_nodes, t_nodes))
        if T != grid.config.T:
            raise ValueError(f"T={T} is not the pricing grid's maturity {grid.config.T}")
        i, wi = grid._locate(grid.s_grid, s_nodes[:, None], "s")
        j, wj = grid._locate(grid.nu_grid, nu_nodes[None, :], "nu")
        k, wk = grid._locate(grid.times, t_nodes, "t")
        rho, xi = heston.rho, heston.xi

        def source(it: int) -> np.ndarray:
            delta, c_nu = grid.stack[it, :, :, DELTA], grid.stack[it, :, :, C_NU]
            return grid.nu_grid * np.stack((
                delta + rho * xi * c_nu,
                delta**2 + 2.0 * rho * xi * delta * c_nu + xi**2 * c_nu**2,
                c_nu**2))

        at_nodes = np.zeros((grid.times.size, s_nodes.size, nu_nodes.size, 3))  # u(T) = 0
        u = np.zeros((3,) + grid.stack.shape[1:3])
        real_world = replace(grid.config, heston=heston, eta_nu=0.0)
        for back, u in enumerate(douglas_steps(real_world, u, source), 2):
            at_nodes[-back] = bilinear(np.moveaxis(u, 0, -1), i, wi, j, wj)
        wk = wk[:, None, None, None]
        u_t = np.moveaxis((1.0 - wk) * at_nodes[k] + wk * at_nodes[k + 1], 0, 2)
        # 0.0 - x turns -0.0 into +0.0 and leaves every other value as -x
        table = 0.0 - np.array([1.0, 0.5, 0.5 * xi**2]) * risk.gamma * u_t
        return cls(s_nodes, nu_nodes, t_nodes, *np.moveaxis(table, -1, 0))

    def functionals(self, s, nu, t: float):
        """(H1, H2, M) at (s, nu) and the one time ``t``, clipped to the node
        box: the table is blended linearly at ``t``, then read bilinearly
        through the pricer's kernel ``option_pricing.bilinear``."""
        t = float(t)
        points = [np.clip(np.asarray(x, dtype=np.float64), nodes[0], nodes[-1])
                  for nodes, x in ((self.s_nodes, s), (self.nu_nodes, nu), (self.t_nodes, t))]
        if any(np.isnan(x).any() for x in points):
            raise ValueError("lattice points must not be nan")
        k, wk = cell(self.t_nodes, points[2])
        plane = (1.0 - wk) * self._table[:, :, k] + wk * self._table[:, :, k + 1]
        out = bilinear(plane, *cell(self.s_nodes, points[0]), *cell(self.nu_nodes, points[1]))
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
    trace: dict  # quote trace of path 0: (t, s, nu, q_o, a_o, b_o) columns


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
    z_terminal: np.ndarray  # per path
    qv_terminal: np.ndarray  # per path


def _step_times(T: float, dt: float) -> list[float]:
    """A book's step times ``k * dt``, ending at ``T`` exactly: the last
    step's ``n_steps * dt`` can miss ``T`` by an ulp and leave the grid."""
    return [k * dt for k in range(step_count(T, dt))] + [T]


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
    times = _step_times(T, dt)
    n_steps = len(times) - 1
    xi = heston.xi
    trace = {k: np.empty(n_steps) for k in ("t", "s", "nu", "q_o", "a_o", "b_o")}

    def paths(lo: int, hi: int):
        n = hi - lo
        shocks, uniforms = lane_draws(seed, (OPTION_MM_STREAM,), lo, hi, n_steps, 2, 2)

        s = np.full(n, heston.s0)
        nu = np.full(n, heston.nu0)
        off = _off_grid(grid, s, nu)
        sc, vc = _clamp(grid, s, nu)
        g = grid._bilinear(grid._time_slice(0.0), sc, vc)
        q_o = np.full(n, q_o0, dtype=np.int64)
        z = np.zeros(n)
        acc_h = np.zeros(n)
        acc_u = np.zeros(n)
        acc_pred = np.zeros(n)
        acc_disc = np.zeros(n)
        clipped = 0

        for step in range(n_steps):
            t = times[step]
            c_now, delta, gamma, c_nu = g[:, C], g[:, DELTA], g[:, GAMMA], g[:, C_NU]
            _, _, m = lattice.functionals(sc, vc, t)
            quotes = hedged_book_quotes(q_o, m, arrival)
            if lo == 0:
                trace["t"][step] = t
                trace["s"][step] = s[0]
                trace["nu"][step] = nu[0]
                trace["q_o"][step] = q_o[0]
                trace["a_o"][step], trace["b_o"][step] = quotes[0]
            hit, n_clipped = fills(quotes, uniforms[step].T, arrival, dt)
            clipped += n_clipped
            paid = np.where(hit, quotes, 0.0)
            z += paid[:, 0] + paid[:, 1]
            q_o += hit[:, 1].astype(np.int64) - hit[:, 0].astype(np.int64)

            qf = q_o.astype(np.float64)  # post-fill inventory carries the step
            q_s = hedge_position(qf, delta)
            acc_pred += nu * xi**2 * c_nu**2 * qf**2 * dt
            acc_disc += 0.5 * (gamma * nu * qf) ** 2 * dt**2

            ds, nu = euler_step(s, nu, shocks[step, 0], shocks[step, 1], heston, dt)
            s = s + ds
            off |= _off_grid(grid, s, nu)
            # one lookup at the new state: this step's C and the next step's greeks
            sc, vc = _clamp(grid, s, nu)
            g = grid._bilinear(grid._time_slice(times[step + 1]), sc, vc)
            dc = g[:, C] - c_now
            di_h = q_s * ds + qf * dc
            di_u = qf * dc
            acc_h += di_h**2
            acc_u += di_u**2
        return z, q_o, acc_h, acc_u, acc_pred, acc_disc, off, clipped

    *cols, clipped = zip(*map_blocks(n_paths, paths))
    z, q_o, qv_h, qv_u, acc_pred, acc_disc, off = (np.concatenate(col) for col in cols)
    return HedgedStats(
        n=n_paths,
        z_mean=float(z.mean()),
        q_o_mean=float(q_o.mean()),
        qv_hedged=qv_h,
        qv_unhedged=qv_u,
        qv_rate_real=qv_h / (n_steps * dt),
        qv_rate_pred=acc_pred / (n_steps * dt),
        qv_rate_disc=acc_disc / (n_steps * dt),
        clipped=sum(clipped),
        grid_exits=int(off.sum()),
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
    times = _step_times(T, dt)
    n_steps = len(times) - 1

    def paths(lo: int, hi: int):
        n = hi - lo
        shocks, uniforms = lane_draws(seed, (OPTION_MM_STREAM,), lo, hi, n_steps, 2, 4)

        s = np.full(n, heston.s0)
        nu = np.full(n, heston.nu0)
        off = _off_grid(grid, s, nu)
        sc, vc = _clamp(grid, s, nu)
        c_now = grid._bilinear(grid._time_slice(0.0, PRICE), sc, vc)[:, 0]
        q_s = np.full(n, q_s0, dtype=np.int64)
        q_o = np.full(n, q_o0, dtype=np.int64)
        z = np.zeros(n)
        qv = np.zeros(n)
        clipped = 0

        for step in range(n_steps):
            t = times[step]
            h1, h2, _ = lattice.functionals(sc, vc, t)
            quotes = joint_book_quotes(q_s, q_o, nu, t, T, h1, h2, arrival, heston, risk)
            hit, n_clipped = fills(quotes, uniforms[step].T, arrival, dt)
            clipped += n_clipped
            paid = np.where(hit, quotes, 0.0)
            z += paid[:, 0] + paid[:, 1] + paid[:, 2] + paid[:, 3]
            q_s += hit[:, 1].astype(np.int64) - hit[:, 0].astype(np.int64)
            q_o += hit[:, 3].astype(np.int64) - hit[:, 2].astype(np.int64)

            ds, nu = euler_step(s, nu, shocks[step, 0], shocks[step, 1], heston, dt)
            s = s + ds
            off |= _off_grid(grid, s, nu)
            sc, vc = _clamp(grid, s, nu)  # one lookup: this step's C and the next step's
            c_next = grid._bilinear(grid._time_slice(times[step + 1], PRICE), sc, vc)[:, 0]
            di = q_s.astype(np.float64) * ds + q_o.astype(np.float64) * (c_next - c_now)
            qv += di**2
            c_now = c_next
        return z, q_s, q_o, qv, off, clipped

    *cols, clipped = zip(*map_blocks(n_paths, paths))
    z, q_s, q_o, qv, off = (np.concatenate(col) for col in cols)
    ddof = 1 if n_paths > 1 else 0
    return JointStats(
        n=n_paths,
        z_mean=float(z.mean()),
        z_std=float(z.std(ddof=ddof)),
        q_s_mean=float(q_s.mean()),
        q_o_mean=float(q_o.mean()),
        qv_mean=float(qv.mean()),
        clipped=sum(clipped),
        grid_exits=int(off.sum()),
        z_terminal=z,
        qv_terminal=qv,
    )


def write_lattice_csv(lattice: FunctionalLattice, path) -> None:
    write_table(path, ["s", "nu", "t", "H1", "H2", "M"],
                [lattice.s_nodes[:, None, None], lattice.nu_nodes[None, :, None],
                 lattice.t_nodes[None, None, :], *np.moveaxis(lattice._table, -1, 0)])
