"""Option market-making policies.

Two books are supported.  The joint book quotes around both the stock and the
option mid simultaneously; its tilt functionals are

    H1 = -gamma     E[ integral of nu (Delta + rho xi C_nu) ]
    H2 = -gamma / 2 E[ integral of nu (Delta^2 + 2 rho xi Delta C_nu + xi^2 C_nu^2) ].

The delta-hedged book quotes only the option while holding ``q_s = -q_o Delta``
in stock continuously; its single functional is

    M = -(gamma / 2) xi^2 E[ integral of nu C_nu^2 ].

All three are path integrals of greeks under the real-world dynamics, solved
on the pricing grid by Feynman-Kac and cached on a coarse lattice, in one
time-major table of (s, nu) planes like the grid's greek slices, for use
inside simulations.  The integrands come from ``_integrands``; the tests'
Monte Carlo oracle (``tests/oracles.py``) integrates the same ones along
``_walk``.

Both books read ``heston.walk`` through ``_walk``, which only gathers it
``CHUNK`` steps at a time for one grid and one lattice read per chunk; each
book also draws its shocks and fill uniforms ``CHUNK`` steps at a time.
Only the quotes and the book step ``intensity.trade`` (fills, premium income,
inventory) run step by step.  The reads find cells with ``option_pricing.cell``,
a checked uniform-spacing guess that falls back to ``searchsorted``: exact on
any grid, dearer on a stretched one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .heston import HestonParams, step_count, walk
from .intensity import ArrivalParams, trade
from .option_pricing import C, C_NU, DELTA, GAMMA, PRICE, PricingGrid, bilinear, cell, douglas_steps
from .quotes import RiskParams, inventory_coefficient, tilt
from .seeding import OPTION_MM_STREAM, lane_draws, map_blocks, os_array
from .table import write_table

__all__ = [
    "FunctionalLattice",
    "joint_book_quotes",
    "hedged_book_quotes",
    "run_hedged_paths",
    "run_joint_paths",
    "HedgedStats",
    "JointStats",
    "write_lattice_csv",
]


CHUNK = 8  # steps per batched grid and lattice read of the market walk, and per book draw


def _integrands(delta, c_nu, heston: HestonParams) -> np.ndarray:
    """The three integrands over ``nu``, stacked on a new first axis: ``Delta + rho xi C_nu``,
    ``Delta^2 + 2 rho xi Delta C_nu + xi^2 C_nu^2`` and ``C_nu^2``."""
    rho, xi = heston.rho, heston.xi
    return np.stack((delta + rho * xi * c_nu,
                     delta**2 + 2.0 * rho * xi * delta * c_nu + xi**2 * c_nu**2,
                     c_nu**2))


@dataclass
class FunctionalLattice:
    """(H1, H2, M) on a coarse (s, nu, t) lattice, interpolated linearly
    in t, then bilinearly in (s, nu), during simulations.

    ``table[k]`` is time node ``k``: an ``(n_s, n_nu, 3)`` plane of (H1, H2,
    M), laid out like a slice of the pricing grid's derived greek planes.
    """

    s_nodes: np.ndarray
    nu_nodes: np.ndarray
    t_nodes: np.ndarray
    table: np.ndarray  # (n_t, n_s, n_nu, 3)

    def __post_init__(self):
        for nodes in (self.s_nodes, self.nu_nodes, self.t_nodes):
            if nodes.ndim != 1 or nodes.size < 2 or np.any(np.diff(nodes) <= 0):
                raise ValueError("lattice nodes must be strictly ascending, at least 2 per axis")
        shape = (self.t_nodes.size, self.s_nodes.size, self.nu_nodes.size, 3)
        if self.table.shape != shape:
            raise ValueError(f"the functional table must have shape {shape}")

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

        def source(it: int) -> np.ndarray:
            planes = grid._planes(it)
            return grid.nu_grid * _integrands(planes[..., DELTA], planes[..., C_NU], heston)

        at_nodes = np.zeros((grid.times.size, s_nodes.size, nu_nodes.size, 3))  # u(T) = 0
        u = np.zeros((3,) + grid.values.shape[1:])
        real_world = replace(grid.config, heston=heston, eta_nu=0.0)
        for back, u in enumerate(douglas_steps(real_world, u, source), 2):
            at_nodes[-back] = bilinear(np.moveaxis(u, 0, -1), i, wi, j, wj)
        wk = wk[:, None, None, None]
        u_t = (1.0 - wk) * at_nodes[k] + wk * at_nodes[k + 1]
        # 0.0 - x turns -0.0 into +0.0 and leaves every other value as -x
        return cls(s_nodes, nu_nodes, t_nodes,
                   0.0 - np.array([1.0, 0.5, 0.5 * heston.xi**2]) * risk.gamma * u_t)

    def functionals(self, s, nu, t):
        """(H1, H2, M) at ``(K, n)`` points ``(s, nu)``, row ``r`` at time
        ``t[r]``, clipped to the node box: each row's plane is the table
        blended linearly at its time, read bilinearly through the pricer's
        kernel ``option_pricing.bilinear``.  Returns three ``(K, n)`` arrays."""
        s, nu, t = (np.clip(x, nodes[0], nodes[-1]) for nodes, x in
                    ((self.s_nodes, s), (self.nu_nodes, nu), (self.t_nodes, t)))
        k, wk = cell(self.t_nodes, t)
        wk = wk[:, None, None, None]
        planes = (1.0 - wk) * self.table[k] + wk * self.table[k + 1]
        out = bilinear(planes, *cell(self.s_nodes, s), *cell(self.nu_nodes, nu))
        return out[..., 0], out[..., 1], out[..., 2]


def joint_book_quotes(q_s, q_o, nu, t, T: float, h1, h2,
                      arrival: ArrivalParams, heston: HestonParams, risk: RiskParams):
    """Premiums of the joint book, vectorized over paths: the last axis
    holds (ask stock, bid stock, ask option, bid option).

    Each asset is quoted by ``quotes.tilt``, the stock with the inventory
    coefficient and the option with ``-H2``, and each quote moves by the
    cross term ``-+ H1`` times the other asset's holding.  Clearing fees are
    zero in the option setting, so ``beta`` is absent.
    """
    q_s = np.asarray(q_s, dtype=np.float64)
    q_o = np.asarray(q_o, dtype=np.float64)
    a_s, b_s = tilt(q_s, inventory_coefficient(nu, t, T, heston, risk), arrival)
    a_o, b_o = tilt(q_o, -h2, arrival)
    return np.stack((a_s + h1 * q_o, b_s - h1 * q_o, a_o + h1 * q_s, b_o - h1 * q_s), axis=-1)


def hedged_book_quotes(q_o, m, arrival: ArrivalParams):
    """Option premiums of the delta-hedged book, ``quotes.tilt`` with the
    coefficient ``-M``, vectorized over paths: the last axis holds (ask, bid)."""
    return np.stack(tilt(q_o, -m, arrival), axis=-1)


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


def _walk(grid: PricingGrid, heston: HestonParams, draws, n: int, times, dt: float,
          s0: float, nu0: float, cols: slice = slice(None), lattice: FunctionalLattice | None = None):
    """The market of one block of ``n`` paths, ``CHUNK`` steps at a time.

    Step ``k`` moves every path from ``times[k]`` to ``times[k + 1]`` by
    step ``k`` of ``heston.walk`` over the ``seeding.lane_draws`` chunks
    ``draws`` with ``dt``, from ``(s0, nu0)`` at ``times[0]``.  For each
    chunk of steps ``a..a+K-1`` it yields ``(a, s, nu, ds, u, g, h,
    outside)``, where row ``r`` of ``s``, ``nu``, ``g`` and ``outside`` is
    state ``a + r`` (``K + 1`` rows, the first shared with the previous
    chunk) and row ``r`` of ``ds``, ``u`` (the step's uniforms) and ``h`` is
    step ``a + r``:

    - ``g``: the grid columns ``cols`` at each state clamped to the grid, at
      its time; every state after the first is read once, in one batched
      read per chunk at the step ends;
    - ``h``: ``lattice.functionals`` at each step's clamped start state and
      time, in one read per chunk (``None`` without a lattice);
    - ``outside``: the states off the grid, read at its edge.

    Nothing here depends on a book, so every consumer sees the same market
    for the same shocks.
    """
    times = np.asarray(times)
    n_steps = times.size - 1
    s_end, nu_end = np.full(n, float(s0)), np.full(n, float(nu0))
    first = grid._time_slice(times[0], cols)
    g_end = grid._bilinear(first, *grid.clamp(s_end, nu_end)[:2])
    slab = os_array((min(CHUNK, n_steps),) + first.shape)  # one chunk's time slices
    steps = walk(heston, draws, dt, nu0)
    for a in range(0, n_steps, CHUNK):
        k = min(CHUNK, n_steps - a)
        s, nu, ds, u = np.empty((k + 1, n)), np.empty((k + 1, n)), np.empty((k, n)), []
        s[0], nu[0] = s_end, nu_end
        for r in range(k):
            _, ds[r], nu[r + 1], u_r = next(steps)
            u.append(u_r)
            s[r + 1] = s[r] + ds[r]
        sc, vc, outside = grid.clamp(s, nu)
        g = np.empty((k + 1,) + g_end.shape)
        g[0] = g_end
        for r in range(k):
            slab[r] = grid._time_slice(times[a + 1 + r], cols)
        g[1:] = grid._bilinear(slab[:k], sc[1:], vc[1:])
        h = None if lattice is None else lattice.functionals(sc[:-1], vc[:-1], times[a:a + k])
        yield a, s, nu, ds, u, g, h, outside
        s_end, nu_end, g_end = s[-1], nu[-1], g[-1]


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
        draws = lane_draws(seed, (OPTION_MM_STREAM,), lo, hi, n_steps, 2, 2, chunk=CHUNK)
        q_o = np.full(n, q_o0, dtype=np.int64)
        z = np.zeros(n)
        acc_h = np.zeros(n)
        acc_u = np.zeros(n)
        acc_pred = np.zeros(n)
        acc_disc = np.zeros(n)
        off = np.zeros(n, dtype=bool)
        clipped = 0

        for a, s, nu, ds, u, g, (_, _, m), outside in _walk(grid, heston, draws, n, times, dt,
                                                           heston.s0, heston.nu0, lattice=lattice):
            off |= outside.any(axis=0)
            for r in range(ds.shape[0]):
                step = a + r
                c_now, delta, gamma, c_nu = g[r, :, C], g[r, :, DELTA], g[r, :, GAMMA], g[r, :, C_NU]
                quotes = hedged_book_quotes(q_o, m[r], arrival)
                if lo == 0:
                    trace["t"][step] = times[step]
                    trace["s"][step] = s[r, 0]
                    trace["nu"][step] = nu[r, 0]
                    trace["q_o"][step] = q_o[0]
                    trace["a_o"][step], trace["b_o"][step] = quotes[0]
                _, income, dq, n_clipped = trade(quotes, u[r].T, arrival, dt)
                clipped += n_clipped
                z += income
                q_o += dq[:, 0]

                qf = q_o.astype(np.float64)  # post-fill inventory carries the step
                q_s = -qf * delta  # the delta hedge
                acc_pred += nu[r] * xi**2 * c_nu**2 * qf**2 * dt
                acc_disc += 0.5 * (gamma * nu[r] * qf) ** 2 * dt**2
                dc = g[r + 1, :, C] - c_now
                di_h = q_s * ds[r] + qf * dc
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
        draws = lane_draws(seed, (OPTION_MM_STREAM,), lo, hi, n_steps, 2, 4, chunk=CHUNK)
        q_s = np.full(n, q_s0, dtype=np.int64)
        q_o = np.full(n, q_o0, dtype=np.int64)
        z = np.zeros(n)
        qv = np.zeros(n)
        off = np.zeros(n, dtype=bool)
        clipped = 0

        for a, _, nu, ds, u, g, (h1, h2, _), outside in _walk(grid, heston, draws, n, times, dt,
                                                             heston.s0, heston.nu0, PRICE, lattice):
            off |= outside.any(axis=0)
            for r in range(ds.shape[0]):
                step = a + r
                quotes = joint_book_quotes(q_s, q_o, nu[r], times[step], T, h1[r], h2[r],
                                           arrival, heston, risk)
                _, income, dq, n_clipped = trade(quotes, u[r].T, arrival, dt)
                clipped += n_clipped
                z += income
                q_s += dq[:, 0]
                q_o += dq[:, 1]
                di = (q_s.astype(np.float64) * ds[r]
                      + q_o.astype(np.float64) * (g[r + 1, :, 0] - g[r, :, 0]))
                qv += di**2
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
                 lattice.t_nodes[None, None, :], *lattice.table.transpose(3, 1, 2, 0)])
