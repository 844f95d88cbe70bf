"""European call pricing under the arithmetic stochastic-volatility model.

The market is incomplete: one arbitrage-free price is selected by the market
price of volatility risk ``eta_nu`` (constant, default 0), which enters the
risk-neutral variance drift as ``theta (alpha - nu) - xi sqrt(nu)
sqrt(1 - rho^2) eta_nu``.  Prices come from a two-factor backward PDE solve
(Douglas dimensional splitting, mixed derivative explicit) with a
risk-neutral Monte Carlo oracle for validation.  Puts follow from parity
``P = C - (s - K)`` (zero rates).  The degenerate constant-variance case has
the arithmetic (Bachelier) closed form, used as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded
from scipy.stats import norm

from . import fd
from .heston import HestonParams, euler_step
from .seeding import PRICING_STREAM, lane_draws, map_blocks
from .table import write_table

__all__ = [
    "PricingConfig",
    "PricingGrid",
    "StabilityError",
    "cell",
    "default_s_grid",
    "default_nu_grid",
    "bachelier_call",
    "solve_call_grid",
    "mc_terminal",
    "mc_price",
    "write_slice_csv",
]


class StabilityError(RuntimeError):
    """Time step too large for the explicitly treated mixed derivative."""


def default_s_grid(heston: HestonParams, T: float, n: int = 161) -> np.ndarray:
    """Price grid spanning s0 +- 8 sqrt(alpha T); negative prices are admitted
    by the arithmetic model."""
    half = 8.0 * math.sqrt(max(heston.alpha, heston.nu0) * T)
    return np.linspace(heston.s0 - half, heston.s0 + half, n)


def default_nu_grid(heston: HestonParams, T: float, n: int = 31) -> np.ndarray:
    hi = max(3.0 * heston.alpha, heston.nu0 + 6.0 * heston.xi * math.sqrt(max(heston.nu0, heston.alpha) * T))
    return np.linspace(0.0, hi, n)


@dataclass(frozen=True)
class PricingConfig:
    """Strike, horizon, volatility risk price and grids for one solve."""

    heston: HestonParams
    strike: float
    T: float
    eta_nu: float = 0.0
    s_grid: tuple = ()
    nu_grid: tuple = ()
    n_time: int = 200

    def __post_init__(self):
        if self.strike <= 0:
            raise ValueError("strike must be positive")
        if self.T <= 0 or self.n_time < 1:
            raise ValueError("T and n_time must be positive")
        if not math.isfinite(self.eta_nu):
            raise ValueError("eta_nu must be finite")
        s = np.asarray(self.s_grid if len(self.s_grid) else default_s_grid(self.heston, self.T))
        v = np.asarray(self.nu_grid if len(self.nu_grid) else default_nu_grid(self.heston, self.T))
        if s.size < 5 or np.any(np.diff(s) <= 0):
            raise ValueError("s_grid must be strictly increasing with at least 5 nodes")
        if v.size < 3 or np.any(np.diff(v) <= 0) or v[0] < 0:
            raise ValueError("nu_grid must be strictly increasing with nu_lo >= 0")
        if not (s[1] < self.strike < s[-2]):
            raise ValueError("strike must lie in the interior of the s grid")
        object.__setattr__(self, "s_grid", tuple(float(x) for x in s))
        object.__setattr__(self, "nu_grid", tuple(float(x) for x in v))

    @property
    def s(self) -> np.ndarray:
        return np.asarray(self.s_grid)

    @property
    def nu(self) -> np.ndarray:
        return np.asarray(self.nu_grid)


def bachelier_call(s: float, strike: float, nu: float, tau: float) -> float:
    """Closed-form arithmetic call with constant variance ``nu``."""
    if tau <= 0 or nu <= 0:
        return max(s - strike, 0.0)
    sd = math.sqrt(nu * tau)
    d = (s - strike) / sd
    return (s - strike) * norm.cdf(d) + sd * norm.pdf(d)


# columns of the stacked greek slices
C, DELTA, GAMMA, C_NU = range(4)
PRICE = slice(C, C + 1)  # the C column alone, as a one-column stack


def cell(grid: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell index and weight of points ``x`` in ``[grid[0], grid[-1]]``.

    The index is the last ``i <= grid.size - 2`` with ``grid[i] <= x`` (what
    ``searchsorted`` gives) and the weight ``(x - grid[i]) / (grid[i + 1] -
    grid[i])``.  Each index is guessed from a uniform spacing and stepped to
    its cell, so any increasing grid gives the exact cell and a uniform one
    takes a single pass.
    """
    last = grid.size - 2
    scale = (last + 1) / (grid[-1] - grid[0])
    i = np.minimum(((x - grid[0]) * scale).astype(np.intp), last)
    while True:
        down = x < grid[i]
        up = (x >= grid[i + 1]) & (i < last)
        if not (down.any() or up.any()):
            return i, (x - grid[i]) / (grid[i + 1] - grid[i])
        i = i - down + up


@dataclass
class PricingGrid:
    """Solved call surface over (s, nu, t) with interpolation and greeks.

    Each time slice of ``values`` is stacked with its greek planes into a
    ``(n_s, n_nu, 4)`` array of (C, delta, gamma, c_nu), filled the first
    time the slice is used; a point lookup then gathers all four at once.
    """

    config: PricingConfig
    s_grid: np.ndarray
    nu_grid: np.ndarray
    times: np.ndarray  # ascending, times[-1] == T
    values: np.ndarray  # (n_s, n_nu, n_t)

    def __post_init__(self):
        n_s, n_nu, n_t = self.values.shape
        # pages of slices never used are never touched and cost no memory
        self._stack = np.empty((n_t, n_s, n_nu, 4))
        self._filled = np.zeros(n_t, dtype=bool)

    def _locate(self, grid: np.ndarray, x: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=np.float64)
        if not np.all((x >= grid[0]) & (x <= grid[-1])):  # also rejects nan
            raise ValueError(f"{name} outside the grid [{grid[0]:.6g}, {grid[-1]:.6g}]")
        return cell(grid, x)

    def _slice(self, it: int) -> np.ndarray:
        """Read-only stacked slice ``it``: (C, delta, gamma, c_nu) planes.
        Central differences inside, one-sided at the edges."""
        out = self._stack[it]
        if not self._filled[it]:
            c = self.values[:, :, it]
            out[:, :, C] = c
            out[:, :, DELTA] = np.gradient(c, self.s_grid, axis=0)
            out[:, :, GAMMA] = np.gradient(out[:, :, DELTA], self.s_grid, axis=0)
            out[:, :, C_NU] = np.gradient(c, self.nu_grid, axis=1)
            self._filled[it] = True
        out.flags.writeable = False
        return out

    def _time_slice(self, t: float, cols: slice = slice(None)) -> np.ndarray:
        """Stacked (n_s, n_nu, 4) slice at time ``t``, blended linearly
        between the two neighbouring stored slices; ``cols`` blends only
        those columns (``PRICE`` for C alone)."""
        it, wt = self._locate(self.times, np.asarray(t), "t")
        it, wt = int(it), float(wt)
        if wt == 0.0:
            return self._slice(it)[:, :, cols]
        return (1.0 - wt) * self._slice(it)[:, :, cols] + wt * self._slice(it + 1)[:, :, cols]

    def _bilinear(self, plane: np.ndarray, s, nu):
        """Bilinear interpolation at (s, nu) of every column of a stacked
        slice, with one s- and one nu-lookup."""
        i, wi = self._locate(self.s_grid, s, "s")
        j, wj = self._locate(self.nu_grid, nu, "nu")
        n_nu = self.nu_grid.size
        k = i * n_nu + j  # flat index of the lower corner
        flat = plane.reshape(-1, plane.shape[-1])
        wi, wj = wi[..., None], wj[..., None]
        return ((1 - wi) * (1 - wj) * flat.take(k, axis=0)
                + wi * (1 - wj) * flat.take(k + n_nu, axis=0)
                + (1 - wi) * wj * flat.take(k + 1, axis=0)
                + wi * wj * flat.take(k + n_nu + 1, axis=0))

    def price(self, s, nu, t: float):
        """Call price by bilinear interpolation on the time-interpolated slice."""
        out = self._bilinear(self._time_slice(t), s, nu)[..., C]
        return float(out) if np.ndim(out) == 0 else out

    def put(self, s, nu, t: float):
        """Put via parity ``P = C - (s - K)`` (zero rates)."""
        s = np.asarray(s, dtype=np.float64)
        out = self.price(s, nu, t) - (s - self.config.strike)
        return float(out) if np.ndim(out) == 0 else out

    def greek_planes(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Node values of (delta, gamma, c_nu) on the slice at time ``t``;
        between stored slices, the blend of their planes."""
        plane = self._time_slice(t)
        return plane[:, :, DELTA], plane[:, :, GAMMA], plane[:, :, C_NU]

    def greeks(self, s, nu, t: float):
        """(delta, gamma, c_nu) interpolated at (s, nu, t); rejects points
        outside the grid and non-finite points."""
        out = self._bilinear(self._time_slice(t), s, nu)
        if out.ndim == 1:
            return tuple(float(v) for v in out[DELTA:])
        return out[..., DELTA], out[..., GAMMA], out[..., C_NU]


def _nu_operator(config: PricingConfig):
    heston = config.heston
    v = config.nu
    drift = heston.theta * (heston.alpha - v) \
        - heston.xi * np.sqrt(v) * math.sqrt(1.0 - heston.rho**2) * config.eta_nu
    diffusion = 0.5 * heston.xi**2 * v
    return fd.operator_diagonals(v, drift, diffusion)


def solve_call_grid(config: PricingConfig) -> PricingGrid:
    """Backward Douglas splitting solve from the terminal payoff.

    The one-dimensional s- and nu-operators are treated implicitly; the mixed
    derivative term is explicit, with a conservative step bound checked up
    front.  Far-field Dirichlet boundaries in s (0 deep out of the money,
    ``s - K`` deep in); the nu boundaries use one-sided first derivatives and
    zero second derivative, which at ``nu = 0`` reduces the equation to
    ``C_t + theta alpha C_nu = 0``.
    """
    s, v = config.s, config.nu
    heston = config.heston
    ns, nv = s.size, v.size
    dt = config.T / config.n_time

    ds_min = float(np.min(np.diff(s)))
    dv_min = float(np.min(np.diff(v)))
    mixed_rate = abs(heston.rho) * heston.xi * float(v[-1]) / (4.0 * ds_min * dv_min)
    if mixed_rate > 0 and dt > 1.0 / mixed_rate:
        raise StabilityError(
            f"dt={dt:.3e} exceeds the mixed-term bound {1.0 / mixed_rate:.3e}; "
            f"increase n_time to at least {math.ceil(config.T * mixed_rate)}"
        )

    # s-operator: 0.5 * nu * C_ss, one tridiagonal per variance level
    d2 = fd.operator_diagonals(s, 0.0, 1.0)  # unit-diffusion second derivative
    s_lower = np.zeros((nv, ns))
    s_diag = np.zeros((nv, ns))
    s_upper = np.zeros((nv, ns))
    for j in range(nv):
        coef = 0.5 * v[j]
        s_lower[j], s_diag[j], s_upper[j] = coef * d2[0], coef * d2[1], coef * d2[2]
        s_lower[j][[0, -1]] = s_diag[j][[0, -1]] = s_upper[j][[0, -1]] = 0.0  # Dirichlet rows

    nu_l, nu_d, nu_u = _nu_operator(config)

    # implicit factors (banded form), one per direction
    half = 0.5 * dt
    ab_s = []
    for j in range(nv):
        ab = fd.to_banded(-half * s_lower[j], 1.0 - half * s_diag[j], -half * s_upper[j])
        ab[1, 0] = ab[1, -1] = 1.0
        ab[0, 1] = ab[2, -2] = 0.0
        ab_s.append(ab)
    ab_v = fd.to_banded(-half * nu_l, 1.0 - half * nu_d, -half * nu_u)

    bc_lo = 0.0
    bc_hi = s[-1] - config.strike

    def apply_s(c):
        out = s_diag.T * c
        out[1:, :] += s_lower.T[1:, :] * c[:-1, :]
        out[:-1, :] += s_upper.T[:-1, :] * c[1:, :]
        return out

    def apply_v(c):
        return fd.apply_tridiagonal((nu_l, nu_d, nu_u), c, axis=1)

    def apply_mixed(c):
        out = np.zeros_like(c)
        dcds = np.gradient(c, s, axis=0)
        d2 = np.gradient(dcds, v, axis=1)
        out[1:-1, :] = (heston.rho * heston.xi * v[None, :] * d2)[1:-1, :]
        return out

    c = np.maximum(s[:, None] - config.strike, 0.0) * np.ones((1, nv))
    n_t = config.n_time + 1
    values = np.empty((ns, nv, n_t))
    values[:, :, -1] = c

    for step in range(config.n_time):
        rhs_full = c + dt * (apply_s(c) + apply_v(c) + apply_mixed(c))
        # s-direction correction and solve (per variance level)
        y = rhs_full - half * apply_s(c)
        y[0, :] = bc_lo
        y[-1, :] = bc_hi
        y1 = np.empty_like(y)
        for j in range(nv):
            y1[:, j] = solve_banded((1, 1), ab_s[j], y[:, j])
        # nu-direction correction and solve (all s rows at once)
        y2 = y1 - half * apply_v(c)
        y2 = solve_banded((1, 1), ab_v, y2.T).T
        y2[0, :] = bc_lo
        y2[-1, :] = bc_hi
        c = y2
        if not np.all(np.isfinite(c)):
            raise StabilityError(f"non-finite values at backward step {step + 1}")
        values[:, :, n_t - 2 - step] = c

    times = np.linspace(0.0, config.T, n_t)
    return PricingGrid(config=config, s_grid=s, nu_grid=v, times=times, values=values)


def mc_terminal(
    config: PricingConfig,
    s: float,
    nu: float,
    t: float = 0.0,
    n_paths: int = 100_000,
    seed: int = 0,
    dt_target: float = 0.005,
) -> np.ndarray:
    """Terminal stock samples under the pricing measure from state (s, nu, t).

    Full-truncation Euler (``heston.euler_step``): the stock has zero drift,
    the variance drift carries the ``eta_nu`` adjustment.  A non-finite
    ``s`` or ``nu``, or a negative ``nu``, raises ``ValueError``.
    """
    if not (math.isfinite(s) and math.isfinite(nu)) or nu < 0:
        raise ValueError(f"start (s, nu) = ({s}, {nu}) must be finite with nu >= 0")
    tau = config.T - t
    if tau < 0:
        raise ValueError("t beyond maturity")
    if tau == 0:
        return np.full(n_paths, float(s))
    n_steps = max(1, round(tau / dt_target))
    dt = tau / n_steps
    heston = config.heston
    risk_adj = heston.xi * math.sqrt(1.0 - heston.rho**2) * config.eta_nu

    def paths(lo: int, hi: int) -> np.ndarray:
        shocks = np.empty((hi - lo, n_steps, 2))
        lane_draws(seed, (PRICING_STREAM,), lo, hi, shocks)
        s_arr = np.full(hi - lo, float(s))
        v_arr = np.full(hi - lo, float(nu))
        for step in range(n_steps):
            ds, v_arr = euler_step(s_arr, v_arr, shocks[:, step, 0], shocks[:, step, 1],
                                   heston, dt, risk_adj)
            s_arr = s_arr + ds
        return s_arr

    return np.concatenate(map_blocks(n_paths, paths))


def mc_price(
    config: PricingConfig,
    s: float,
    nu: float,
    t: float = 0.0,
    n_paths: int = 100_000,
    seed: int = 0,
    dt_target: float = 0.005,
) -> tuple[float, float]:
    """Risk-neutral Monte Carlo call price: sample mean and standard error."""
    if n_paths < 1000:
        raise ValueError("n_paths must be at least 1000")
    s_term = mc_terminal(config, s, nu, t, n_paths, seed, dt_target)
    payoff = np.maximum(s_term - config.strike, 0.0)
    return float(payoff.mean()), float(payoff.std(ddof=1) / math.sqrt(n_paths))


def write_slice_csv(grid: PricingGrid, path, t_values=None) -> None:
    """Price/greek slices, one row per (t, s, nu) node."""
    t_values = np.asarray([grid.times[0]] if t_values is None else t_values, dtype=np.float64)
    greeks = np.stack([grid.greek_planes(t) for t in t_values], axis=1)  # delta, gamma, c_nu
    c = np.stack([grid._time_slice(t)[:, :, C] for t in t_values])
    write_table(path, ["s", "nu", "t", "C", "P", "delta", "gamma", "c_nu"],
                [grid.s_grid[None, :, None], grid.nu_grid[None, None, :], t_values[:, None, None],
                 c, c - (grid.s_grid[:, None] - grid.config.strike), *greeks])
