"""European call pricing under the arithmetic stochastic-volatility model.

The market is incomplete: one arbitrage-free price is selected by the market
price of volatility risk ``eta_nu`` (constant, default 0), which enters the
risk-neutral variance drift as ``theta (alpha - nu) - xi sqrt(nu)
sqrt(1 - rho^2) eta_nu``.  Prices come from a two-factor backward PDE solve
(Douglas dimensional splitting, mixed derivative explicit) with a
risk-neutral Monte Carlo oracle for validation (conditional on each path's
variance shocks, with a martingale control).  Puts follow from parity
``P = C - (s - K)`` (zero rates).  The degenerate constant-variance case has
the arithmetic (Bachelier) closed form, used as an independent oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import fd
from .fd import solve_banded
from .heston import HestonParams, variance_operator, walk
from .seeding import DEFAULT_BLOCK, PRICING_PILOT_STREAM, PRICING_STREAM, lane_draws, map_blocks, os_array
from .table import write_table

__all__ = [
    "PricingConfig",
    "PricingGrid",
    "StabilityError",
    "bilinear",
    "cell",
    "default_s_grid",
    "default_nu_grid",
    "bachelier_call",
    "douglas_steps",
    "solve_call_grid",
    "mc_terminal",
    "mc_price",
    "write_slice_csv",
]


class StabilityError(RuntimeError):
    """Time step too large for the explicitly treated mixed derivative, or
    non-finite values in a backward solve."""


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
        for name in ("T", "eta_nu"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.strike <= 0:
            raise ValueError("strike must be positive")
        if self.T <= 0 or self.n_time < 1:
            raise ValueError("T and n_time must be positive")
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


_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _bachelier(x, var):
    """``E[max(X, 0)]`` for ``X ~ N(x, var)``, elementwise: ``x N(d) +
    sd n(d)`` with ``sd = sqrt(var)`` and ``d = x / sd``, and the intrinsic
    value ``max(x, 0)`` where ``var`` is 0."""
    from scipy.special import ndtr
    sd = np.sqrt(var)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = x / sd
        value = x * ndtr(d) + sd * (np.exp(-d**2 / 2.0) / _SQRT_2PI)
    return np.where(sd > 0, value, np.maximum(x, 0.0))


def bachelier_call(s: float, strike: float, nu: float, tau: float) -> float:
    """Closed-form arithmetic call with constant variance ``nu``."""
    return float(_bachelier(s - strike, max(nu, 0.0) * max(tau, 0.0)))


# columns of the stacked greek slices
C, DELTA, GAMMA, C_NU = range(4)
PRICE = slice(C, C + 1)  # the C column alone, as a one-column stack


def cell(grid: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell index and weight of points ``x`` in ``[grid[0], grid[-1]]``: the
    index is the last ``i <= grid.size - 2`` with ``grid[i] <= x``, as
    ``searchsorted`` finds it, and the weight ``(x - grid[i]) / (grid[i + 1] -
    grid[i])``.

    The index is first guessed as if the grid were uniform and kept where
    ``grid[i] <= x < grid[i + 1]``; only the points that check misses (a
    point on the last node, or a guess off by rounding or by a non-uniform
    spacing) go through ``searchsorted``.  The result is exact on any
    strictly increasing grid; a grid far from uniform pays for the guess and
    the search.
    """
    last = grid.size - 2
    guess = np.fmax(np.fmin((x - grid[0]) * ((last + 1) / (grid[-1] - grid[0])), last), 0.0)
    i = guess.astype(np.intp)
    lo, hi = grid[i], grid[1:][i]
    miss = (x < lo) | (x >= hi)
    if miss.any():
        if np.ndim(i) == 0:
            i = np.minimum(np.searchsorted(grid, x, "right") - 1, last)
        else:
            i[miss] = np.minimum(np.searchsorted(grid, x[miss], "right") - 1, last)
        lo, hi = grid[i], grid[1:][i]
    return i, (x - lo) / (hi - lo)


def bilinear(plane: np.ndarray, i, wi, j, wj) -> np.ndarray:
    """Every column of a stacked ``(n_x, n_y, m)`` plane blended bilinearly
    in the cells ``(i, j)`` with weights ``(wi, wj)``, as ``cell`` gives them.
    A ``(K, n_x, n_y, m)`` slab of planes is read row by row: the points then
    have K leading rows, and row ``r`` reads plane ``r``."""
    n_x, n_y = plane.shape[-3:-1]
    k = i * n_y + j  # flat index of the lower corner
    if plane.ndim == 4:
        k = k + n_x * n_y * np.arange(plane.shape[0]).reshape((-1,) + (1,) * (np.ndim(k) - 1))
    flat = plane.reshape(-1, plane.shape[-1])
    wi, wj = wi[..., None], wj[..., None]
    return ((1 - wi) * (1 - wj) * flat.take(k, axis=0)
            + wi * (1 - wj) * flat.take(k + n_y, axis=0)
            + (1 - wi) * wj * flat.take(k + 1, axis=0)
            + wi * wj * flat.take(k + n_y + 1, axis=0))


@dataclass
class PricingGrid:
    """Solved call surface over (s, nu, t) with interpolation and greeks.

    ``stack[it]`` is time slice ``it``: read-only ``(n_s, n_nu, 4)`` planes
    of (C, delta, gamma, c_nu), all written by ``solve_call_grid``; a point
    lookup gathers all four at once.
    """

    config: PricingConfig
    s_grid: np.ndarray
    nu_grid: np.ndarray
    times: np.ndarray  # ascending, times[-1] == T
    stack: np.ndarray  # (n_t, n_s, n_nu, 4)

    def _locate(self, grid: np.ndarray, x: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=np.float64)
        if not np.all((x >= grid[0]) & (x <= grid[-1])):  # also rejects nan
            raise ValueError(f"{name} outside the grid [{grid[0]:.6g}, {grid[-1]:.6g}]")
        return cell(grid, x)

    def _time_slice(self, t: float, cols: slice = slice(None)) -> np.ndarray:
        """Stacked (n_s, n_nu, 4) slice at time ``t``, blended linearly
        between the two neighbouring stored slices; ``cols`` blends only
        those columns (``PRICE`` for C alone)."""
        it, wt = self._locate(self.times, np.asarray(t), "t")
        it, wt = int(it), float(wt)
        if wt == 0.0:
            return self.stack[it, :, :, cols]
        return (1.0 - wt) * self.stack[it, :, :, cols] + wt * self.stack[it + 1, :, :, cols]

    def clamp(self, s: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The state clamped to the grid, where a path reads it, and the mask
        of states outside it (non-finite ones included), whose prices and
        greeks are then read at its edge."""
        sc = np.clip(s, self.s_grid[0], self.s_grid[-1])
        vc = np.clip(nu, self.nu_grid[0], self.nu_grid[-1])
        return sc, vc, (sc != s) | (vc != nu)

    def _bilinear(self, plane: np.ndarray, s, nu):
        """Bilinear interpolation at (s, nu) of every column of a stacked
        slice, with one s- and one nu-lookup.  ``plane`` may be a
        ``(K, n_s, n_nu, m)`` slab of ``_time_slice`` slices, read with
        ``(K, ...)`` points, row ``r`` on slice ``r``."""
        return bilinear(plane, *self._locate(self.s_grid, s, "s"),
                        *self._locate(self.nu_grid, nu, "nu"))

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


def douglas_steps(config: PricingConfig, u: np.ndarray, source=None, edges=None):
    """Backward Douglas splitting steps of ``u_t + L u + f = 0`` from ``u``,
    a stack shaped ``(..., n_s, n_nu)`` at maturity, with ``L`` the pricer's
    operator under ``config``; yields ``u`` at each earlier stored time, down
    to ``t = 0``.

    The s- and nu-operators are implicit, applied and solved through ``fd``
    with ``fd.implicit`` factors: in s one operator per variance level, on the
    swapped view; in nu ``heston.variance_operator`` under ``eta_nu``.  The
    mixed derivative term is explicit, with a conservative step bound checked
    up front.  The nu boundaries use one-sided first derivatives and zero
    second derivative.
    ``source(it)`` is ``f`` at stored time ``it``, applied as a trapezoid in
    t.  ``edges`` are Dirichlet values ``(lo, hi)`` of the s-edge rows;
    without them those rows evolve by the nu-operator and the source alone,
    since the s- and mixed operators vanish there.
    """
    s, v = config.s, config.nu
    heston = config.heston
    dt = config.T / config.n_time

    ds_min = float(np.min(np.diff(s)))
    dv_min = float(np.min(np.diff(v)))
    mixed_rate = abs(heston.rho) * heston.xi * float(v[-1]) / (4.0 * ds_min * dv_min)
    if mixed_rate > 0 and dt > 1.0 / mixed_rate:
        raise StabilityError(
            f"dt={dt:.3e} exceeds the mixed-term bound {1.0 / mixed_rate:.3e}; "
            f"increase n_time to at least {math.ceil(config.T * mixed_rate)}"
        )

    # s-operator 0.5 * nu * C_ss: one per variance level and right-hand side, as the swapped stack
    d2 = np.stack(fd.operator_diagonals(s, 0.0, 1.0))  # unit-diffusion second derivative
    d2[:, [0, -1]] = 0.0  # the s-edge rows: identity rows of the implicit factor
    s_ops = tuple(np.broadcast_to((0.5 * v)[:, None] * d, (*u.shape[:-2], v.size, s.size)) for d in d2)
    nu_ops = variance_operator(heston, v, config.eta_nu)
    mixed = heston.rho * heston.xi * v
    half = 0.5 * dt
    factor_s, factor_v = fd.implicit(s_ops, dt), fd.implicit(nu_ops, dt)

    def apply_mixed(c):
        out = mixed * np.gradient(np.gradient(c, s, axis=-2), v, axis=-1)
        out[..., [0, -1], :] = 0.0
        return out

    c = u
    f_next = None if source is None else source(config.n_time)
    for step in range(config.n_time):
        a_s = np.swapaxes(fd.apply_tridiagonal(s_ops, np.swapaxes(c, -1, -2)), -1, -2)
        a_v = fd.apply_tridiagonal(nu_ops, c)
        y = c + dt * (a_s + a_v + apply_mixed(c))
        if source is not None:
            f_now = source(config.n_time - 1 - step)
            y += half * (f_now + f_next)
            f_next = f_now
        # s-direction correction and solve (every variance level at once)
        y -= half * a_s
        if edges is not None:
            y[..., 0, :], y[..., -1, :] = edges
        y = np.swapaxes(solve_banded(factor_s, np.swapaxes(y, -1, -2)), -1, -2)
        # nu-direction correction and solve (all s rows at once)
        c = solve_banded(factor_v, y - half * a_v)
        if edges is not None:
            c[..., 0, :], c[..., -1, :] = edges
        if not np.all(np.isfinite(c)):
            raise StabilityError(f"non-finite values at backward step {step + 1}")
        yield c


def solve_call_grid(config: PricingConfig) -> PricingGrid:
    """The call surface: ``douglas_steps`` from the terminal payoff, with
    far-field Dirichlet boundaries in s (0 deep out of the money, ``s - K``
    deep in).  At ``nu = 0`` the equation reduces to ``C_t + theta alpha
    C_nu = 0``.  Each slice is stored with its greek planes as it is solved.
    """
    s, v = config.s, config.nu
    c = np.maximum(s[:, None] - config.strike, 0.0) * np.ones((1, v.size))
    n_t = config.n_time + 1
    stack = os_array((n_t, s.size, v.size, 4))
    slices = douglas_steps(config, c, edges=(0.0, s[-1] - config.strike))
    for back, c in enumerate(itertools.chain([c], slices), 1):
        # central differences inside, one-sided at the edges
        out = stack[-back]
        out[:, :, C] = c
        out[:, :, DELTA] = np.gradient(c, s, axis=0)
        out[:, :, GAMMA] = np.gradient(out[:, :, DELTA], s, axis=0)
        out[:, :, C_NU] = np.gradient(c, v, axis=1)
    stack.flags.writeable = False
    times = np.linspace(0.0, config.T, n_t)
    return PricingGrid(config=config, s_grid=s, nu_grid=v, times=times, stack=stack)


def _euler_steps(config: PricingConfig, s: float, nu: float, t: float,
                 dt_target: float) -> tuple[int, float]:
    """Number and length of the Euler steps from ``t`` to maturity, ``(0,
    0.0)`` at maturity.  A non-finite ``s`` or ``nu``, a negative ``nu`` or
    a ``t`` beyond maturity raises ``ValueError``."""
    if not (math.isfinite(s) and math.isfinite(nu)) or nu < 0:
        raise ValueError(f"start (s, nu) = ({s}, {nu}) must be finite with nu >= 0")
    tau = config.T - t
    if tau < 0:
        raise ValueError("t beyond maturity")
    if tau == 0:
        return 0, 0.0
    n_steps = max(1, round(tau / dt_target))
    return n_steps, tau / n_steps


def _risk_adj(config: PricingConfig) -> float:
    """``euler_step``'s variance-drift adjustment under the pricing measure."""
    return config.heston.xi * math.sqrt(1.0 - config.heston.rho**2) * config.eta_nu


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

    Full-truncation Euler (``heston.walk``): the stock has zero drift,
    the variance drift carries the ``eta_nu`` adjustment.  A non-finite
    ``s`` or ``nu``, or a negative ``nu``, raises ``ValueError``.
    """
    n_steps, dt = _euler_steps(config, s, nu, t, dt_target)
    if n_steps == 0:
        return np.full(n_paths, float(s))
    risk_adj = _risk_adj(config)

    def paths(lo: int, hi: int) -> np.ndarray:
        draws = lane_draws(seed, (PRICING_STREAM,), lo, hi, n_steps, 2)
        s_arr = np.full(hi - lo, float(s))
        for _, ds, _, _ in walk(config.heston, draws, dt, nu, risk_adj):
            s_arr = s_arr + ds
        return s_arr

    return np.concatenate(map_blocks(n_paths, paths))


def _conditional_paths(config: PricingConfig, s: float, nu: float, n_steps: int, dt: float,
                       seed: int, stream: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Conditional call values and controls of paths ``lo..hi-1`` of ``stream``.

    Each path draws only its variance shocks ``z`` and steps the variance
    with ``heston.walk``; passing ``z`` as the stock shock with ``rho = 1``
    makes the step's ``ds`` equal ``sqrt(nu) z sqrt(dt)``.  With ``m`` the
    sum of those and ``I`` the sum of ``nu dt`` (``nu >= 0`` throughout),
    ``S_T`` is normal given the path, with mean ``s + rho m`` and variance
    ``(1 - rho^2) I``.  Returns the Bachelier call value under that law and
    the mean-zero control ``m``.
    """
    rho = config.heston.rho
    variance_only = replace(config.heston, rho=1.0)
    risk_adj = _risk_adj(config)
    draws = lane_draws(seed, (stream,), lo, hi, n_steps, 1)
    m = np.zeros(hi - lo)
    nu_sum = np.zeros(hi - lo)
    for v, dm, _, _ in walk(variance_only, draws, dt, nu, risk_adj):
        nu_sum += v
        m += dm
    value = _bachelier(s + rho * m - config.strike, (1.0 - rho**2) * dt * nu_sum)
    return value, m


def mc_price(
    config: PricingConfig,
    s: float,
    nu: float,
    t: float = 0.0,
    n_paths: int = 100_000,
    seed: int = 0,
    dt_target: float = 0.005,
) -> tuple[float, float]:
    """Risk-neutral Monte Carlo call price: sample mean and standard error.

    A conditional estimator (Willard, J. Derivatives 1997; Glasserman 2003,
    ch. 4) of the same discretised model as ``mc_terminal``: each path's
    value is its Bachelier price given its variance shocks
    (``_conditional_paths``) minus ``b m``.  The coefficient ``b`` is the
    regression slope of the value on ``m``, fitted on a pilot of
    ``min(n_paths, DEFAULT_BLOCK)`` paths drawn from ``PRICING_PILOT_STREAM``,
    so it adds no in-sample bias.
    """
    if n_paths < 1000:
        raise ValueError("n_paths must be at least 1000")
    n_steps, dt = _euler_steps(config, s, nu, t, dt_target)
    if n_steps == 0:
        return float(max(s - config.strike, 0.0)), 0.0

    def paths(lo: int, hi: int, stream: int = PRICING_STREAM):
        return _conditional_paths(config, s, nu, n_steps, dt, seed, stream, lo, hi)

    pilot, m = paths(0, min(n_paths, DEFAULT_BLOCK), PRICING_PILOT_STREAM)
    m = m - m.mean()
    var_m = float(m @ m)
    b = float(m @ (pilot - pilot.mean())) / var_m if var_m > 0 else 0.0
    y = np.concatenate([value - b * m for value, m in map_blocks(n_paths, paths)])
    return float(y.mean()), float(y.std(ddof=1) / math.sqrt(n_paths))


def write_slice_csv(grid: PricingGrid, path, t_values=None) -> None:
    """Price/greek slices, one row per (t, s, nu) node."""
    t_values = np.asarray([grid.times[0]] if t_values is None else t_values, dtype=np.float64)
    greeks = np.stack([grid.greek_planes(t) for t in t_values], axis=1)  # delta, gamma, c_nu
    c = np.stack([grid._time_slice(t)[:, :, C] for t in t_values])
    write_table(path, ["s", "nu", "t", "C", "P", "delta", "gamma", "c_nu"],
                [grid.s_grid[None, :, None], grid.nu_grid[None, None, :], t_values[:, None, None],
                 c, c - (grid.s_grid[:, None] - grid.config.strike), *greeks])
