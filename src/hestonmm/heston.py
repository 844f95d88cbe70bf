"""Mid-price dynamics under mean-reverting stochastic variance.

The mid-price follows an arithmetic diffusion ``dS = sqrt(nu) dW`` while the
instantaneous variance follows the square-root process
``dnu = theta (alpha - nu) dt + xi sqrt(nu) dB`` with ``corr(W, B) = rho``.
This module provides the single-step Euler schemes used by the simulation
engine and the closed-form conditional moments of the variance used by the
quote formulas and by the moment-validation tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seeding import DEFAULT_BLOCK, HESTON_STREAM, SCHEMES, block_ranges, lane_draws

__all__ = [
    "HestonParams",
    "MidState",
    "step_state",
    "conditional_moments",
    "sample_terminal",
]

@dataclass(frozen=True)
class HestonParams:
    """Model constants and initial state.

    ``theta``: mean-reversion rate, ``alpha``: long-run variance level,
    ``xi``: vol-of-vol, ``rho``: correlation between price and variance
    shocks, ``s0``/``nu0``: initial mid-price and variance.
    """

    theta: float
    alpha: float
    xi: float
    rho: float
    s0: float = 100.0
    nu0: float = 4.0

    def __post_init__(self):
        fields = (self.theta, self.alpha, self.xi, self.rho, self.s0, self.nu0)
        if not all(math.isfinite(v) for v in fields):
            raise ValueError("HestonParams fields must be finite")
        if self.theta < 0 or self.alpha < 0 or self.xi < 0 or self.nu0 < 0:
            raise ValueError("theta, alpha, xi and nu0 must be nonnegative")
        if abs(self.rho) > 1:
            raise ValueError("rho must lie in [-1, 1]")

    @property
    def feller_satisfied(self) -> bool:
        """Whether 2*theta*alpha >= xi**2.  Informational only: the schemes
        truncate at zero, so a violated condition is still handled."""
        return 2.0 * self.theta * self.alpha >= self.xi**2


@dataclass(frozen=True)
class MidState:
    """Mid-price state ``(t, s, nu)`` with nonnegative variance."""

    t: float
    s: float
    nu: float

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.s) and math.isfinite(self.nu)):
            raise ValueError("MidState fields must be finite")
        if self.nu < 0:
            raise ValueError("variance must be nonnegative")


def step_state(
    state: MidState,
    params: HestonParams,
    dt: float,
    scheme: str = "binomial",
    draws: tuple[float, float] = (1.0, 1.0),
) -> MidState:
    """Advance the mid-price state by one full-truncation Euler step.

    ``draws`` are two independent variates ``(z_s, z_perp)``; the variance
    shock is ``rho*z_s + sqrt(1-rho^2)*z_perp``.  The diffusion coefficient is
    evaluated at ``max(nu, 0)`` and the resulting variance is clamped at zero.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    z_s, z_perp = float(draws[0]), float(draws[1])
    if not (math.isfinite(z_s) and math.isfinite(z_perp)):
        raise ValueError("draws must be finite")

    root_nu = math.sqrt(max(state.nu, 0.0))
    sqrt_dt = math.sqrt(dt)
    s_new = state.s + root_nu * z_s * sqrt_dt
    z_nu = params.rho * z_s + math.sqrt(1.0 - params.rho**2) * z_perp
    nu_new = state.nu + params.theta * (params.alpha - state.nu) * dt + params.xi * root_nu * z_nu * sqrt_dt
    return MidState(t=state.t + dt, s=s_new, nu=max(nu_new, 0.0))


def conditional_moments(nu: float, params: HestonParams, tau: float) -> tuple[float, float, float]:
    """Conditional mean, variance and second moment of the variance after
    horizon ``tau``.

    Uses numerically stable ``expm1`` factorizations so that the identity
    ``var + mean**2 == second_moment`` holds to relative 1e-12 even for tiny
    ``theta*tau``.  The ``theta == 0`` case is the analytic limit.
    """
    if tau < 0 or nu < 0:
        raise ValueError("tau and nu must be nonnegative")
    theta, alpha, xi = params.theta, params.alpha, params.xi
    if theta == 0.0:
        mean = nu
        var = xi**2 * nu * tau
        return mean, var, nu**2 + var

    e1 = math.exp(-theta * tau)
    x = -math.expm1(-theta * tau)  # 1 - exp(-theta*tau)
    y = -math.expm1(-2.0 * theta * tau)  # 1 - exp(-2*theta*tau)
    mean = e1 * nu + alpha * x
    var = (xi**2 / theta) * nu * e1 * x + (alpha * xi**2 / (2.0 * theta)) * x * x
    c = (2.0 * theta * alpha + xi**2) / theta
    second = e1 * e1 * nu * nu + c * (nu - alpha) * e1 * x + 0.5 * c * alpha * y
    return mean, var, second


def _step_block(
    s: np.ndarray,
    nu: np.ndarray,
    shocks: np.ndarray,
    params: HestonParams,
    dt: float,
) -> None:
    """Vectorized full-truncation Euler update of ``(s, nu)`` in place."""
    sqrt_dt = math.sqrt(dt)
    rho_c = math.sqrt(1.0 - params.rho**2)
    root_nu = np.sqrt(np.maximum(nu, 0.0))
    s += root_nu * shocks[:, 0] * sqrt_dt
    z_nu = params.rho * shocks[:, 0] + rho_c * shocks[:, 1]
    nu += params.theta * (params.alpha - nu) * dt + params.xi * root_nu * z_nu * sqrt_dt
    np.maximum(nu, 0.0, out=nu)


def sample_terminal(
    params: HestonParams,
    T: float,
    n_steps: int,
    n_paths: int,
    seed: int,
    scheme: str = "gaussian",
    stream: int = HESTON_STREAM,
    block: int = DEFAULT_BLOCK,
) -> tuple[np.ndarray, np.ndarray]:
    """Terminal ``(S_T, nu_T)`` over ``n_paths`` independent paths.

    Path ``i``'s draws depend only on ``(seed, stream, i)``, so results do
    not depend on ``n_paths`` or on how paths are grouped into blocks.
    """
    if T <= 0 or n_steps < 1 or n_paths < 1:
        raise ValueError("T, n_steps and n_paths must be positive")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    dt = T / n_steps
    s_out = np.empty(n_paths)
    nu_out = np.empty(n_paths)
    draws = np.empty((min(block, n_paths), n_steps, 2))
    for lo, hi in block_ranges(n_paths, block):
        shocks = draws[:hi - lo]
        lane_draws(seed, (stream,), lo, hi, shocks, scheme=scheme)
        s = np.full(hi - lo, params.s0)
        nu = np.full(hi - lo, params.nu0)
        for step in range(n_steps):
            _step_block(s, nu, shocks[:, step, :], params, dt)
        s_out[lo:hi] = s
        nu_out[lo:hi] = nu
    return s_out, nu_out
