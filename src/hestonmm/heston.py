"""Mid-price dynamics under mean-reverting stochastic variance.

The mid-price follows an arithmetic diffusion ``dS = sqrt(nu) dW`` while the
instantaneous variance follows the square-root process
``dnu = theta (alpha - nu) dt + xi sqrt(nu) dB`` with ``corr(W, B) = rho``.
This module provides the one Euler step every simulator runs and the
closed-form conditional moments of the variance used by the quote formulas
and by the moment-validation tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seeding import DEFAULT_BLOCK, HESTON_STREAM, SCHEMES, block_ranges, lane_draws

__all__ = [
    "HestonParams",
    "euler_step",
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
        """Whether 2*theta*alpha >= xi**2.  Informational only: the Euler
        step truncates at zero, so a violated condition is still handled."""
        return 2.0 * self.theta * self.alpha >= self.xi**2


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


def euler_step(s, nu, z_s, z_perp, params: HestonParams, dt: float, risk_adj: float = 0.0):
    """One full-truncation Euler step (Lord, Koekkoek & van Dijk, Quant.
    Finance 2010), vectorized over paths: returns ``(ds, nu_next)``.

    The variance shock is ``rho*z_s + sqrt(1-rho^2)*z_perp``; drift and
    diffusion are evaluated at ``max(nu, 0)`` and ``nu_next`` is clamped at
    zero.  ``risk_adj*sqrt(max(nu, 0))`` is taken off the variance drift: 0
    under the real-world measure, ``xi*sqrt(1-rho^2)*eta_nu`` under the
    pricing measure.
    """
    sqrt_dt = math.sqrt(dt)
    nu_pos = np.maximum(nu, 0.0)
    root = np.sqrt(nu_pos)
    z_nu = params.rho * z_s + math.sqrt(1.0 - params.rho**2) * z_perp
    drift = params.theta * (params.alpha - nu_pos) - risk_adj * root
    nu_next = np.maximum(nu + drift * dt + params.xi * root * z_nu * sqrt_dt, 0.0)
    return root * z_s * sqrt_dt, nu_next


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
            ds, nu = euler_step(s, nu, shocks[:, step, 0], shocks[:, step, 1], params, dt)
            s += ds
        s_out[lo:hi] = s
        nu_out[lo:hi] = nu
    return s_out, nu_out
