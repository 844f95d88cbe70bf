"""Independent references that only the tests run.

Each computes, a second way, a quantity the program computes or relies on:
the variance's closed-form conditional moments, terminal Heston samples, the
risk-neutral dealer's accrual rate, a Monte Carlo estimate of the tilt
functionals, and their exact values at zero vol-of-vol.  The Monte Carlo
references draw from the ``seeding`` streams named for them
(``HESTON_STREAM``, ``FUNCTIONAL_STREAM``), which no program code uses, so
their values are independent of every simulator's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hestonmm.heston import HestonParams, walk
from hestonmm.intensity import ArrivalParams
from hestonmm.option_mm import _integrands, _walk
from hestonmm.option_pricing import C_NU, DELTA, PricingGrid, _euler_steps
from hestonmm.quotes import RiskParams
from hestonmm.seeding import FUNCTIONAL_STREAM, HESTON_STREAM, lane_draws, map_blocks


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


def sample_terminal(
    params: HestonParams,
    T: float,
    n_steps: int,
    n_paths: int,
    seed: int,
    scheme: str = "gaussian",
) -> tuple[np.ndarray, np.ndarray]:
    """Terminal ``(S_T, nu_T)`` over ``n_paths`` independent paths.

    Path ``i``'s draws depend only on ``(seed, i)``, so results do
    not depend on ``n_paths`` or on how paths are grouped into blocks.
    """
    if not 0.0 < T < math.inf:
        raise ValueError(f"T must be finite and positive, got {T}")
    if n_steps < 1 or n_paths < 1:
        raise ValueError("n_steps and n_paths must be positive")
    dt = T / n_steps

    def paths(lo: int, hi: int):
        draws = lane_draws(seed, (HESTON_STREAM,), lo, hi, n_steps, 2, scheme=scheme)
        s = np.full(hi - lo, params.s0)
        for _, ds, nu, _ in walk(params, draws, dt, params.nu0):
            s += ds
        return s, nu

    return tuple(np.concatenate(col) for col in zip(*map_blocks(n_paths, paths)))


def risk_neutral_rate(arrival: ArrivalParams, risk: RiskParams) -> float:
    """Expected objective accrual rate of the risk-neutral dealer,
    ``(A/k) e^{-1} (e^{k beta} + e^{-k beta})``."""
    kb = arrival.k * risk.beta
    return arrival.A * math.exp(-1.0) / arrival.k * (math.exp(kb) + math.exp(-kb))


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


_DELTA_C_NU = slice(DELTA, C_NU + 1, C_NU - DELTA)  # the two greek columns the integrands read


def _simulate_integrals(
    s0: float, nu0: float, t: float, heston: HestonParams, grid: PricingGrid,
    n_paths: int, seed: int, dt_target: float, max_exit_fraction: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-path left-endpoint quadratures of the three integrands along
    real-world paths from ``(s0, nu0)`` at time ``t`` to the grid's maturity,
    in the pricer's Euler steps (``_euler_steps``), drawn from the key
    ``(FUNCTIONAL_STREAM, 0)`` under ``seed`` in the blocks of
    ``seeding.map_blocks``, ``seeding.STEP_CHUNK`` steps at a time.  Raises
    ``GridExitError`` when more than ``max_exit_fraction`` of the paths leave
    the grid before the last step."""
    n_steps, dt = _euler_steps(grid.config, s0, nu0, t, dt_target)
    times = [t + step * dt for step in range(n_steps)] + [grid.config.T]

    def paths(lo: int, hi: int):
        n = hi - lo
        draws = lane_draws(seed, (FUNCTIONAL_STREAM, 0), lo, hi, n_steps, 2)
        acc = np.zeros((3, n))
        out = np.zeros(n, dtype=bool)
        for _, _, nu, _, _, g, _, outside in _walk(grid, heston, draws, n, times, dt, s0, nu0,
                                                   _DELTA_C_NU):
            out |= outside[:-1].any(axis=0)  # the states the integrands read
            f = nu[:-1] * _integrands(g[:-1, :, 0], g[:-1, :, 1], heston) * dt
            for r in range(f.shape[1]):
                acc += f[:, r]
        return *acc, out

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
    ``T`` must be the grid's maturity.
    """
    if T != grid.config.T:
        raise ValueError(f"T={T} is not the pricing grid's maturity {grid.config.T}")
    if t > T:
        raise ValueError("t beyond horizon")
    if t == T or risk.gamma == 0.0:
        return Functionals(0.0, 0.0, 0.0)
    if n_paths < 1000:
        raise ValueError("n_paths must be at least 1000")
    i1, i2, i3 = _simulate_integrals(s, nu, t, heston, grid, n_paths, seed,
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


def exact_functionals_without_vol_of_vol(
    s: float, nu: float, t: float, T: float, strike: float,
    heston: HestonParams, risk: RiskParams,
) -> tuple[float, float]:
    """Exact ``(H1, H2)`` of a call struck at ``strike`` when ``xi == 0``
    and ``theta > 0``; ``M`` is then 0.

    The variance is deterministic, ``nu(u) = alpha + (nu - alpha)
    exp(-theta (u - t))``, with integral ``I(t, u)`` from ``t``, so the
    call is a Bachelier call and its delta ``Delta_u = P(S_T > K | F_u)`` is
    a martingale.  With ``a = (s - K) / sqrt(I(t, T))``,
    ``H1 = -gamma I(t, T) N(a)`` and ``H2 = -(gamma / 2) integral from t
    to T of nu(u) Phi2(a, a; I(t, u) / I(t, T)) du``, ``Phi2`` the bivariate
    normal CDF with that correlation.  The quadrature runs over ``v`` with
    ``u = T - (T - t) v^2``, which smooths the square-root kink of ``Phi2``
    at ``u = T``.
    """
    from scipy.integrate import quad
    from scipy.special import ndtr
    from scipy.stats import multivariate_normal

    theta, alpha = heston.theta, heston.alpha

    def variance(u):
        return alpha + (nu - alpha) * math.exp(-theta * (u - t))

    def integral(u):
        return alpha * (u - t) + (nu - alpha) * -math.expm1(-theta * (u - t)) / theta

    total = integral(T)
    a = (s - strike) / math.sqrt(total)

    def integrand(v):
        u = T - (T - t) * v * v
        rho = integral(u) / total
        phi2 = multivariate_normal.cdf([a, a], cov=[[1.0, rho], [rho, 1.0]], allow_singular=True)
        return variance(u) * phi2 * 2.0 * (T - t) * v

    h2_integral, _ = quad(integrand, 0.0, 1.0, epsabs=1e-12)
    return -risk.gamma * total * float(ndtr(a)), -0.5 * risk.gamma * h2_integral
