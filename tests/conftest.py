"""Shared fixtures: baseline parameter set and expensive solved surfaces."""

import numpy as np
import pytest

from hestonmm import ArrivalParams, HestonParams, RiskParams
from hestonmm.option_mm import FunctionalLattice
from hestonmm.option_pricing import PricingConfig, solve_call_grid


@pytest.fixture(scope="session")
def heston():
    return HestonParams(theta=0.02, alpha=4.0, xi=0.5, rho=0.7, s0=100.0, nu0=4.0)


@pytest.fixture(scope="session")
def arrival():
    return ArrivalParams(A=140.0, k=1.5)


@pytest.fixture(scope="session")
def risk():
    return RiskParams(gamma=0.1, beta=0.03, eta=0.09)


@pytest.fixture(scope="session")
def risk_nofee():
    return RiskParams(gamma=0.1, beta=0.0)


@pytest.fixture(scope="session")
def pricing_grid(heston):
    cfg = PricingConfig(heston=heston, strike=100.0, T=1.0)
    return solve_call_grid(cfg)


@pytest.fixture(scope="session")
def functional_lattice(heston, risk_nofee, pricing_grid):
    return FunctionalLattice.build(
        np.linspace(88.0, 112.0, 5),
        np.linspace(0.5, 9.0, 4),
        np.linspace(0.0, 1.0, 5),
        1.0, heston, risk_nofee, pricing_grid,
        n_paths=1000, seed=2,
    )
