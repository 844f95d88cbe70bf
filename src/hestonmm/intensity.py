"""Order-arrival model: execution intensity as a function of quote distance.

A quote posted at premium ``delta`` from the mid is hit at rate
``A * exp(-k * delta)``.  Per simulation step, fills on each side are
independent Bernoulli events with probability ``min(rate * dt, 1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ArrivalParams", "intensity", "fill_probability", "fills"]


@dataclass(frozen=True)
class ArrivalParams:
    """Base intensity ``A`` (fills/time) and decay rate ``k`` (1/currency)."""

    A: float
    k: float

    def __post_init__(self):
        if not (math.isfinite(self.A) and math.isfinite(self.k)):
            raise ValueError("ArrivalParams fields must be finite")
        if self.A <= 0 or self.k <= 0:
            raise ValueError("A and k must be positive")


def _rate(delta, params: ArrivalParams):
    return params.A * np.exp(-params.k * delta)


def intensity(delta, params: ArrivalParams):
    """Execution rate ``A * exp(-k * delta)``.  Negative premiums are allowed
    (a quote may cross the mid); non-finite premiums are rejected."""
    delta = np.asarray(delta, dtype=np.float64)
    if not np.all(np.isfinite(delta)):
        raise ValueError("delta must be finite")
    out = _rate(delta, params)
    return float(out) if out.ndim == 0 else out


def fill_probability(delta, params: ArrivalParams, dt: float):
    """Per-step fill probability ``min(intensity * dt, 1)`` and the number of
    entries that needed clipping."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    raw = intensity(delta, params) * dt
    raw = np.asarray(raw)
    n_clipped = int(np.count_nonzero(raw > 1.0))
    prob = np.minimum(raw, 1.0)
    return (float(prob) if prob.ndim == 0 else prob), n_clipped


def fills(deltas, u, arrival: ArrivalParams, dt: float):
    """One step of fills, ``u < min(rate * dt, 1)`` elementwise, and the
    number of probabilities clipped at 1.  The simulators' kernel: premiums
    are not checked (a simulator reports a non-finite state itself), and a
    deep-crossed quote's rate overflows and clips to 1 without a warning."""
    with np.errstate(over="ignore"):
        raw = _rate(deltas, arrival) * dt
    return u < np.minimum(raw, 1.0), int(np.count_nonzero(raw > 1.0))
