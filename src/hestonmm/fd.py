"""Finite-difference weights on a (possibly nonuniform) 1-D grid, and the tridiagonal solve.

Shared by the backward value-function solver and the option pricer.  Weights
are returned as three diagonals ``(lower, diag, upper)`` so that
``(L v)[i] = lower[i] v[i-1] + diag[i] v[i] + upper[i] v[i+1]`` with
``lower[0] == upper[-1] == 0``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["operator_diagonals", "apply_tridiagonal", "to_banded", "solve_banded"]


def operator_diagonals(
    x: np.ndarray,
    drift: np.ndarray,
    diffusion: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonals of ``L v = drift * v_x + diffusion * v_xx``.

    Interior nodes use second-order central differences; when the drift is
    strong enough relative to the diffusion to break positivity of the
    off-diagonal weights, that node falls back to first-order upwinding.
    End nodes use one-sided first derivatives with the second derivative
    extrapolated to zero, which keeps the scheme monotone at the boundaries.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n < 3:
        raise ValueError("grid needs at least 3 nodes")
    if np.any(np.diff(x) <= 0):
        raise ValueError("grid must be strictly increasing")
    drift = np.broadcast_to(np.asarray(drift, dtype=np.float64), (n,))
    diffusion = np.broadcast_to(np.asarray(diffusion, dtype=np.float64), (n,))
    if np.any(diffusion < 0):
        raise ValueError("diffusion coefficient must be nonnegative")

    lower = np.zeros(n)
    diag = np.zeros(n)
    upper = np.zeros(n)

    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    b = drift[1:-1]
    a = diffusion[1:-1]

    # second derivative (3-point, nonuniform)
    w2m = 2.0 / (hm * (hm + hp))
    w2c = -2.0 / (hm * hp)
    w2p = 2.0 / (hp * (hm + hp))
    # central first derivative
    w1m = -hp / (hm * (hm + hp))
    w1c = (hp - hm) / (hm * hp)
    w1p = hm / (hp * (hm + hp))

    lo = a * w2m + b * w1m
    ce = a * w2c + b * w1c
    up = a * w2p + b * w1p

    # upwind fallback where central drift would create a negative neighbor weight
    bad = (lo < 0) | (up < 0)
    if np.any(bad):
        bpos = np.maximum(b, 0.0)
        bneg = np.minimum(b, 0.0)
        lo_u = a * w2m - bneg / hm
        up_u = a * w2p + bpos / hp
        ce_u = a * w2c + bneg / hm - bpos / hp
        lo = np.where(bad, lo_u, lo)
        ce = np.where(bad, ce_u, ce)
        up = np.where(bad, up_u, up)

    lower[1:-1] = lo
    diag[1:-1] = ce
    upper[1:-1] = up

    h0 = x[1] - x[0]
    diag[0] = -drift[0] / h0
    upper[0] = drift[0] / h0
    hn = x[-1] - x[-2]
    lower[-1] = -drift[-1] / hn
    diag[-1] = drift[-1] / hn
    return lower, diag, upper


def apply_tridiagonal(diags: tuple[np.ndarray, np.ndarray, np.ndarray], v: np.ndarray) -> np.ndarray:
    """Apply the operator along the last axis of ``v``."""
    lower, diag, upper = diags
    out = v * diag
    out[..., 1:] += v[..., :-1] * lower[1:]
    out[..., :-1] += v[..., 1:] * upper[:-1]
    return out


def to_banded(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Pack diagonals into the ``(3, n)`` layout that ``solve_banded`` takes."""
    n = diag.size
    ab = np.zeros((3, n))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    return ab


def solve_banded(l_and_u: tuple[int, int], ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """scipy's ``solve_banded`` for float64 systems with ``l_and_u == (1, 1)`` and n >= 2,
    bitwise: its LAPACK ``gtsv`` call without its checks.  ``scipy.linalg`` is imported
    on the first call."""
    if tuple(l_and_u) != (1, 1):
        raise NotImplementedError(f"only tridiagonal systems are solved, got l_and_u={l_and_u}")
    from scipy.linalg.lapack import dgtsv
    *_, x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x
