"""Finite-difference weights on a (possibly nonuniform) 1-D grid, their
application, the Douglas implicit factor, the tridiagonal solve and the
central-difference first derivative (``gradient``, along any axis).

Shared by the backward value-function solver and the option pricer.  Weights
are returned as three diagonals ``(lower, diag, upper)`` so that
``(L v)[i] = lower[i] v[i-1] + diag[i] v[i] + upper[i] v[i+1]`` with
``lower[0] == upper[-1] == 0``.  The kernels on them work along the last
axis; diagonals with leading axes hold one operator per row.
"""

from __future__ import annotations

import numpy as np

__all__ = ["operator_diagonals", "apply_tridiagonal", "implicit", "solve_banded", "gradient"]


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


def gradient(x: np.ndarray):
    """The first derivative on the strictly increasing grid ``x``, as a
    function ``d(f, axis)`` of float64 ``f`` with ``x`` along ``axis``:
    bitwise ``np.gradient(f, x, axis=axis)``, central differences inside and
    one-sided at the two ends, with the grid weights computed here once.  As
    in ``np.gradient``, a grid whose spacings are all equal takes the uniform
    formula and any other (``linspace`` uneven by an ulp) the three-point one.
    """
    dx = np.diff(np.asarray(x, dtype=np.float64))
    h0, hn = dx[0], dx[-1]
    if (dx == dx[0]).all():
        two_h = 2.0 * dx[0]
        weights = None
    else:
        dx1, dx2 = dx[:-1], dx[1:]
        weights = (-dx2 / (dx1 * (dx1 + dx2)), (dx2 - dx1) / (dx1 * dx2), dx1 / (dx2 * (dx1 + dx2)))

    def d(f: np.ndarray, axis: int) -> np.ndarray:
        axis %= f.ndim
        lead = (slice(None),) * axis
        out = np.empty_like(f)
        lo, mid, hi = (f[lead + (part,)] for part in (slice(None, -2), slice(1, -1), slice(2, None)))
        if weights is None:
            out[lead + (slice(1, -1),)] = (hi - lo) / two_h
        else:
            # numpy's expression as written: the order of a commutative
            # operation's operands picks which nan a sum of two nans keeps
            a, b, c = (w.reshape((-1,) + (1,) * (f.ndim - 1 - axis)) for w in weights)
            out[lead + (slice(1, -1),)] = a * lo + b * mid + c * hi
        out[lead + (0,)] = (f[lead + (1,)] - f[lead + (0,)]) / h0
        out[lead + (-1,)] = (f[lead + (-1,)] - f[lead + (-2,)]) / hn
        return out

    return d


def apply_tridiagonal(diags: tuple[np.ndarray, np.ndarray, np.ndarray], v: np.ndarray) -> np.ndarray:
    """Apply the operator along the last axis of ``v``."""
    lower, diag, upper = diags
    out = v * diag
    out[..., 1:] += v[..., :-1] * lower[..., 1:]
    out[..., :-1] += v[..., 1:] * upper[..., :-1]
    return out


def implicit(diags: tuple[np.ndarray, np.ndarray, np.ndarray], h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonals of the Douglas factor ``I - (h/2) L`` of a step of length
    ``h`` ('t Hout & Foulon, IJNAM 2010), laid out as ``diags``."""
    half = 0.5 * h
    lower, diag, upper = diags
    return -half * lower, 1.0 - half * diag, -half * upper


def solve_banded(diags: tuple[np.ndarray, np.ndarray, np.ndarray], b: np.ndarray) -> np.ndarray:
    """Solve ``L x = b`` along the last axis of ``b`` (n >= 2): bitwise
    scipy's ``solve_banded((1, 1), ...)`` row by row for finite float64, in
    one LAPACK ``gtsv`` call (``scipy.linalg`` is imported on the first).  An
    operator per row makes the rows one block-diagonal system, so each row's
    ``lower[..., 0]`` and ``upper[..., -1]`` must be 0 (and a non-finite row
    spills into the next)."""
    lower, diag, upper = diags
    from scipy.linalg.lapack import dgtsv
    if np.ndim(diag) > 1:
        if np.count_nonzero(lower[..., 0]) or np.count_nonzero(upper[..., -1]):
            raise ValueError("an operator per row needs lower[..., 0] == upper[..., -1] == 0")
        lower, diag, upper, rhs = (a.ravel() for a in np.broadcast_arrays(*diags, b))
    else:
        rhs = b.reshape(-1, b.shape[-1]).T
    *_, x, info = dgtsv(lower[1:], diag, upper[:-1], rhs)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x.T.reshape(b.shape)
