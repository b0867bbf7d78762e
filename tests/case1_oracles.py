"""Reference routes for the case-1 Newton solver of ``orbita.rotated_ellipses``.

The solver evaluates the case-1 residuals, constraint gradients, Jacobian
and seeds on contiguous per-unknown rows, with burn 0 and burn 1 stacked
wherever their formulas match.  The row-per-state forms it used before are
kept here as oracles; every element gets the same floating-point
operations in the same order, so the two routes agree bit for bit:

- ``case1_system``: residuals (n, 16) and constraint gradients (n, 6, 9)
  on an (n, 16) batch of states, one column slice per unknown;
- ``case1_jacobian``: the analytic Jacobian (n, 16, 16) assembled from
  ``G`` and the Lagrangian Hessian ``W`` as separate arrays;
- ``case1_seeds``: the retrograde Halton seeds built row by row, with
  gaps and least-squares multipliers from two ``case1_system`` calls.

The per-seed Newton loops of ``tests/test_rotated_ellipses.py`` run on
these, so comparing the batched solver with them does not compare the
solver with itself.
"""

from __future__ import annotations

import math

import numpy as np

# unknown layout: x0 y0 x1 y1 s1x s1y l d0 d1 lam1..lam6 k
N_UNKNOWNS = 16


def case1_system(sx: float, sy: float, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residuals (n, 16) and constraint gradients (n, 6, 9) at states Z."""
    x0, y0, x1, y1 = Z[:, 0], Z[:, 1], Z[:, 2], Z[:, 3]
    s1x, s1y, l, d0, d1 = Z[:, 4], Z[:, 5], Z[:, 6], Z[:, 7], Z[:, 8]
    lam = Z[:, 9:15]
    k = Z[:, 15]
    n = Z.shape[0]

    dxs = sx - s1x
    dys = sy - s1y
    sxs = sx + s1x
    ml = 1.0 - l

    g = np.empty((n, 6))
    g[:, 0] = x0 * x0 + y0 * y0 - 1.0
    g[:, 1] = x1 * x1 + y1 * y1 - 1.0
    g[:, 2] = l * l + l * (x0 * s1y - y0 * s1x) - 1.0 - x0 * sy + y0 * sx
    g[:, 3] = l * l + l * (x1 * s1y - y1 * s1x) - 1.0 - x1 * sy - y1 * sx
    gap0 = dxs * dxs + dys * dys + ml * ml + 2.0 * ml * (x0 * dys - y0 * dxs)
    gap1 = sxs * sxs + dys * dys + ml * ml + 2.0 * ml * (x1 * dys + y1 * sxs)
    g[:, 4] = d0 * d0 - gap0
    g[:, 5] = d1 * d1 - gap1

    G = np.zeros((n, 6, 9))
    G[:, 0, 0] = 2.0 * x0
    G[:, 0, 1] = 2.0 * y0
    G[:, 1, 2] = 2.0 * x1
    G[:, 1, 3] = 2.0 * y1
    G[:, 2, 0] = l * s1y - sy
    G[:, 2, 1] = -l * s1x + sx
    G[:, 2, 4] = -l * y0
    G[:, 2, 5] = l * x0
    G[:, 2, 6] = 2.0 * l + x0 * s1y - y0 * s1x
    G[:, 3, 2] = l * s1y - sy
    G[:, 3, 3] = -l * s1x - sx
    G[:, 3, 4] = -l * y1
    G[:, 3, 5] = l * x1
    G[:, 3, 6] = 2.0 * l + x1 * s1y - y1 * s1x
    G[:, 4, 0] = -2.0 * ml * dys
    G[:, 4, 1] = 2.0 * ml * dxs
    G[:, 4, 4] = 2.0 * dxs - 2.0 * ml * y0
    G[:, 4, 5] = 2.0 * dys + 2.0 * ml * x0
    G[:, 4, 6] = 2.0 * ml + 2.0 * (x0 * dys - y0 * dxs)
    G[:, 4, 7] = 2.0 * d0
    G[:, 5, 2] = -2.0 * ml * dys
    G[:, 5, 3] = -2.0 * ml * sxs
    G[:, 5, 4] = -2.0 * sxs - 2.0 * ml * y1
    G[:, 5, 5] = 2.0 * dys + 2.0 * ml * x1
    G[:, 5, 6] = 2.0 * ml + 2.0 * (x1 * dys + y1 * sxs)
    G[:, 5, 8] = 2.0 * d1

    grad_f = np.zeros(9)
    grad_f[7] = 1.0
    grad_f[8] = 1.0
    stat = grad_f[None, :] - np.einsum("ni,nip->np", lam, G)

    F = np.empty((n, N_UNKNOWNS))
    F[:, 0:6] = g
    F[:, 6:15] = stat
    F[:, 15] = 1.0 - k * (y0 + y1)
    return F, G


def vdc(n: int, base: int) -> float:
    """Van der Corput radical-inverse of n in the given base."""
    v, denom = 0.0, 1.0
    while n:
        n, rem = divmod(n, base)
        denom *= base
        v += rem / denom
    return v


def case1_seeds(sx: float, sy: float, count: int) -> np.ndarray:
    """Deterministic low-discrepancy retrograde seed states, fully initialized.

    Row ``r`` is term ``j = 2r + 1`` of a Halton-style sequence (radical
    inverses of ``j + 1`` in the bases 2, 3, 5, 7, 11) with ``l = -|l|``.
    """
    Z = np.zeros((count, N_UNKNOWNS))
    for r in range(count):
        j = 2 * r + 1
        th0 = 2.0 * math.pi * vdc(j + 1, 2)
        th1 = 2.0 * math.pi * vdc(j + 1, 3)
        # keep away from the symmetric manifold y0 + y1 = 0
        while abs(math.sin(th0) + math.sin(th1)) < 0.05:
            th1 += 0.37
        lmag = 0.45 + 1.5 * vdc(j + 1, 5)
        smag = 0.85 * lmag * vdc(j + 1, 7)
        sang = 2.0 * math.pi * vdc(j + 1, 11)
        Z[r, 0:7] = (
            math.cos(th0),
            math.sin(th0),
            math.cos(th1),
            math.sin(th1),
            smag * math.cos(sang),
            smag * math.sin(sang),
            -lmag,
        )
        Z[r, 15] = 1.0 / (Z[r, 1] + Z[r, 3])
    F, G = case1_system(sx, sy, Z)
    # gaps: g[:,4] = d0^2 - gap0 with d0 = 0 at this point
    gap0 = np.maximum(-F[:, 4], 1e-4)
    gap1 = np.maximum(-F[:, 5], 1e-4)
    Z[:, 7] = np.sqrt(gap0)
    Z[:, 8] = np.sqrt(gap1)
    grad_f = np.zeros(9)
    grad_f[7] = 1.0
    grad_f[8] = 1.0
    _, G = case1_system(sx, sy, Z)
    # least-squares multipliers of every seed, one stacked pseudo-inverse
    Z[:, 9:15] = np.linalg.pinv(np.swapaxes(G, 1, 2)) @ grad_f
    return Z


def case1_jacobian(sx: float, sy: float, Z: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Analytic Jacobian (n, 16, 16) of the case-1 residuals at states Z.

    ``G`` is the constraint gradient block of ``case1_system`` at the same
    states; ``W = sum(lam_i H_i)`` is the Lagrangian Hessian in the primal
    unknowns, written out entry by entry.
    """
    x0, y0, x1, y1 = Z[:, 0], Z[:, 1], Z[:, 2], Z[:, 3]
    s1x, s1y, l = Z[:, 4], Z[:, 5], Z[:, 6]
    lam0, lam1, lam2, lam3, lam4, lam5 = Z[:, 9:15].T
    k = Z[:, 15]
    n = Z.shape[0]

    dxs = sx - s1x
    dys = sy - s1y
    sxs = sx + s1x
    ml = 1.0 - l

    W = np.zeros((n, 9, 9))
    W[:, 0, 0] = W[:, 1, 1] = 2.0 * lam0
    W[:, 2, 2] = W[:, 3, 3] = 2.0 * lam1
    W[:, 4, 4] = W[:, 5, 5] = -2.0 * (lam4 + lam5)
    W[:, 6, 6] = 2.0 * (lam2 + lam3 - lam4 - lam5)
    W[:, 7, 7] = 2.0 * lam4
    W[:, 8, 8] = 2.0 * lam5
    off = (
        (0, 5, lam2 * l + 2.0 * lam4 * ml),
        (0, 6, lam2 * s1y + 2.0 * lam4 * dys),
        (1, 4, -lam2 * l - 2.0 * lam4 * ml),
        (1, 6, -lam2 * s1x - 2.0 * lam4 * dxs),
        (2, 5, lam3 * l + 2.0 * lam5 * ml),
        (2, 6, lam3 * s1y + 2.0 * lam5 * dys),
        (3, 4, -lam3 * l - 2.0 * lam5 * ml),
        (3, 6, -lam3 * s1x + 2.0 * lam5 * sxs),
        (4, 6, (2.0 * lam4 - lam2) * y0 + (2.0 * lam5 - lam3) * y1),
        (5, 6, (lam2 - 2.0 * lam4) * x0 + (lam3 - 2.0 * lam5) * x1),
    )
    for i, j, v in off:
        W[:, i, j] = W[:, j, i] = v

    J = np.zeros((n, N_UNKNOWNS, N_UNKNOWNS))
    J[:, 0:6, 0:9] = G
    J[:, 6:15, 0:9] = -W
    J[:, 6:15, 9:15] = -G.transpose(0, 2, 1)
    J[:, 15, 1] = J[:, 15, 3] = -k
    J[:, 15, 15] = -(y0 + y1)
    return J
