"""Reference route for ``orbita.rotated_ellipses.apogee_to_apogee_cost``.

The solver screens the 400 scan samples in one NumPy pass and evaluates in
floats only the samples next to the screened minimum.  The route it used
before, which evaluates every sample in floats, one call each, is kept here
as the oracle: ``apogee_to_apogee_cost`` must return the same float, bit
for bit, so comparing ``repr`` of the two compares the scans, not the
solver with itself.
"""

from __future__ import annotations

import math

import numpy as np


def scan_and_refine(fn, lo: float, hi: float, samples: int = 400) -> float:
    """Minimum of fn over [lo, hi]: dense scan, golden-section refinement."""
    if hi <= lo:
        return math.inf
    xs = np.linspace(lo, hi, samples)
    vals = np.array([fn(x) for x in xs])
    i = int(np.argmin(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, samples - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > 1e-12:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    return min(float(vals[i]), fc, fd)


def apogee_to_apogee_cost(inp) -> float:
    """The apse-line reference cost of a ``RotatedInput``; the caller has
    excluded circular and identical orbits."""
    ecc = inp.eccentricity
    sx, sy = inp.s0x_float, inp.s0y_float
    r0 = (-sy / ecc, sx / ecc)
    r1 = (-sy / ecc, -sx / ecc)
    k0 = 1.0 - ecc
    k1 = 1.0 - ecc
    w0 = (sx - r0[1], sy + r0[0])
    w1 = (-sx - r1[1], sy + r1[0])
    cross = r0[0] * r1[1] - r0[1] * r1[0]

    if abs(cross) < 1e-12:
        # antiparallel apogees: fixed |l|, s free along the apse line
        lmag = math.sqrt((k0 + k1) / 2.0)
        t_hat = (-r0[1], r0[0])
        best = math.inf
        for lz in (lmag, -lmag):
            b = (k0 - k1) / (2.0 * lz)
            amax = math.sqrt(max(lz * lz - b * b, 0.0)) - 1e-9

            def cost(a: float, lz=lz, b=b) -> float:
                svec = (a * r0[0] + b * t_hat[0], a * r0[1] + b * t_hat[1])
                w0c = (svec[0] + lz * t_hat[0], svec[1] + lz * t_hat[1])
                w1c = (svec[0] - lz * t_hat[0], svec[1] - lz * t_hat[1])
                return math.hypot(w0c[0] - w0[0], w0c[1] - w0[1]) + math.hypot(
                    w1c[0] - w1[0], w1c[1] - w1[1]
                )

            best = min(best, scan_and_refine(cost, -amax, amax))
        return best

    def solved_s(lz: float) -> tuple[float, float]:
        # radius constraints: lz^2 + lz*(sy_*rx - sx_*ry) = k at both apogees
        a00, a01 = -lz * r0[1], lz * r0[0]
        a10, a11 = -lz * r1[1], lz * r1[0]
        b0, b1 = k0 - lz * lz, k1 - lz * lz
        det = a00 * a11 - a01 * a10
        return (
            (b0 * a11 - b1 * a01) / det,
            (a00 * b1 - a10 * b0) / det,
        )

    def cost_or_inf(lz: float) -> float:
        sx_, sy_ = solved_s(lz)
        if sx_ * sx_ + sy_ * sy_ >= lz * lz - 1e-12:
            return math.inf
        w0c = (sx_ - lz * r0[1], sy_ + lz * r0[0])
        w1c = (sx_ - lz * r1[1], sy_ + lz * r1[0])
        return math.hypot(w0c[0] - w0[0], w0c[1] - w0[1]) + math.hypot(
            w1c[0] - w1[0], w1c[1] - w1[1]
        )

    lo = math.sqrt(max(k0, k1) / 2.0) * (1.0 + 1e-9)
    hi = 3.0
    best = math.inf
    for sign in (1.0, -1.0):
        best = min(best, scan_and_refine(lambda t: cost_or_inf(sign * t), lo, hi))
    return best
