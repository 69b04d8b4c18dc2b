"""Deterministic quadrature helpers shared by the coefficient and counting code.

The workhorse is a trapezoid rule with Richardson halving applied after a
cosine change of variables; the substitution clusters nodes at the endpoints,
so the inverse-trig kinks showing up in disk-overlap integrands stay cheap.
Closed-form Gaussian tail masses provide certified remainders.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np


class QuadratureError(RuntimeError):
    """Raised when refinement fails to meet the requested tolerance."""


def refine_trapezoid(fn: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                     tol: float = 1e-8, max_doublings: int = 22,
                     min_doublings: int = 4) -> float:
    """Integrate fn over [a, b] by trapezoid halving with Richardson acceptance.

    fn must accept numpy arrays.  Node reuse keeps each halving incremental;
    convergence is declared when two successive extrapolated values agree to
    tol.  Raises QuadratureError if max_doublings is exhausted.
    """
    if b <= a:
        return 0.0
    width = b - a

    def eval_at(v):
        u = a + width * (1.0 - np.cos(math.pi * v)) / 2.0
        du = width * math.pi * np.sin(math.pi * v) / 2.0
        return np.asarray(fn(u), dtype=float) * du

    n = 8
    v = np.linspace(0.0, 1.0, n + 1)
    vals = eval_at(v)
    t_prev = np.trapezoid(vals, dx=1.0 / n)
    r_prev = t_prev
    for level in range(1, max_doublings + 1):
        mid = (v[:-1] + v[1:]) / 2.0
        new_vals = eval_at(mid)
        t_cur = t_prev / 2.0 + np.sum(new_vals) / (2 * n)
        # interleave for the next level
        merged_v = np.empty(2 * n + 1)
        merged_v[0::2] = v
        merged_v[1::2] = mid
        merged_vals = np.empty(2 * n + 1)
        merged_vals[0::2] = vals
        merged_vals[1::2] = new_vals
        v, vals, n = merged_v, merged_vals, 2 * n
        r_cur = t_cur + (t_cur - t_prev) / 3.0
        if level >= min_doublings and abs(r_cur - r_prev) < tol:
            return float(r_cur)
        t_prev, r_prev = t_cur, r_cur
    raise QuadratureError(f"no convergence to tol={tol} after {max_doublings} doublings")


# -- Disk geometry --------------------------------------------------------------


def _acos(x: np.ndarray) -> np.ndarray:
    # math.acos, not np.arccos: numpy's SIMD arccos is not correctly rounded
    # on every CPU, which would make the error integrals built on lens areas,
    # and so the report digits, depend on the machine
    return np.fromiter(map(math.acos, x.tolist()), dtype=float, count=x.size)


def lens_area(r1: float, r2: float, d):
    """Area of the intersection of two disks with radii r1, r2 at center
    distance d; an array of distances gives an array of areas."""
    d = np.asarray(d, dtype=float)
    out = np.zeros(d.shape)
    if r1 > 0.0 and r2 > 0.0:
        rm = min(r1, r2)
        out[d <= abs(r1 - r2)] = math.pi * rm * rm
        part = (d > abs(r1 - r2)) & (d < r1 + r2)
        dp = d[part]
        dsq = dp * dp
        cosines = np.concatenate([(dsq + r1 * r1 - r2 * r2) / (2.0 * dp * r1),
                                  (dsq + r2 * r2 - r1 * r1) / (2.0 * dp * r2)])
        angles = _acos(np.minimum(np.maximum(cosines, -1.0), 1.0))
        a1, a2 = angles[:dp.size], angles[dp.size:]
        sq = (-dp + r1 + r2) * (dp + r1 - r2) * (dp - r1 + r2) * (dp + r1 + r2)
        out[part] = r1 * r1 * a1 + r2 * r2 * a2 - 0.5 * np.sqrt(np.maximum(sq, 0.0))
    return out if out.ndim else float(out)


# -- Certified tails -------------------------------------------------------------


def erfc_integral(a: float) -> float:
    """Integral of exp(-pi v^2) over [a, infinity)."""
    return 0.5 * math.erfc(a * math.sqrt(math.pi))


def gauss_profile_mass_outside(rho: float, d: float) -> float:
    """Integral over |x| >= d in R^2 of exp(-pi * max(0, |x| - rho)^2).

    Closed form; used both for total masses (d = 0) and certified tails.
    """
    d = max(d, 0.0)
    inner = 0.0
    if d < rho:
        inner = math.pi * (rho * rho - d * d)
    m = max(d, rho)
    a = m - rho
    outer = math.exp(-math.pi * a * a) + 2.0 * math.pi * rho * erfc_integral(a)
    return inner + outer
