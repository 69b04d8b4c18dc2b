"""Deterministic quadrature helpers shared by the coefficient and counting code.

The workhorse is a trapezoid rule with Richardson halving applied after a
cosine change of variables; the substitution clusters nodes at the endpoints,
so the inverse-trig kinks showing up in disk-overlap integrands stay cheap.
Closed-form Gaussian and power-law tail masses provide certified remainders.
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


def lens_area(r1: float, r2: float, d: float) -> float:
    """Area of the intersection of two disks with radii r1, r2 at center distance d."""
    if r1 <= 0.0 or r2 <= 0.0:
        return 0.0
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        rm = min(r1, r2)
        return math.pi * rm * rm
    a1 = math.acos(max(-1.0, min(1.0, (d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1))))
    a2 = math.acos(max(-1.0, min(1.0, (d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2))))
    sq = (-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2)
    return r1 * r1 * a1 + r2 * r2 * a2 - 0.5 * math.sqrt(max(sq, 0.0))


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


def power_profile_mass_outside(rho: float, p: float, d: float) -> float:
    """Integral over |x| >= d in R^2 of (1 + max(0, |x| - rho))^(-2p); needs p > 1."""
    if p <= 1.0:
        raise ValueError("power tail mass requires p > 1")
    d = max(d, 0.0)
    inner = 0.0
    if d < rho:
        inner = math.pi * (rho * rho - d * d)
    w = 1.0 + max(d, rho) - rho
    # 2*pi * int_W^inf w^(-2p) (w - 1 + rho) dw
    outer = 2.0 * math.pi * (w ** (2.0 - 2.0 * p) / (2.0 * p - 2.0)
                             + (rho - 1.0) * w ** (1.0 - 2.0 * p) / (2.0 * p - 1.0))
    return inner + outer
