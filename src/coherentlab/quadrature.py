"""Deterministic quadrature for the counting code's error integrals.

refine_rows is a trapezoid rule with Richardson halving applied after a
cosine change of variables, over many rows at once; the substitution clusters
nodes at the endpoints, so the inverse-trig kinks of disk-overlap integrands
stay cheap.  lens_area gives those integrands their disk-intersection areas,
with both arccosines of a call from one np.arccos.  Where numpy dispatches
arccos to AVX-512 code an angle may differ from libm's acos by 1 ulp, so the
error integrals may differ between machines in their last bits, and, rarely,
so may the 12th significant digit that the reports print.  The shipped
golden reports are checked with that dispatch both on and off.
Nothing here is Gaussian: the profile's closed forms live on
reps.RadialProfile.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np


class QuadratureError(RuntimeError):
    """Raised when refinement fails to meet the requested tolerance."""


def refine_rows(fn: Callable[[np.ndarray, np.ndarray], np.ndarray], a, b,
                tol: float = 1e-8, max_doublings: int = 22,
                min_doublings: int = 4) -> np.ndarray:
    """Integrate one function per row over [a_i, b_i] by trapezoid halving
    with Richardson acceptance, all rows in one loop.

    fn(u, rows) gets the (len(rows), nodes) nodes of the rows still refining,
    rows indexing a and b, and returns their values.  Only each row's running
    sums are kept; a row is done when two successive extrapolated values
    agree to tol, and its result is the one a refinement of that row alone
    gives, to the bit.  A row with b_i <= a_i integrates to 0.  Raises
    QuadratureError if a row is still refining after max_doublings.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.zeros(a.shape)
    rows = np.flatnonzero(~(b <= a))  # a NaN bound refines, and fails to converge
    if not rows.size:
        return out
    a, width = a[rows], b[rows] - a[rows]

    def eval_at(v):
        u = a[:, None] + width[:, None] * (1.0 - np.cos(math.pi * v)) / 2.0
        du = (width * math.pi)[:, None] * np.sin(math.pi * v) / 2.0
        return np.asarray(fn(u, rows), dtype=float) * du

    def level_nodes(level):  # the 2^(L+2) new nodes (2j + 1)/2^(L+3) of level L >= 1
        n = 4 << level
        return (2 * np.arange(n) + 1) / (2 * n)

    # level 0 is k/8; no row stops before min_doublings, so the levels up to
    # it share one call of fn, each level a contiguous run of its columns
    first = max(0, min(min_doublings, max_doublings))
    vals = eval_at(np.concatenate([np.arange(9) / 8.0]
                                  + [level_nodes(level) for level in range(1, first + 1)]))
    # numpy reduces each row's contiguous run pairwise, as a lone refinement's
    # sum does, so the row sums stay bit-equal to it
    t_prev = np.trapezoid(vals[:, :9], dx=1.0 / 8, axis=1)
    r_prev, start = t_prev, 9
    for level in range(1, max_doublings + 1):
        n = 4 << level
        if level > first:
            vals, start = eval_at(level_nodes(level)), 0
        t_cur = t_prev / 2.0 + vals[:, start:start + n].sum(axis=1) / (2 * n)
        start += n
        r_cur = t_cur + (t_cur - t_prev) / 3.0
        if level >= min_doublings:
            done = np.abs(r_cur - r_prev) < tol
            if done.any():
                out[rows[done]] = r_cur[done]
                keep = ~done
                if not keep.any():
                    return out
                rows, a, width = rows[keep], a[keep], width[keep]
                t_cur, r_cur = t_cur[keep], r_cur[keep]
        t_prev, r_prev = t_cur, r_cur
    raise QuadratureError(f"no convergence to tol={tol} after {max_doublings} doublings")


# -- Disk geometry --------------------------------------------------------------


def lens_area(r1, r2, d):
    """Area of the intersection of two disks with radii r1, r2 at center
    distance d.  Arrays broadcast against each other (one radius pair per
    distance, say) and give an array of areas; all scalars give a float."""
    r1, r2, d = np.broadcast_arrays(np.asarray(r1, dtype=float),
                                    np.asarray(r2, dtype=float),
                                    np.asarray(d, dtype=float))
    out = np.zeros(d.shape)
    both = (r1 > 0.0) & (r2 > 0.0)
    gap = np.abs(r1 - r2)
    inside = both & (d <= gap)
    rm = np.minimum(r1[inside], r2[inside])
    out[inside] = math.pi * rm * rm
    part = both & (d > gap) & (d < r1 + r2)
    dp, p1, p2 = d[part], r1[part], r2[part]
    dsq = dp * dp
    cosines = np.concatenate([(dsq + p1 * p1 - p2 * p2) / (2.0 * dp * p1),
                              (dsq + p2 * p2 - p1 * p1) / (2.0 * dp * p2)])
    angles = np.arccos(np.minimum(np.maximum(cosines, -1.0), 1.0))
    a1, a2 = angles[:dp.size], angles[dp.size:]
    sq = (-dp + p1 + p2) * (dp + p1 - p2) * (dp - p1 + p2) * (dp + p1 + p2)
    out[part] = p1 * p1 * a1 + p2 * p2 * a2 - 0.5 * np.sqrt(np.maximum(sq, 0.0))
    return out if out.ndim else float(out)
