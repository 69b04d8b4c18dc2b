"""Reference implementations that the tests compare the package against.

None of these runs in an experiment: each is an independent route to a
quantity the package computes another way, or a lemma no report reads.
"""

import math

import numpy as np

from coherentlab import groups, reps


def mc_error_integral(q: groups.Ball, k: groups.Ball, kind: str = "I",
                      n_samples: int = 10 ** 6, seed: int = 0) -> tuple:
    """Monte Carlo estimate (value, stderr) of I_n or J_n.

    Independent of the lens-area reduction: draws the difference variable from
    the radial profile density and a uniform center, then averages the region
    indicator.

    The radius of the difference variable is drawn by inverting the
    closed-form survival function mass_outside(rho, u) / total on a linear
    grid over [0, rho + 12]; beyond it the Gaussian survival is about
    e^(-144 pi).
    """
    prof = reps.GAUSSIAN_PROFILE
    rho, r = q.radius, k.radius
    total_mass = prof.mass_outside(rho, 0.0)
    grid = np.linspace(0.0, rho + 12.0, 20_001)
    cdf = 1.0 - np.array([prof.mass_outside(rho, float(u)) for u in grid]) / total_mass
    rng = np.random.default_rng(seed)
    vals = np.empty(n_samples)
    done = 0
    area = math.pi * r * r if kind == "I" else math.pi * (r + rho) ** 2
    while done < n_samples:
        m = min(500_000, n_samples - done)
        u = np.interp(rng.random(m), cdf, grid)
        phi = rng.random(m) * 2.0 * math.pi
        wx, wy = u * np.cos(phi), u * np.sin(phi)
        rad = (r if kind == "I" else r + rho) * np.sqrt(rng.random(m))
        ang = rng.random(m) * 2.0 * math.pi
        yx, yy = rad * np.cos(ang), rad * np.sin(ang)
        shifted = np.hypot(yx + wx, yy + wy)
        ind = shifted > (r - rho) if kind == "I" else shifted > r
        vals[done: done + m] = ind.astype(float)
        done += m
    mean = float(np.mean(vals))
    std = float(np.std(vals, ddof=1)) / math.sqrt(n_samples)
    return area * total_mass * mean, area * total_mass * std


def dimension_lemma_check(rep: reps.RepModel, g, basis) -> dict:
    """Sum over the group of ||P_V pi(x) g||^2 against N ||g||^2 dim V on the
    finite model."""
    gv = np.asarray(g, dtype=complex)
    vecs = [np.asarray(v, dtype=complex) for v in basis]
    dim = len(vecs)
    if dim:
        vmat = np.column_stack(vecs)
        dev = float(np.max(np.abs(vmat.conj().T @ vmat - np.eye(dim))))
        if dev > 1e-10:
            raise ValueError(f"basis is not orthonormal (deviation {dev:.3g})")
    lhs = sum(float(np.sum(np.abs(reps.coefficient_table(rep, v, gv)) ** 2))
              for v in vecs)
    rhs = rep.n * float(np.linalg.norm(gv)) ** 2 * dim
    return {"lhs": lhs, "rhs": rhs, "dim": dim, "n": rep.n,
            "deviation": abs(lhs - rhs),
            "passed": abs(lhs - rhs) <= 1e-8 * max(1.0, rhs)}


def hermite_functions(n_max: int, t: np.ndarray) -> np.ndarray:
    """Rows 0..n_max of the L^2(R)-orthonormal Hermite family whose ground
    state is the unit Gaussian 2^(1/4) exp(-pi t^2)."""
    t = np.asarray(t, dtype=float)
    x = t * math.sqrt(2.0 * math.pi)
    out = np.zeros((n_max + 1, len(t)))
    out[0] = math.pi ** -0.25 * np.exp(-x * x / 2.0)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for n in range(1, n_max):
        out[n + 1] = (math.sqrt(2.0 / (n + 1)) * x * out[n]
                      - math.sqrt(n / (n + 1.0)) * out[n - 1])
    return (2.0 * math.pi) ** 0.25 * out
