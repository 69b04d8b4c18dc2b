"""Projective representations and their matrix coefficients.

Two concrete models: the finite Weyl-Heisenberg family on C^N indexed by
Z_N x Z_N (translation then modulation), which RepModel describes, and the
time-frequency family on L^2(R) indexed by R^2 with the unit Gaussian window.
The finite model's coefficients come from coefficient_table, and its
functions take the model and a window vector.  The Gaussian's ambiguity
function |V_g g| is the radial profile exp(-pi |x|^2 / 2), and
GAUSSIAN_PROFILE holds all of its closed forms: the local maximal function
with its masses and certified tails, the level-set radius behind the cover
constant, the formal degree, and the decay-envelope constant C0.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import groups
from .groups import GroupModel


def inner(a: np.ndarray, b: np.ndarray) -> complex:
    """<a, b>, linear in the first slot."""
    return complex(np.sum(np.asarray(a) * np.conj(np.asarray(b))))


# -- The finite Weyl-Heisenberg model ----------------------------------------------


@dataclass(frozen=True, eq=False)
class RepModel:
    """The finite Weyl-Heisenberg model on C^N: its base group Z_N x Z_N and
    its formal degree 1 / N."""

    group: GroupModel
    n: int
    formal_degree: float


def finite_weyl_heisenberg(n: int) -> RepModel:
    return RepModel(group=groups.finite_cyclic_sq(n), n=n, formal_degree=1.0 / n)


def rep_matrix(rep: RepModel, x: tuple) -> np.ndarray:
    """Unitary pi(k, l) on C^N: translate by k, then modulate by l."""
    n = rep.n
    k, l = x[0] % n, x[1] % n
    phase = np.exp(2j * math.pi * l * np.arange(n) / n)
    mat = np.zeros((n, n), dtype=complex)
    mat[np.arange(n), (np.arange(n) - k) % n] = 1.0
    return phase[:, None] * mat


def apply_rep(rep: RepModel, x: tuple, f: np.ndarray) -> np.ndarray:
    n = rep.n
    k, l = x[0] % n, x[1] % n
    shifted = np.roll(np.asarray(f, dtype=complex), k)
    return np.exp(2j * math.pi * l * np.arange(n) / n) * shifted


def cocycle_value(rep: RepModel, x: tuple, y: tuple) -> complex:
    """sigma(x, y) with pi(x) pi(y) = sigma(x, y) pi(xy)."""
    n = rep.n
    return cmath.exp(-2j * math.pi * (x[0] % n) * (y[1] % n) / n)


def verify_cocycle_identity(rep: RepModel) -> dict:
    """Exhaustive check of the projective law; quadratic in the group order."""
    if rep.n > 16:
        raise ValueError("exhaustive cocycle check is limited to N <= 16")
    els = rep.group.elements()
    mats = np.stack([rep_matrix(rep, x) for x in els])
    index = {x: i for i, x in enumerate(els)}
    worst = 0.0
    for i, x in enumerate(els):
        prod = np.einsum("ij,njk->nik", mats[i], mats)
        for j, y in enumerate(els):
            xy = rep.group.multiply(x, y)
            expected = cocycle_value(rep, x, y) * mats[index[xy]]
            worst = max(worst, float(np.max(np.abs(prod[j] - expected))))
    return {"n": rep.n, "max_deviation": worst, "passed": worst <= 1e-12}


def coefficient_table(rep: RepModel, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """V[k, l] = <f, pi(k, l) g> for all of Z_N x Z_N, via one FFT per shift."""
    n = rep.n
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    table = np.empty((n, n), dtype=complex)
    for k in range(n):
        c = f * np.conj(np.roll(g, k))
        table[k, :] = np.fft.fft(c)
    return table


def estimate_formal_degree(rep: RepModel, g: np.ndarray, truncation_radius: float) -> float:
    """||g||^4 / the sum of |V_g g|^2 over the word ball of this radius."""
    if truncation_radius <= 0:
        raise ValueError("truncation radius must be positive")
    gv = np.asarray(g, dtype=complex)
    nrm = float(np.linalg.norm(gv))
    if nrm == 0.0:
        raise ValueError("zero window")
    table = np.abs(coefficient_table(rep, gv, gv)) ** 2
    n = rep.n
    k = np.arange(n)
    wl = np.minimum(k, n - k)
    mask = (wl[:, None] + wl[None, :]) <= truncation_radius
    return nrm ** 4 / float(np.sum(table[mask]))


def verify_orthogonality(rep: RepModel, trials: int = 20, tol: float = 1e-10,
                         seed: int = 0) -> dict:
    """Check sum_x <f1, pi(x) g1> conj(<f2, pi(x) g2>) = N <f1, f2> conj(<g1, g2>).

    Random quadruples; the full group sum is exact, so the deviation is pure
    floating-point noise.
    """
    rng = np.random.default_rng(seed)
    n = rep.n
    worst = 0.0
    for _ in range(trials):
        f1, f2, g1, g2 = (rng.standard_normal(n) + 1j * rng.standard_normal(n)
                          for _ in range(4))
        lhs = complex(np.sum(coefficient_table(rep, f1, g1)
                             * np.conj(coefficient_table(rep, f2, g2))))
        rhs = n * inner(f1, f2) * np.conj(inner(g1, g2))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return {"n": n, "trials": trials, "tol": tol, "max_deviation": worst,
            "formal_degree": rep.formal_degree, "seed": seed, "passed": worst <= tol}


# -- The Gaussian window ---------------------------------------------------------------


def gaussian_ambiguity(x: float, w: float) -> complex:
    """<g, pi(x, w) g> for the unit-norm Gaussian window."""
    return cmath.exp(-1j * math.pi * x * w - math.pi * (x * x + w * w) / 2.0)


class RadialProfile:
    """|V_g g|(x) = profile(|x|) = exp(-pi |x|^2 / 2) for the unit Gaussian g,
    with closed-form masses, tails, level-set radius, formal degree and
    envelope constant.

    The profile is nonincreasing, so for Q of radius rho the local maximal
    function M_Q V_g g at distance u is the profile at max(0, u - rho).
    """

    norm_sq = 1.0  # ||g||^2, which equals profile(0)

    def profile(self, r: float) -> float:
        return math.exp(-math.pi * r * r / 2.0)

    def maximal_sq(self, u, rho: float):
        """(M_Q V_g g)^2 at the distances u (an array) for Q of radius rho."""
        return np.exp(-math.pi * np.maximum(0.0, u - rho) ** 2)

    def mass_outside(self, rho: float, d: float) -> float:
        """Integral of maximal_sq(|x|, rho) over |x| >= d in R^2, in closed
        form: the plateau pi (rho^2 - d^2) inside rho, then exp(-pi a^2) +
        2 pi rho int_a^inf exp(-pi v^2) dv with a = max(d, rho) - rho."""
        d = max(d, 0.0)
        inner = math.pi * (rho * rho - d * d) if d < rho else 0.0
        a = max(d, rho) - rho
        tail = 0.5 * math.erfc(a * math.sqrt(math.pi))
        return inner + (math.exp(-math.pi * a * a) + 2.0 * math.pi * rho * tail)

    @property
    def formal_degree(self) -> float:
        """d_pi = ||g||^4 / the whole-plane mass of |V_g g|^2, which is 1."""
        return self.norm_sq ** 2 / self.mass_outside(0.0, 0.0)

    @property
    def level_radius(self) -> float:
        """Radius of the level set U = {|V_g g| > ||g||^2 / 2}: the largest
        float u with profile(u) > norm_sq / 2, stepped float by float from
        the exact sqrt(2 ln 2 / pi)."""
        level = self.norm_sq / 2.0
        u = math.sqrt(2.0 * math.log(2.0) / math.pi)
        while self.profile(u) <= level:
            u = math.nextafter(u, 0.0)
        while self.profile(up := math.nextafter(u, math.inf)) > level:
            u = up
        return u

    def envelope_constant(self, exponent: float) -> tuple:
        """C0 = sup_r profile(r) (1 + r)^exponent / ||g||^2 and its argmax r*.

        The log of the product is concave with its zero of slope where
        pi r (1 + r) = exponent, at r* = (sqrt(1 + 4 exponent / pi) - 1) / 2.
        The float value is raised by twice a bound on its rounding error (an
        ulp of exp, a few of its argument) and then by one ulp, so C0 is never
        below the supremum.
        """
        r = (math.sqrt(1.0 + 4.0 * exponent / math.pi) - 1.0) / 2.0
        decay, growth = math.pi * r * r / 2.0, exponent * math.log1p(r)
        c0 = math.exp(growth - decay) / self.norm_sq
        slack = 4.0 * sys.float_info.epsilon * (1.0 + decay + growth)
        return math.nextafter(c0 * (1.0 + slack), math.inf), r


GAUSSIAN_PROFILE = RadialProfile()


# -- Hermite tools (used by the truncated frame sections) -----------------------------------


def hermite_gabor_coefficients(n_max: int, points: np.ndarray) -> np.ndarray:
    """Matrix C[n, j] = <h_n, pi(x_j, w_j) g> for the Gaussian window, closed form.

    C[n, z] = exp(-i pi x w) exp(-pi |z|^2 / 2) pi^(n/2) (x - i w)^n / sqrt(n!),
    the Bargmann expansion of a time-frequency shift of g.  Row 0 is
    exp(-pi |z|^2 / 2 - i pi x w) and each row is its predecessor times
    sqrt(pi) (x - i w) / sqrt(n): one complex multiply per entry, rounding
    ~ n eps relative.  No entry overflows, since |C| <= 1.  Row 0 underflows
    past |z| ~ 21.2 (subnormal, then 0 past 21.8), and its column with it;
    there every true entry up to n = 512 is below 1e-83.
    """
    pts = np.asarray(points, dtype=float)
    x, w = pts[:, 0], pts[:, 1]
    out = np.empty((n_max + 1, len(pts)), dtype=complex)
    out[0] = np.exp(-math.pi * (x * x + w * w) / 2.0 - 1j * math.pi * x * w)
    step = math.sqrt(math.pi) * (x - 1j * w)
    scaled = np.empty_like(step)
    for n in range(1, n_max + 1):
        np.multiply(step, 1.0 / math.sqrt(n), out=scaled)
        np.multiply(out[n - 1], scaled, out=out[n])
    return out
