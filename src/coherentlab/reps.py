"""Projective representations and their matrix coefficients.

Two concrete models: the finite Weyl-Heisenberg family on C^N indexed by
Z_N x Z_N (translation then modulation), and the time-frequency family on
L^2(R) indexed by R^2 with the unit Gaussian window.  The finite kind's
coefficients come from coefficient_table; the Gaussian's ambiguity function
|V_g g| is the radial profile exp(-pi |x|^2 / 2).  RadialProfile holds all of
its closed forms: the local maximal function with its masses and certified
tails, and the level-set radius behind the cover constant; the formal degree
and the decay envelope read it.  radial_profile is the one place that checks
the window: on the time-frequency kind anything but the Gaussian raises
ValueError.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import groups
from .groups import Ball, GroupModel

FINITE_WEYL_HEISENBERG = "finite_weyl_heisenberg"
TIME_FREQUENCY = "time_frequency"

GAUSSIAN_WINDOW = "gaussian_unit_norm"


def inner(a: np.ndarray, b: np.ndarray) -> complex:
    """<a, b>, linear in the first slot."""
    return complex(np.sum(np.asarray(a) * np.conj(np.asarray(b))))


# -- Windows --------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Window:
    """Analyzing vector of the time-frequency kind, named by its model."""

    model: str


def gaussian_window() -> Window:
    return Window(model=GAUSSIAN_WINDOW)


# -- Representation models --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RepModel:
    """Projective representation model with its base group and formal degree."""

    kind: str
    group: GroupModel
    n: int = 0
    formal_degree: float = float("nan")


def finite_weyl_heisenberg(n: int) -> RepModel:
    return RepModel(kind=FINITE_WEYL_HEISENBERG, group=groups.finite_cyclic_sq(n),
                    n=n, formal_degree=1.0 / n)


def gabor_gaussian() -> RepModel:
    return RepModel(kind=TIME_FREQUENCY, group=groups.euclidean(2), formal_degree=1.0)


# -- Finite Weyl-Heisenberg machinery ----------------------------------------------


def rep_matrix(rep: RepModel, x: tuple) -> np.ndarray:
    """Unitary pi(k, l) on C^N: translate by k, then modulate by l."""
    if rep.kind != FINITE_WEYL_HEISENBERG:
        raise ValueError("rep_matrix is for the finite kind")
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


# -- Matrix coefficients ------------------------------------------------------------


def gaussian_ambiguity(x: float, w: float) -> complex:
    """<g, pi(x, w) g> for the unit-norm Gaussian window."""
    return cmath.exp(-1j * math.pi * x * w - math.pi * (x * x + w * w) / 2.0)


# -- Radial profiles ------------------------------------------------------------------


class RadialProfile:
    """|V_g g|(x) = profile(|x|) = exp(-pi |x|^2 / 2) for the unit Gaussian g,
    with closed-form masses, tails and level-set radius.

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


GAUSSIAN_PROFILE = RadialProfile()


def radial_profile(rep: RepModel, g=None) -> RadialProfile | None:
    """The radial profile of |V_g g|: None on the finite kind, GAUSSIAN_PROFILE
    on the time-frequency kind when g is None or the Gaussian window.

    Any other g on the time-frequency kind raises ValueError; every
    continuous estimator takes its window through this check.
    """
    if rep.kind == FINITE_WEYL_HEISENBERG:
        return None
    if g is None or (isinstance(g, Window) and g.model == GAUSSIAN_WINDOW):
        return GAUSSIAN_PROFILE
    model = g.model if isinstance(g, Window) else type(g).__name__
    raise ValueError(f"the time-frequency kind needs the Gaussian window; got {model}")


def norm_sq(rep: RepModel, g) -> float:
    """||g||^2: of the vector on the finite kind, else the Gaussian's profile(0)."""
    if rep.kind == FINITE_WEYL_HEISENBERG:
        return float(np.linalg.norm(np.asarray(g, dtype=complex))) ** 2
    return radial_profile(rep, g).norm_sq


# -- Local maximal function on the finite kind ---------------------------------


def _finite_maximal_table(rep: RepModel, g: np.ndarray, q: Ball) -> np.ndarray:
    table = np.abs(coefficient_table(rep, g, g))
    n = rep.n
    out = np.zeros_like(table)
    for (dk, dl) in q.points:
        out = np.maximum(out, np.roll(table, (-dk % n, -dl % n), axis=(0, 1)))
    return out


# -- Formal degree ---------------------------------------------------------------------


def estimate_formal_degree(rep: RepModel, g, truncation_radius: float) -> float:
    """||g||^4 / integral over B_R of |V_g g|^2: a sum over the word ball on
    the finite kind, the profile's closed-form masses on the Gaussian."""
    if truncation_radius <= 0:
        raise ValueError("truncation radius must be positive")
    if rep.kind == FINITE_WEYL_HEISENBERG:
        gv = np.asarray(g, dtype=complex)
        nrm = float(np.linalg.norm(gv))
        if nrm == 0.0:
            raise ValueError("zero window")
        table = np.abs(coefficient_table(rep, gv, gv)) ** 2
        n = rep.n
        k = np.arange(n)
        wl = np.minimum(k, n - k)
        mask = (wl[:, None] + wl[None, :]) <= truncation_radius
        denom = float(np.sum(table[mask]))
        return nrm ** 4 / denom
    prof = radial_profile(rep, g)
    denom = prof.mass_outside(0.0, 0.0) - prof.mass_outside(0.0, truncation_radius)
    return prof.norm_sq ** 2 / denom


# -- Decay envelopes ---------------------------------------------------------------------


def decay_envelope_check(rep: RepModel, g, c0: float, exponent: float,
                         sample_radius: float) -> dict:
    """Sample the Gaussian's |V_g g| / ||g||^2 on 1600 radii against
    c0 (1 + |x|)^(-exponent).

    Reports the maximal ratio |V_g g(x)| (1+|x|)^exponent / (c0 ||g||^2); pass
    iff it stays <= 1.  Calling with c0 = 1 calibrates the envelope constant.
    The finite kind has no radial profile and raises ValueError.
    """
    if c0 <= 0 or sample_radius <= 0:
        raise ValueError("c0 and sample_radius must be positive")
    prof = radial_profile(rep, g)
    if prof is None:
        raise ValueError("decay envelope checks need the time-frequency kind")
    norm_sq = prof.norm_sq
    worst = 0.0
    argmax = None
    radii = np.linspace(0.0, sample_radius, 1600)
    for r in radii:
        ratio = prof.profile(float(r)) * (1.0 + r) ** exponent / (c0 * norm_sq)
        if ratio > worst:
            worst, argmax = float(ratio), (float(r), 0.0)
    return {"max_ratio": worst, "passed": worst <= 1.0 + 1e-12, "c0": c0,
            "exponent": exponent, "sample_radius": sample_radius,
            "samples": len(radii), "argmax": argmax}


# -- Orthogonality relations ---------------------------------------------------------------


def verify_orthogonality(rep: RepModel, trials: int = 20, tol: float = 1e-10,
                         seed: int = 0) -> dict:
    """Check sum_x <f1, pi(x) g1> conj(<f2, pi(x) g2>) = N <f1, f2> conj(<g1, g2>).

    Random quadruples on the finite kind; the full group sum is exact, so the
    deviation is pure floating-point noise.
    """
    if rep.kind != FINITE_WEYL_HEISENBERG:
        raise ValueError("orthogonality verification runs on the finite kind")
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
