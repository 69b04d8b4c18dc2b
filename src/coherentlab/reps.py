"""Projective representations and their matrix coefficients.

Two concrete models: the finite Weyl-Heisenberg family on C^N indexed by
Z_N x Z_N (translation then modulation), and the time-frequency family on
L^2(R) indexed by R^2 with the unit Gaussian window.  The Gaussian's
ambiguity function |V_g g| is the radial profile exp(-pi |x|^2 / 2), whose
closed forms feed the matrix coefficients, maximal functions, weighted norms,
and formal-degree estimates.  radial_profile is the one place that checks the
window: on the time-frequency kind anything but the Gaussian raises
ValueError.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import groups
from .groups import Ball, GroupModel, PeriodicMetric
from .quadrature import QuadratureError, gauss_profile_mass_outside, refine_trapezoid

FINITE_WEYL_HEISENBERG = "finite_weyl_heisenberg"
TIME_FREQUENCY = "time_frequency"

GAUSSIAN_WINDOW = "gaussian_unit_norm"

# peak slope of exp(-pi r^2 / 2): a grid sup of the Gaussian field plus this
# constant times the grid's half-diagonal bounds the true sup
GAUSSIAN_AMBIGUITY_LIPSCHITZ = math.sqrt(math.pi) * math.exp(-0.5)


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


def matrix_coefficient(rep: RepModel, f, g, x: tuple) -> complex:
    """V_g f(x) = <f, pi(x) g>.

    Finite kind: an exact inner product.  Time-frequency kind: f and g must be
    the Gaussian window, whose ambiguity function has a closed form.
    """
    if rep.kind == FINITE_WEYL_HEISENBERG:
        return inner(np.asarray(f, dtype=complex), apply_rep(rep, x, np.asarray(g, dtype=complex)))
    radial_profile(rep, f)  # each raises unless its window is the Gaussian
    radial_profile(rep, g)
    return gaussian_ambiguity(float(x[0]), float(x[1]))


# -- Radial profiles ------------------------------------------------------------------


class RadialProfile:
    """|V_g g|(x) = profile(|x|) = exp(-pi |x|^2 / 2) for the unit Gaussian g,
    with closed-form masses and tails.

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
        """Integral of maximal_sq(|x|, rho) over |x| >= d in R^2, in closed form."""
        return gauss_profile_mass_outside(rho, d)

    def weighted_tail(self, rho: float, alpha: float, tol: float) -> tuple:
        """(r_max, tail): tail bounds the integral of maximal_sq(|x|, rho)
        (1 + |x|)^alpha over |x| >= r_max and is below tol / 2."""
        r_max = rho + 4.0
        while True:
            # (1+r)^a * 2 pi r <= (1+R)^a * 2 pi R * exp(c (r-R)) beyond R
            c = max(alpha, 0.0) / (1.0 + r_max) + 1.0 / r_max
            gap = 2.0 * math.pi * (r_max - rho) - c
            if gap > 0:
                tail = (2.0 * math.pi * (1.0 + r_max) ** max(alpha, 0.0) * r_max
                        * math.exp(-math.pi * (r_max - rho) ** 2) / gap)
                if tail < tol / 2.0:
                    return r_max, tail
            r_max *= 2.0
            if r_max > 1e6:
                raise QuadratureError("gaussian tail failed to certify")


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


# -- Coefficient fields ---------------------------------------------------------------


@dataclass(eq=False)
class CoefficientField:
    """Evaluator bundle for x -> V_g f(x) with optional radial structure.

    ``radial_profile`` is set only when |F| is a nonincreasing function of the
    metric length, which makes local sups exact.
    """

    domain: GroupModel
    evaluate: Callable[[tuple], complex]
    magnitude: Callable[[tuple], float]
    norms: tuple
    radial_profile: Callable[[float], float] | None = None


def coefficient_field(rep: RepModel, f=None, g=None) -> CoefficientField:
    """Field for V_g f; on the time-frequency kind f and g default to the
    Gaussian window, the only one it takes, so the field is radial."""
    if rep.kind == FINITE_WEYL_HEISENBERG:
        fv = np.asarray(f, dtype=complex)
        gv = np.asarray(g, dtype=complex)
        table = coefficient_table(rep, fv, gv)
        n = rep.n

        def ev(x, _t=table, _n=n):
            return complex(_t[x[0] % _n, x[1] % _n])

        return CoefficientField(
            domain=rep.group, evaluate=ev, magnitude=lambda x: abs(ev(x)),
            norms=(float(np.linalg.norm(fv)), float(np.linalg.norm(gv))))
    prof = radial_profile(rep, g)
    radial_profile(rep, f)  # raises unless f is the Gaussian too
    return CoefficientField(
        domain=rep.group, evaluate=lambda x: matrix_coefficient(rep, f, g, x),
        magnitude=lambda x: prof.profile(math.hypot(*x)), norms=(1.0, 1.0),
        radial_profile=prof.profile)


# -- Local maximal function ------------------------------------------------------------


def local_maximal(fld: CoefficientField, q: Ball, x: tuple) -> float:
    """M_Q F(x) = sup over z in Q of |F(x z)|.

    Exact for enumerated Q and for radially nonincreasing fields; a
    continuous field without a radial profile raises ValueError.
    """
    group = q.metric.group
    if q.center != group.identity():
        raise ValueError("Q must be centered at the identity")
    if q.points is not None:
        return max(fld.magnitude(group.multiply(x, z)) for z in q.points)
    if fld.radial_profile is None:
        raise ValueError("continuous maximal functions need a radial field")
    return fld.radial_profile(max(0.0, math.hypot(*x) - q.radius))


# -- Weighted maximal norms --------------------------------------------------------------


def _finite_maximal_table(rep: RepModel, g: np.ndarray, q: Ball) -> np.ndarray:
    table = np.abs(coefficient_table(rep, g, g))
    n = rep.n
    out = np.zeros_like(table)
    for (dk, dl) in q.points:
        out = np.maximum(out, np.roll(table, (-dk % n, -dl % n), axis=(0, 1)))
    return out


def weighted_maximal_norm(rep: RepModel, g, q: Ball, alpha: float,
                          tol: float = 1e-8) -> float:
    """Integral over the group of |M_Q V_g g|^2 (1 + |x|)^alpha.

    Finite kind: exact sum with word length.  The Gaussian reduces to a
    radial integral with a certified tail.
    """
    if alpha < 0:
        raise ValueError("weight exponent must be nonnegative")
    if q.center != q.metric.group.identity():
        raise ValueError("Q must be centered at the identity")
    if rep.kind == FINITE_WEYL_HEISENBERG:
        gv = np.asarray(g, dtype=complex)
        m = _finite_maximal_table(rep, gv, q)
        n = rep.n
        k = np.arange(n)
        wl = np.minimum(k, n - k)
        weight = (1.0 + wl[:, None] + wl[None, :]) ** alpha
        return float(np.sum(m * m * weight))
    rho = q.radius
    prof = radial_profile(rep, g)
    r_max, tail = prof.weighted_tail(rho, alpha, tol)

    def integrand(r):
        return prof.maximal_sq(r, rho) * (1.0 + r) ** alpha * 2.0 * math.pi * r

    val = refine_trapezoid(integrand, 0.0, rho, tol / 4.0)
    val += refine_trapezoid(integrand, rho, r_max, tol / 4.0)
    return val + tail


# -- Formal degree ---------------------------------------------------------------------


def estimate_formal_degree(rep: RepModel, g, truncation_radius: float,
                           tol: float = 1e-10) -> float:
    """||g||^4 / integral over B_R of |V_g g|^2; exact on the finite kind."""
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
    denom = refine_trapezoid(
        lambda r: prof.maximal_sq(r, 0.0) * 2.0 * math.pi * r, 0.0, truncation_radius, tol)
    return prof.norm_sq ** 2 / denom


# -- Decay envelopes ---------------------------------------------------------------------


def decay_envelope_check(rep: RepModel, g, metric: PeriodicMetric, c0: float,
                         exponent: float, sample_radius: float,
                         fld: CoefficientField | None = None,
                         n_radii: int = 400) -> dict:
    """Sample |V_g g| / ||g||^2 on shells against c0 (1 + |x|)^(-exponent).

    Reports the maximal ratio |V_g g(x)| (1+|x|)^exponent / (c0 ||g||^2); pass
    iff it stays <= 1.  Calling with c0 = 1 calibrates the envelope constant.
    """
    if c0 <= 0 or sample_radius <= 0:
        raise ValueError("c0 and sample_radius must be positive")
    if fld is None:
        fld = coefficient_field(rep, g, g)
    norm_sq = fld.norms[0] * fld.norms[1]
    worst = 0.0
    argmax = None
    count = 0
    if fld.domain.is_discrete:
        b = groups.ball(metric, None, sample_radius, closed=True)
        for p in b.points:
            ratio = fld.magnitude(p) * (1.0 + metric.length(p)) ** exponent / (c0 * norm_sq)
            count += 1
            if ratio > worst:
                worst, argmax = ratio, p
    elif fld.radial_profile is None:
        raise ValueError("continuous envelope checks need a radial field")
    else:
        radii = np.linspace(0.0, sample_radius, max(n_radii, 2) * 4)
        for r in radii:
            ratio = fld.radial_profile(float(r)) * (1.0 + r) ** exponent / (c0 * norm_sq)
            count += 1
            if ratio > worst:
                worst, argmax = float(ratio), (float(r), 0.0)
    return {"max_ratio": worst, "passed": worst <= 1.0 + 1e-12, "c0": c0,
            "exponent": exponent, "sample_radius": sample_radius,
            "samples": count, "argmax": argmax}


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


def hermite_gabor_coefficients(n_max: int, points: np.ndarray) -> np.ndarray:
    """Matrix C[n, j] = <h_n, pi(x_j, w_j) g> for the Gaussian window, closed form.

    C[n, z] = exp(-i pi x w) exp(-pi |z|^2 / 2) pi^(n/2) (x - i w)^n / sqrt(n!).
    Computed in log-magnitude/phase form so large n stays stable.
    """
    pts = np.asarray(points, dtype=float)
    x, w = pts[:, 0], pts[:, 1]
    rsq = x * x + w * w
    r = np.sqrt(rsq)
    theta = np.arctan2(-w, x)
    ns = np.arange(n_max + 1, dtype=float)
    lgam = np.array([math.lgamma(n + 1.0) for n in ns])
    logr = np.where(r > 0, np.log(np.maximum(r, 1e-300)), 0.0)
    logmag = (ns[:, None] * (0.5 * math.log(math.pi) + logr[None, :])
              - 0.5 * lgam[:, None] - math.pi * rsq[None, :] / 2.0)
    logmag = np.where((r[None, :] == 0) & (ns[:, None] > 0), -math.inf, logmag)
    phase = -math.pi * x * w + ns[:, None] * theta[None, :]
    return np.exp(logmag) * np.exp(1j * phase)
